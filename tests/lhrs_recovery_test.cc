// LH*RS recovery tests: unavailability detection, bucket recovery at hot
// spares, degraded-mode record recovery, multi-failure k-availability and
// the data-loss boundary beyond k failures.

#include <bit>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "common/rng.h"
#include "lhrs/lhrs_file.h"
#include "lhrs/messages.h"
#include "lhrs/recovery.h"
#include "telemetry/metrics.h"

namespace lhrs {
namespace {

Bytes Val(const std::string& s) { return BytesFromString(s); }

LhrsFile::Options Opts(uint32_t m, uint32_t k, size_t capacity = 8) {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = capacity;
  opts.group_size = m;
  opts.policy.base_k = k;
  return opts;
}

/// Populates the file with `n` random keys and returns them.
std::vector<Key> Populate(LhrsFile& file, int n, uint64_t seed) {
  Rng rng(seed);
  std::set<Key> keys;
  while (keys.size() < static_cast<size_t>(n)) keys.insert(rng.Next64());
  std::vector<Key> out(keys.begin(), keys.end());
  for (Key k : out) {
    EXPECT_TRUE(file.Insert(k, Val("value-" + std::to_string(k))).ok());
  }
  return out;
}

void ExpectAllFindable(LhrsFile& file, const std::vector<Key>& keys) {
  for (Key k : keys) {
    auto got = file.Search(k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status();
    EXPECT_EQ(*got, Val("value-" + std::to_string(k)));
  }
}

TEST(LhrsRecoveryTest, SearchOnCrashedBucketIsServedAndBucketRecovered) {
  LhrsFile file(Opts(4, 1));
  std::vector<Key> keys = Populate(file, 120, 42);
  ASSERT_GT(file.bucket_count(), 4u);

  const BucketNo victim = 2;
  file.CrashDataBucket(victim);

  // Every key remains searchable: keys on the dead bucket are served by
  // degraded-mode record recovery, which also triggers bucket recovery.
  ExpectAllFindable(file, keys);
  EXPECT_GT(file.rs_coordinator().degraded_reads_served(), 0u);
  EXPECT_GE(file.rs_coordinator().recoveries_completed(), 1u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  EXPECT_EQ(file.rs_coordinator().groups_lost(), 0u);
}

TEST(LhrsRecoveryTest, ExplicitDetectionRecoversWholeBucket) {
  LhrsFile file(Opts(4, 1));
  std::vector<Key> keys = Populate(file, 150, 43);
  const BucketNo victim = 1;
  const size_t victim_records = file.rs_bucket(victim)->record_count();
  ASSERT_GT(victim_records, 0u);
  const NodeId dead = file.CrashDataBucket(victim);

  file.DetectAndRecover(dead);
  EXPECT_EQ(file.rs_coordinator().recoveries_completed(), 1u);
  // The recovered bucket lives at a different node with identical content.
  EXPECT_NE(file.context().allocation.Lookup(victim), dead);
  EXPECT_EQ(file.rs_bucket(victim)->record_count(), victim_records);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  ExpectAllFindable(file, keys);
}

TEST(LhrsRecoveryTest, RecoveredBucketPreservesRankBookkeeping) {
  LhrsFile file(Opts(4, 1, /*capacity=*/100));
  ASSERT_TRUE(file.Insert(0, Val("a")).ok());   // bucket 0, rank 1.
  ASSERT_TRUE(file.Insert(4, Val("b")).ok());   // bucket 0, rank 2.
  ASSERT_TRUE(file.Insert(8, Val("c")).ok());   // bucket 0, rank 3.
  ASSERT_TRUE(file.Delete(4).ok());             // Frees rank 2.
  const NodeId dead = file.CrashDataBucket(0);
  file.DetectAndRecover(dead);
  // Rank 2 must still be free and reused by the next insert.
  ASSERT_TRUE(file.Insert(12, Val("d")).ok());
  EXPECT_EQ(file.rs_bucket(0)->RankOf(12), 2u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(LhrsRecoveryTest, ParityBucketRecoveredFromDataColumns) {
  LhrsFile file(Opts(4, 2));
  std::vector<Key> keys = Populate(file, 100, 44);
  const size_t before = file.parity_bucket(0, 1)->parity_record_count();
  ASSERT_GT(before, 0u);
  const NodeId dead = file.CrashParityBucket(0, 1);
  file.DetectAndRecover(dead);
  EXPECT_NE(file.rs_coordinator().group_info(0).parity_nodes[1], dead);
  EXPECT_EQ(file.parity_bucket(0, 1)->parity_record_count(), before);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  ExpectAllFindable(file, keys);
}

TEST(LhrsRecoveryTest, InsertDuringParityOutageHealsViaReport) {
  LhrsFile file(Opts(4, 1, /*capacity=*/1000));
  ASSERT_TRUE(file.Insert(1, Val("value-1")).ok());
  file.CrashParityBucket(0, 0);
  // The insert succeeds (client-visible), the parity delta bounces, the
  // data bucket reports it, and the coordinator rebuilds the parity
  // bucket; afterwards everything is consistent again.
  ASSERT_TRUE(file.Insert(2, Val("value-2")).ok());
  file.network().RunUntilIdle();
  EXPECT_GE(file.rs_coordinator().recoveries_completed(), 1u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

class MultiFailureTest
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(MultiFailureTest, UpToKFailuresPerGroupAreRecovered) {
  const auto [m, k] = GetParam();
  LhrsFile file(Opts(m, k, /*capacity=*/10));
  std::vector<Key> keys = Populate(file, 200, 45 + m + k);
  ASSERT_GE(file.bucket_count(), m);

  // Kill k columns of group 0: alternate data and parity columns.
  uint32_t killed = 0;
  std::vector<NodeId> dead;
  for (uint32_t i = 0; i < k; ++i) {
    if (i % 2 == 0 && i / 2 < m && i / 2 < file.bucket_count()) {
      dead.push_back(file.CrashDataBucket(i / 2));
    } else {
      dead.push_back(file.CrashParityBucket(0, i / 2));
    }
    ++killed;
  }
  ASSERT_EQ(killed, k);
  for (NodeId n : dead) file.DetectAndRecover(n);
  EXPECT_EQ(file.rs_coordinator().groups_lost(), 0u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok())
      << "m=" << m << " k=" << k;
  ExpectAllFindable(file, keys);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MultiFailureTest,
    ::testing::Values(std::pair{4u, 1u}, std::pair{4u, 2u}, std::pair{4u, 3u},
                      std::pair{8u, 2u}, std::pair{2u, 2u}));

TEST(LhrsRecoveryTest, SimultaneousKDataFailuresInOneGroup) {
  LhrsFile file(Opts(4, 2, /*capacity=*/10));
  std::vector<Key> keys = Populate(file, 200, 50);
  ASSERT_GE(file.bucket_count(), 4u);
  const NodeId dead1 = file.CrashDataBucket(0);
  const NodeId dead2 = file.CrashDataBucket(1);
  (void)dead2;
  // One notification mentions one node; the planner discovers both.
  file.DetectAndRecover(dead1);
  EXPECT_EQ(file.rs_coordinator().groups_lost(), 0u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  ExpectAllFindable(file, keys);
}

/// (key, value) of every record of data bucket `b`, in key order.
std::vector<std::pair<Key, Bytes>> Contents(const LhrsFile& file,
                                            BucketNo b) {
  std::vector<std::pair<Key, Bytes>> out;
  file.bucket(b)->records().ForEachOrdered(
      [&](Key key, const BufferView& value) {
        out.emplace_back(key, Bytes(value.begin(), value.end()));
      });
  return out;
}

// A chaos duplicate delivers one message body twice. Every column dump and
// every parity install is duplicated here, through a k=2 recovery of two
// data columns, one of a data and a parity column, and a repairing scrub:
// the rebuilt records must equal their pre-crash bytes and the parity
// invariants must hold.
TEST(LhrsRecoveryTest, DuplicatedColumnDumpsAndParityInstallsAreHarmless) {
  LhrsFile file(Opts(4, 2, /*capacity=*/10));
  std::vector<Key> keys = Populate(file, 200, 52);
  ASSERT_GE(file.bucket_count(), 4u);
  std::vector<std::vector<std::pair<Key, Bytes>>> before;
  for (BucketNo b = 0; b < 3; ++b) before.push_back(Contents(file, b));

  chaos::FaultPlan plan;
  plan.seed = 9;
  for (int kind : {LhrsMsg::kColumnReadReply, LhrsMsg::kInstallParityColumn}) {
    chaos::MessageFaultRule rule;
    rule.kind = chaos::FaultKind::kDuplicate;
    rule.kind_min = kind;
    rule.kind_max = kind;
    plan.AddRule(rule);
  }
  const chaos::ChaosEngine& chaos = file.AttachChaos(std::move(plan));

  // Two data columns: a double erasure decoded through the RS column.
  const NodeId dead = file.CrashDataBucket(0);
  file.CrashDataBucket(1);
  file.DetectAndRecover(dead);
  const uint64_t after_data = chaos.injected(chaos::FaultKind::kDuplicate);
  EXPECT_GT(after_data, 0u);
  // A data column and a parity column: the parity install is duplicated.
  file.CrashParityBucket(0, 1);
  file.DetectAndRecover(file.CrashDataBucket(2));
  const uint64_t after_mixed = chaos.injected(chaos::FaultKind::kDuplicate);
  EXPECT_GT(after_mixed, after_data);
  EXPECT_EQ(file.rs_coordinator().groups_lost(), 0u);
  for (BucketNo b = 0; b < 3; ++b) {
    EXPECT_EQ(Contents(file, b), before[b]) << "bucket " << b;
  }
  EXPECT_TRUE(file.VerifyParityInvariants().ok());

  // A repairing scrub: its dumps and its parity reinstall are duplicated.
  ASSERT_TRUE(file.parity_bucket(0, 0)->FlipParityByteForTest(1, 0, 0x5a));
  const auto report = file.Scrub(/*repair=*/true);
  EXPECT_GE(report.mismatched_parity_records, 1u);
  EXPECT_GE(report.parity_columns_repaired, 1u);
  EXPECT_GT(chaos.injected(chaos::FaultKind::kDuplicate), after_mixed);
  file.DetachChaos();
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  EXPECT_EQ(file.Scrub().mismatched_parity_records, 0u);
  ExpectAllFindable(file, keys);
}

/// Crashes one column of group 0 (a data bucket, or parity 0 when
/// `parity` is set), reports it, runs the network until the column has a
/// spare, and then submits an update of every group-0 key, so the updates
/// reach the spare before its install and wait there. They go out on a
/// fresh session, whose empty address cache resolves a crashed data bucket
/// to its spare. Chaos duplicates every install of the crashed column's
/// kind. Returns the keys it updated.
std::vector<Key> UpdateGroupDuringDuplicatedInstall(LhrsFile& file,
                                                    bool parity,
                                                    uint64_t seed) {
  chaos::FaultPlan plan;
  plan.seed = seed;
  chaos::MessageFaultRule rule;
  rule.kind = chaos::FaultKind::kDuplicate;
  rule.kind_min = rule.kind_max = parity ? LhrsMsg::kInstallParityColumn
                                         : LhrsMsg::kInstallDataColumn;
  plan.AddRule(rule);
  const chaos::ChaosEngine& chaos = file.AttachChaos(std::move(plan));
  std::vector<Key> updated;
  for (BucketNo b = 0; b < 4; ++b) {
    file.rs_bucket(b)->records().ForEachOrdered(
        [&](Key key, const BufferView&) { updated.push_back(key); });
  }
  const NodeId dead =
      parity ? file.CrashParityBucket(0, 0) : file.CrashDataBucket(0);
  file.rs_coordinator().NotifyUnavailable(dead);
  auto column_node = [&] {
    return parity ? file.rs_coordinator().group_info(0).parity_nodes[0]
                  : file.context().allocation.Lookup(0);
  };
  while (column_node() == dead) EXPECT_TRUE(file.network().Step());

  const FileState& state = file.coordinator().state();
  std::vector<sdds::OpToken> tokens;
  const size_t session = file.AddSession();
  for (Key key : updated) {
    EXPECT_LT(state.Address(key), 4u);
    tokens.push_back(file.Submit(session, OpType::kUpdate, key,
                                 Val("new-" + std::to_string(key))));
  }
  file.network().RunUntilIdle();
  EXPECT_GT(chaos.injected(chaos::FaultKind::kDuplicate), 0u);
  file.DetachChaos();
  for (sdds::OpToken token : tokens) {
    auto out = file.Take(token);
    EXPECT_TRUE(out.ok() && out->status.ok());
  }
  return updated;
}

TEST(LhrsRecoveryTest, DuplicatedParityInstallKeepsUpdatesQueuedAtTheSpare) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    LhrsFile file(Opts(4, 1, /*capacity=*/10));
    Populate(file, 100, seed);
    ASSERT_GE(file.bucket_count(), 4u);
    const std::vector<Key> updated =
        UpdateGroupDuringDuplicatedInstall(file, /*parity=*/true, seed);
    ASSERT_FALSE(updated.empty());
    EXPECT_EQ(file.rs_coordinator().recoveries_completed(), 1u);
    EXPECT_TRUE(file.VerifyParityInvariants().ok()) << "seed " << seed;
    for (Key key : updated) {
      auto got = file.Search(key);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, Val("new-" + std::to_string(key)));
    }
  }
}

TEST(LhrsRecoveryTest, DuplicatedDataInstallKeepsUpdatesParkedForTheSpare) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    LhrsFile file(Opts(4, 1, /*capacity=*/10));
    Populate(file, 100, seed);
    ASSERT_GE(file.bucket_count(), 4u);
    const std::vector<Key> updated =
        UpdateGroupDuringDuplicatedInstall(file, /*parity=*/false, seed);
    ASSERT_FALSE(updated.empty());
    EXPECT_EQ(file.rs_coordinator().recoveries_completed(), 1u);
    EXPECT_TRUE(file.VerifyParityInvariants().ok()) << "seed " << seed;
    for (Key key : updated) {
      auto got = file.Search(key);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, Val("new-" + std::to_string(key)));
    }
  }
}

TEST(LhrsRecoveryTest, MoreThanKFailuresLosesGroupLoudly) {
  LhrsFile file(Opts(4, 1, /*capacity=*/10));
  std::vector<Key> keys = Populate(file, 150, 51);
  ASSERT_GE(file.bucket_count(), 4u);
  const NodeId dead1 = file.CrashDataBucket(0);
  file.CrashDataBucket(1);  // Second failure in the same group: > k = 1.
  file.DetectAndRecover(dead1);
  EXPECT_EQ(file.rs_coordinator().groups_lost(), 1u);
  // Ops touching the lost group fail with kDataLoss, not silently.
  const FileState& state = file.coordinator().state();
  bool saw_data_loss = false;
  for (Key k : keys) {
    auto got = file.Search(k);
    const BucketNo a = state.Address(k);
    if (a / 4 == 0) {
      if (a == 0 || a == 1) {
        EXPECT_TRUE(got.status().IsDataLoss()) << got.status();
        saw_data_loss = true;
      }
    } else {
      EXPECT_TRUE(got.ok()) << got.status();
    }
  }
  EXPECT_TRUE(saw_data_loss);
}

TEST(LhrsRecoveryTest, DegradedReadsWithoutAutoRecovery) {
  LhrsFile::Options opts = Opts(4, 2, /*capacity=*/10);
  opts.auto_recover = false;
  LhrsFile file(opts);
  std::vector<Key> keys = Populate(file, 150, 52);
  ASSERT_GE(file.bucket_count(), 4u);
  file.CrashDataBucket(2);
  const FileState& state = file.coordinator().state();
  // Searches on the dead bucket succeed via record recovery; the bucket
  // itself stays down (no recovery ran).
  for (Key k : keys) {
    auto got = file.Search(k);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, Val("value-" + std::to_string(k)));
    (void)state;
  }
  EXPECT_EQ(file.rs_coordinator().recoveries_completed(), 0u);
  EXPECT_GT(file.rs_coordinator().degraded_reads_served(), 0u);
}

TEST(LhrsRecoveryTest, DegradedSearchForAbsentKeyIsNotFound) {
  LhrsFile::Options opts = Opts(4, 1, /*capacity=*/1000);
  opts.auto_recover = false;
  LhrsFile file(opts);
  ASSERT_TRUE(file.Insert(0, Val("x")).ok());
  file.CrashDataBucket(0);
  // Key 4 would live in bucket 0 but was never inserted: the degraded
  // search must answer NotFound (from the parity file), not block.
  auto got = file.Search(4);
  EXPECT_TRUE(got.status().IsNotFound()) << got.status();
}

TEST(LhrsRecoveryTest, WritesDuringOutageAreParkedAndApplied) {
  LhrsFile file(Opts(4, 1, /*capacity=*/1000));
  ASSERT_TRUE(file.Insert(0, Val("value-0")).ok());
  file.CrashDataBucket(0);
  // Insert to the dead bucket: completes after the transparent recovery.
  ASSERT_TRUE(file.Insert(4, Val("value-4")).ok());
  EXPECT_GE(file.rs_coordinator().recoveries_completed(), 1u);
  auto got = file.Search(4);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Val("value-4"));
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(LhrsRecoveryTest, UpdateAndDeleteDuringOutage) {
  LhrsFile file(Opts(4, 2, /*capacity=*/1000));
  ASSERT_TRUE(file.Insert(0, Val("value-0")).ok());
  ASSERT_TRUE(file.Insert(4, Val("value-4")).ok());
  file.CrashDataBucket(0);
  ASSERT_TRUE(file.Update(0, Val("fresh")).ok());
  ASSERT_TRUE(file.Delete(4).ok());
  auto got = file.Search(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Val("fresh"));
  EXPECT_TRUE(file.Search(4).status().IsNotFound());
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(LhrsRecoveryTest, RestoredNodeStandsDownAsSpare) {
  LhrsFile file(Opts(4, 1));
  std::vector<Key> keys = Populate(file, 120, 53);
  const NodeId old_node = file.CrashDataBucket(0);
  file.DetectAndRecover(old_node);
  // The original server comes back from its transient outage, self-checks
  // and learns it was replaced (section 2.5.4).
  file.RestoreNode(old_node);
  auto* old_bucket = file.network().node_as<DataBucketNode>(old_node);
  EXPECT_TRUE(old_bucket->decommissioned());
  EXPECT_EQ(old_bucket->record_count(), 0u);
  ExpectAllFindable(file, keys);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(LhrsRecoveryTest, RestoredNodeKeepsServingIfNotReplaced) {
  LhrsFile::Options opts = Opts(4, 1);
  opts.auto_recover = false;
  LhrsFile file(opts);
  std::vector<Key> keys = Populate(file, 100, 54);
  const NodeId node = file.CrashDataBucket(1);
  // Nobody noticed the outage; the node restarts with intact data.
  file.RestoreNode(node);
  auto* bucket = file.network().node_as<DataBucketNode>(node);
  EXPECT_FALSE(bucket->decommissioned());
  ExpectAllFindable(file, keys);
}

TEST(LhrsRecoveryTest, StaleClientCacheAfterDisplacementHeals) {
  LhrsFile file(Opts(4, 1));
  std::vector<Key> keys = Populate(file, 120, 55);
  // The default client has cached addresses. Crash + recover bucket 0:
  // the cache now points at the decommissioned node.
  const NodeId old_node = file.CrashDataBucket(0);
  file.DetectAndRecover(old_node);
  file.RestoreNode(old_node);  // Alive again, but a spare now.
  // Ops via the stale cache must transparently reach the new bucket
  // (section 2.8 cases ii/iii) and correct the client.
  ExpectAllFindable(file, keys);
  ExpectAllFindable(file, keys);  // Second pass: cache healed, no bounce.
}

TEST(LhrsRecoveryTest, ScanSucceedsAfterRecovery) {
  LhrsFile file(Opts(4, 1));
  std::vector<Key> keys = Populate(file, 130, 56);
  const NodeId dead = file.CrashDataBucket(2);
  auto blocked = file.Scan();
  EXPECT_TRUE(blocked.status().IsUnavailable());
  file.DetectAndRecover(dead);
  auto scan = file.Scan();
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->size(), keys.size());
}

TEST(LhrsRecoveryTest, RecoveryOfPartialLastGroup) {
  // Grow the file so its last group has fewer than m buckets, then crash
  // a bucket in that partial group: the non-existing slots are known-zero
  // columns and recovery must still work.
  LhrsFile file(Opts(4, 1, /*capacity=*/10));
  std::vector<Key> keys = Populate(file, 180, 57);
  const BucketNo buckets = file.bucket_count();
  ASSERT_NE(buckets % 4, 0u) << "test needs a partial last group";
  const BucketNo victim = buckets - 1;  // In the partial group.
  const NodeId dead = file.CrashDataBucket(victim);
  file.DetectAndRecover(dead);
  EXPECT_EQ(file.rs_coordinator().groups_lost(), 0u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  ExpectAllFindable(file, keys);
}

TEST(LhrsRecoveryTest, FileKeepsScalingAfterRecovery) {
  LhrsFile file(Opts(4, 1, /*capacity=*/8));
  std::vector<Key> keys = Populate(file, 100, 58);
  const NodeId dead = file.CrashDataBucket(0);
  file.DetectAndRecover(dead);
  Rng rng(59);
  std::vector<Key> more;
  for (int i = 0; i < 200; ++i) {
    const Key k = rng.Next64();
    if (file.Insert(k, Val("value-" + std::to_string(k))).ok()) {
      more.push_back(k);
    }
  }
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  ExpectAllFindable(file, keys);
  ExpectAllFindable(file, more);
}

// ---------------------------------------------------------------------------
// Code-parameterized drills: the same failure scenarios run under the RS
// code, progressive RS, and the LRC code, and must yield identical
// client-visible contents. Geometry m = 4, k = 3 is valid for all of them
// (lrc2 splits the four slots into two local groups + one global parity),
// and every failure pattern used here is recoverable under the non-MDS
// LRC too.

class CodedRecoveryTest : public ::testing::TestWithParam<const char*> {
 protected:
  LhrsFile::Options CodedOpts(uint32_t m, uint32_t k, size_t capacity = 8) {
    LhrsFile::Options opts = Opts(m, k, capacity);
    auto spec = parity::CodeSpec::Parse(GetParam());
    EXPECT_TRUE(spec.ok()) << spec.status();
    if (spec.ok()) opts.code = *spec;
    return opts;
  }
};

TEST_P(CodedRecoveryTest, CrashedBucketRecoversIdenticalContents) {
  LhrsFile file(CodedOpts(4, 3));
  std::vector<Key> keys = Populate(file, 120, 61);
  ASSERT_GT(file.bucket_count(), 4u);
  EXPECT_EQ(file.code_name(), GetParam());

  const NodeId dead = file.CrashDataBucket(2);
  file.DetectAndRecover(dead);
  EXPECT_GE(file.rs_coordinator().recoveries_completed(), 1u);
  EXPECT_EQ(file.rs_coordinator().groups_lost(), 0u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  ExpectAllFindable(file, keys);
}

TEST_P(CodedRecoveryTest, ParityBucketRecoversFromDataColumns) {
  LhrsFile file(CodedOpts(4, 3));
  std::vector<Key> keys = Populate(file, 100, 62);
  const size_t before = file.parity_bucket(0, 2)->parity_record_count();
  ASSERT_GT(before, 0u);
  const NodeId dead = file.CrashParityBucket(0, 2);
  file.DetectAndRecover(dead);
  EXPECT_EQ(file.parity_bucket(0, 2)->parity_record_count(), before);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  ExpectAllFindable(file, keys);
}

TEST_P(CodedRecoveryTest, FailuresInDistinctLocalGroupsRecover) {
  // Data buckets 0 and 2 sit in different lrc2 local groups, so even the
  // locality-limited code repairs both (each from its own group).
  LhrsFile file(CodedOpts(4, 3, /*capacity=*/10));
  std::vector<Key> keys = Populate(file, 200, 63);
  ASSERT_GE(file.bucket_count(), 4u);
  const NodeId dead1 = file.CrashDataBucket(0);
  const NodeId dead2 = file.CrashDataBucket(2);
  file.DetectAndRecover(dead1);
  file.DetectAndRecover(dead2);
  EXPECT_EQ(file.rs_coordinator().groups_lost(), 0u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  ExpectAllFindable(file, keys);
}

TEST_P(CodedRecoveryTest, DegradedReadsServeIdenticalContents) {
  LhrsFile::Options opts = CodedOpts(4, 3, /*capacity=*/10);
  opts.auto_recover = false;
  LhrsFile file(opts);
  std::vector<Key> keys = Populate(file, 150, 64);
  ASSERT_GE(file.bucket_count(), 4u);
  file.CrashDataBucket(1);
  ExpectAllFindable(file, keys);
  EXPECT_EQ(file.rs_coordinator().recoveries_completed(), 0u);
  EXPECT_GT(file.rs_coordinator().degraded_reads_served(), 0u);
}

TEST_P(CodedRecoveryTest, WritesDuringOutageHealIdentically) {
  LhrsFile file(CodedOpts(4, 3, /*capacity=*/1000));
  ASSERT_TRUE(file.Insert(0, Val("value-0")).ok());
  ASSERT_TRUE(file.Insert(1, Val("value-1")).ok());
  file.CrashDataBucket(0);
  ASSERT_TRUE(file.Insert(4, Val("value-4")).ok());
  ASSERT_TRUE(file.Update(1, Val("fresh")).ok());
  EXPECT_GE(file.rs_coordinator().recoveries_completed(), 1u);
  auto got = file.Search(4);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, Val("value-4"));
  got = file.Search(1);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, Val("fresh"));
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Codes, CodedRecoveryTest,
                         ::testing::Values("rs", "rs+prog", "lrc2",
                                           "lrc2+prog"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '+') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// The degraded-read memo: the coordinator computes each erasure pattern's
// read set and decode plan once. Whether a search's decisions are computed
// (cold memo) or looked up (warm memo) must change nothing a client or the
// network sees: the value, the messages and the bytes moved.

struct MemoGeometry {
  const char* code;
  uint32_t m;
  uint32_t k;
};

// Without a printer gtest lists the parameter as its raw bytes, which hold
// the address of `code` and so change whenever the binary's layout does.
void PrintTo(const MemoGeometry& geo, std::ostream* os) {
  *os << geo.code << " m=" << geo.m << " k=" << geo.k;
}

/// What one search returned and what it cost.
struct MeasuredSearch {
  StatusCode code = StatusCode::kOk;
  Bytes value;
  uint64_t messages = 0;
  uint64_t bytes_moved = 0;
};

uint64_t DegradedBytesMoved(const LhrsFile& file) {
  const telemetry::Counter* moved =
      file.network().telemetry()->metrics().FindCounter(
          "degraded_read.bytes_moved");
  return moved == nullptr ? 0 : moved->value();
}

MeasuredSearch MeasureSearch(LhrsFile& file, Key key) {
  const uint64_t messages = file.network().stats().total_messages();
  const uint64_t moved = DegradedBytesMoved(file);
  auto got = file.Search(key);
  MeasuredSearch out;
  out.code = got.status().code();
  if (got.ok()) out.value = *got;
  out.messages = file.network().stats().total_messages() - messages;
  out.bytes_moved = DegradedBytesMoved(file) - moved;
  return out;
}

LhrsFile::Options MemoOpts(const char* code, uint32_t m, uint32_t k,
                           size_t capacity) {
  LhrsFile::Options opts = Opts(m, k, capacity);
  auto spec = parity::CodeSpec::Parse(code);
  EXPECT_TRUE(spec.ok()) << spec.status();
  if (spec.ok()) opts.code = *spec;
  opts.auto_recover = false;
  return opts;
}

class DegradedReadMemoTest : public ::testing::TestWithParam<MemoGeometry> {};

TEST_P(DegradedReadMemoTest, ColdAndWarmSearchesAgree) {
  const MemoGeometry geo = GetParam();
  // Every set of up to k crashed data buckets in group 0.
  for (uint32_t crashed = 1; crashed < (1u << geo.m); ++crashed) {
    if (static_cast<uint32_t>(std::popcount(crashed)) > geo.k) continue;
    SCOPED_TRACE("crashed bucket mask " + std::to_string(crashed));
    LhrsFile file(MemoOpts(geo.code, geo.m, geo.k, /*capacity=*/10));
    file.network().EnableTelemetry({.trace_messages = false});
    const std::vector<Key> keys = Populate(file, 120, 70 + crashed);
    ASSERT_GE(file.bucket_count(), geo.m);
    std::vector<Key> lost;
    for (Key key : keys) {
      const BucketNo b = file.coordinator().state().Address(key);
      if (b < geo.m && (crashed >> b & 1) != 0) lost.push_back(key);
    }
    ASSERT_FALSE(lost.empty());
    for (BucketNo b = 0; b < geo.m; ++b) {
      if ((crashed >> b & 1) != 0) file.CrashDataBucket(b);
    }

    // Each key twice: first on an emptied memo, then again with the
    // memo holding exactly that search's decisions.
    RsCoordinatorNode& coord = file.rs_coordinator();
    std::vector<MeasuredSearch> cold;
    for (Key key : lost) {
      SCOPED_TRACE("key " + std::to_string(key));
      coord.ClearDegradedReadMemoForTesting();
      const uint64_t hits = coord.degraded_memo_hits();
      cold.push_back(MeasureSearch(file, key));
      EXPECT_EQ(coord.degraded_memo_hits(), hits);
      const MeasuredSearch warm = MeasureSearch(file, key);
      EXPECT_EQ(warm.code, cold.back().code);
      EXPECT_EQ(warm.value, cold.back().value);
      EXPECT_EQ(warm.messages, cold.back().messages);
      EXPECT_EQ(warm.bytes_moved, cold.back().bytes_moved);
      if (warm.code == StatusCode::kOk) {
        EXPECT_EQ(warm.value, Val("value-" + std::to_string(key)));
        // The warm search looked up both its read set and its plan.
        EXPECT_EQ(coord.degraded_memo_hits(), hits + 2);
      } else {
        // Only the non-MDS code may meet a record it cannot decode; then
        // the read set alone is looked up.
        EXPECT_EQ(warm.code, StatusCode::kDataLoss);
        EXPECT_STRNE(geo.code, "rs");
        EXPECT_EQ(coord.degraded_memo_hits(), hits + 1);
      }
    }
    // Once more with the memo accumulating every key's patterns: a lookup
    // must never answer one pattern with another's decisions.
    coord.ClearDegradedReadMemoForTesting();
    for (size_t i = 0; i < lost.size(); ++i) {
      const MeasuredSearch shared = MeasureSearch(file, lost[i]);
      EXPECT_EQ(shared.code, cold[i].code) << "key " << lost[i];
      EXPECT_EQ(shared.value, cold[i].value) << "key " << lost[i];
      EXPECT_EQ(shared.messages, cold[i].messages) << "key " << lost[i];
      EXPECT_EQ(shared.bytes_moved, cold[i].bytes_moved) << "key " << lost[i];
    }
    EXPECT_EQ(coord.recoveries_completed(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DegradedReadMemoTest,
    // lrc2 needs one parity column per local pair of slots, so its k=1
    // geometry is a single local group (m=2).
    ::testing::Values(MemoGeometry{"rs", 4, 1}, MemoGeometry{"rs", 4, 2},
                      MemoGeometry{"rs", 4, 3}, MemoGeometry{"lrc2", 2, 1},
                      MemoGeometry{"lrc2", 4, 2},
                      MemoGeometry{"lrc2", 4, 3}),
    [](const auto& info) {
      return std::string(info.param.code) + "_m" +
             std::to_string(info.param.m) + "_k" +
             std::to_string(info.param.k);
    });

// A read target that crashes after the coordinator asked it for its column
// bounces the request, so the read set is computed again from a new key
// (the target gone from the eligible columns).
class DegradedReadReplanTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(DegradedReadReplanTest, ReadTargetCrashingMidReadIsReplanned) {
  LhrsFile::Options opts = MemoOpts(GetParam(), 4, 3, /*capacity=*/1000);
  opts.file.initial_buckets = 4;
  LhrsFile file(opts);
  file.network().EnableTelemetry({.trace_messages = false});
  // Keys 0..7: bucket b holds keys b (rank 1) and b + 4 (rank 2).
  for (Key key = 0; key < 8; ++key) {
    ASSERT_EQ(file.coordinator().state().Address(key), key % 4);
    ASSERT_TRUE(file.Insert(key, Val("value-" + std::to_string(key))).ok());
  }
  file.CrashDataBucket(0);

  const MessageStats& stats = file.network().stats();
  const uint64_t record_reads =
      stats.ForKind(LhrsMsg::kRecordReadRequest).messages;
  const uint64_t parity_reads =
      stats.ForKind(LhrsMsg::kParityRecordRequest).messages;
  const sdds::OpToken search = file.Submit(0, OpType::kSearch, 0, {});
  // Both codes read sibling 1 first; crash it while its read is in flight.
  while (stats.ForKind(LhrsMsg::kRecordReadRequest).messages ==
         record_reads) {
    ASSERT_TRUE(file.network().Step());
  }
  file.CrashDataBucket(1);
  file.network().RunUntilIdle();
  ASSERT_TRUE(file.Poll(search));
  auto out = file.Take(search);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->status.ok()) << out->status;
  EXPECT_EQ(out->value.ToBytes(), Val("value-0"));
  // The second read set had to reach for a parity column the first did
  // not need.
  EXPECT_GT(stats.ForKind(LhrsMsg::kParityRecordRequest).messages,
            parity_reads);
  EXPECT_GE(stats.delivery_failures(), 1u);

  // Both crashed buckets stay readable through their parity.
  for (Key key : {Key{0}, Key{1}, Key{4}, Key{5}}) {
    auto got = file.Search(key);
    ASSERT_TRUE(got.ok()) << "key " << key << ": " << got.status();
    EXPECT_EQ(*got, Val("value-" + std::to_string(key)));
  }
  EXPECT_EQ(file.rs_coordinator().degraded_reads_served(), 5u);
}

INSTANTIATE_TEST_SUITE_P(Codes, DegradedReadReplanTest,
                         ::testing::Values("rs", "lrc2"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });


// Pure-logic reconstruction tests (no network).
TEST(ReconstructColumnsTest, RejectsInsufficientSurvivors) {
  CoderCache coders(4);
  ReconstructionRequest req;
  req.m = 4;
  req.coder = &coders.ForK(1);
  req.existing_slots = 4;
  req.missing_columns = {0, 1};  // Two losses, k = 1.
  ColumnDump d2;
  d2.column = 2;
  ColumnDump d3;
  d3.column = 3;
  ColumnDump p0;
  p0.column = 4;
  req.survivors = {std::make_shared<const ColumnDump>(d2),
                   std::make_shared<const ColumnDump>(d3),
                   std::make_shared<const ColumnDump>(p0)};
  auto result = ReconstructColumns(req);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDataLoss());
}

TEST(ReconstructColumnsTest, RejectsDataLossWithoutParityMetadata) {
  CoderCache coders(4);
  ReconstructionRequest req;
  req.m = 4;
  req.coder = &coders.ForK(2);
  req.existing_slots = 2;  // Slots 2 and 3 do not exist (known zero).
  req.missing_columns = {0};
  ColumnDump d1;
  d1.column = 1;
  // 1 survivor + 2 zeros = 3 < 4... and no parity.
  req.survivors = {std::make_shared<const ColumnDump>(d1)};
  auto result = ReconstructColumns(req);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDataLoss());
}

}  // namespace
}  // namespace lhrs
