// LH*RS parity-maintenance tests: after any mix of inserts, updates,
// deletes and splits, the parity buckets must hold exactly the
// Reed-Solomon parity of the data buckets, group by group, rank by rank.

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lhrs/lhrs_file.h"

namespace lhrs {
namespace {

Bytes Val(const std::string& s) { return BytesFromString(s); }

LhrsFile::Options SmallOptions(uint32_t m = 4, uint32_t k = 1,
                               size_t capacity = 8) {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = capacity;
  opts.group_size = m;
  opts.policy.base_k = k;
  return opts;
}

TEST(LhrsBasicTest, InsertCreatesParityRecords) {
  LhrsFile file(SmallOptions());
  ASSERT_TRUE(file.Insert(1, Val("alpha")).ok());
  ASSERT_TRUE(file.Insert(2, Val("beta")).ok());
  EXPECT_EQ(file.parity_bucket(0, 0)->parity_record_count(), 2u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(LhrsBasicTest, ParityOfSingleRecordIsItsValue) {
  // With one member, the XOR parity column equals the record's payload.
  LhrsFile file(SmallOptions());
  ASSERT_TRUE(file.Insert(7, Val("solo")).ok());
  const ParityBucketNode* pb = file.parity_bucket(0, 0);
  ASSERT_EQ(pb->ParityRanks().size(), 1u);
  const std::optional<ParityRecord> pr =
      pb->FindParityRecord(pb->ParityRanks().front());
  ASSERT_TRUE(pr.has_value());
  EXPECT_EQ(pr->parity, Val("solo"));
  EXPECT_EQ(pr->keys[0], Key{7});
  EXPECT_EQ(pr->lengths[0], 4u);
}

TEST(LhrsBasicTest, UpdateMaintainsParity) {
  LhrsFile file(SmallOptions());
  ASSERT_TRUE(file.Insert(1, Val("first")).ok());
  ASSERT_TRUE(file.Update(1, Val("second, and longer")).ok());
  ASSERT_TRUE(file.Update(1, Val("s")).ok());
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  auto got = file.Search(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Val("s"));
}

TEST(LhrsBasicTest, DeleteRemovesParityRecordWhenLastMember) {
  LhrsFile file(SmallOptions());
  ASSERT_TRUE(file.Insert(1, Val("x")).ok());
  ASSERT_TRUE(file.Delete(1).ok());
  EXPECT_EQ(file.parity_bucket(0, 0)->parity_record_count(), 0u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(LhrsBasicTest, RanksAreReusedAfterDelete) {
  LhrsFile file(SmallOptions());
  ASSERT_TRUE(file.Insert(10, Val("a")).ok());
  ASSERT_TRUE(file.Insert(20, Val("b")).ok());
  const Rank freed = file.rs_bucket(0)->RankOf(10);
  ASSERT_TRUE(file.Delete(10).ok());
  ASSERT_TRUE(file.Insert(30, Val("c")).ok());
  EXPECT_EQ(file.rs_bucket(0)->RankOf(30), freed)
      << "freed rank not reused smallest-first";
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(LhrsBasicTest, ParityMaintainedAcrossSplits) {
  LhrsFile file(SmallOptions(/*m=*/4, /*k=*/1, /*capacity=*/6));
  Rng rng(311);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(file.Insert(rng.Next64(), Val("v" + std::to_string(i))).ok());
  }
  ASSERT_GT(file.bucket_count(), 8u);
  ASSERT_GT(file.group_count(), 1u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(LhrsBasicTest, MixedWorkloadKeepsInvariants) {
  LhrsFile file(SmallOptions(/*m=*/4, /*k=*/2, /*capacity=*/8));
  Rng rng(313);
  std::set<Key> live;
  for (int i = 0; i < 600; ++i) {
    const int action = static_cast<int>(rng.Uniform(10));
    if (action < 6 || live.empty()) {
      const Key k = rng.Next64();
      if (file.Insert(k, rng.RandomBytes(1 + rng.Uniform(40))).ok()) {
        live.insert(k);
      }
    } else if (action < 8) {
      const Key k = *live.begin();
      ASSERT_TRUE(file.Update(k, rng.RandomBytes(1 + rng.Uniform(40))).ok());
    } else {
      const Key k = *live.begin();
      ASSERT_TRUE(file.Delete(k).ok());
      live.erase(k);
    }
  }
  EXPECT_TRUE(file.VerifyParityInvariants().ok()) << "after mixed workload";
  // Every live key still findable.
  for (Key k : live) EXPECT_TRUE(file.Search(k).ok());
}

TEST(LhrsBasicTest, GroupGeometryFollowsBucketNumbers) {
  LhrsFile file(SmallOptions(/*m=*/2, /*k=*/1, /*capacity=*/4));
  Rng rng(317);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(file.Insert(rng.Next64(), Val("x")).ok());
  }
  const BucketNo buckets = file.bucket_count();
  ASSERT_GT(buckets, 4u);
  for (BucketNo b = 0; b < buckets; ++b) {
    EXPECT_EQ(file.rs_bucket(b)->group(), b / 2);
    EXPECT_EQ(file.rs_bucket(b)->slot(), b % 2);
  }
  EXPECT_EQ(file.group_count(), (buckets + 1) / 2);
}

TEST(LhrsBasicTest, EveryGroupHasKParityBuckets) {
  LhrsFile file(SmallOptions(/*m=*/4, /*k=*/3, /*capacity=*/6));
  Rng rng(331);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(file.Insert(rng.Next64(), Val("x")).ok());
  }
  for (uint32_t g = 0; g < file.group_count(); ++g) {
    const auto& info = file.rs_coordinator().group_info(g);
    EXPECT_EQ(info.k, 3u);
    EXPECT_EQ(info.parity_nodes.size(), 3u);
    for (uint32_t j = 0; j < 3; ++j) {
      EXPECT_EQ(file.parity_bucket(g, j)->parity_index(), j);
    }
  }
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(LhrsBasicTest, ScalableAvailabilityRaisesKForNewGroups) {
  LhrsFile::Options opts = SmallOptions(/*m=*/2, /*k=*/1, /*capacity=*/4);
  opts.policy.scale_thresholds = {8, 16};  // k=2 at M>=8, k=3 at M>=16.
  LhrsFile file(opts);
  Rng rng(337);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(file.Insert(rng.Next64(), Val("x")).ok());
  }
  ASSERT_GE(file.bucket_count(), 16u);
  EXPECT_EQ(file.rs_coordinator().group_info(0).k, 1u);
  const uint32_t last_group =
      static_cast<uint32_t>(file.group_count()) - 1;
  EXPECT_EQ(file.rs_coordinator().group_info(last_group).k, 3u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(LhrsBasicTest, StorageOverheadIsRoughlyKOverMWithoutSplits) {
  // Starting with m buckets and never splitting, ranks align across the
  // group's buckets and record groups fill up to m members: overhead
  // approaches k/m plus the parity records' key/length metadata.
  LhrsFile::Options no_split = SmallOptions(/*m=*/4, /*k=*/1,
                                            /*capacity=*/4000);
  no_split.file.initial_buckets = 4;
  LhrsFile file(no_split);
  Rng rng(347);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(file.Insert(rng.Next64(), rng.RandomBytes(256)).ok());
  }
  const StorageStats stats = file.GetStorageStats();
  EXPECT_GT(stats.ParityOverhead(), 0.20);
  EXPECT_LT(stats.ParityOverhead(), 0.40);
}

TEST(LhrsBasicTest, SplitsThinRecordGroupsAndRaiseOverhead) {
  // Splits move records into fresh ranks of new buckets, leaving partially
  // filled record groups behind; the measured overhead therefore sits
  // between k/m and k (documented in EXPERIMENTS.md alongside bench T1).
  LhrsFile file(SmallOptions(/*m=*/4, /*k=*/1, /*capacity=*/16));
  Rng rng(349);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(file.Insert(rng.Next64(), rng.RandomBytes(64)).ok());
  }
  const StorageStats stats = file.GetStorageStats();
  EXPECT_GT(stats.ParityOverhead(), 0.25);
  EXPECT_LT(stats.ParityOverhead(), 1.0);
}

TEST(LhrsBasicTest, InsertCostsOnePlusKParityMessages) {
  for (uint32_t k = 1; k <= 3; ++k) {
    LhrsFile file(SmallOptions(/*m=*/4, k, /*capacity=*/1000));
    Rng rng(351);
    // Warm up; then measure parity traffic per insert with no splits.
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(file.Insert(rng.Next64(), Val("x")).ok());
    }
    const auto before =
        file.network().stats().ForKind(LhrsMsg::kParityDelta);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(file.Insert(rng.Next64(), Val("x")).ok());
    }
    const auto after = file.network().stats().ForKind(LhrsMsg::kParityDelta);
    EXPECT_EQ(after.messages - before.messages, 100u * k) << "k=" << k;
  }
}

TEST(LhrsBasicTest, ReorderedClearOnlyRemovesItsOwnKey) {
  // Ranks are reused smallest-first, so one (rank, slot) sees the history
  // set(A), clear(A), set(B) — and a real transport can deliver it as
  // set(B), clear(A), set(A) (a retransmit delays the first two). The
  // stale clear must wait for its own key instead of removing B; the
  // displaced pair then cancels out once B's own clear drains it.
  LhrsFile file(SmallOptions(/*m=*/4, /*k=*/1));
  ParityBucketNode* pb = file.parity_bucket(0, 0);
  const Rank rank = 900;  // Far above anything real traffic allocates.
  const auto deliver = [&](ParityDelta::KeyOp op, Key key,
                           const std::string& xor_bytes) {
    auto body = std::make_unique<ParityDeltaMsg>();
    body->group = 0;
    body->delta.rank = rank;
    body->delta.slot = 2;
    body->delta.key_op = op;
    body->delta.key = key;
    body->delta.new_length = static_cast<uint32_t>(xor_bytes.size());
    body->delta.delta = BufferView::FromString(xor_bytes);
    Message msg;
    msg.to = pb->id();
    msg.body = std::move(body);
    pb->HandleMessage(msg);
  };
  deliver(ParityDelta::KeyOp::kSet, 222, "BBBB");
  deliver(ParityDelta::KeyOp::kClear, 111, "AAAA");  // Stale: buffers.
  deliver(ParityDelta::KeyOp::kSet, 111, "AAAA");    // Stale: buffers.
  {
    const std::optional<ParityRecord> pr = pb->FindParityRecord(rank);
    ASSERT_TRUE(pr.has_value());
    EXPECT_EQ(pr->keys[2], Key{222});
    EXPECT_EQ(pr->parity, Val("BBBB"));
  }
  deliver(ParityDelta::KeyOp::kClear, 222, "BBBB");
  EXPECT_FALSE(pb->FindParityRecord(rank).has_value())
      << "the buffered stale set/clear pair must cancel to empty";
}

/// Receives what a bucket sends back to a test driver.
class ReplySink : public Node {
 public:
  void HandleMessage(const Message& msg) override {
    if (msg.body->kind() == LhrsMsg::kColumnReadReply) {
      dumps.push_back(static_cast<const ColumnReadReplyMsg&>(*msg.body).dump);
    }
  }
  std::vector<std::shared_ptr<const ColumnDump>> dumps;
};

/// Delivers `body` to `to` from `from` and runs the network dry.
void DeliverFrom(LhrsFile& file, NodeId from, Node* to,
                 std::unique_ptr<MessageBody> body) {
  Message msg;
  msg.from = from;
  msg.to = to->id();
  msg.body = std::move(body);
  to->HandleMessage(msg);
  file.network().RunUntilIdle();
}

/// The ranks of a parity bucket's column dump.
std::vector<Rank> DumpRanks(LhrsFile& file, ReplySink* sink, NodeId sink_id,
                            ParityBucketNode* pb) {
  auto req = std::make_unique<ColumnReadRequestMsg>();
  req->group = pb->group();
  DeliverFrom(file, sink_id, pb, std::move(req));
  return sink->dumps.back()->parity.ranks;
}

TEST(LhrsBasicTest, EmptyGroupVanishesFromRanksAndDumps) {
  LhrsFile file(SmallOptions());
  auto owned = std::make_unique<ReplySink>();
  ReplySink* sink = owned.get();
  const NodeId sink_id = file.network().AddNode(std::move(owned));
  for (Key k : {10, 20, 30}) ASSERT_TRUE(file.Insert(k, Val("v")).ok());
  ParityBucketNode* pb = file.parity_bucket(0, 0);
  EXPECT_EQ(pb->ParityRanks(), (std::vector<Rank>{1, 2, 3}));
  const Rank gone = file.rs_bucket(0)->RankOf(20);
  ASSERT_TRUE(file.Delete(20).ok());
  std::vector<Rank> want = {1, 2, 3};
  want.erase(std::find(want.begin(), want.end(), gone));
  EXPECT_EQ(pb->ParityRanks(), want);
  EXPECT_EQ(pb->parity_record_count(), 2u);
  EXPECT_FALSE(pb->FindParityRecord(gone).has_value());
  EXPECT_EQ(DumpRanks(file, sink, sink_id, pb), want);
  // The freed rank is taken again: the group comes back with a fresh,
  // single-member parity record.
  ASSERT_TRUE(file.Insert(40, Val("new")).ok());
  EXPECT_EQ(file.rs_bucket(0)->RankOf(40), gone);
  const std::optional<ParityRecord> back = pb->FindParityRecord(gone);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->keys[0], Key{40});
  EXPECT_EQ(back->lengths[0], 3u);
  EXPECT_EQ(back->parity, Val("new"));
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(LhrsBasicTest, GappedRankParityInstallRoundTrips) {
  LhrsFile file(SmallOptions());
  auto owned = std::make_unique<ReplySink>();
  ReplySink* sink = owned.get();
  const NodeId sink_id = file.network().AddNode(std::move(owned));
  ParityBucketNode* pb = file.parity_bucket(0, 0);

  auto install = std::make_unique<InstallParityColumnMsg>();
  install->group = 0;
  install->parity_index = 0;
  ParityColumn want(4);
  for (Rank rank : {1u, 2u, 7u, 300u}) {
    const size_t row = want.AddRow(
        rank, BufferView::FromString("parity-" + std::to_string(rank)));
    // Rank 7 has one member; the others two, at rank-dependent slots.
    want.keys[want.Cell(row, rank % 4)] = Key{rank * 1000};
    want.lengths[want.Cell(row, rank % 4)] = rank % 5 + 1;
    if (rank != 7) {
      want.keys[want.Cell(row, (rank + 1) % 4)] = Key{rank * 1000 + 1};
      want.lengths[want.Cell(row, (rank + 1) % 4)] = 3;
    }
  }
  install->parity = want;
  DeliverFrom(file, sink_id, pb, std::move(install));

  EXPECT_EQ(pb->ParityRanks(), (std::vector<Rank>{1, 2, 7, 300}));
  EXPECT_FALSE(pb->FindParityRecord(3).has_value());
  EXPECT_FALSE(pb->FindParityRecord(301).has_value());
  EXPECT_EQ(pb->StorageBytes(), 4 * 4 * 12 + 3 * 8 + 10);  // m=4 slots each.
  auto req = std::make_unique<ColumnReadRequestMsg>();
  DeliverFrom(file, sink_id, pb, std::move(req));
  const ParityColumn& dumped = sink->dumps.back()->parity;
  EXPECT_EQ(dumped.m, want.m);
  EXPECT_EQ(dumped.ranks, want.ranks);
  EXPECT_EQ(dumped.keys, want.keys);
  EXPECT_EQ(dumped.lengths, want.lengths);
  EXPECT_EQ(dumped.parity, want.parity);

  // Clearing rank 7's only member folds its parity to zero: the group
  // leaves the column.
  auto clear = std::make_unique<ParityDeltaMsg>();
  clear->delta.rank = 7;
  clear->delta.slot = 7 % 4;
  clear->delta.key_op = ParityDelta::KeyOp::kClear;
  clear->delta.key = 7000;
  clear->delta.delta = BufferView::FromString("parity-7");
  DeliverFrom(file, sink_id, pb, std::move(clear));
  EXPECT_EQ(DumpRanks(file, sink, sink_id, pb),
            (std::vector<Rank>{1, 2, 300}));
  EXPECT_EQ(pb->parity_record_count(), 3u);
}

TEST(LhrsBasicTest, SearchTouchesNoParityBuckets) {
  LhrsFile file(SmallOptions(/*m=*/4, /*k=*/2, /*capacity=*/10));
  Rng rng(353);
  std::vector<Key> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back(rng.Next64());
    ASSERT_TRUE(file.Insert(keys.back(), Val("x")).ok());
  }
  const auto before = file.network().stats().ForKindRange(200, 300);
  for (Key key : keys) ASSERT_TRUE(file.Search(key).ok());
  const auto after = file.network().stats().ForKindRange(200, 300);
  EXPECT_EQ(after.messages, before.messages)
      << "failure-free searches must not generate parity traffic";
}

TEST(LhrsBasicTest, ScanWorksOnLhrsFile) {
  LhrsFile file(SmallOptions(/*m=*/4, /*k=*/1, /*capacity=*/7));
  std::set<Key> keys;
  Rng rng(359);
  while (keys.size() < 150) keys.insert(rng.Next64());
  for (Key k : keys) ASSERT_TRUE(file.Insert(k, Val("x")).ok());
  auto scan = file.Scan();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), keys.size());
}

TEST(LhrsBasicTest, FileStateRecoveryMatchesActualState) {
  LhrsFile file(SmallOptions(/*m=*/4, /*k=*/1, /*capacity=*/5));
  Rng rng(367);
  for (int i = 0; i < 137; ++i) {
    ASSERT_TRUE(file.Insert(rng.Next64(), Val("x")).ok());
  }
  auto recovered = file.RecoverFileState();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->i, file.coordinator().state().i);
  EXPECT_EQ(recovered->n, file.coordinator().state().n);
}

// Parameterized sweep: invariants must hold across (m, k) geometries.
class LhrsGeometryTest
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(LhrsGeometryTest, InvariantsHoldAfterGrowth) {
  const auto [m, k] = GetParam();
  LhrsFile file(SmallOptions(m, k, /*capacity=*/6));
  Rng rng(1000 + m * 10 + k);
  std::set<Key> keys;
  while (keys.size() < 250) keys.insert(rng.Next64());
  for (Key key : keys) {
    ASSERT_TRUE(file.Insert(key, rng.RandomBytes(1 + rng.Uniform(30))).ok());
  }
  EXPECT_TRUE(file.VerifyParityInvariants().ok()) << "m=" << m << " k=" << k;
  for (Key key : keys) EXPECT_TRUE(file.Search(key).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LhrsGeometryTest,
    ::testing::Values(std::pair{1u, 1u}, std::pair{2u, 1u}, std::pair{2u, 2u},
                      std::pair{3u, 2u}, std::pair{4u, 1u}, std::pair{4u, 2u},
                      std::pair{4u, 3u}, std::pair{8u, 1u}, std::pair{8u, 2u},
                      std::pair{16u, 2u}));

// The whole protocol stack over GF(2^16) symbols.
class LhrsFieldTest
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(LhrsFieldTest, Gf65536EndToEnd) {
  const auto [m, k] = GetParam();
  LhrsFile::Options opts = SmallOptions(m, k, /*capacity=*/8);
  opts.field = FieldChoice::kGf65536;
  LhrsFile file(opts);
  Rng rng(2000 + m * 10 + k);
  std::set<Key> keys;
  while (keys.size() < 200) keys.insert(rng.Next64());
  for (Key key : keys) {
    // Odd lengths exercise the symbol padding.
    ASSERT_TRUE(file.Insert(key, rng.RandomBytes(1 + rng.Uniform(33))).ok());
  }
  EXPECT_TRUE(file.VerifyParityInvariants().ok()) << "GF(2^16) m=" << m;
  // Crash + recover a bucket: the decode path over 16-bit symbols.
  const NodeId dead = file.CrashDataBucket(1);
  file.DetectAndRecover(dead);
  EXPECT_EQ(file.rs_coordinator().groups_lost(), 0u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  for (Key key : keys) EXPECT_TRUE(file.Search(key).ok());
}

INSTANTIATE_TEST_SUITE_P(Geometries, LhrsFieldTest,
                         ::testing::Values(std::pair{4u, 1u},
                                           std::pair{4u, 2u},
                                           std::pair{8u, 3u}));

}  // namespace
}  // namespace lhrs
