// The coordinators' unavailable-bucket protocol, checked the same way for
// every scheme that has one (LH*RS, LH*g, LH*m, LH*s): client writes that
// hit a dead bucket park and complete after the rebuild; with more
// failures than the scheme tolerates they fail loudly with kDataLoss; and
// a split whose victim (or target) is down resumes once the bucket is
// rebuilt, losing no acknowledged record.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/lhg/lhg_file.h"
#include "baselines/lhm/lhm_file.h"
#include "baselines/lhs/lhs_file.h"
#include "common/rng.h"
#include "lhrs/lhrs_file.h"

namespace lhrs {
namespace {

constexpr size_t kCapacity = 8;

/// One scheme under test. Crashes always hit the same LH* file (for LH*s
/// stripe file 1, for LH*m the primary replica), whose state `state()`
/// returns.
class Scheme {
 public:
  virtual ~Scheme() = default;
  virtual sdds::SddsFile& file() = 0;
  virtual const FileState& state() = 0;
  /// Crashes the server carrying bucket `b`; returns its node.
  virtual NodeId Crash(BucketNo b) = 0;
  /// Returns an action that crashes one more column of bucket `b`'s
  /// redundancy set, so that `b` can no longer be rebuilt. `contents`
  /// holds the file's keys. Call it while `b` is still up.
  virtual std::function<void()> PartnerCrash(
      BucketNo b, const std::map<Key, Bytes>& contents) = 0;
  virtual Status Verify() = 0;
};

class RsScheme : public Scheme {
 public:
  RsScheme() : file_(Options()) {}
  sdds::SddsFile& file() override { return file_; }
  const FileState& state() override { return file_.coordinator().state(); }
  NodeId Crash(BucketNo b) override { return file_.CrashDataBucket(b); }
  std::function<void()> PartnerCrash(BucketNo b,
                                     const std::map<Key, Bytes>&) override {
    // Same group of m = 4, k = 1.
    return [this, b] { file_.CrashDataBucket(b ^ 1); };
  }
  Status Verify() override { return file_.VerifyParityInvariants(); }

 private:
  static LhrsFile::Options Options() {
    LhrsFile::Options opts;
    opts.file.bucket_capacity = kCapacity;
    opts.group_size = 4;
    opts.policy.base_k = 1;
    return opts;
  }
  LhrsFile file_;
};

class LhgScheme : public Scheme {
 public:
  LhgScheme() : file_(Options()) {}
  sdds::SddsFile& file() override { return file_; }
  const FileState& state() override { return file_.coordinator().state(); }
  NodeId Crash(BucketNo b) override { return file_.CrashDataBucket(b); }
  /// Crashes the bucket holding another member of the record group of
  /// one of `b`'s records.
  std::function<void()> PartnerCrash(
      BucketNo b, const std::map<Key, Bytes>& contents) override {
    const FileState& s = state();
    for (const auto& [key, value] : contents) {
      if (s.Address(key) != b) continue;
      const lhg::GroupKey group = file_.lhg_bucket(b)->group_key_of(key);
      for (const auto& [other, other_value] : contents) {
        const BucketNo a = s.Address(other);
        if (a != b && file_.lhg_bucket(a)->group_key_of(other) == group) {
          return [this, a] { file_.CrashDataBucket(a); };
        }
      }
    }
    ADD_FAILURE() << "no record group of bucket " << b << " spans two buckets";
    return [] {};
  }
  Status Verify() override { return file_.VerifyParityInvariants(); }
  lhg::LhgFile& lhg() { return file_; }

 private:
  static lhg::LhgFile::Options Options() {
    lhg::LhgFile::Options opts;
    opts.file.bucket_capacity = kCapacity;
    opts.group_size = 3;
    return opts;
  }
  lhg::LhgFile file_;
};

class LhmScheme : public Scheme {
 public:
  LhmScheme() : file_(Options()) {}
  sdds::SddsFile& file() override { return file_; }
  const FileState& state() override {
    return file_.primary_coordinator().state();
  }
  NodeId Crash(BucketNo b) override { return file_.CrashPrimaryBucket(b); }
  std::function<void()> PartnerCrash(BucketNo,
                                     const std::map<Key, Bytes>&) override {
    ADD_FAILURE() << "losing both replicas is not pinned";
    return [] {};
  }
  Status Verify() override { return file_.VerifyMirrorInvariant(); }

 private:
  static lhm::LhmFile::Options Options() {
    lhm::LhmFile::Options opts;
    opts.file.bucket_capacity = kCapacity;
    return opts;
  }
  lhm::LhmFile file_;
};

class LhsScheme : public Scheme {
 public:
  LhsScheme() : file_(Options()) {
    // Stripe file f's coordinator is the f-th one added to the network.
    Network& net = file_.network();
    for (NodeId id = 0; id < static_cast<NodeId>(net.node_count()); ++id) {
      if (auto* c = dynamic_cast<lhs::LhsCoordinatorNode*>(net.node(id))) {
        coordinators_.push_back(c);
      }
    }
  }
  sdds::SddsFile& file() override { return file_; }
  const FileState& state() override { return coordinators_[1]->state(); }
  NodeId Crash(BucketNo b) override {
    return file_.CrashStripeBucketOf(1, KeyIn(b));
  }
  std::function<void()> PartnerCrash(BucketNo b,
                                     const std::map<Key, Bytes>&) override {
    const Key key = KeyIn(b);
    return [this, key] { file_.CrashStripeBucketOf(3, key); };
  }
  Status Verify() override { return Status::OK(); }

 private:
  static lhs::LhsFile::Options Options() {
    lhs::LhsFile::Options opts;
    opts.file.bucket_capacity = kCapacity;
    opts.stripe_count = 4;
    return opts;
  }
  /// Any key stripe file 1 places in bucket `b`.
  Key KeyIn(BucketNo b) {
    Rng rng(b + 1);
    Key key = rng.Next64();
    while (state().Address(key) != b) key = rng.Next64();
    return key;
  }
  lhs::LhsFile file_;
  std::vector<CoordinatorNode*> coordinators_;
};

std::unique_ptr<Scheme> MakeScheme(const std::string& name) {
  if (name == "rs") return std::make_unique<RsScheme>();
  if (name == "lhg") return std::make_unique<LhgScheme>();
  if (name == "lhm") return std::make_unique<LhmScheme>();
  return std::make_unique<LhsScheme>();
}

Bytes ValueOf(Key key, int version) {
  return BytesFromString("v" + std::to_string(version) + "-" +
                         std::to_string(key));
}

class UnavailableBucketTest : public ::testing::TestWithParam<std::string> {
 protected:
  /// Loads `n` fresh random keys, then more until bucket 0 holds two;
  /// returns them with their values.
  std::map<Key, Bytes> Populate(Scheme& scheme, int n, uint64_t seed) {
    Rng rng(seed);
    std::map<Key, Bytes> contents;
    size_t in_bucket_zero = 0;
    while (contents.size() < static_cast<size_t>(n) || in_bucket_zero < 2) {
      const Key key = rng.Next64();
      if (contents.contains(key)) continue;
      contents[key] = ValueOf(key, 0);
      EXPECT_TRUE(scheme.file().Insert(key, contents[key]).ok());
      in_bucket_zero = 0;
      for (const auto& [k, v] : contents) {
        in_bucket_zero += scheme.state().Address(k) == 0;
      }
    }
    return contents;
  }

  /// Every key of `contents` reads back with its value.
  void ExpectContents(Scheme& scheme, const std::map<Key, Bytes>& contents) {
    for (const auto& [key, value] : contents) {
      auto got = scheme.file().Search(key);
      ASSERT_TRUE(got.ok()) << "key " << key << ": " << got.status();
      EXPECT_EQ(*got, value) << "key " << key;
    }
  }

  /// Submits an update, a delete and an insert that all address bucket 0
  /// of the crash file, without running the network.
  struct Writes {
    Key updated = 0;
    Key deleted = 0;
    Key inserted = 0;
    std::vector<sdds::OpToken> tokens;
  };
  Writes SubmitWritesToBucketZero(Scheme& scheme,
                                  const std::map<Key, Bytes>& contents) {
    Writes w;
    std::vector<Key> resident;
    for (const auto& [key, value] : contents) {
      if (scheme.state().Address(key) == 0) resident.push_back(key);
    }
    EXPECT_GE(resident.size(), 2u);  // Populate guarantees it.
    w.updated = resident[0];
    w.deleted = resident[1];
    Rng rng(977);
    do {
      w.inserted = rng.Next64();
    } while (contents.contains(w.inserted) ||
             scheme.state().Address(w.inserted) != 0);
    sdds::SddsFile& f = scheme.file();
    w.tokens.push_back(
        f.Submit(0, OpType::kUpdate, w.updated, ValueOf(w.updated, 1)));
    w.tokens.push_back(f.Submit(0, OpType::kDelete, w.deleted, {}));
    w.tokens.push_back(
        f.Submit(0, OpType::kInsert, w.inserted, ValueOf(w.inserted, 1)));
    return w;
  }
};

TEST_P(UnavailableBucketTest, WritesToDeadBucketParkAndCompleteAfterRebuild) {
  auto scheme = MakeScheme(GetParam());
  std::map<Key, Bytes> contents = Populate(*scheme, 60, 11);
  ASSERT_GT(scheme->state().bucket_count(), 2u);
  scheme->Crash(0);
  Writes w = SubmitWritesToBucketZero(*scheme, contents);
  scheme->file().network().RunUntilIdle();
  for (sdds::OpToken token : w.tokens) {
    auto outcome = scheme->file().Take(token);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(outcome->status.ok()) << outcome->status;
  }
  contents[w.updated] = ValueOf(w.updated, 1);
  contents.erase(w.deleted);
  contents[w.inserted] = ValueOf(w.inserted, 1);
  ExpectContents(*scheme, contents);
  EXPECT_TRUE(scheme->file().Search(w.deleted).status().IsNotFound());
  EXPECT_TRUE(scheme->Verify().ok()) << scheme->Verify();
}

/// Loss beyond the tolerated failures: LH*m's second replica is out of
/// scope, so this runs for the parity and striping schemes.
class BeyondToleranceTest : public UnavailableBucketTest {};

TEST_P(BeyondToleranceTest, ParkedWritesFailLoudly) {
  auto scheme = MakeScheme(GetParam());
  const std::map<Key, Bytes> contents = Populate(*scheme, 60, 13);
  ASSERT_GT(scheme->state().bucket_count(), 2u);
  const std::function<void()> crash_partner =
      scheme->PartnerCrash(0, contents);
  scheme->Crash(0);
  Writes w = SubmitWritesToBucketZero(*scheme, contents);
  // The second failure lands once the rebuild of bucket 0 has begun (its
  // spare exists), so the writes are parked when the rebuild fails.
  Network& net = scheme->file().network();
  const size_t nodes = net.node_count();
  net.RunUntil([&] { return net.node_count() > nodes; });
  ASSERT_GT(net.node_count(), nodes);
  crash_partner();
  net.RunUntilIdle();
  for (sdds::OpToken token : w.tokens) {
    auto outcome = scheme->file().Take(token);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(outcome->status.IsDataLoss()) << outcome->status;
  }
}

// LH*g: a parity bucket fails, then data bucket 0. Rebuilding bucket 0
// scans every parity bucket, and the scan bounces off the dead one, so
// bucket 0 is lost: an update and a search addressed to it fail with
// kDataLoss instead of waiting forever.
TEST_F(BeyondToleranceTest, LhgParityBucketDownBeforeDataBucket) {
  LhgScheme scheme;
  const std::map<Key, Bytes> contents = Populate(scheme, 60, 13);
  Key resident = 0;
  for (const auto& [key, value] : contents) {
    if (scheme.state().Address(key) == 0) resident = key;
  }
  scheme.lhg().CrashParityBucket(0);
  scheme.Crash(0);
  const Status update = scheme.file().Update(resident, ValueOf(resident, 1));
  EXPECT_TRUE(update.IsDataLoss()) << update;
  const Status search = scheme.file().Search(resident).status();
  EXPECT_TRUE(search.IsDataLoss()) << search;
}

TEST_P(UnavailableBucketTest, SplitVictimDownWhenOrderSent) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto scheme = MakeScheme(GetParam());
    std::map<Key, Bytes> contents = Populate(*scheme, 60, seed);
    const BucketNo victim = scheme->state().n;
    const BucketNo buckets = scheme->state().bucket_count();
    scheme->Crash(victim);
    // Grow the file around the dead bucket until it is the next to split.
    Rng rng(seed * 1000 + 7);
    for (int i = 0; i < 1000 && scheme->state().bucket_count() == buckets;
         ++i) {
      const Key key = rng.Next64();
      if (contents.contains(key) || scheme->state().Address(key) == victim) {
        continue;
      }
      contents[key] = ValueOf(key, 0);
      ASSERT_TRUE(scheme->file().Insert(key, contents[key]).ok());
    }
    ASSERT_GT(scheme->state().bucket_count(), buckets);
    ExpectContents(*scheme, contents);
    EXPECT_TRUE(scheme->Verify().ok()) << scheme->Verify();
  }
}

TEST_P(UnavailableBucketTest, SplitTargetDownWhileMoveInFlight) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto scheme = MakeScheme(GetParam());
    std::map<Key, Bytes> contents = Populate(*scheme, 60, seed);
    Network& net = scheme->file().network();
    const BucketNo target = scheme->state().bucket_count();
    const auto moves = [&] {
      return net.stats().ForKind(LhStarMsg::kMoveRecords).messages;
    };
    bool crashed = false;
    Rng rng(seed * 1000 + 9);
    for (int i = 0; i < 1000 && !crashed; ++i) {
      const Key key = rng.Next64();
      if (contents.contains(key)) continue;
      contents[key] = ValueOf(key, 0);
      const sdds::OpToken token =
          scheme->file().Submit(0, OpType::kInsert, key, contents[key]);
      net.RunUntil([&] { return scheme->state().bucket_count() > target; });
      if (scheme->state().bucket_count() > target) {
        // The crash file ordered its split: crash the new bucket as soon
        // as the victim has shipped the movers to it.
        const uint64_t before = moves();
        net.RunUntil([&] { return moves() > before; });
        const NodeId node = scheme->Crash(target);
        EXPECT_GT(net.PendingTo(node), 0u);
        crashed = true;
      }
      net.RunUntilIdle();
      auto outcome = scheme->file().Take(token);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      ASSERT_TRUE(outcome->status.ok()) << outcome->status;
    }
    ASSERT_TRUE(crashed);
    ExpectContents(*scheme, contents);
    EXPECT_TRUE(scheme->Verify().ok()) << scheme->Verify();
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, UnavailableBucketTest,
                         ::testing::Values("rs", "lhg", "lhm", "lhs"),
                         [](const auto& info) { return info.param; });
INSTANTIATE_TEST_SUITE_P(Schemes, BeyondToleranceTest,
                         ::testing::Values("rs", "lhg", "lhs"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace lhrs
