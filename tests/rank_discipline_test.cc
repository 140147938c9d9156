// Differential test of the LH*RS rank discipline. A data bucket's ranks
// are its store slots; this test keeps the textbook model next to it — per
// bucket a rank counter, a min-heap of freed ranks and a key -> rank map
// (AllocRank / FreeRank) — and checks, over seeded random sequences of
// inserts, updates, deletes, splits, merges and recoveries, that every
// rank the file ships in a parity delta is the rank the model allocates.

#include <functional>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lhrs/lhrs_file.h"

namespace lhrs {
namespace {

/// The reference rank allocator of one data bucket.
struct RankModel {
  bool reuse = true;
  Rank next = 1;
  std::priority_queue<Rank, std::vector<Rank>, std::greater<Rank>> free;
  std::unordered_map<Key, Rank> key_rank;
  std::map<Rank, Key> rank_key;

  Rank AllocRank() {
    if (reuse && !free.empty()) {
      const Rank r = free.top();
      free.pop();
      return r;
    }
    return next++;
  }
  void FreeRank(Rank r) { free.push(r); }

  /// A recovery install: the ranks survive, the free ranks become the gaps
  /// below the highest one.
  void Reinstall() {
    free = {};
    next = 1;
    for (const auto& [rank, key] : rank_key) {
      for (; next < rank; ++next) free.push(next);
      next = rank + 1;
    }
  }
};

/// Watches every parity delta in send order (k = 1, so each delta is sent
/// exactly once) and replays it against the model: a kSet of a key the
/// bucket does not hold yet is an allocation, a kSet of a held key an
/// update, a kClear a free.
class RankTap : public FaultInjector {
 public:
  RankTap(uint32_t m, bool reuse) : m_(m), reuse_(reuse) {}

  FaultActions OnMessage(const Message& msg, SimTime) override {
    if (msg.body->kind() == LhrsMsg::kParityDelta) {
      const auto& body = static_cast<const ParityDeltaMsg&>(*msg.body);
      Replay(body.group, body.delta);
    } else if (msg.body->kind() == LhrsMsg::kParityDeltaBatch) {
      const auto& body = static_cast<const ParityDeltaBatchMsg&>(*msg.body);
      for (const ParityDelta& d : body.deltas) Replay(body.group, d);
    }
    return {};
  }

  RankModel& bucket(BucketNo b) {
    auto [it, created] = models_.try_emplace(b);
    if (created) it->second.reuse = reuse_;
    return it->second;
  }
  std::map<BucketNo, RankModel>& models() { return models_; }
  uint64_t allocations() const { return allocations_; }
  uint64_t frees() const { return frees_; }

 private:
  void Replay(uint32_t group, const ParityDelta& d) {
    const BucketNo b = static_cast<BucketNo>(group) * m_ + d.slot;
    RankModel& model = bucket(b);
    auto it = model.key_rank.find(d.key);
    if (d.key_op == ParityDelta::KeyOp::kClear) {
      ASSERT_NE(it, model.key_rank.end())
          << "bucket " << b << " clears key " << d.key << " it never had";
      EXPECT_EQ(d.rank, it->second) << "bucket " << b << " key " << d.key;
      model.FreeRank(it->second);
      model.rank_key.erase(it->second);
      model.key_rank.erase(it);
      ++frees_;
      return;
    }
    if (it != model.key_rank.end()) {
      EXPECT_EQ(d.rank, it->second) << "update moved key " << d.key;
      return;
    }
    const Rank want = model.AllocRank();
    EXPECT_EQ(d.rank, want) << "bucket " << b << " allocated rank " << d.rank
                            << " for key " << d.key << ", model " << want;
    model.key_rank[d.key] = want;
    model.rank_key[want] = d.key;
    ++allocations_;
  }

  uint32_t m_;
  bool reuse_;
  std::map<BucketNo, RankModel> models_;
  uint64_t allocations_ = 0;
  uint64_t frees_ = 0;
};

struct Params {
  bool reuse;
  uint64_t seed;
};

void PrintTo(const Params& p, std::ostream* os) {
  *os << (p.reuse ? "reuse" : "monotone") << " seed=" << p.seed;
}

class RankDisciplineTest : public ::testing::TestWithParam<Params> {};

/// Every live bucket's (rank, key) pairs equal its model's.
void ExpectFileMatchesModel(const LhrsFile& file, RankTap& tap,
                            const std::string& when) {
  for (BucketNo b = 0; b < file.bucket_count(); ++b) {
    std::map<Rank, Key> actual;
    for (const RankedRecord& rec : file.rs_bucket(b)->RankedRecords()) {
      actual[rec.rank] = rec.key;
    }
    EXPECT_EQ(actual, tap.bucket(b).rank_key) << "bucket " << b << ", "
                                              << when;
  }
}

TEST_P(RankDisciplineTest, RanksMatchReferenceAllocator) {
  const Params p = GetParam();
  LhrsFile::Options opts;
  opts.file.bucket_capacity = 8;
  opts.file.enable_merge = true;
  opts.group_size = 4;
  opts.policy.base_k = 1;
  opts.reuse_ranks = p.reuse;
  LhrsFile file(opts);
  RankTap tap(opts.group_size, p.reuse);
  file.network().SetFaultInjector(&tap);

  Rng rng(p.seed);
  std::vector<Key> live;
  size_t recoveries = 0;
  size_t merges_seen = 0;
  for (int step = 0; step < 1100; ++step) {
    // Phases of growth and shrinkage, so the file both splits and merges.
    const uint64_t insert_pct = (step / 250) % 2 == 0 ? 60 : 10;
    const uint64_t dice = rng.Uniform(100);
    const BucketNo buckets_before = file.bucket_count();
    if (live.empty() || dice < insert_pct) {
      const Key k = rng.Next64();
      if (file.Insert(k, rng.RandomBytes(1 + rng.Uniform(48))).ok()) {
        live.push_back(k);
      }
    } else if (dice < insert_pct + 15) {
      const Key k = live[rng.Uniform(live.size())];
      ASSERT_TRUE(file.Update(k, rng.RandomBytes(1 + rng.Uniform(48))).ok());
    } else if (dice < 98) {
      const size_t at = rng.Uniform(live.size());
      ASSERT_TRUE(file.Delete(live[at]).ok());
      live[at] = live.back();
      live.pop_back();
    } else {
      // Crash a data bucket at quiescence and rebuild it from its group.
      const auto b = static_cast<BucketNo>(rng.Uniform(file.bucket_count()));
      file.DetectAndRecover(file.CrashDataBucket(b));
      ASSERT_EQ(file.rs_coordinator().groups_lost(), 0u);
      tap.bucket(b).Reinstall();
      ++recoveries;
    }
    // A merge retires the highest buckets; a later split recreates them on
    // a fresh server, whose ranks start over.
    for (BucketNo b = file.bucket_count(); b < buckets_before; ++b) {
      EXPECT_TRUE(tap.bucket(b).key_rank.empty());
      tap.models().erase(b);
      ++merges_seen;
    }
    if (step % 50 == 49) ExpectFileMatchesModel(file, tap, "mid-run");
    if (HasFailure()) return;
  }
  ExpectFileMatchesModel(file, tap, "at the end");
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  // The sequence exercised what it is meant to.
  EXPECT_GT(tap.allocations(), 500u);
  EXPECT_GT(tap.frees(), 400u);
  EXPECT_GT(file.coordinator().splits_performed(), 20u);
  EXPECT_GT(merges_seen, 10u);
  EXPECT_GT(recoveries, 5u);
  EXPECT_GT(live.size(), 20u);
  file.network().SetFaultInjector(nullptr);
}

std::vector<Params> AllParams() {
  std::vector<Params> out;
  for (bool reuse : {true, false}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) out.push_back({reuse, seed});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RankDisciplineTest, ::testing::ValuesIn(AllParams()),
    [](const ::testing::TestParamInfo<Params>& info) {
      return std::string(info.param.reuse ? "reuse" : "monotone") + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace lhrs
