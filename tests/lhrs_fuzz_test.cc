// Randomized scenario fuzzing of the full LH*RS stack: long interleavings
// of inserts, updates, deletes, searches, scans, crashes (within the
// availability budget), recoveries and node restorations — checked against
// a shadow model and the parity invariant after every phase.

#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lhrs/lhrs_file.h"

namespace lhrs {
namespace {

struct FuzzParams {
  uint64_t seed;
  uint32_t m;
  uint32_t k;
  bool enable_merge;
  FieldChoice field = FieldChoice::kGf256;
};

void PrintTo(const FuzzParams& p, std::ostream* os) {
  *os << "seed=" << p.seed << " m=" << p.m << " k=" << p.k
      << (p.enable_merge ? " merge " : " ") << FieldChoiceName(p.field);
}

class LhrsFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

void RunFuzzScenario(const FuzzParams& params) {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = 8;
  opts.file.enable_merge = params.enable_merge;
  opts.group_size = params.m;
  opts.policy.base_k = params.k;
  opts.field = params.field;
  LhrsFile file(opts);
  Rng rng(params.seed);

  std::map<Key, Bytes> model;  // Shadow of the expected file contents.
  // Nodes currently crashed, per group, so we respect the budget of k
  // simultaneous failures per group.
  std::map<uint32_t, std::vector<NodeId>> crashed_data;     // group -> nodes
  std::map<uint32_t, std::vector<uint32_t>> crashed_parity;  // group -> idx

  auto group_failures = [&](uint32_t g) {
    return crashed_data[g].size() + crashed_parity[g].size();
  };
  auto any_crashed = [&] {
    for (const auto& [g, v] : crashed_data) {
      if (!v.empty()) return true;
    }
    for (const auto& [g, v] : crashed_parity) {
      if (!v.empty()) return true;
    }
    return false;
  };

  for (int step = 0; step < 1200; ++step) {
    const int action = static_cast<int>(rng.Uniform(100));
    if (action < 45) {  // Insert.
      const Key key = rng.Next64();
      const Bytes value = rng.RandomBytes(1 + rng.Uniform(48));
      const Status s = file.Insert(key, value);
      if (model.contains(key)) {
        EXPECT_TRUE(s.IsAlreadyExists());
      } else if (s.ok()) {
        model[key] = value;
      } else {
        ADD_FAILURE() << "insert failed: " << s;
      }
    } else if (action < 60 && !model.empty()) {  // Update.
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      const Bytes value = rng.RandomBytes(1 + rng.Uniform(48));
      ASSERT_TRUE(file.Update(it->first, value).ok()) << "step " << step;
      it->second = value;
    } else if (action < 70 && !model.empty()) {  // Delete.
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_TRUE(file.Delete(it->first).ok()) << "step " << step;
      model.erase(it);
    } else if (action < 85) {  // Search (hit or miss).
      if (!model.empty() && rng.Flip(0.8)) {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        auto got = file.Search(it->first);
        ASSERT_TRUE(got.ok()) << "step " << step << ": " << got.status();
        EXPECT_EQ(*got, it->second);
      } else {
        Key key = rng.Next64();
        while (model.contains(key)) key = rng.Next64();
        EXPECT_TRUE(file.Search(key).status().IsNotFound());
      }
    } else if (action < 90) {  // Crash within the availability budget.
      const uint32_t groups = static_cast<uint32_t>(file.group_count());
      const uint32_t g = static_cast<uint32_t>(rng.Uniform(groups));
      if (group_failures(g) >= params.k) continue;
      if (rng.Flip(0.6)) {
        const BucketNo first = g * params.m;
        const BucketNo limit =
            std::min<BucketNo>((g + 1) * params.m, file.bucket_count());
        if (first >= limit) continue;
        const BucketNo b =
            first + static_cast<BucketNo>(rng.Uniform(limit - first));
        const NodeId node = file.context().allocation.Lookup(b);
        if (!file.network().available(node)) continue;
        file.CrashDataBucket(b);
        crashed_data[g].push_back(node);
      } else {
        const uint32_t kk = file.rs_coordinator().group_info(g).k;
        const uint32_t j = static_cast<uint32_t>(rng.Uniform(kk));
        const NodeId node =
            file.rs_coordinator().group_info(g).parity_nodes[j];
        if (!file.network().available(node)) continue;
        file.CrashParityBucket(g, j);
        crashed_parity[g].push_back(j);
      }
    } else if (action < 96 && any_crashed()) {  // Detect & recover all.
      for (auto& [g, nodes] : crashed_data) {
        for (NodeId node : nodes) file.DetectAndRecover(node);
        nodes.clear();
      }
      for (auto& [g, idxs] : crashed_parity) {
        if (!idxs.empty()) {
          file.rs_coordinator().RecoverGroup(g);
          file.network().RunUntilIdle();
          idxs.clear();
        }
      }
      ASSERT_EQ(file.rs_coordinator().groups_lost(), 0u) << "step " << step;
    } else if (!any_crashed()) {  // Scan, only when everything is up.
      auto scan = file.Scan();
      ASSERT_TRUE(scan.ok()) << "step " << step << ": " << scan.status();
      ASSERT_EQ(scan->size(), model.size()) << "step " << step;
      for (const auto& rec : *scan) {
        auto it = model.find(rec.key);
        ASSERT_TRUE(it != model.end());
        EXPECT_EQ(rec.value, it->second);
      }
    }
  }

  // Heal everything and do the full end-state audit.
  for (auto& [g, nodes] : crashed_data) {
    for (NodeId node : nodes) file.DetectAndRecover(node);
  }
  for (auto& [g, idxs] : crashed_parity) {
    if (!idxs.empty()) {
      file.rs_coordinator().RecoverGroup(g);
      file.network().RunUntilIdle();
    }
  }
  ASSERT_EQ(file.rs_coordinator().groups_lost(), 0u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok()) << "end-state parity";
  for (const auto& [key, value] : model) {
    auto got = file.Search(key);
    ASSERT_TRUE(got.ok()) << "key " << key << ": " << got.status();
    EXPECT_EQ(*got, value);
  }
  auto scan = file.Scan();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), model.size());
}

TEST_P(LhrsFuzzTest, LongRandomScenario) { RunFuzzScenario(GetParam()); }

// CI smoke entry point: one extra scenario whose seed comes from the
// LHRS_FUZZ_SEED environment variable — randomized per CI run but printed
// to the log, so any failure replays locally with
// `LHRS_FUZZ_SEED=<seed> ./lhrs_fuzz_test`. Skipped when unset.
TEST(LhrsFuzzEnvTest, EnvSeededScenario) {
  const char* env = std::getenv("LHRS_FUZZ_SEED");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "LHRS_FUZZ_SEED not set";
  }
  FuzzParams params{};
  params.seed = std::strtoull(env, nullptr, 10);
  // The shape parameters derive from the seed so the one variable pins the
  // whole scenario.
  Rng shape(params.seed);
  const uint32_t ms[] = {2, 4, 4, 8};
  params.m = ms[shape.Uniform(4)];
  params.k = 1 + static_cast<uint32_t>(shape.Uniform(3));
  params.enable_merge = shape.Flip(0.5);
  std::cout << "LHRS_FUZZ_SEED=" << params.seed << " (m=" << params.m
            << " k=" << params.k << " merge=" << params.enable_merge << ")"
            << std::endl;
  RunFuzzScenario(params);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, LhrsFuzzTest,
    ::testing::Values(FuzzParams{1, 4, 1, false}, FuzzParams{2, 4, 2, false},
                      FuzzParams{3, 2, 2, false}, FuzzParams{4, 8, 2, false},
                      FuzzParams{5, 4, 3, false}, FuzzParams{6, 4, 1, true},
                      FuzzParams{7, 4, 2, true}, FuzzParams{8, 3, 2, true},
                      FuzzParams{9, 1, 1, false},
                      FuzzParams{10, 16, 3, false},
                      FuzzParams{11, 4, 2, false, FieldChoice::kGf65536},
                      FuzzParams{12, 4, 2, true, FieldChoice::kGf65536}),
    [](const ::testing::TestParamInfo<FuzzParams>& info) {
      return "seed" + std::to_string(info.param.seed) + "_m" +
             std::to_string(info.param.m) + "_k" +
             std::to_string(info.param.k) +
             (info.param.enable_merge ? "_merge" : "") +
             (info.param.field == FieldChoice::kGf65536 ? "_gf16" : "");
    });

}  // namespace
}  // namespace lhrs
