// Randomized scenario fuzzing of the LH*g baseline (both variants),
// mirroring lhrs_fuzz_test: interleaved ops, single-failure crashes and
// recoveries, checked against a shadow model and the XOR parity invariant.

#include <map>
#include <ostream>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/lhg/lhg_file.h"
#include "common/rng.h"

namespace lhrs::lhg {
namespace {

struct FuzzParams {
  uint64_t seed;
  uint32_t k;
  bool g1;
};

// Without it gtest prints the struct's raw bytes, padding included, and the
// ctest names change from build to build.
void PrintTo(const FuzzParams& p, std::ostream* os) {
  *os << "seed=" << p.seed << " k=" << p.k << (p.g1 ? " g1" : " basic");
}

class LhgFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(LhgFuzzTest, LongRandomScenario) {
  const FuzzParams params = GetParam();
  LhgFile::Options opts;
  opts.file.bucket_capacity = 8;
  opts.parity_bucket_capacity = 8;
  opts.group_size = params.k;
  opts.reassign_group_keys_on_split = params.g1;
  LhgFile file(opts);
  Rng rng(params.seed);

  std::map<Key, Bytes> model;
  NodeId crashed_data = kInvalidNode;     // At most one failure at a time.
  BucketNo crashed_data_bucket = 0;
  BucketNo crashed_parity = ~BucketNo{0};

  auto heal = [&] {
    if (crashed_data != kInvalidNode) {
      file.RecoverDataBucket(crashed_data_bucket);
      crashed_data = kInvalidNode;
    }
    if (crashed_parity != ~BucketNo{0}) {
      file.RecoverParityBucket(crashed_parity);
      crashed_parity = ~BucketNo{0};
    }
  };

  for (int step = 0; step < 800; ++step) {
    const int action = static_cast<int>(rng.Uniform(100));
    if (action < 45) {
      const Key key = rng.Next64();
      const Bytes value = rng.RandomBytes(1 + rng.Uniform(40));
      const Status s = file.Insert(key, value);
      if (model.contains(key)) {
        EXPECT_TRUE(s.IsAlreadyExists());
      } else if (s.ok()) {
        model[key] = value;
      } else {
        ADD_FAILURE() << "step " << step << " insert failed: " << s;
      }
    } else if (action < 58 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      const Bytes value = rng.RandomBytes(1 + rng.Uniform(40));
      ASSERT_TRUE(file.Update(it->first, value).ok()) << "step " << step;
      it->second = value;
    } else if (action < 68 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_TRUE(file.Delete(it->first).ok()) << "step " << step;
      model.erase(it);
    } else if (action < 84) {
      if (!model.empty() && rng.Flip(0.8)) {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        auto got = file.Search(it->first);
        ASSERT_TRUE(got.ok()) << "step " << step << ": " << got.status();
        EXPECT_EQ(*got, it->second);
      } else {
        Key key = rng.Next64();
        while (model.contains(key)) key = rng.Next64();
        EXPECT_TRUE(file.Search(key).status().IsNotFound()) << step;
      }
    } else if (action < 90 && crashed_data == kInvalidNode &&
               crashed_parity == ~BucketNo{0}) {
      // 1-availability budget: at most one failure anywhere at a time
      // (a data+parity pair is already unrecoverable in LH*g).
      if (rng.Flip(0.7)) {
        crashed_data_bucket =
            static_cast<BucketNo>(rng.Uniform(file.bucket_count()));
        crashed_data = file.CrashDataBucket(crashed_data_bucket);
      } else {
        crashed_parity = static_cast<BucketNo>(
            rng.Uniform(file.parity_bucket_count()));
        file.CrashParityBucket(crashed_parity);
      }
    } else if (action < 96) {
      heal();
    }
  }

  heal();
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

INSTANTIATE_TEST_SUITE_P(
    Scenarios, LhgFuzzTest,
    ::testing::Values(FuzzParams{11, 3, false}, FuzzParams{12, 3, true},
                      FuzzParams{13, 2, false}, FuzzParams{14, 5, false},
                      FuzzParams{15, 4, true}, FuzzParams{16, 2, true}),
    [](const ::testing::TestParamInfo<FuzzParams>& info) {
      return "seed" + std::to_string(info.param.seed) + "_k" +
             std::to_string(info.param.k) +
             (info.param.g1 ? "_g1" : "_basic");
    });

}  // namespace
}  // namespace lhrs::lhg
