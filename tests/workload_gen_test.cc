// Workload-generator tests: the Zipf sampler, option validation, seeded
// determinism (same seed => byte-identical per-session op streams, however
// the runner interleaves sessions), the read-modify-write pairing
// invariant, and the Zipfian empirical frequency check.

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "lhstar/lhstar_file.h"
#include "sdds/session.h"
#include "workload/generator.h"

namespace lhrs {
namespace {

using workload::DigestOp;
using workload::GeneratorOptions;
using workload::kFnvOffsetBasis;
using workload::WorkloadGenerator;
using workload::ZipfSampler;

TEST(ZipfSamplerTest, SkewsTowardLowIndices) {
  ZipfSampler zipf(1000, 0.99);
  Rng rng(1);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 100000; ++i) ++hits[zipf.Sample(rng)];
  // Index 0 must be much hotter than index 500.
  EXPECT_GT(hits[0], 20 * std::max(1, hits[500]));
  // And the head (top 10%) should carry the majority of accesses.
  int head = 0;
  for (int i = 0; i < 100; ++i) head += hits[i];
  EXPECT_GT(head, 50000);
}

TEST(ZipfSamplerTest, ThetaZeroIsUniform) {
  ZipfSampler zipf(100, 0.0);
  Rng rng(2);
  std::vector<int> hits(100, 0);
  for (int i = 0; i < 100000; ++i) ++hits[zipf.Sample(rng)];
  for (int h : hits) {
    EXPECT_GT(h, 600);
    EXPECT_LT(h, 1400);
  }
}

TEST(WorkloadSpecTest, Validation) {
  GeneratorOptions opts;
  EXPECT_TRUE(opts.Valid());
  opts.insert_fraction = 0.9;
  EXPECT_FALSE(opts.Valid());  // Sums to > 1.
  opts = GeneratorOptions{};
  opts.search_fraction = 1.2;
  opts.rmw_fraction = -0.3;
  EXPECT_FALSE(opts.Valid());  // Sums to 1 with a negative share.
  opts = GeneratorOptions{};
  opts.sessions = 0;
  EXPECT_FALSE(opts.Valid());
  opts = GeneratorOptions{};
  opts.keyspace = 0;
  EXPECT_FALSE(opts.Valid());
}

GeneratorOptions SmallOptions() {
  GeneratorOptions opts;
  opts.seed = 71;
  opts.sessions = 3;
  opts.ops_per_session = 200;
  opts.keyspace = 64;
  opts.value_bytes = 16;
  return opts;
}

TEST(WorkloadGeneratorTest, SameSeedYieldsIdenticalStreams) {
  WorkloadGenerator a(SmallOptions());
  WorkloadGenerator b(SmallOptions());
  ASSERT_EQ(a.preload_keys(), b.preload_keys());
  for (size_t s = 0; s < SmallOptions().sessions; ++s) {
    for (;;) {
      auto op_a = a.Next(s);
      auto op_b = b.Next(s);
      ASSERT_EQ(op_a.has_value(), op_b.has_value());
      if (!op_a.has_value()) break;
      EXPECT_EQ(op_a->op, op_b->op);
      EXPECT_EQ(op_a->key, op_b->key);
      EXPECT_EQ(op_a->value, op_b->value);
    }
  }
}

TEST(WorkloadGeneratorTest, StreamDigestMatchesDrainedStream) {
  const GeneratorOptions opts = SmallOptions();
  WorkloadGenerator gen(opts);
  for (size_t s = 0; s < opts.sessions; ++s) {
    uint64_t h = kFnvOffsetBasis;
    while (auto op = gen.Next(s)) h = DigestOp(h, *op);
    EXPECT_EQ(h, WorkloadGenerator::StreamDigest(opts, s)) << "session " << s;
  }
}

TEST(WorkloadGeneratorTest, SessionsAndSeedsAreUncorrelated) {
  const GeneratorOptions opts = SmallOptions();
  std::set<uint64_t> digests;
  for (size_t s = 0; s < opts.sessions; ++s) {
    digests.insert(WorkloadGenerator::StreamDigest(opts, s));
  }
  GeneratorOptions reseeded = opts;
  reseeded.seed = opts.seed + 1;
  digests.insert(WorkloadGenerator::StreamDigest(reseeded, 0));
  EXPECT_EQ(digests.size(), opts.sessions + 1);
}

TEST(WorkloadGeneratorTest, RmwUpdateImmediatelyFollowsItsSearch) {
  GeneratorOptions opts = SmallOptions();
  opts.search_fraction = 0.2;
  opts.rmw_fraction = 0.7;
  opts.insert_fraction = 0.1;
  WorkloadGenerator gen(opts);
  size_t pairs = 0;
  std::optional<Key> last_search;
  while (auto op = gen.Next(0)) {
    if (op->op == OpType::kUpdate) {
      ASSERT_TRUE(last_search.has_value())
          << "update without a preceding search";
      EXPECT_EQ(op->key, *last_search);
      ++pairs;
    }
    last_search = op->op == OpType::kSearch ? std::optional<Key>(op->key)
                                            : std::nullopt;
  }
  EXPECT_GT(pairs, 40u);  // ~70% of 200 slots are RMW halves.
}

TEST(WorkloadGeneratorTest, ZipfianFrequenciesMatchTheory) {
  GeneratorOptions opts;
  opts.seed = 13;
  opts.sessions = 1;
  opts.ops_per_session = 60000;
  opts.keyspace = 64;
  opts.dist = GeneratorOptions::KeyDist::kZipfian;
  opts.search_fraction = 1.0;
  opts.rmw_fraction = 0.0;
  opts.insert_fraction = 0.0;
  WorkloadGenerator gen(opts);

  std::map<Key, uint64_t> counts;
  uint64_t total = 0;
  while (auto op = gen.Next(0)) {
    ++counts[op->key];
    ++total;
  }
  double harmonic = 0.0;
  for (size_t r = 0; r < opts.keyspace; ++r) {
    harmonic += 1.0 / std::pow(static_cast<double>(r + 1), opts.zipf_theta);
  }
  // The five hottest ranks carry enough mass for a tight relative check.
  for (size_t r = 0; r < 5; ++r) {
    const double expected =
        1.0 / std::pow(static_cast<double>(r + 1), opts.zipf_theta) /
        harmonic;
    const double observed =
        static_cast<double>(counts[gen.preload_keys()[r]]) /
        static_cast<double>(total);
    EXPECT_NEAR(observed, expected, expected * 0.10)
        << "rank " << r << " drifted beyond 10%";
  }
  // Monotone hotness across the head of the distribution.
  EXPECT_GT(counts[gen.preload_keys()[0]], counts[gen.preload_keys()[4]]);
}

/// Runs the generator-fed open-loop runner and returns the per-session
/// digests of the submitted op streams (observed at the OpSource boundary).
std::vector<uint64_t> ObservedDigests(const GeneratorOptions& opts) {
  LhStarFile::Options file_opts;
  file_opts.file.bucket_capacity = 8;
  LhStarFile file(file_opts);

  WorkloadGenerator gen(opts);
  Rng values(5);
  for (Key k : gen.preload_keys()) {
    EXPECT_TRUE(file.Insert(k, values.RandomBytes(16)).ok());
  }

  std::vector<uint64_t> digests(opts.sessions, kFnvOffsetBasis);
  sdds::PipelinedRunner runner(file,
                               sdds::RunnerOptions{opts.sessions, 4, 0});
  const sdds::RunnerReport report =
      runner.Run([&](size_t session) -> std::optional<sdds::SddsOp> {
        auto op = gen.Next(session);
        if (op.has_value()) digests[session] = DigestOp(digests[session], *op);
        return op;
      });
  EXPECT_EQ(report.completed, opts.sessions * opts.ops_per_session);
  EXPECT_EQ(report.failures, 0u);
  return digests;
}

TEST(WorkloadGeneratorTest, ByteIdenticalStreamsAcrossExecutionEngines) {
  // The determinism claim end to end: the open-loop runner pulls ops in
  // completion order, yet every session submits exactly the byte stream
  // of the pure-function reference.
  GeneratorOptions opts;
  opts.seed = 29;
  opts.sessions = 2;
  opts.ops_per_session = 120;
  opts.keyspace = 96;
  opts.value_bytes = 16;
  const std::vector<uint64_t> observed = ObservedDigests(opts);
  ASSERT_EQ(observed.size(), opts.sessions);
  for (size_t s = 0; s < observed.size(); ++s) {
    EXPECT_EQ(observed[s], WorkloadGenerator::StreamDigest(opts, s))
        << "session " << s;
  }
}

}  // namespace
}  // namespace lhrs
