#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/logging.h"

namespace lhrs::workload {

ZipfSampler::ZipfSampler(size_t n, double theta) {
  LHRS_CHECK_GT(n, 0u);
  cumulative_.reserve(n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cumulative_.push_back(sum);
  }
  for (double& c : cumulative_) c /= sum;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it =
      std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return it == cumulative_.end() ? cumulative_.size() - 1
                                 : static_cast<size_t>(
                                       it - cumulative_.begin());
}

bool GeneratorOptions::Valid() const {
  const double sum = search_fraction + rmw_fraction + insert_fraction;
  return sessions > 0 && keyspace > 0 && std::abs(sum - 1.0) < 1e-9 &&
         search_fraction >= 0 && rmw_fraction >= 0 && insert_fraction >= 0;
}

uint64_t WorkloadGenerator::SessionSeed(uint64_t seed, size_t session) {
  // SplitMix64 finalizer over the pair, so streams of adjacent sessions
  // (and of adjacent base seeds) are uncorrelated.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (session + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

WorkloadGenerator::WorkloadGenerator(GeneratorOptions options)
    : options_(options),
      zipf_(options.keyspace, options.zipf_theta) {
  LHRS_CHECK(options_.Valid()) << "workload fractions must sum to 1";
  // The keyspace is drawn from the base seed alone (not per session):
  // every session, every runner and every oracle replay sees the same
  // rank -> key mapping.
  Rng key_rng(SessionSeed(options_.seed, /*session=*/0x6b657973));
  std::set<Key> seen;
  preload_.reserve(options_.keyspace);
  while (preload_.size() < options_.keyspace) {
    const Key k = key_rng.Next64();
    if (seen.insert(k).second) preload_.push_back(k);
  }
  streams_.reserve(options_.sessions);
  for (size_t s = 0; s < options_.sessions; ++s) {
    streams_.emplace_back(SessionSeed(options_.seed, s));
  }
}

uint64_t WorkloadGenerator::issued(size_t session) const {
  LHRS_CHECK_LT(session, streams_.size());
  return streams_[session].issued;
}

std::optional<sdds::SddsOp> WorkloadGenerator::Next(size_t session) {
  LHRS_CHECK_LT(session, streams_.size());
  Stream& stream = streams_[session];
  if (stream.issued >= options_.ops_per_session) return std::nullopt;
  ++stream.issued;
  return Generate(stream);
}

sdds::SddsOp WorkloadGenerator::Generate(Stream& stream) {
  // The update half of a read-modify-write pair goes out before anything
  // else: the pair occupies consecutive slots of its session's stream.
  if (stream.pending_update.has_value()) {
    const Key key = *stream.pending_update;
    stream.pending_update.reset();
    return sdds::SddsOp{OpType::kUpdate, key,
                        stream.rng.RandomBytes(options_.value_bytes)};
  }
  const double roll = stream.rng.NextDouble();
  if (roll < options_.search_fraction + options_.rmw_fraction) {
    const size_t rank = options_.dist == GeneratorOptions::KeyDist::kZipfian
                            ? zipf_.Sample(stream.rng)
                            : static_cast<size_t>(
                                  stream.rng.Uniform(preload_.size()));
    const Key key = preload_[rank];
    if (roll >= options_.search_fraction) stream.pending_update = key;
    return sdds::SddsOp{OpType::kSearch, key, {}};
  }
  // Fresh insert: a full-width random key collides with the preloaded
  // keyspace (or an earlier fresh key) with probability ~ops^2 / 2^64 —
  // never in any seeded run this repo performs.
  return sdds::SddsOp{OpType::kInsert, stream.rng.Next64(),
                      stream.rng.RandomBytes(options_.value_bytes)};
}

uint64_t WorkloadGenerator::StreamDigest(const GeneratorOptions& options,
                                         size_t session) {
  WorkloadGenerator fresh(options);
  uint64_t h = kFnvOffsetBasis;
  while (auto op = fresh.Next(session)) h = DigestOp(h, *op);
  return h;
}

uint64_t DigestOp(uint64_t h, const sdds::SddsOp& op) {
  constexpr uint64_t kPrime = 1099511628211ULL;
  auto mix = [&](uint8_t byte) { h = (h ^ byte) * kPrime; };
  mix(static_cast<uint8_t>(op.op));
  for (int i = 0; i < 8; ++i) mix(static_cast<uint8_t>(op.key >> (8 * i)));
  for (uint8_t byte : op.value) mix(byte);
  return h;
}

}  // namespace lhrs::workload
