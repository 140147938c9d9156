#ifndef LHRS_WORKLOAD_GENERATOR_H_
#define LHRS_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "lh/lh_math.h"
#include "sdds/session.h"

namespace lhrs::workload {

/// Zipf-distributed index sampler over [0, n): index i is drawn with
/// probability proportional to 1 / (i+1)^theta. Building the cumulative
/// table costs O(n), sampling O(log n).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double theta);

  size_t n() const { return cumulative_.size(); }

  /// Draws an index in [0, n).
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cumulative_;
};

/// Specification of a production-shaped op stream family: N per-session
/// streams over a preloaded keyspace, with a chosen access skew and an
/// operation mix of searches, read-modify-write pairs and fresh inserts.
///
/// Determinism contract: session `s`'s stream is a pure function of
/// (seed, s, index) — every session draws from its own Rng seeded by
/// SessionSeed(seed, s), so the stream a session sees never depends on how
/// the driver interleaves Next() calls across sessions. Open-loop runners
/// call the source in completion order, yet each session submits
/// byte-identical ops (see StreamDigest and tests/workload_gen_test.cc).
struct GeneratorOptions {
  uint64_t seed = 1;
  size_t sessions = 4;
  uint64_t ops_per_session = 1000;

  /// Preloaded keyspace (see WorkloadGenerator::preload_keys). Under
  /// Zipfian skew, rank 0 is the hottest key.
  size_t keyspace = 512;
  size_t value_bytes = 32;

  enum class KeyDist {
    kUniform,  ///< Every preloaded key equally likely.
    kZipfian,  ///< Hot ranks per 1/(r+1)^theta — models popularity skew.
  };
  KeyDist dist = KeyDist::kUniform;
  double zipf_theta = 0.99;  ///< YCSB-style default.

  /// Op mix; fractions must sum to ~1. A read-modify-write occupies two
  /// consecutive stream slots (the search, then the update of that key).
  double search_fraction = 0.70;
  double rmw_fraction = 0.20;
  double insert_fraction = 0.10;

  bool Valid() const;
};

/// Seeded generator feeding the open-loop PipelinedRunner: construct one,
/// preload `preload_keys()` into the file, then wire `Next` as the
/// runner's OpSource.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(GeneratorOptions options);

  const GeneratorOptions& options() const { return options_; }

  /// The fixed keyspace, rank order (index 0 = hottest under Zipf). Pure
  /// function of the seed; load these before running the streams.
  const std::vector<Key>& preload_keys() const { return preload_; }

  /// Next op of `session`'s stream; nullopt once ops_per_session issued.
  std::optional<sdds::SddsOp> Next(size_t session);

  uint64_t issued(size_t session) const;

  /// Per-session stream seed: SplitMix64-style mix of (seed, session), so
  /// adjacent sessions get uncorrelated streams.
  static uint64_t SessionSeed(uint64_t seed, size_t session);

  /// FNV-1a digest of `session`'s complete stream under `options`,
  /// replayed from scratch — the reference value determinism tests compare
  /// observed submissions against.
  static uint64_t StreamDigest(const GeneratorOptions& options,
                               size_t session);

 private:
  struct Stream {
    Rng rng;
    uint64_t issued = 0;
    /// Second half of an in-progress read-modify-write pair.
    std::optional<Key> pending_update;
    explicit Stream(uint64_t seed) : rng(seed) {}
  };

  sdds::SddsOp Generate(Stream& stream);

  GeneratorOptions options_;
  std::vector<Key> preload_;
  ZipfSampler zipf_;
  std::vector<Stream> streams_;
};

/// FNV-1a offset basis; chain ops with DigestOp to fingerprint a stream.
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

/// Folds one op (type, key, payload bytes) into an FNV-1a chain value.
uint64_t DigestOp(uint64_t h, const sdds::SddsOp& op);

}  // namespace lhrs::workload

#endif  // LHRS_WORKLOAD_GENERATOR_H_
