#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three LH*RS workloads. One pass = set-up (file construction through
// preload) + the measured op phase + a bucket-repair phase + untimed
// correctness checks. A pass is a pure function of (workload, sizes, seed):
// every deterministic figure it produces is identical across passes, runs
// and between the untraced and the traced loops.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ledger.h"
#include "workload/generator.h"

namespace perfbench {

/// Problem sizes: the defaults are the benchmark, Smoke() the quick
/// self-test.
struct Sizes {
  size_t bucket_capacity = 1000;  ///< b.
  size_t ingest_records = 250000;
  size_t serve_keys = 100000;
  uint64_t serve_ops_per_session = 50000;  ///< 4 sessions.
  size_t repair_records = 100000;
  uint32_t repair_rounds = 64;       ///< Most double erasures per pass.
  uint32_t repair_searches = 64;     ///< Degraded searches per lost bucket.
  uint32_t drill_rounds = 64;        ///< Most single erasures per ingest/serve pass.
  size_t verify_sample = 2000;       ///< Keys read back after the op phase.

  static Sizes Smoke();
};

/// Geometry of a workload's file.
struct WorkloadSpec {
  std::string name;
  uint32_t k = 1;
  size_t value_bytes = 64;
};

/// Returns false for an unknown workload name.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

/// Everything one pass measured.
struct PassResult {
  // --- Host time (meaningful in untraced passes) --------------------------
  uint64_t setup_ns = 0;
  uint64_t op_phase_ns = 0;              ///< Wall time of the op phase.
  // The pieces below repeat identically in every pass, in the same order,
  // so a run can take the best time of each piece over its passes.
  std::vector<uint64_t> op_host_ns;      ///< Per client op.
  std::vector<uint64_t> window_ns;       ///< Per window of `window_ops`.
  uint64_t window_ops = 0;
  std::vector<uint64_t> repair_round_ns; ///< Per repair round.

  // --- Deterministic -------------------------------------------------------
  uint64_t ops = 0;          ///< Client ops of the op phase.
  uint64_t msgs = 0;         ///< Messages of the op phase.
  uint64_t msgs_lhstar = 0;
  uint64_t msgs_lhrs = 0;
  uint64_t events = 0;       ///< Network events (Steps) of the op phase.
  std::vector<uint64_t> sim_us;  ///< Simulated latency per client op.
  uint64_t splits = 0;       ///< Buckets added during the op phase.
  double load_factor = 0.0;  ///< After the load (see README.md).
  uint64_t repair_rounds = 0;
  uint64_t repair_sim_us = 0;    ///< Summed over rounds.
  uint64_t repair_bytes = 0;     ///< Record bytes rebuilt, summed.
  double stored_bytes_per_user_byte = 0.0;

  // --- Traced passes only ---------------------------------------------------
  Ledger ledger;
  uint64_t measured_wall_ns = 0;   ///< Op + repair phases, wall time.
  uint64_t split_ns = 0;           ///< Steps inside an open split.
  uint64_t splits_traced = 0;      ///< kSplitEnd events seen.
  uint64_t phase_ns[3] = {0, 0, 0};  ///< Plan, read, decode + install.
  uint64_t deltas_applied = 0;     ///< parity.deltas_applied, op phase.
  uint64_t survivor_bytes = 0;     ///< recovery.repair_bytes_moved.

  // --- Correctness ----------------------------------------------------------
  uint64_t attempted = 0;  ///< Client ops plus read-back checks.
  uint64_t failed = 0;     ///< Failed ops, wrong results, failed checks.
  std::string first_error;

  /// Canonical text of every deterministic figure (for equality checks).
  std::string DeterministicDigest() const;
};

/// Mixes the seed with a per-purpose salt.
uint64_t Salted(uint64_t seed, uint64_t salt);

/// Seeded payload, eight bytes per generator step.
void FillRandom(lhrs::Rng& rng, uint8_t* p, size_t n);

/// The serve workload's op stream: Zipfian 0.99, 70/20/10
/// search/RMW/insert, 4 sessions.
lhrs::workload::GeneratorOptions ServeGeneratorOptions(const Sizes& sizes,
                                                       size_t value_bytes,
                                                       uint64_t seed);

PassResult RunPass(const WorkloadSpec& spec, const Sizes& sizes,
                   uint64_t seed, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
