#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Standalone replays of single layers (store, parity code, GF kernel) at a
// workload's record size, plus the calibration loop.

#include <cstdint>

#include "workloads.h"

namespace perfbench {

struct LayerFigures {
  double store_insert_ns = 0.0;
  double store_erase_ns = 0.0;
  double store_compact_ms = 0.0;
  double store_find_ns = 0.0;
  double parity_apply_delta_ns = 0.0;
  double parity_decode_mb_per_s = 0.0;
  double gf_muladd_gbps = 0.0;
  bool ok = true;  ///< Every replay's output checked out.
};

/// Runs every layer replay for about `budget_s` seconds in total.
LayerFigures MeasureLayers(const WorkloadSpec& spec, const Sizes& sizes,
                           uint64_t seed, double budget_s);

/// One sample of the fixed calibration loop, in ns per iteration: a
/// dependent chain of table lookups that fits in L1, so it tracks how much
/// CPU the process gets, not the memory system.
double CalibrationNs();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
