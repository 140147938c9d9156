#ifndef LHRS_ANALYSIS_COST_MODEL_H_
#define LHRS_ANALYSIS_COST_MODEL_H_

#include <cstdint>

namespace lhrs {

/// Closed-form messaging-cost predictions per scheme, in messages
/// (request + reply counted separately, matching the simulator's
/// statistics). Benches print these next to the measured values so each
/// table shows model vs measurement.
struct CostModel {
  /// Converged-image key search: request + reply.
  static constexpr double kLhStarSearch = 2.0;
  /// Converged-image insert: request + reply (parity excluded).
  static constexpr double kLhStarInsert = 2.0;

  /// LH*RS insert: data request + reply + k parity deltas (unacknowledged).
  static double LhrsInsert(uint32_t k) { return 2.0 + k; }
  /// LH*RS failure-free search: identical to LH*.
  static constexpr double kLhrsSearch = kLhStarSearch;

  /// LH*g insert: data request + reply + 1 parity update.
  static constexpr double kLhgInsert = 3.0;

  /// LH*m insert: two replicas, request + reply each.
  static constexpr double kLhmInsert = 4.0;

  /// LH*s insert: k data stripes + 1 parity stripe, request + reply each.
  static double LhsInsert(uint32_t k) { return 2.0 * (k + 1); }
  /// LH*s search must gather k stripes.
  static double LhsSearch(uint32_t k) { return 2.0 * k; }

  /// LH*RS degraded-mode record recovery: find-rank round trip at the
  /// group's parity bucket + one read round trip per surviving sibling +
  /// the client reply. Constant in file size M.
  static double LhrsRecordRecovery(uint32_t m) {
    return 2.0 + 2.0 * (m - 1) + 1.0;
  }
  /// LH*g record recovery (A7): scan of the whole parity file (multicast
  /// counted as 1) + M2 replies + 2(k-1) member searches + client reply.
  /// Linear in file size via M2 ~ M/k.
  static double LhgRecordRecovery(uint32_t parity_buckets,
                                  uint32_t group_size) {
    return 1.0 + parity_buckets + 2.0 * (group_size - 1) + 1.0;
  }
};

}  // namespace lhrs

#endif  // LHRS_ANALYSIS_COST_MODEL_H_
