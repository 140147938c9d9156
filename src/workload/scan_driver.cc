#include "workload/scan_driver.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace lhrs::workload {
namespace {

/// Upper boundary of partition `i` of `p` over the inclusive span
/// [key_min, key_min + span]: key_min + ((i+1) * span) / p, computed in
/// 128 bits so the full-key-space span (2^64 - 1) never overflows.
Key PartitionUpper(Key key_min, uint64_t span, size_t i, size_t p) {
  const unsigned __int128 scaled =
      static_cast<unsigned __int128>(span) * (i + 1) / p;
  return key_min + static_cast<Key>(scaled);
}

}  // namespace

Result<ParallelScanReport> ParallelScan(LhStarFile& file,
                                        const ParallelScanOptions& options) {
  if (options.partitions == 0 || options.key_min > options.key_max) {
    return Status::InvalidArgument("bad parallel-scan partitioning");
  }
  const size_t p = options.partitions;
  const uint64_t span = options.key_max - options.key_min;

  struct Launched {
    size_t session = 0;
    uint64_t op_id = 0;
  };
  std::vector<Launched> launched;
  ParallelScanReport report;
  const SimTime start_us = file.network().now();

  Key lo = options.key_min;
  for (size_t i = 0; i < p && lo <= options.key_max; ++i) {
    const Key hi =
        i + 1 == p ? options.key_max : PartitionUpper(options.key_min, span,
                                                      i, p);
    if (hi < lo) continue;  // Degenerate partition (span < p).
    while (file.session_count() <= launched.size()) file.AddSession();
    const size_t session = launched.size();
    ScanPredicate predicate;
    predicate.has_key_range = true;
    predicate.key_min = lo;
    predicate.key_max = hi;
    const uint64_t op_id =
        file.client(session).StartScan(std::move(predicate),
                                       options.deterministic);
    launched.push_back(Launched{session, op_id});
    if (hi == options.key_max) break;
    lo = hi + 1;
  }
  report.partitions = launched.size();

  // The simulation going idle is the probabilistic-mode time-out.
  file.network().RunUntilIdle();

  for (const Launched& scan : launched) {
    LHRS_ASSIGN_OR_RETURN(OpOutcome outcome,
                          file.client(scan.session).TakeScan(scan.op_id));
    if (!outcome.status.ok()) return outcome.status;
    // Per-partition sort; partitions are disjoint and ascending, so the
    // concatenation is globally sorted.
    std::sort(outcome.scan_records.begin(), outcome.scan_records.end(),
              [](const WireRecord& a, const WireRecord& b) {
                return a.key < b.key;
              });
    report.records.insert(report.records.end(),
                          std::make_move_iterator(
                              outcome.scan_records.begin()),
                          std::make_move_iterator(outcome.scan_records.end()));
  }
  report.elapsed_us = file.network().now() - start_us;
  return report;
}

}  // namespace lhrs::workload
