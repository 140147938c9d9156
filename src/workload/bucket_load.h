#ifndef LHRS_WORKLOAD_BUCKET_LOAD_H_
#define LHRS_WORKLOAD_BUCKET_LOAD_H_

#include <cstdint>
#include <vector>

#include "lhstar/lhstar_file.h"

namespace lhrs::workload {

/// One data bucket's observed load: how many key-addressed ops it
/// executed and the distribution of its network queueing depth (pending
/// deliveries at op arrival) — the telemetry DataBucketNode records as
/// bucket.ops{bucket=N} / bucket.queue_depth{bucket=N}.
struct BucketLoad {
  BucketNo bucket = 0;
  uint64_t ops = 0;
  uint64_t queue_depth_p50 = 0;
  uint64_t queue_depth_p95 = 0;
  uint64_t queue_depth_max = 0;
};

/// Reads the per-bucket series for buckets [0, bucket_count) from the
/// file's telemetry. Requires Network::EnableTelemetry before the
/// workload ran. Buckets with no recorded ops report zeros.
std::vector<BucketLoad> SnapshotBucketLoad(LhStarFile& file);

/// Hottest-to-mean ops ratio over the non-empty snapshot — 1.0 for a
/// perfectly even spread, rising with access skew. 0 when no ops recorded.
double SkewRatio(const std::vector<BucketLoad>& load);

}  // namespace lhrs::workload

#endif  // LHRS_WORKLOAD_BUCKET_LOAD_H_
