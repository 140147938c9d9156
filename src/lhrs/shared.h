#ifndef LHRS_LHRS_SHARED_H_
#define LHRS_LHRS_SHARED_H_

#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "lh/lh_math.h"
#include "lhstar/system.h"
#include "parity/parity_code.h"

namespace lhrs {

/// Scalable-availability policy (paper section on n-availability /
/// uncoordinated scalable availability): the availability level k assigned
/// to a *newly created* bucket group is base_k plus the number of
/// size thresholds the file has crossed. Existing groups keep their k.
struct AvailabilityPolicy {
  uint32_t base_k = 1;
  /// File sizes (in data buckets) at which k increments for new groups.
  std::vector<BucketNo> scale_thresholds;

  uint32_t KForFileSize(BucketNo data_buckets) const {
    uint32_t k = base_k;
    for (BucketNo t : scale_thresholds) {
      if (data_buckets >= t) ++k;
    }
    return k;
  }
};

/// Shares one parity code per availability level k (the generator matrix
/// for (m, k2) embeds the one for (m, k1 < k2) column-wise only after the
/// same normalisation, so each k gets its own code; they are tiny).
class CoderCache {
 public:
  explicit CoderCache(uint32_t m, FieldChoice field = FieldChoice::kGf256,
                      parity::CodeSpec code = {})
      : m_(m), field_(field), code_(code) {}

  uint32_t m() const { return m_; }
  FieldChoice field() const { return field_; }
  const parity::CodeSpec& code() const { return code_; }

  /// Get-or-create; the returned code lives as long as the cache.
  /// CHECK-fails on a geometry the configured code cannot express —
  /// validate the spec against the availability policy at file creation.
  const parity::ParityCode& ForK(uint32_t k) {
    auto it = coders_.find(k);
    if (it == coders_.end()) {
      auto coder = parity::MakeParityCode(code_, m_, k, field_);
      LHRS_CHECK(coder.ok()) << coder.status();
      it = coders_.emplace(k, std::move(coder).value()).first;
    }
    return *it->second;
  }

 private:
  uint32_t m_;
  FieldChoice field_;
  parity::CodeSpec code_;
  std::map<uint32_t, std::unique_ptr<parity::ParityCode>> coders_;
};

/// Shared wiring of the LH*RS layer, handed to parity buckets, RS data
/// buckets and the RS coordinator alongside the base SystemContext.
struct LhrsContext {
  std::shared_ptr<SystemContext> base;
  uint32_t m = 4;  ///< Bucket-group size.
  std::shared_ptr<CoderCache> coders;
  AvailabilityPolicy policy;
  bool auto_recover = true;
  /// Ablation switch (DESIGN.md section 6): reuse ranks freed by deletes
  /// and split moves (keeps record groups dense) vs monotone ranks (group
  /// occupancy decays, inflating parity storage). Ranks are store slots,
  /// so this is the data buckets' store slot policy.
  bool reuse_ranks = true;
};

/// Bucket group of data bucket `b` for group size m.
inline uint32_t GroupOf(BucketNo b, uint32_t m) { return b / m; }
/// Slot of data bucket `b` within its group.
inline uint32_t SlotOf(BucketNo b, uint32_t m) { return b % m; }

}  // namespace lhrs

#endif  // LHRS_LHRS_SHARED_H_
