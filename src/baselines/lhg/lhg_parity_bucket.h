#ifndef LHRS_BASELINES_LHG_LHG_PARITY_BUCKET_H_
#define LHRS_BASELINES_LHG_LHG_PARITY_BUCKET_H_

#include <memory>
#include <vector>

#include "baselines/lhg/lhg_messages.h"
#include "lhstar/data_bucket.h"

namespace lhrs::lhg {

/// A bucket of the LH*g parity file F2: a plain LH* bucket whose records
/// are serialized ParityRecordG values keyed by the packed group key, plus
/// the XOR-maintenance protocol. Because it *is* an LH* bucket, F2 scales
/// by ordinary splits and parity records move with zero special handling —
/// exactly the paper's construction.
class LhgParityBucketNode : public DataBucketNode {
 public:
  LhgParityBucketNode(std::shared_ptr<SystemContext> f2_ctx,
                      BucketNo bucket_no, Level level, bool pre_initialized);

  const char* role() const override { return "lhg-parity-bucket"; }

  /// Decoded view of all parity records (tests / verification).
  std::vector<std::pair<GroupKey, ParityRecordG>> DecodedRecords() const;

 protected:
  /// An F2 spare or split target also holds parity maintenance and the
  /// coordinator's parity reads until its records arrive.
  bool NeedsRecords(int kind) const override;
  void HandleSubclassMessage(const Message& msg) override;

 private:
  void ApplyParityUpdate(const ParityUpdateMsg& update);
  void HandleCollectForData(const CollectForDataMsg& req, NodeId from);
  void HandleFindParity(const FindParityMsg& req, NodeId from);
  void HandleInstall(const InstallParityMsg& install, NodeId from);
};

}  // namespace lhrs::lhg

#endif  // LHRS_BASELINES_LHG_LHG_PARITY_BUCKET_H_
