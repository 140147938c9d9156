#ifndef LHRS_LHRS_RS_DATA_BUCKET_H_
#define LHRS_LHRS_RS_DATA_BUCKET_H_

#include <memory>
#include <optional>
#include <vector>

#include "lhrs/messages.h"
#include "lhrs/shared.h"
#include "lhstar/data_bucket.h"

namespace lhrs {

/// An LH*RS data bucket: an LH* data bucket that additionally assigns a
/// rank to every resident record and keeps the k parity buckets of its
/// bucket group consistent through incremental XOR/Reed-Solomon deltas.
///
/// Rank discipline: a record's rank is its store slot plus one, so ranks
/// are 1-based, unique within the bucket and need no index of their own.
/// Ranks freed by deletes and split moves are reused smallest-first (the
/// store's slot policy) so record groups stay dense — the paper's
/// counter-reuse enhancement, section 4.3. `LhrsContext::reuse_ranks`
/// selects the store's monotone policy instead (ablation).
class RsDataBucketNode : public DataBucketNode {
 public:
  RsDataBucketNode(std::shared_ptr<LhrsContext> lhrs_ctx, BucketNo bucket_no,
                   Level level, bool pre_initialized);

  uint32_t group() const { return GroupOf(bucket_no(), lhrs_ctx_->m); }
  uint32_t slot() const { return SlotOf(bucket_no(), lhrs_ctx_->m); }
  bool has_group_config() const { return !parity_nodes_.empty(); }

  /// Rank of a resident key.
  Rank RankOf(Key key) const;

  /// All resident records with their ranks, in rank order (tests /
  /// invariant verification; the protocol path is ColumnReadRequest).
  std::vector<RankedRecord> RankedRecords() const;

 protected:
  void OnInsertCommitted(Key key, const BufferView& value) override;
  void OnUpdateCommitted(Key key, const BufferView& old_value,
                         const BufferView& new_value) override;
  void OnDeleteCommitted(Key key, const BufferView& old_value) override;
  void OnRecordsMovedOut(std::vector<WireRecord>& moved) override;
  void OnRecordsMovedIn(const std::vector<WireRecord>& moved) override;
  /// Group commit for bulk loads: deltas generated between Begin and End
  /// are buffered and flushed as one ParityDeltaBatchMsg per parity bucket
  /// instead of one ParityDeltaMsg per record — k messages per sub-batch.
  void OnBatchCommitBegin() override;
  void OnBatchCommitEnd() override;

  void HandleSubclassMessage(const Message& msg) override;
  void HandleSubclassDeliveryFailure(const Message& msg) override;

 private:
  /// Sends one delta to all k parity buckets of this bucket's group.
  void SendDelta(ParityDelta delta);
  /// Holds a delta generated before GroupConfig arrived (only possible on
  /// a lossy transport or under fault injection).
  void ParkDelta(ParityDelta delta);
  /// Sends a delta batch to all k parity buckets (one bulk message each;
  /// the last send steals the batch instead of copying it).
  void SendDeltaBatch(std::vector<ParityDelta> deltas);
  void InstallDataColumn(const InstallDataColumnMsg& install);

  std::shared_ptr<LhrsContext> lhrs_ctx_;
  std::vector<NodeId> parity_nodes_;  ///< Local copy, fed by GroupConfig.
  uint32_t k_ = 0;
  /// Task of the last column install applied; a repeat is a duplicated
  /// delivery that would roll back the ops replayed since the first copy
  /// (see ParityBucketNode::installed_task_).
  std::optional<uint64_t> installed_task_;
  /// Deltas generated before GroupConfig arrived (chaos reorder/drop, or
  /// real-transport retransmit delay); flushed when the configuration
  /// lands. Ranks are bound at generation time, so replay order within a
  /// record group is preserved.
  std::vector<ParityDelta> pending_deltas_;
  /// Group-commit buffer: while true, SendDelta accumulates here instead
  /// of sending (see OnBatchCommitBegin/End).
  bool batching_deltas_ = false;
  std::vector<ParityDelta> batch_deltas_;
};

}  // namespace lhrs

#endif  // LHRS_LHRS_RS_DATA_BUCKET_H_
