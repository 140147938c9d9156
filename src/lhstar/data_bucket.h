#ifndef LHRS_LHSTAR_DATA_BUCKET_H_
#define LHRS_LHSTAR_DATA_BUCKET_H_

#include <memory>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "lh/lh_math.h"
#include "lhstar/messages.h"
#include "lhstar/system.h"
#include "net/dedup.h"
#include "net/held.h"
#include "net/node.h"
#include "store/bucket_store.h"

namespace lhrs {

namespace telemetry {
class Counter;
class Histogram;
}  // namespace telemetry

/// A server carrying one LH* data bucket.
///
/// Implements the server side of the LH* protocol: address verification and
/// at-most-two-hop forwarding (A2), IAM issuance on forwarded requests,
/// overflow reporting, the splitting protocol, scan coverage forwarding, and
/// the displaced-bucket checks of paper section 2.8.
///
/// The high-availability layers subclass this and hook the `On*Committed` /
/// `OnRecordsMoved*` notification points to maintain parity; the base class
/// is a complete, availability-free LH* server.
class DataBucketNode : public Node {
 public:
  /// `pre_initialized` is true for the file's initial buckets and false for
  /// split targets and recovery spares, which hold the traffic that needs
  /// records until the record move or install arrives.
  DataBucketNode(std::shared_ptr<SystemContext> ctx, BucketNo bucket_no,
                 Level level, bool pre_initialized);

  void HandleMessage(const Message& msg) override;
  void HandleDeliveryFailure(const Message& msg) override;
  const char* role() const override { return "data-bucket"; }

  BucketNo bucket_no() const { return bucket_no_; }
  Level level() const { return level_; }
  size_t record_count() const { return records_.size(); }
  bool decommissioned() const { return decommissioned_; }

  /// Local inspection for tests / storage statistics (not a protocol path).
  const store::BucketStore& records() const { return records_; }

  /// Approximate local storage in bytes (records + per-record overhead).
  size_t StorageBytes() const;

  /// Models self-detected restart after a transient outage (section
  /// 2.5.4): asks the coordinator whether this node still carries its
  /// bucket; stands down as a spare if it was recovered elsewhere.
  void SelfCheck();

 protected:
  // --- Hooks for availability layers -------------------------------------

  /// A new record was stored (insert path). Views share the stored bytes.
  virtual void OnInsertCommitted(Key key, const BufferView& value);
  /// An existing record's value changed (update path).
  virtual void OnUpdateCommitted(Key key, const BufferView& old_value,
                                 const BufferView& new_value);
  /// A record is being removed (delete path). Called just before the
  /// erase, so the record is still in `records_`.
  virtual void OnDeleteCommitted(Key key, const BufferView& old_value);
  /// Records are about to leave this bucket because of a split or merge;
  /// they are still in `records_` during the call. The vector is mutable
  /// so layers can attach per-record tags that must travel with the move.
  virtual void OnRecordsMovedOut(std::vector<WireRecord>& moved);
  /// Records arrived from a splitting bucket.
  virtual void OnRecordsMovedIn(const std::vector<WireRecord>& moved);
  /// This node was told it no longer carries its bucket (becomes a spare).
  virtual void OnDecommissioned();

  /// Brackets the commit loop of one insert batch. Between the two calls
  /// every OnInsertCommitted belongs to the same client sub-batch, so an
  /// availability layer can group-commit its side effects (LH*RS coalesces
  /// the per-record parity deltas into one batch message per parity
  /// bucket). Base: no-op.
  virtual void OnBatchCommitBegin();
  virtual void OnBatchCommitEnd();

  /// Whether a message of `kind` needs the bucket's records to be served.
  /// A bucket that waits for its records, and has not been stood down,
  /// holds such messages and replays them when the records arrive. Base:
  /// client ops, scans and insert batches.
  virtual bool NeedsRecords(int kind) const;

  /// Allows subclasses to extend the message vocabulary; called for any
  /// kind the base class does not recognise.
  virtual void HandleSubclassMessage(const Message& msg);
  /// Same for delivery failures of subclass-sent messages.
  virtual void HandleSubclassDeliveryFailure(const Message& msg);

  SystemContext& ctx() { return *ctx_; }
  const SystemContext& ctx() const { return *ctx_; }

  /// Directly installs state (recovery path; bypasses the insert hooks)
  /// and replays the traffic held while the bucket waited for it.
  void InstallRecoveredState(store::BucketStore records, Level level);

  /// Reports to the coordinator when this bucket exceeds its capacity
  /// (also used by subclasses that insert through non-OpRequest paths).
  void ReportOverflowIfNeeded();

  /// Record storage: payloads packed in arena segments, handles O(1),
  /// one slot per record (LH*RS uses it as the rank), deterministic
  /// iteration by slot or by ascending key.
  store::BucketStore records_;

 private:
  /// Restructuring messages (split orders, record moves/merges) are not
  /// idempotent; duplicated deliveries under fault injection are dropped
  /// by message id here.
  DuplicateFilter dedup_;

  /// Serves one message that passed the duplicate filter (held messages
  /// replay here too).
  void Dispatch(const Message& msg);
  /// Replays the held messages into Dispatch, once the bucket no longer
  /// holds: its records arrived, or it was stood down.
  void ReplayHeld();
  void HandleOpRequest(const Message& msg);
  void ExecuteLocalOp(const OpRequestMsg& req);
  void HandleInsertBatch(const InsertBatchMsg& batch);
  /// Records bucket.queue_depth{bucket=N} / bucket.ops{bucket=N} for one
  /// executed op.
  void RecordOpTelemetry();
  void HandleSplitOrder(const SplitOrderMsg& order);
  void HandleMoveRecords(const MoveRecordsMsg& move);
  void HandleMergeOut(const MergeOutMsg& order);
  void HandleMergeRecords(const MergeRecordsMsg& merge);
  void HandleScanRequest(const ScanRequestMsg& scan);
  /// Tells the scan's client that this bucket's part of the scan failed.
  void FailScanCoverage(const ScanRequestMsg& scan);
  void ReplyToClient(const OpRequestMsg& req, StatusCode code,
                     std::string error, BufferView value);
  /// Hands an op the server cannot place to the coordinator (displaced
  /// bucket / spare, section 2.8).
  void BounceToCoordinator(const OpRequestMsg& req);

  std::shared_ptr<SystemContext> ctx_;
  BucketNo bucket_no_;
  Level level_;
  bool initialized_;
  bool decommissioned_ = false;
  /// What arrived while the bucket waited for its records (NeedsRecords).
  HeldMessages held_;
  /// Cached telemetry handles for the per-bucket skew/queue-depth series.
  telemetry::Counter* ops_counter_ = nullptr;
  telemetry::Histogram* queue_depth_histogram_ = nullptr;
};

}  // namespace lhrs

#endif  // LHRS_LHSTAR_DATA_BUCKET_H_
