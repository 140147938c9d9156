#ifndef LHRS_LHSTAR_CLIENT_H_
#define LHRS_LHSTAR_CLIENT_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "lh/lh_math.h"
#include "lhstar/messages.h"
#include "lhstar/system.h"
#include "net/node.h"
#include "sdds/op_table.h"

namespace lhrs {

namespace telemetry {
class Counter;
class Histogram;
}  // namespace telemetry

/// Client-side resilience knobs for lossy networks (the chaos engine's
/// territory). Disabled by default: in a fault-free simulation the only
/// failure signal is the delivery-failure bounce, which the base protocol
/// already handles, and retry timers would change message counts.
///
/// With the policy enabled a key-addressed operation becomes at-least-once:
/// attempts 1..max_direct_attempts go straight to the addressed bucket
/// (each armed with a timeout of request_timeout_us plus exponential
/// backoff with +/- jitter), later attempts escalate to the coordinator,
/// whose degraded-read path answers even with the data bucket down. The
/// duplicate deliveries that retries can produce are suppressed by op id on
/// the reply path, and retried inserts/deletes map kAlreadyExists/kNotFound
/// back to success (the earlier attempt landed).
struct ClientRetryPolicy {
  bool enabled = false;
  uint32_t max_direct_attempts = 3;  ///< Sends to the bucket itself.
  uint32_t max_total_attempts = 6;   ///< Including coordinator escalations.
  SimTime request_timeout_us = 6000; ///< Lost-reply detection per attempt.
  SimTime base_backoff_us = 500;     ///< Backoff before attempt 2.
  SimTime max_backoff_us = 8000;     ///< Exponential growth cap.
  double jitter = 0.5;               ///< Backoff spread: b * (1 +/- jitter).
  uint64_t seed = 42;                ///< Jitter stream (deterministic).
};

/// An LH* application client. Autonomous: carries its own image (i', n')
/// of the file state — initially (0, 0), i.e. "the file never grew" — and
/// converges through IAMs (algorithm A3).
///
/// The client also caches physical addresses of buckets it has talked to;
/// a recovery that moves a bucket to a spare leaves this cache stale, which
/// exercises the displaced-bucket protocol of section 2.8.
///
/// Operations are asynchronous: Start*() returns an op id, the simulation
/// is run (Network::RunUntilIdle), then TakeResult() yields the outcome.
/// Every op lives in `ops`, an OpTable the client shares with the other
/// clients of its file (or of its process, in cluster mode); the op id is
/// the op's token there.
class ClientNode : public Node {
 public:
  ClientNode(std::shared_ptr<SystemContext> ctx, sdds::OpTable& ops);

  void HandleMessage(const Message& msg) override;
  void HandleDeliveryFailure(const Message& msg) override;
  const char* role() const override { return "client"; }

  /// Starts a key-addressed operation; value applies to insert/update.
  /// `parent` names the logical op this one is a step of, if any.
  uint64_t StartOp(OpType op, Key key, BufferView value = {},
                   sdds::OpToken parent = 0);

  /// Starts a bulk-load batch: the records are grouped per target bucket
  /// under the client's image and shipped as one InsertBatchMsg per
  /// bucket. Records a stale image sent astray come back in the reply
  /// (with the IAM) and are re-grouped and resent; sub-batches that bounce
  /// off a displaced or crashed server fall back to per-record delivery
  /// via the coordinator. Completes (one op id, one outcome carrying the
  /// batch_* tallies) when every record is applied, a known duplicate, or
  /// failed. `records` must be non-empty.
  uint64_t StartInsertBatch(std::vector<WireRecord> records);

  /// Starts a parallel scan. With `deterministic` termination every bucket
  /// replies and the client verifies full coverage; otherwise only
  /// matching buckets reply (the caller then relies on the run-until-idle
  /// simulation as the paper's time-out).
  uint64_t StartScan(ScanPredicate predicate, bool deterministic = true);

  bool IsDone(uint64_t op_id) const { return ops_.Poll(op_id); }

  /// Returns and removes the outcome of a finished operation.
  Result<OpOutcome> TakeResult(uint64_t op_id) { return ops_.Take(op_id); }

  /// TakeResult for a scan once the network went idle. A probabilistic
  /// scan ends there (the driver's time-out) with whatever replies
  /// arrived; a deterministic one still open never terminated (kInternal).
  Result<OpOutcome> TakeScan(uint64_t op_id);

  const ClientImage& image() const { return image_; }

  /// Number of IAMs received so far (image-adjustment messages).
  uint64_t iam_count() const { return iam_count_; }
  /// Number of operations that needed at least one forwarding hop.
  uint64_t forwarded_ops() const { return forwarded_ops_; }

  /// Installs (or, with policy.enabled false, removes) the retry layer.
  /// Applies to operations started afterwards.
  void SetRetryPolicy(ClientRetryPolicy policy);

  /// Resilience counters (mirrored to telemetry when enabled, as
  /// client.retries / client.escalations / client.duplicates_suppressed).
  uint64_t retries() const { return retries_; }
  uint64_t escalations() const { return escalations_; }
  uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }

 private:
  using OpSlot = sdds::OpSlot;

  /// Physical address the client uses for `bucket`: its cached entry if it
  /// has one, else the authoritative table (modelling the allocation-table
  /// propagation to new clients), which is then cached.
  NodeId ResolveNode(BucketNo bucket);

  /// Finishes an op: the outcome waits in its slot for TakeResult, and
  /// the table's completion listener runs.
  void CompleteOp(OpSlot& op, OpOutcome outcome);
  /// The open slot of op `op_id` if it has `kind` and is still in flight.
  OpSlot* Pending(uint64_t op_id, sdds::OpKind kind);
  bool ScanCoverageComplete(const OpSlot& scan) const;

  /// Ships one sub-batch of `batch` to `bucket` (as addressed under the
  /// current image).
  void SendSubBatch(OpSlot& batch, BucketNo bucket,
                    std::vector<WireRecord> records, uint32_t attempt);
  /// Re-routes one record of a batch via the coordinator as an individual
  /// child insert (crash / displaced-bucket fallback).
  void SendBatchChildViaCoordinator(OpSlot& batch, const WireRecord& rec);
  /// Completes the batch op when nothing is outstanding any more.
  void MaybeCompleteBatch(OpSlot& batch);
  void HandleInsertBatchReply(const InsertBatchReplyMsg& reply);
  /// A coordinator reply to one re-routed record of a batch.
  void HandleBatchChildReply(OpSlot& child, const OpReplyMsg& reply);

  /// Timer callback (HandleTimer): attempts are tracked by op id.
  void HandleTimer(uint64_t timer_id) override;

  /// Re-sends a timed-out / bounced operation: directly while direct
  /// attempts remain, then via the coordinator, then gives up.
  void RetryOp(OpSlot& op);

  /// Arms the current attempt's timeout timer and records its deadline
  /// (stale timers from superseded attempts check the deadline and bail —
  /// the simulator has no timer cancellation).
  void ArmOpTimer(OpSlot& op);

  /// Backoff before attempt `attempt` (0 for the first attempt):
  /// exponential in the attempt number, capped, with +/- jitter.
  SimTime Backoff(uint32_t attempt);

  void SendDirect(OpSlot& op);
  void SendViaCoordinator(const OpSlot& op);
  void CountRetry();
  void CountDuplicate();
  void ResolveCounters();

  /// Records op_latency_us{op=...} for a completing op: simulated time
  /// from the StartOp/StartScan send to this completion — the client's
  /// view of one operation, independent of any background work (splits,
  /// parity traffic) the drain to idle would otherwise fold in.
  void RecordOpLatency(const OpSlot& slot);

  std::shared_ptr<SystemContext> ctx_;
  sdds::OpTable& ops_;
  ClientImage image_;
  uint64_t next_batch_seq_ = 1;
  std::vector<NodeId> cached_nodes_;
  uint64_t iam_count_ = 0;
  uint64_t forwarded_ops_ = 0;

  ClientRetryPolicy retry_;
  std::optional<Rng> retry_rng_;
  uint64_t retries_ = 0;
  uint64_t escalations_ = 0;
  uint64_t duplicates_suppressed_ = 0;
  telemetry::Counter* retries_counter_ = nullptr;
  telemetry::Counter* escalations_counter_ = nullptr;
  telemetry::Counter* duplicates_counter_ = nullptr;
  /// Cached op_latency_us{op=...} handles, indexed by OpType; slot 4 is
  /// the scan histogram, slot 5 the batch one. Resolved lazily like the
  /// counters.
  telemetry::Histogram* latency_histograms_[6] = {};
};

}  // namespace lhrs

#endif  // LHRS_LHSTAR_CLIENT_H_
