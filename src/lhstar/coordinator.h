#ifndef LHRS_LHSTAR_COORDINATOR_H_
#define LHRS_LHSTAR_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lh/lh_math.h"
#include "lhstar/messages.h"
#include "lhstar/system.h"
#include "net/node.h"

namespace lhrs {

/// The LH* split coordinator: owns the authoritative file state (i, n),
/// decides splits on overflow reports (with optional load control),
/// allocates new server nodes, and completes client operations that hit
/// unavailable or displaced buckets.
///
/// It also runs the one protocol for unavailable buckets (park, release,
/// fail loudly, stall and resume restructuring). The availability layers
/// (LH*RS and the baselines) subclass it to say how a bucket is rebuilt
/// (RecoverBucket) and how a search is served meanwhile.
class CoordinatorNode : public Node {
 public:
  /// Allocates a fresh server node carrying `bucket` at `level`, registers
  /// it on the network and returns its id. Provided by the file facade so
  /// the coordinator creates the right server subclass.
  using BucketFactory = std::function<NodeId(BucketNo bucket, Level level)>;

  explicit CoordinatorNode(std::shared_ptr<SystemContext> ctx);

  void SetBucketFactory(BucketFactory factory) {
    bucket_factory_ = std::move(factory);
  }

  void HandleMessage(const Message& msg) override;
  void HandleDeliveryFailure(const Message& msg) override;
  const char* role() const override { return "coordinator"; }

  const FileState& state() const { return state_; }
  uint64_t merges_performed() const { return merges_performed_; }

  /// Total records currently in the file, as tracked for load control
  /// (see FileConfig::use_load_control). Updated from overflow reports and
  /// split completions, so it is an estimate, as in real LH*.
  uint64_t splits_performed() const { return splits_performed_; }

  /// Clears the restructuring latch. Public because a sibling coordinator
  /// (LH*g manages two files as one logical coordinator) may complete or
  /// abandon this file's restructuring step on its behalf.
  void AbortRestructure() { restructure_in_progress_ = false; }
  bool restructure_in_progress() const { return restructure_in_progress_; }

  /// The rebuilt `buckets` are back: delivers each one's parked ops (every
  /// bucket's before any restructuring step), re-sends the restructuring
  /// steps stalled on them, then starts deferred splits. Public for the
  /// same reason as AbortRestructure (LH*g rebuilds its parity file's
  /// buckets).
  void ReleaseBuckets(const std::vector<BucketNo>& buckets);
  /// The split order stalled on `victim`, or nullptr.
  const SplitOrderMsg* StalledSplitOrder(BucketNo victim) const;

 protected:
  /// Reacts to a newly created bucket (LH*RS allocates parity groups here).
  virtual void OnBucketCreated(BucketNo bucket, NodeId node, Level level);

  /// Completes a client op that a server or client bounced here. The base
  /// implementation re-delivers it to the correct server using the
  /// authoritative state; if that server is down, the op fails with
  /// kUnavailable (plain LH* has no recovery).
  virtual void HandleClientOpFallback(const ClientOpViaCoordinatorMsg& op);

  /// Reacts to an unavailability report. Base: nothing (no availability).
  virtual void HandleUnavailableReport(const UnavailableReportMsg& report);

  /// Extension point for subclass message kinds.
  virtual void HandleSubclassMessage(const Message& msg);
  virtual void HandleSubclassDeliveryFailure(const Message& msg);

  /// Gate for split initiation; LH*RS defers splits while a recovery is in
  /// flight (the split would move records whose groups are being rebuilt).
  virtual bool CanSplitNow() const { return true; }

  /// Re-evaluates deferred splits (call when CanSplitNow may have turned
  /// true).
  void MaybeStartSplit();

  /// Allocates a server node for `bucket` via the factory (used by splits
  /// and by recovery to create spares).
  NodeId CreateBucketNode(BucketNo bucket, Level level);

  /// An OpRequest re-delivered by DeliverViaState could not reach its
  /// server; `op` is the request as the coordinator received it. Base:
  /// fail the op (plain LH* cannot recover).
  virtual void OnOpDeliveryFailure(const ClientOpViaCoordinatorMsg& op);

  /// Rebuilds `bucket`, whose server is down, on a spare; ReleaseBuckets
  /// or LoseBucket must follow. Returns false when the file has no
  /// availability layer (plain LH*): restructuring stalled on the bucket
  /// is then abandoned.
  virtual bool RecoverBucket(BucketNo bucket);

  /// A bulk record transfer (split move or merge) bounced off a dead
  /// target and was escalated here by the sender — the records exist only
  /// in the escalated message. Base: rebuild the target (RecoverBucket)
  /// with the moved records, read from the file's redundancy, and count
  /// the split as done once it is back; without an availability layer,
  /// drop the records with a loud warning. LH*RS re-delivers the records
  /// instead.
  virtual void OnOrphanedMoveRecords(const MoveRecordsMsg& move);
  virtual void OnOrphanedMergeRecords(const MergeRecordsMsg& merge);

  // --- Unavailable buckets -------------------------------------------------
  // Client ops that hit a bucket being rebuilt park here, and restructuring
  // steps (split order, split move, merge) stall on a dead participant.
  // Both resume when the bucket is back (ReleaseBuckets) and fail or drop
  // when it is lost (LoseBucket).

  /// Parks `op` until its bucket is released or lost.
  void ParkOp(const ClientOpViaCoordinatorMsg& op);
  /// Forgets every parked op (soft-state loss).
  void ClearParkedOps() { parked_.clear(); }
  /// Stalls a split move or merge until its target bucket is released.
  void StallMove(const MoveRecordsMsg& move) {
    stalled_moves_[move.bucket] = move;
  }
  void StallMerge(const MergeRecordsMsg& merge) {
    stalled_merges_[merge.parent_bucket] = merge;
  }
  /// `bucket` cannot be rebuilt. Stands its half-built spare down (when
  /// `stand_down`; the spare bounces its queued ops back here), fails its
  /// parked ops with kDataLoss and `error`, and abandons the restructuring
  /// steps stalled on it. The caller then calls MaybeStartSplit.
  void LoseBucket(BucketNo bucket, bool stand_down, const std::string& error);

  /// Buckets of a replica file — one holding the same keys under its own
  /// split schedule (LH*m's mirror, LH*s's sibling stripes) — that hold
  /// every key a rebuild of `bucket` needs: its congruence class, at the
  /// pre-split level while a split of or into the bucket is stalled.
  std::vector<BucketNo> ReplicaBucketsFor(BucketNo bucket,
                                          BucketNo replica_extent) const;
  /// True when `key`, read from a replica, belongs in the rebuild of
  /// `bucket`: at the pre-split level while the bucket's own split is
  /// stalled (the retried split moves the movers out).
  bool BelongsInRebuild(BucketNo bucket, Key key) const;

  /// Delivers `op` to the server currently carrying its correct bucket.
  /// hops is set to 1 so the serving bucket issues an IAM to the client.
  void DeliverViaState(const ClientOpViaCoordinatorMsg& op);

  /// Replies to the client with an error (used when an op cannot be
  /// completed).
  void FailClientOp(const ClientOpViaCoordinatorMsg& op, StatusCode code,
                    std::string error);

  /// Sends the client the authoritative file state when its op addressed a
  /// bucket beyond the (possibly shrunk) file; IAMs cannot move an image
  /// backwards.
  void MaybeResetClientImage(const ClientOpViaCoordinatorMsg& op);

  SystemContext& ctx() { return *ctx_; }
  Network* net() const { return network(); }

  std::shared_ptr<SystemContext> ctx_;
  FileState state_;

 private:
  void StartSplit();
  /// A SplitOrder could not reach the split victim (it was down,
  /// undetected). The file state has already advanced and the new bucket
  /// exists (uninitialised). Stalls the order and rebuilds the victim
  /// (RecoverBucket); without an availability layer, abandons the split.
  void OnSplitOrderDeliveryFailure(const SplitOrderMsg& order);
  /// Merges the last bucket into its parent when the load policy says so.
  void MaybeStartMerge();

  BucketFactory bucket_factory_;
  bool restructure_in_progress_ = false;  ///< A split or merge is running.
  uint32_t pending_splits_ = 0;
  /// Buckets with an un-acted-on overflow report (dedup_overflow_reports).
  std::set<BucketNo> overflow_reported_;
  bool merge_requested_ = false;
  uint64_t splits_performed_ = 0;
  uint64_t merges_performed_ = 0;
  /// Start of the in-flight split (at most one restructure runs at a time).
  SimTime split_started_us_ = 0;

  std::map<BucketNo, std::vector<ClientOpViaCoordinatorMsg>> parked_;
  /// Restructuring steps stalled on a dead participant, keyed by its
  /// bucket: a split order by its victim, a move or merge by its target.
  std::map<BucketNo, SplitOrderMsg> stalled_split_orders_;
  std::map<BucketNo, MoveRecordsMsg> stalled_moves_;
  std::map<BucketNo, MergeRecordsMsg> stalled_merges_;
  /// Split targets lost with their movers and rebuilt with them instead.
  std::set<BucketNo> rebuilt_moves_;
};

}  // namespace lhrs

#endif  // LHRS_LHSTAR_COORDINATOR_H_
