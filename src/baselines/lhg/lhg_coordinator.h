#ifndef LHRS_BASELINES_LHG_LHG_COORDINATOR_H_
#define LHRS_BASELINES_LHG_LHG_COORDINATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "baselines/lhg/lhg_messages.h"
#include "lhstar/coordinator.h"

namespace lhrs::lhg {

/// The LH*g coordinator. Per the paper, a single coordinator manages the
/// file state of both the primary file F1 and the parity file F2; here the
/// F2 split bookkeeping lives in a plain CoordinatorNode whose state this
/// class reads directly (same node in spirit), while all recovery logic —
/// (A4) primary-bucket recovery, (A5) parity-bucket recovery and (A7)
/// degraded-mode record recovery — is orchestrated here.
class LhgCoordinatorNode : public CoordinatorNode {
 public:
  using ParityFactory = std::function<NodeId(BucketNo bucket, Level level)>;

  LhgCoordinatorNode(std::shared_ptr<SystemContext> f1_ctx,
                     std::shared_ptr<SystemContext> f2_ctx,
                     uint32_t group_size);

  /// When false, failures only trigger degraded-mode record recovery (A7);
  /// bucket rebuilds (A4/A5) run solely via the explicit Recover* calls.
  void set_auto_recover(bool on) { auto_recover_ = on; }

  void SetParityCoordinator(CoordinatorNode* f2_coordinator) {
    f2_coordinator_ = f2_coordinator;
  }
  void SetParityFactory(ParityFactory factory) {
    parity_factory_ = std::move(factory);
  }

  /// External failure notifications (facade / operator).
  void RecoverDataBucket(BucketNo bucket);
  void RecoverParityBucket(BucketNo f2_bucket);

  uint64_t recoveries_completed() const { return recoveries_completed_; }
  uint64_t degraded_reads_served() const { return degraded_reads_served_; }

 protected:
  void HandleUnavailableReport(const UnavailableReportMsg& report) override;
  void HandleClientOpFallback(const ClientOpViaCoordinatorMsg& op) override;
  void OnOpDeliveryFailure(const ClientOpViaCoordinatorMsg& op) override;
  void HandleSubclassMessage(const Message& msg) override;
  void HandleSubclassDeliveryFailure(const Message& msg) override;
  /// (A4) rebuild of one F1 bucket.
  bool RecoverBucket(BucketNo bucket) override;
  bool CanSplitNow() const override {
    return data_tasks_.empty() && parity_tasks_.empty();
  }

 private:
  /// (A4): rebuild one F1 bucket from the parity file + sibling reads.
  struct DataRecoveryTask {
    uint64_t id = 0;
    BucketNo bucket = 0;
    /// When the victim died between a split order and its execution, the
    /// records bound for the (still uninitialised) split target also
    /// belong in the rebuilt victim; classification must accept both
    /// addresses. kInvalidBucket otherwise.
    BucketNo also_bucket = ~BucketNo{0};
    NodeId spare = kInvalidNode;
    Level level = 0;
    size_t awaiting_replies = 0;
    std::map<uint64_t, ParityRecordG> parity;      // gkey -> record.
    std::map<uint64_t, Key> target_member;          // gkey -> key in bucket.
    std::map<uint64_t, std::map<Key, BufferView>> member_values;  // by gkey.
    size_t awaiting_searches = 0;
    bool installing = false;
  };

  /// (A5): rebuild one F2 bucket from a scan of F1.
  struct ParityRecoveryTask {
    uint64_t id = 0;
    BucketNo f2_bucket = 0;
    BucketNo also_bucket = ~BucketNo{0};  ///< Pending-F2-split target.
    NodeId spare = kInvalidNode;
    Level level = 0;
    size_t awaiting_replies = 0;
    std::map<uint64_t, ParityRecordG> built;  // gkey -> rebuilt record.
    bool installing = false;
  };

  /// (A7): serve one search against an unavailable bucket.
  struct DegradedTask {
    uint64_t id = 0;
    ClientOpViaCoordinatorMsg op;
    size_t awaiting_finds = 0;
    bool found = false;
    ParityRecordG record;
    std::map<Key, BufferView> member_values;
    size_t awaiting_searches = 0;
  };

  BucketNo F2BucketCount() const;
  /// Issues an internal key search in F1 (coordinator acting as client);
  /// the reply routes back through `search_owner_`.
  void IssueInternalSearch(uint64_t task_id, bool degraded, Key key);
  void StartDataRecovery(BucketNo bucket);
  void MaybeResolveDataTask(DataRecoveryTask& task);
  void InstallDataTask(DataRecoveryTask& task);
  void StartParityRecovery(BucketNo f2_bucket);
  void InstallParityTask(ParityRecoveryTask& task);
  void StartDegradedRead(const ClientOpViaCoordinatorMsg& op);
  void FinishDegradedRead(DegradedTask& task);
  void FinishRecovery(BucketNo bucket);
  /// Declares `bucket` unrecoverable: fails its parked ops, stands its
  /// half-built spare down (which bounces queued ops back here).
  void MarkBucketLost(BucketNo bucket);
  /// Resolves a failed internal search against its owning task.
  void FailInternalSearch(uint64_t op_id);

  std::shared_ptr<SystemContext> f2_ctx_;
  uint32_t group_size_;
  CoordinatorNode* f2_coordinator_ = nullptr;
  ParityFactory parity_factory_;
  bool auto_recover_ = true;

  uint64_t next_task_id_ = 1;
  std::map<uint64_t, DataRecoveryTask> data_tasks_;
  std::map<uint64_t, ParityRecoveryTask> parity_tasks_;
  std::map<uint64_t, DegradedTask> degraded_;
  std::set<BucketNo> recovering_data_;
  std::set<BucketNo> recovering_parity_;
  std::set<BucketNo> lost_buckets_;  ///< Unrecoverable (>1 group failure).

  uint64_t next_internal_op_ = 1;
  struct InternalSearch {
    uint64_t task_id = 0;
    bool degraded = false;
    Key key = 0;
  };
  std::map<uint64_t, InternalSearch> internal_searches_;

  uint64_t recoveries_completed_ = 0;
  uint64_t degraded_reads_served_ = 0;
};

/// Split coordinator of the LH*g parity file F2. Splits/merges run exactly
/// as in plain LH*, and it stalls the steps whose participant is down like
/// any coordinator; the rebuild of that F2 bucket (A5) is the main LH*g
/// coordinator's, which owns the recovery machinery (the paper's
/// single-coordinator model) and releases the bucket here.
class LhgParityCoordinatorNode : public CoordinatorNode {
 public:
  explicit LhgParityCoordinatorNode(std::shared_ptr<SystemContext> f2_ctx)
      : CoordinatorNode(std::move(f2_ctx)) {}

  void SetMainCoordinator(LhgCoordinatorNode* main) { main_ = main; }
  const char* role() const override { return "lhg-parity-coordinator"; }

 protected:
  bool RecoverBucket(BucketNo bucket) override;

 private:
  LhgCoordinatorNode* main_ = nullptr;
};

}  // namespace lhrs::lhg

#endif  // LHRS_BASELINES_LHG_LHG_COORDINATOR_H_
