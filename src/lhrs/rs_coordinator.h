#ifndef LHRS_LHRS_RS_COORDINATOR_H_
#define LHRS_LHRS_RS_COORDINATOR_H_

#include <compare>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "lhrs/messages.h"
#include "lhrs/recovery.h"
#include "lhrs/shared.h"
#include "lhstar/coordinator.h"

namespace lhrs {

/// The LH*RS coordinator: the LH* split coordinator extended with
/// bucket-group management (parity bucket allocation, scalable
/// availability), k-availability recovery orchestration, and degraded-mode
/// record recovery for searches that hit an unavailable bucket.
///
/// Simulation note: recovery *planning* consults the simulator's liveness
/// oracle (which nodes are up), modelling the coordinator's failure
/// detector; every byte of recovery *data* still moves through counted
/// messages (column reads, installs), so the reproduced costs are the
/// protocol's.
class RsCoordinatorNode : public CoordinatorNode {
 public:
  /// Creates a parity-bucket server (uninitialised when `spare`).
  using ParityFactory = std::function<NodeId(
      uint32_t group, uint32_t parity_index, uint32_t k, bool spare)>;

  explicit RsCoordinatorNode(std::shared_ptr<LhrsContext> lhrs_ctx);

  void SetParityFactory(ParityFactory factory) {
    parity_factory_ = std::move(factory);
  }

  /// Per-group parity configuration.
  struct GroupInfo {
    uint32_t k = 0;
    std::vector<NodeId> parity_nodes;
    bool lost = false;  ///< More than k columns failed; data is gone.
  };

  size_t group_count() const { return groups_.size(); }
  const GroupInfo& group_info(uint32_t g) const;

  /// Makes sure groups 0..g exist (allocating parity buckets with the
  /// availability level the policy dictates at current file size).
  void EnsureGroup(uint32_t g);

  /// Creates the groups covering the file's initial buckets and pushes the
  /// group configuration to them (called once by the facade at setup).
  void InitializeGroups();

  /// External failure notification (the facade's failure detector / a
  /// human operator): recover everything this node carried.
  void NotifyUnavailable(NodeId node);

  /// Explicitly starts recovery of every failed column in group `g`.
  void RecoverGroup(uint32_t g);

  // --- File-state recovery (algorithm A6) --------------------------------
  /// Broadcasts a state scan; call FinishFileStateRecovery after the
  /// simulation settles to compute (i, n) from the replies.
  void StartFileStateRecovery();
  /// Applies A6 to the collected (m, j_m) replies and returns the
  /// reconstructed state.
  Result<FileState> FinishFileStateRecovery();

  // --- Coordinator soft-state recovery -------------------------------------
  /// Simulates a coordinator restart that lost all soft state, then
  /// rebuilds everything from a survey of the surviving nodes: the file
  /// state (i, n) via the (A6) closed form, the allocation table, and the
  /// bucket-group/parity directory. Buckets whose servers do not answer
  /// are recovered through the normal k-availability machinery afterwards.
  ///
  /// Call WipeSoftState, run the simulation until idle (the survey and any
  /// triggered recoveries complete), then query survey_rebuilt().
  void WipeSoftStateAndResurvey();
  bool survey_rebuilt() const { return survey_rebuilt_; }

  // --- Parity scrubbing ----------------------------------------------------
  /// Outcome of a scrub pass over one or more bucket groups.
  struct ScrubReport {
    uint32_t groups_scrubbed = 0;
    uint64_t record_groups_checked = 0;
    uint64_t mismatched_parity_records = 0;
    uint32_t parity_columns_repaired = 0;
  };

  /// Starts an integrity audit of group `g`: reads every column, recomputes
  /// the Reed-Solomon parity from the data columns and compares it (and the
  /// key/length metadata) against the parity buckets' contents. With
  /// `repair`, mismatched parity columns are re-encoded from the data and
  /// reinstalled. Results accumulate into scrub_report() (reset it first
  /// via ResetScrubReport). Requires all columns of the group to be up.
  void StartScrub(uint32_t g, bool repair);
  const ScrubReport& scrub_report() const { return scrub_report_; }
  void ResetScrubReport() { scrub_report_ = ScrubReport{}; }
  bool scrub_in_progress() const { return !scrubs_.empty(); }

  // --- Statistics ----------------------------------------------------------
  uint64_t recoveries_completed() const { return recoveries_completed_; }
  uint64_t columns_recovered() const { return columns_recovered_; }
  uint64_t degraded_reads_served() const { return degraded_reads_served_; }
  /// Degraded-read decisions (read sets and decode plans) answered from
  /// the memo instead of being computed.
  uint64_t degraded_memo_hits() const { return degraded_memo_hits_; }
  /// Empties the degraded-read memo, so the next reads compute their
  /// decisions afresh. Tests use it to compare cold and warm reads.
  void ClearDegradedReadMemoForTesting() {
    read_set_memo_.clear();
    plan_memo_.clear();
  }
  uint64_t groups_lost() const { return groups_lost_; }

 protected:
  void OnBucketCreated(BucketNo bucket, NodeId node, Level level) override;
  void HandleClientOpFallback(const ClientOpViaCoordinatorMsg& op) override;
  void HandleUnavailableReport(const UnavailableReportMsg& report) override;
  void HandleSubclassMessage(const Message& msg) override;
  void HandleSubclassDeliveryFailure(const Message& msg) override;
  void OnOpDeliveryFailure(const ClientOpViaCoordinatorMsg& op) override;
  /// Recovers the bucket's group.
  bool RecoverBucket(BucketNo bucket) override;
  void OnOrphanedMoveRecords(const MoveRecordsMsg& move) override;
  void OnOrphanedMergeRecords(const MergeRecordsMsg& merge) override;
  bool CanSplitNow() const override {
    return tasks_.empty() && scrubs_.empty();
  }

 private:
  struct RecoveryTask {
    uint64_t id = 0;
    uint32_t group = 0;
    std::vector<uint32_t> missing_columns;
    std::map<uint32_t, NodeId> spares;        // column -> spare node.
    std::map<uint32_t, Level> data_levels;    // data column -> level j.
    std::set<uint32_t> awaiting_reads;        // columns not yet dumped.
    std::vector<SharedDump> dumps;            // the replies' own bodies.
    std::set<uint32_t> awaiting_installs;
    /// Progressive repair: decode as soon as the received columns' rank
    /// suffices instead of waiting for every requested read.
    bool progressive = false;
    /// Tracks the rank of the received column set (column ids only; the
    /// per-rank byte decode happens later in ReconstructColumns).
    std::unique_ptr<parity::ProgressiveDecoder> rank_tracker;
    bool have_parity_dump = false;  ///< A parity dump (key metadata) arrived.
    // Telemetry timestamps (SimTime; meaningful only when telemetry is on).
    uint64_t started_us = 0;
    uint64_t read_started_us = 0;
    uint64_t install_started_us = 0;
  };

  struct ScrubTask {
    uint64_t id = 0;
    uint32_t group = 0;
    bool repair = false;
    std::set<uint32_t> awaiting_reads;
    std::vector<SharedDump> dumps;
  };

  struct DegradedReadTask {
    uint64_t id = 0;
    ClientOpViaCoordinatorMsg op;
    uint32_t group = 0;
    uint32_t target_slot = 0;
    bool have_meta = false;
    WireParityRecord meta;
    std::set<uint32_t> awaiting;              // columns requested.
    std::map<uint32_t, BufferView> columns;   // shared column payloads.
    std::set<uint32_t> used_parity;           // parity indexes consumed.
    uint64_t started_us = 0;                  // Telemetry timestamp.
  };

  // A degraded read's decisions depend only on column identities, so they
  // are memoized per erasure pattern (DESIGN.md §14.3). Keys hold sorted
  // column lists, so any m + k the file accepts fits. Each memo holds at
  // most kDegradedMemoEntries entries and is cleared when full.
  static constexpr size_t kDegradedMemoEntries = 4096;

  /// Which columns a degraded read should request next.
  struct ReadSetKey {
    uint32_t k = 0;
    uint32_t target_slot = 0;
    std::vector<uint32_t> have;      ///< In hand, in flight or known zero.
    std::vector<uint32_t> eligible;  ///< Live columns that may be read.
    auto operator<=>(const ReadSetKey&) const = default;
  };
  struct ReadSet {
    bool ready = false;           ///< have + reads determine the target.
    std::vector<uint32_t> reads;  ///< Columns to request, in send order.
  };
  /// The plan that decodes the target from the available columns.
  struct PlanKey {
    uint32_t k = 0;
    uint32_t target_slot = 0;
    std::vector<uint32_t> available;  ///< In hand or known zero.
    auto operator<=>(const PlanKey&) const = default;
  };

  /// Computes a read set (the memo's cold path): candidate columns that
  /// raise the rank of `key.have`, cheapest first — live siblings in slot
  /// order, then parity columns in the code's preference order for the
  /// target — pruned of every candidate the others make redundant.
  static ReadSet PlanReadSet(const parity::ParityCode& code,
                             const ReadSetKey& key);
  /// Appends the data slots of the task's record group whose value is
  /// known to be zero: slots past the file edge and slots with no member
  /// at this rank (the target excepted).
  void AppendKnownZeroSlots(const DegradedReadTask& task,
                            std::vector<uint32_t>* out) const;

  /// Data buckets of group g that exist right now: [g*m, min((g+1)*m, M)).
  uint32_t ExistingSlots(uint32_t g) const;
  bool NodeUp(NodeId node) const;
  void SendGroupConfig(uint32_t g);
  /// True when `bucket`'s column is being rebuilt.
  bool IsRecoveringData(BucketNo bucket) const {
    return recovering_data_.contains(bucket);
  }

  void StartRecovery(uint32_t g);
  void MarkGroupLost(uint32_t g);
  /// Drops group `g`'s in-flight recovery task if it is `task_id`. Used
  /// when one of the task's own messages bounced: the task can never
  /// finish, and StartRecovery's identical-missing-set guard would
  /// otherwise keep the broken task waiting forever.
  void AbortTaskIfActive(uint64_t task_id, uint32_t g);
  /// Closes the open trace slices of a task being abandoned (stale survivor
  /// set or group loss), so Chrome-trace B/E pairs stay balanced.
  void TraceTaskAborted(const RecoveryTask& task);
  void OnColumnRead(const ColumnReadReplyMsg& reply, NodeId from);
  void TryDecodeAndInstall(RecoveryTask& task);
  void OnInstallDone(const InstallDoneMsg& done);
  void FinishTask(RecoveryTask& task);
  void OnDataBucketUnreachable(BucketNo bucket,
                               const ClientOpViaCoordinatorMsg* op);

  void FinishScrub(ScrubTask& task);

  void StartDegradedRead(const ClientOpViaCoordinatorMsg& op);
  void ContinueDegradedRead(DegradedReadTask& task);
  void OnFindRankReply(const FindRankReplyMsg& reply);
  void OnDegradedColumn(uint64_t task_id, uint32_t column, bool found,
                        const BufferView& payload);
  void MaybeFinishDegradedRead(DegradedReadTask& task);
  void FailDegradedRead(DegradedReadTask& task, Status status);

  std::shared_ptr<LhrsContext> lhrs_ctx_;
  ParityFactory parity_factory_;
  std::vector<GroupInfo> groups_;

  uint64_t next_task_id_ = 1;
  std::map<uint64_t, RecoveryTask> tasks_;
  std::map<uint32_t, uint64_t> group_task_;      // group -> active task id.
  std::set<BucketNo> recovering_data_;
  std::set<std::pair<uint32_t, uint32_t>> recovering_parity_;

  std::map<uint64_t, DegradedReadTask> degraded_;
  std::map<ReadSetKey, ReadSet> read_set_memo_;
  std::map<PlanKey, std::unique_ptr<const parity::DecodePlan>> plan_memo_;
  std::map<uint64_t, ScrubTask> scrubs_;
  ScrubReport scrub_report_;

  bool state_scan_active_ = false;
  std::map<BucketNo, Level> state_scan_replies_;

  struct SurveyState {
    uint64_t id = 0;
    size_t awaiting = 0;
    std::vector<std::pair<NodeId, SurveyReplyMsg>> replies;
  };
  void FinishSurvey(SurveyState& survey);
  std::map<uint64_t, SurveyState> surveys_;
  uint64_t next_survey_id_ = 1;
  bool survey_rebuilt_ = false;

  uint64_t recoveries_completed_ = 0;
  uint64_t columns_recovered_ = 0;
  uint64_t degraded_reads_served_ = 0;
  uint64_t degraded_memo_hits_ = 0;
  uint64_t groups_lost_ = 0;
  uint64_t next_probe_id_ = 1;
  std::map<uint64_t, NodeId> probes_;  // probe id -> probed node.
};

}  // namespace lhrs

#endif  // LHRS_LHRS_RS_COORDINATOR_H_
