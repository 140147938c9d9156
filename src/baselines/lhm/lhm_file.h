#ifndef LHRS_BASELINES_LHM_LHM_FILE_H_
#define LHRS_BASELINES_LHM_LHM_FILE_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "lhstar/client.h"
#include "lhstar/coordinator.h"
#include "lhstar/data_bucket.h"
#include "lhstar/lhstar_file.h"
#include "net/fields.h"
#include "net/network.h"

namespace lhrs::lhm {

/// Message kinds of the LH*m baseline (range [400, 500)).
struct LhmMsg {
  static constexpr int kMirrorRead = MessageKindRange::kLhmBase + 0;
  static constexpr int kMirrorReadReply = MessageKindRange::kLhmBase + 1;
  static constexpr int kMirrorInstall = MessageKindRange::kLhmBase + 2;
  static constexpr int kMirrorAck = MessageKindRange::kLhmBase + 3;
};

/// Coordinator -> sibling-file bucket: dump your records (they are the
/// mirror of the failed bucket's content).
struct MirrorReadMsg : WireMessage<MirrorReadMsg> {
  static constexpr int kKind = LhmMsg::kMirrorRead;
  static constexpr char kName[] = "lhm.MirrorRead";

  uint64_t task_id = 0;
  BucketNo bucket = 0;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(bucket);
    v.Pad(4);
  }
};

struct MirrorReadReplyMsg : WireMessage<MirrorReadReplyMsg> {
  static constexpr int kKind = LhmMsg::kMirrorReadReply;
  static constexpr char kName[] = "lhm.MirrorReadReply";

  uint64_t task_id = 0;
  Level level = 0;
  std::vector<WireRecord> records;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(level);
    v.Count(records);
    for (WireRecord& r : records) v(r);
  }
};

struct MirrorInstallMsg : WireMessage<MirrorInstallMsg> {
  static constexpr int kKind = LhmMsg::kMirrorInstall;
  static constexpr char kName[] = "lhm.MirrorInstall";

  uint64_t task_id = 0;
  BucketNo bucket = 0;
  Level level = 0;
  std::vector<WireRecord> records;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(bucket);
    v(level);
    v.Count(records);
    v.Pad(4);
    for (WireRecord& r : records) v(r);
  }
};

struct MirrorAckMsg : WireMessage<MirrorAckMsg> {
  static constexpr int kKind = LhmMsg::kMirrorAck;
  static constexpr char kName[] = "lhm.MirrorAck";

  uint64_t task_id = 0;

  template <class V>
  void Fields(V& v) {
    v(task_id);
  }
};

/// Every LH*m message, in kind order (simulator-only; the wire tests
/// iterate it).
using LhmMessages = MessageList<MirrorReadMsg, MirrorReadReplyMsg,
                                MirrorInstallMsg, MirrorAckMsg>;

/// A bucket of one LH*m replica: a plain LH* bucket plus the mirror-copy
/// protocol for recovery.
class LhmBucketNode : public DataBucketNode {
 public:
  using DataBucketNode::DataBucketNode;
  const char* role() const override { return "lhm-bucket"; }

 protected:
  void HandleSubclassMessage(const Message& msg) override;
};

/// Coordinator of one LH*m replica. Serves ops that hit a dead bucket from
/// the sibling replica, recovers dead buckets by bulk copy from the
/// sibling, and parks writes during recovery.
class LhmCoordinatorNode : public CoordinatorNode {
 public:
  explicit LhmCoordinatorNode(std::shared_ptr<SystemContext> ctx)
      : CoordinatorNode(std::move(ctx)) {}

  /// Wires the sibling replica (direct state access models the paper-style
  /// shared coordination; all data moves via counted messages).
  void SetSibling(LhmCoordinatorNode* sibling,
                  std::shared_ptr<SystemContext> sibling_ctx) {
    sibling_ = sibling;
    sibling_ctx_ = std::move(sibling_ctx);
  }

  /// Rebuilds `bucket` by bulk copy from the sibling replica.
  bool RecoverBucket(BucketNo bucket) override;
  uint64_t recoveries_completed() const { return recoveries_completed_; }

 protected:
  void HandleClientOpFallback(const ClientOpViaCoordinatorMsg& op) override;
  void OnOpDeliveryFailure(const ClientOpViaCoordinatorMsg& op) override;
  void HandleSubclassMessage(const Message& msg) override;
  bool CanSplitNow() const override { return tasks_.empty(); }

 private:
  struct CopyTask {
    uint64_t id = 0;
    BucketNo bucket = 0;
    NodeId spare = kInvalidNode;
    Level level = 0;
    size_t awaiting = 0;
    std::vector<WireRecord> records;
  };

  /// Sends an op to the sibling replica's copy of the record (degraded
  /// read). hops stays 0 so the sibling's IAM does not corrupt the
  /// client's image of *this* file.
  void ServeFromSibling(const ClientOpViaCoordinatorMsg& op);

  LhmCoordinatorNode* sibling_ = nullptr;
  std::shared_ptr<SystemContext> sibling_ctx_;
  uint64_t next_task_id_ = 1;
  std::map<uint64_t, CopyTask> tasks_;
  std::set<BucketNo> recovering_;
  uint64_t recoveries_completed_ = 0;
};

/// The LH*m baseline: full record mirroring across two LH* files — the
/// simplest 1-available scheme, at 100% storage overhead and 2x write
/// messaging, with instant degraded reads (the mirror answers directly)
/// and bulk-copy recovery.
///
/// Implements the SddsFile facade. A logical write is a two-step chain:
/// the primary sub-op runs first, the mirror sub-op starts the instant the
/// primary completes (both always run, matching the original synchronous
/// semantics), and the combined status is the primary's error if any, else
/// the mirror's. Searches touch the primary replica only. A session owns
/// one client per replica.
class LhmFile : public sdds::SddsFile {
 public:
  struct Options {
    FileConfig file;
    NetworkConfig net;
  };

  explicit LhmFile(Options options);

  // --- SddsFile ------------------------------------------------------------
  size_t AddSession() override;
  size_t session_count() const override {
    return replicas_[0].clients.size();
  }
  sdds::OpToken Submit(size_t session, OpType op, Key key,
                       Bytes value) override;
  Network& network() override { return *network_; }
  StorageStats GetStorageStats() const override;

  NodeId CrashPrimaryBucket(BucketNo b);
  void RecoverPrimaryBucket(BucketNo b);

  BucketNo bucket_count() const { return coordinators_[0]->state().bucket_count(); }
  LhmCoordinatorNode& primary_coordinator() { return *coordinators_[0]; }

  /// Both replicas must hold identical record sets.
  Status VerifyMirrorInvariant() const;

 private:
  struct Replica {
    std::shared_ptr<SystemContext> ctx;
    std::vector<ClientNode*> clients;  ///< One per session.
  };

  /// State of one logical op between its primary and mirror sub-ops,
  /// indexed by the slot of its token.
  struct LogicalOp {
    size_t session = 0;
    OpType op = OpType::kSearch;
    Key key = 0;
    BufferView value;  ///< Shared by both sub-ops.
    bool have_primary = false;
    OpOutcome primary;
  };

  /// A finished primary or mirror sub-op steps its logical op; a
  /// finished logical op goes to the listener.
  void OnOpComplete(sdds::OpToken token) override;
  void FinishOp(sdds::OpToken token, OpOutcome outcome);
  void AddReplicaClient(size_t replica);

  std::unique_ptr<Network> network_;
  Replica replicas_[2];
  LhmCoordinatorNode* coordinators_[2] = {nullptr, nullptr};
  /// A deque, so growing it leaves the entries in use where they are.
  std::deque<LogicalOp> logical_;
  /// Typed registry of every bucket node of both replicas.
  sdds::NodeIndex<DataBucketNode> buckets_;
};

}  // namespace lhrs::lhm

#endif  // LHRS_BASELINES_LHM_LHM_FILE_H_
