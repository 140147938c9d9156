#ifndef LHRS_BASELINES_LHS_LHS_FILE_H_
#define LHRS_BASELINES_LHS_LHS_FILE_H_

#include <deque>
#include <memory>
#include <vector>

#include "lhstar/client.h"
#include "lhstar/coordinator.h"
#include "lhstar/data_bucket.h"
#include "lhstar/lhstar_file.h"
#include "net/fields.h"
#include "net/network.h"

namespace lhrs::lhs {

/// Message kinds of the LH*s baseline (range [500, 600)).
struct LhsMsg {
  static constexpr int kStripeRead = MessageKindRange::kLhsBase + 0;
  static constexpr int kStripeReadReply = MessageKindRange::kLhsBase + 1;
  static constexpr int kStripeInstall = MessageKindRange::kLhsBase + 2;
  static constexpr int kStripeAck = MessageKindRange::kLhsBase + 3;
};

/// Coordinator -> same-numbered bucket of another stripe file: dump your
/// records (for XOR reconstruction of a lost stripe bucket).
struct StripeReadMsg : WireMessage<StripeReadMsg> {
  static constexpr int kKind = LhsMsg::kStripeRead;
  static constexpr char kName[] = "lhs.StripeRead";

  uint64_t task_id = 0;
  BucketNo bucket = 0;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(bucket);
    v.Pad(4);
  }
};

struct StripeReadReplyMsg : WireMessage<StripeReadReplyMsg> {
  static constexpr int kKind = LhsMsg::kStripeReadReply;
  static constexpr char kName[] = "lhs.StripeReadReply";

  uint64_t task_id = 0;
  uint32_t file_index = 0;
  Level level = 0;
  /// Set when the asked server no longer carries the bucket (it stood
  /// down after its own failed rebuild): the reconstruction cannot finish.
  bool failed = false;
  std::vector<WireRecord> records;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(file_index);
    v(level);
    v(failed);
    v.Pad(3);
    v.Count(records);
    for (WireRecord& r : records) v(r);
  }
};

struct StripeInstallMsg : WireMessage<StripeInstallMsg> {
  static constexpr int kKind = LhsMsg::kStripeInstall;
  static constexpr char kName[] = "lhs.StripeInstall";

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

struct StripeAckMsg : WireMessage<StripeAckMsg> {
  static constexpr int kKind = LhsMsg::kStripeAck;
  static constexpr char kName[] = "lhs.StripeAck";

  uint64_t task_id = 0;

  template <class V>
  void Fields(V& v) {
    v(task_id);
  }
};

/// Every LH*s message, in kind order (simulator-only; the wire tests
/// iterate it).
using LhsMessages = MessageList<StripeReadMsg, StripeReadReplyMsg,
                                StripeInstallMsg, StripeAckMsg>;

/// A bucket of one LH*s stripe file: a plain LH* bucket plus the stripe
/// dump/install protocol for recovery.
class LhsBucketNode : public DataBucketNode {
 public:
  using DataBucketNode::DataBucketNode;
  const char* role() const override { return "lhs-bucket"; }

 protected:
  void HandleSubclassMessage(const Message& msg) override;
};

/// Coordinator of one LH*s stripe file. Recovers a dead bucket by reading
/// the same-numbered buckets of every other stripe file (identical key
/// placement across files) and XOR-reconstructing each stripe; ops that
/// hit the dead bucket park until the rebuild completes.
class LhsCoordinatorNode : public CoordinatorNode {
 public:
  explicit LhsCoordinatorNode(std::shared_ptr<SystemContext> ctx,
                              uint32_t file_index, uint32_t stripe_count)
      : CoordinatorNode(std::move(ctx)),
        file_index_(file_index),
        stripe_count_(stripe_count) {}

  /// Wires the contexts of all k+1 stripe files (index == position).
  void SetFleet(std::vector<std::shared_ptr<SystemContext>> fleet) {
    fleet_ = std::move(fleet);
  }

  /// XOR-rebuilds `bucket` from the sibling stripe files.
  bool RecoverBucket(BucketNo bucket) override;
  uint64_t recoveries_completed() const { return recoveries_completed_; }

 protected:
  void HandleClientOpFallback(const ClientOpViaCoordinatorMsg& op) override;
  void OnOpDeliveryFailure(const ClientOpViaCoordinatorMsg& op) override;
  void HandleSubclassMessage(const Message& msg) override;
  void HandleSubclassDeliveryFailure(const Message& msg) override;
  bool CanSplitNow() const override { return tasks_.empty(); }

 private:
  struct RebuildTask {
    uint64_t id = 0;
    BucketNo bucket = 0;
    NodeId spare = kInvalidNode;
    Level level = 0;
    size_t awaiting = 0;
    /// key -> XOR of the sibling stripes seen so far.
    std::map<Key, BufferView> accumulator;
  };

  uint32_t file_index_;
  uint32_t stripe_count_;
  std::vector<std::shared_ptr<SystemContext>> fleet_;
  /// Fails the rebuild: the op parkers get kDataLoss and the bucket is
  /// marked lost (two stripe-column failures exceed 1-availability).
  void MarkLost(RebuildTask& task);

  uint64_t next_task_id_ = 1;
  std::map<uint64_t, RebuildTask> tasks_;
  std::set<BucketNo> recovering_;
  std::set<BucketNo> lost_buckets_;
  uint64_t recoveries_completed_ = 0;
};

/// The LH*s baseline: record striping. Every record is cut into k stripes
/// stored in k separate LH* files under the record's key, plus one XOR
/// parity stripe in a (k+1)-th file — all on different servers.
///
/// Comparison points: ~1/k storage overhead and 1-availability like LH*g /
/// LH*RS(k=1), but *every* key search must gather k stripes (k messages
/// where LH*RS pays 1) — the striping drawback the LH*g and LH*RS papers
/// both highlight. Inserts cost k+1 messages.
///
/// Implements the SddsFile facade. A logical op is a chain of sequential
/// sub-ops, one per stripe file, each started the moment the previous one
/// completes — the exact message schedule of the original synchronous
/// loops (writes fail fast; searches stop at the first kNotFound, fall
/// back to the parity stripe on one unavailable column, and reconstruct).
/// A session owns one client per stripe file.
class LhsFile : public sdds::SddsFile {
 public:
  struct Options {
    FileConfig file;       ///< Config of each stripe file.
    NetworkConfig net;
    uint32_t stripe_count = 4;  ///< The paper's k.
  };

  explicit LhsFile(Options options);

  // --- SddsFile ------------------------------------------------------------
  size_t AddSession() override;
  size_t session_count() const override { return files_[0].clients.size(); }
  sdds::OpToken Submit(size_t session, OpType op, Key key,
                       Bytes value) override;
  Network& network() override { return *network_; }
  StorageStats GetStorageStats() const override;

  /// Crashes the bucket of stripe file `stripe` that holds `key`'s stripe.
  NodeId CrashStripeBucketOf(uint32_t stripe, Key key);

  uint32_t stripe_count() const { return stripe_count_; }

  /// Splits `value` into `stripe_count` equal chunks (zero-padded) plus an
  /// XOR parity chunk; element i is stripe i's payload, element
  /// stripe_count is the parity payload. Each payload carries a 4-byte
  /// total-length prefix so reassembly trims exactly.
  static std::vector<Bytes> StripeValue(const Bytes& value,
                                        uint32_t stripe_count);
  /// Inverse of StripeValue given all data stripes.
  static Bytes AssembleValue(const std::vector<Bytes>& stripes,
                             uint32_t stripe_count);
  /// Reconstructs data stripe `missing` from the others plus parity.
  static Bytes ReconstructStripe(const std::vector<const Bytes*>& present,
                                 std::span<const uint8_t> parity,
                                 uint32_t stripe_count, uint32_t missing);

 private:
  struct StripeFile {
    std::shared_ptr<SystemContext> ctx;
    CoordinatorNode* coordinator = nullptr;
    std::vector<ClientNode*> clients;  ///< One per session.
  };

  /// State of one logical op across its per-stripe sub-op chain, indexed
  /// by the slot of its token.
  struct LogicalOp {
    size_t session = 0;
    OpType op = OpType::kSearch;
    Key key = 0;
    uint32_t next = 0;           ///< Stripe file of the current sub-op.
    std::vector<Bytes> stripes;  ///< Write payloads / gathered read stripes.
    std::vector<bool> have;      ///< Which data stripes a search gathered.
    uint32_t missing = 0;        ///< First unavailable stripe (== k: none).
    bool parity_fetch = false;   ///< Current sub-op reads the parity file.
  };

  void StartSubOp(uint32_t file_index, size_t session, sdds::OpToken token,
                  OpType op, Key key, BufferView value);
  /// A finished stripe sub-op steps its logical op; a finished logical
  /// op goes to the listener.
  void OnOpComplete(sdds::OpToken token) override;
  void AdvanceSearch(sdds::OpToken token, LogicalOp& lop, OpOutcome sub);
  void AdvanceWrite(sdds::OpToken token, LogicalOp& lop, OpOutcome sub);
  void FinishOp(sdds::OpToken token, OpOutcome outcome);
  void AddStripeClient(uint32_t file_index, size_t session);

  std::unique_ptr<Network> network_;
  uint32_t stripe_count_;
  std::vector<StripeFile> files_;  ///< k stripes + 1 parity.
  /// A deque, so growing it leaves the entries in use where they are.
  std::deque<LogicalOp> logical_;
  /// Typed registry of every bucket node of all stripe files.
  sdds::NodeIndex<DataBucketNode> buckets_;
};

}  // namespace lhrs::lhs

#endif  // LHRS_BASELINES_LHS_LHS_FILE_H_
