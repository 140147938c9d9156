#ifndef LHRS_LHSTAR_MESSAGES_H_
#define LHRS_LHSTAR_MESSAGES_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/status.h"
#include "lh/lh_math.h"
#include "net/fields.h"
#include "net/message.h"

namespace lhrs {

/// Client-visible file operations.
enum class OpType : uint8_t { kInsert, kSearch, kUpdate, kDelete };

/// A record as shipped between nodes (splits, recovery, scan replies).
/// `tag` is an opaque per-record attachment for availability layers that
/// must travel with moved records (LH*g carries the immutable record-group
/// key in it); 0 when unused. The payload is a shared view: moving a
/// bucketful of records copies no bytes, only references into the sender's
/// segments.
struct WireRecord {
  Key key = 0;
  uint64_t tag = 0;
  BufferView value;

  bool operator==(const WireRecord&) const = default;

  template <class V>
  void Fields(V& v) {
    v(key);
    v(tag);
    v(value);
  }
};

/// Message kinds of the LH* substrate (range [100, 200)).
struct LhStarMsg {
  static constexpr int kOpRequest = MessageKindRange::kLhStarBase + 0;
  static constexpr int kOpReply = MessageKindRange::kLhStarBase + 1;
  static constexpr int kOverflowReport = MessageKindRange::kLhStarBase + 2;
  static constexpr int kSplitOrder = MessageKindRange::kLhStarBase + 3;
  static constexpr int kMoveRecords = MessageKindRange::kLhStarBase + 4;
  static constexpr int kSplitDone = MessageKindRange::kLhStarBase + 5;
  static constexpr int kScanRequest = MessageKindRange::kLhStarBase + 6;
  static constexpr int kScanReply = MessageKindRange::kLhStarBase + 7;
  static constexpr int kClientOpViaCoordinator =
      MessageKindRange::kLhStarBase + 8;
  static constexpr int kUnavailableReport = MessageKindRange::kLhStarBase + 9;
  static constexpr int kStateScanRequest = MessageKindRange::kLhStarBase + 10;
  static constexpr int kStateScanReply = MessageKindRange::kLhStarBase + 11;
  static constexpr int kSelfCheckRequest = MessageKindRange::kLhStarBase + 12;
  static constexpr int kSelfCheckReply = MessageKindRange::kLhStarBase + 13;
  static constexpr int kUnderflowReport = MessageKindRange::kLhStarBase + 14;
  static constexpr int kMergeOut = MessageKindRange::kLhStarBase + 15;
  static constexpr int kMergeRecords = MessageKindRange::kLhStarBase + 16;
  static constexpr int kMergeDone = MessageKindRange::kLhStarBase + 17;
  static constexpr int kImageReset = MessageKindRange::kLhStarBase + 18;
  static constexpr int kSurveyRequest = MessageKindRange::kLhStarBase + 19;
  static constexpr int kSurveyReply = MessageKindRange::kLhStarBase + 20;
  static constexpr int kInsertBatch = MessageKindRange::kLhStarBase + 21;
  static constexpr int kInsertBatchReply = MessageKindRange::kLhStarBase + 22;
};

/// A key-addressed operation, sent client->server and forwarded
/// server->server per algorithm (A2). Carries the bucket number the sender
/// intended to reach so a displaced/reused server can detect the mismatch
/// (paper section 2.8).
struct OpRequestMsg : WireMessage<OpRequestMsg> {
  static constexpr int kKind = LhStarMsg::kOpRequest;
  static constexpr char kName[] = "lhstar.OpRequest";

  OpType op = OpType::kSearch;
  uint64_t op_id = 0;
  NodeId client = kInvalidNode;   ///< Where the final reply goes.
  BucketNo intended_bucket = 0;
  Key key = 0;
  BufferView value;               ///< Insert/update payload (shared view).
  int hops = 0;                   ///< Forwarding count; >0 triggers an IAM.

  template <class V>
  void Fields(V& v) {
    v.Enum(op, OpType::kDelete);
    v.Pad(3);
    v(op_id);
    v(client);
    v(intended_bucket);
    v(key);
    v(hops);
    v(value);
    v.Pad(4);
  }
};

/// Image-adjustment payload piggybacked on replies after forwarding: the
/// level of the correct bucket (the paper's IAM content).
struct IamInfo {
  BucketNo bucket = 0;
  Level level = 0;

  template <class V>
  void Fields(V& v) {
    v(bucket);
    v(level);
  }
};

/// Reply for one operation, server->client (or coordinator->client in
/// degraded mode).
struct OpReplyMsg : WireMessage<OpReplyMsg> {
  static constexpr int kKind = LhStarMsg::kOpReply;
  static constexpr char kName[] = "lhstar.OpReply";

  uint64_t op_id = 0;
  StatusCode code = StatusCode::kOk;
  std::string error;
  BufferView value;               ///< Search result payload (shared view).
  std::optional<IamInfo> iam;

  template <class V>
  void Fields(V& v) {
    v(op_id);
    v.Enum(code, StatusCode::kTimeout);
    v.Flag(iam);
    v.Pad(2);
    if (iam) v(*iam);
    v(error);
    v(value);
    v.Pad(4);
  }
};

/// Server->coordinator: bucket exceeded its capacity.
struct OverflowReportMsg : WireMessage<OverflowReportMsg> {
  static constexpr int kKind = LhStarMsg::kOverflowReport;
  static constexpr char kName[] = "lhstar.OverflowReport";

  BucketNo bucket = 0;
  size_t record_count = 0;

  template <class V>
  void Fields(V& v) {
    v(bucket);
    v(record_count);
    v.Pad(4);
  }
};

/// Coordinator->server: split your bucket; send movers to `new_node`.
struct SplitOrderMsg : WireMessage<SplitOrderMsg> {
  static constexpr int kKind = LhStarMsg::kSplitOrder;
  static constexpr char kName[] = "lhstar.SplitOrder";

  BucketNo new_bucket = 0;
  NodeId new_node = kInvalidNode;
  Level new_level = 0;  ///< Level of both halves after the split.

  template <class V>
  void Fields(V& v) {
    v(new_bucket);
    v(new_node);
    v(new_level);
    v.Pad(4);
  }
};

/// Splitting server -> new server: the relocated records (one bulk
/// transfer; its byte size drives the simulated time of the split).
struct MoveRecordsMsg : WireMessage<MoveRecordsMsg> {
  static constexpr int kKind = LhStarMsg::kMoveRecords;
  static constexpr char kName[] = "lhstar.MoveRecords";

  BucketNo bucket = 0;  ///< Bucket number of the receiving (new) bucket.
  Level level = 0;
  std::vector<WireRecord> records;

  template <class V>
  void Fields(V& v) {
    v(bucket);
    v(level);
    v.Count(records);
    v.Pad(4);
    for (WireRecord& r : records) v(r);
  }
};

/// New server -> coordinator: split finished; next split may proceed.
struct SplitDoneMsg : WireMessage<SplitDoneMsg> {
  static constexpr int kKind = LhStarMsg::kSplitDone;
  static constexpr char kName[] = "lhstar.SplitDone";

  BucketNo bucket = 0;

  template <class V>
  void Fields(V& v) {
    v(bucket);
    v.Pad(4);
  }
};

/// Predicate of a scan: matches records by a byte substring of the value
/// (empty pattern matches everything), or by an arbitrary `custom`
/// function — the simulated form of the shipped selection code real SDDS
/// scans carry. The scan *protocol* (coverage + termination) is what the
/// experiments exercise.
struct ScanPredicate {
  Bytes contains;
  /// Structured key-range selection (inclusive bounds). Unlike `custom`
  /// this travels on the wire: the request frame carries a predicate
  /// version byte, so old decoders still read new contains-only frames and
  /// new decoders read old frames (which simply have no range).
  bool has_key_range = false;
  Key key_min = 0;
  Key key_max = 0;
  std::function<bool(Key key, std::span<const uint8_t> value)> custom;

  bool Matches(Key key, std::span<const uint8_t> value) const;

  /// Wire size of the predicate's hand-written field codec (see
  /// src/transport/wire.cc): version byte, padding, `contains`, padding,
  /// and the key range when present. It does not depend on `custom`,
  /// which the encoder refuses to send.
  size_t ByteSize() const {
    return 23 + contains.size() + (has_key_range ? 16 : 0);
  }
};

/// Client->server (multicast) and server->server (coverage forwarding).
/// `attached_level` implements the exactly-once coverage algorithm: a bucket
/// at level j receiving level l forwards copies to its children created at
/// levels l+1..j.
struct ScanRequestMsg : WireMessage<ScanRequestMsg> {
  static constexpr int kKind = LhStarMsg::kScanRequest;
  static constexpr char kName[] = "lhstar.ScanRequest";

  uint64_t op_id = 0;
  NodeId client = kInvalidNode;
  Level attached_level = 0;
  ScanPredicate predicate;
  bool deterministic = true;  ///< All buckets reply (vs only matching ones).

  template <class V>
  void Fields(V& v) {
    v(op_id);
    v(client);
    v(attached_level);
    v(deterministic);
    v(predicate);
  }
};

/// Server->client scan answer with the bucket's matching records plus the
/// (m, j_m) pair the deterministic-termination check needs.
struct ScanReplyMsg : WireMessage<ScanReplyMsg> {
  static constexpr int kKind = LhStarMsg::kScanReply;
  static constexpr char kName[] = "lhstar.ScanReply";

  uint64_t op_id = 0;
  BucketNo bucket = 0;
  Level level = 0;
  /// Set when this server could not forward coverage to a child bucket:
  /// the deterministic scan terminates abnormally (section 2.7).
  bool coverage_failed = false;
  std::vector<WireRecord> records;

  template <class V>
  void Fields(V& v) {
    v(op_id);
    v(bucket);
    v(level);
    v(coverage_failed);
    v.Pad(3);
    v.Count(records);
    for (WireRecord& r : records) v(r);
  }
};

/// Client->coordinator: an operation whose target server did not answer
/// (or a forwarding bucket failed). The coordinator owns the op from here
/// (paper section 2.8).
struct ClientOpViaCoordinatorMsg : WireMessage<ClientOpViaCoordinatorMsg> {
  static constexpr int kKind = LhStarMsg::kClientOpViaCoordinator;
  static constexpr char kName[] = "lhstar.ClientOpViaCoordinator";

  OpType op = OpType::kSearch;
  uint64_t op_id = 0;
  NodeId client = kInvalidNode;
  BucketNo intended_bucket = 0;
  Key key = 0;
  BufferView value;

  template <class V>
  void Fields(V& v) {
    v.Enum(op, OpType::kDelete);
    v.Pad(3);
    v(op_id);
    v(client);
    v(intended_bucket);
    v(key);
    v(value);
    v.Pad(8);
  }
};

/// Any party -> coordinator: node `node` (believed to carry `bucket`) is
/// unreachable.
struct UnavailableReportMsg : WireMessage<UnavailableReportMsg> {
  static constexpr int kKind = LhStarMsg::kUnavailableReport;
  static constexpr char kName[] = "lhstar.UnavailableReport";

  NodeId node = kInvalidNode;
  BucketNo bucket = 0;
  bool is_parity = false;   ///< LH*RS parity bucket vs data bucket.
  uint32_t group = 0;       ///< Parity: bucket group; data: unused.
  uint32_t parity_index = 0;

  template <class V>
  void Fields(V& v) {
    v(node);
    v(bucket);
    v(is_parity);
    v.Pad(3);
    v(group);
    v(parity_index);
    v.Pad(4);
  }
};

/// Coordinator->buckets: report your (m, j_m) for file-state recovery (A6).
struct StateScanRequestMsg : WireMessage<StateScanRequestMsg> {
  static constexpr int kKind = LhStarMsg::kStateScanRequest;
  static constexpr char kName[] = "lhstar.StateScanRequest";

  uint64_t op_id = 0;

  template <class V>
  void Fields(V& v) {
    v(op_id);
  }
};

struct StateScanReplyMsg : WireMessage<StateScanReplyMsg> {
  static constexpr int kKind = LhStarMsg::kStateScanReply;
  static constexpr char kName[] = "lhstar.StateScanReply";

  uint64_t op_id = 0;
  BucketNo bucket = 0;
  Level level = 0;

  template <class V>
  void Fields(V& v) {
    v(op_id);
    v(bucket);
    v(level);
  }
};

/// Server -> coordinator: bucket occupancy fell below the merge trigger
/// (file shrinking, the paper's section 4.3 "bucket merge" variation).
struct UnderflowReportMsg : WireMessage<UnderflowReportMsg> {
  static constexpr int kKind = LhStarMsg::kUnderflowReport;
  static constexpr char kName[] = "lhstar.UnderflowReport";

  BucketNo bucket = 0;
  size_t record_count = 0;

  template <class V>
  void Fields(V& v) {
    v(bucket);
    v(record_count);
    v.Pad(4);
  }
};

/// Coordinator -> the last bucket: merge yourself back into your parent
/// (inverse of a split).
struct MergeOutMsg : WireMessage<MergeOutMsg> {
  static constexpr int kKind = LhStarMsg::kMergeOut;
  static constexpr char kName[] = "lhstar.MergeOut";

  BucketNo parent_bucket = 0;
  NodeId parent_node = kInvalidNode;
  Level parent_new_level = 0;

  template <class V>
  void Fields(V& v) {
    v(parent_bucket);
    v(parent_node);
    v(parent_new_level);
    v.Pad(4);
  }
};

/// Merging bucket -> parent: all of its records (one bulk transfer).
struct MergeRecordsMsg : WireMessage<MergeRecordsMsg> {
  static constexpr int kKind = LhStarMsg::kMergeRecords;
  static constexpr char kName[] = "lhstar.MergeRecords";

  BucketNo parent_bucket = 0;
  Level parent_new_level = 0;
  std::vector<WireRecord> records;

  template <class V>
  void Fields(V& v) {
    v(parent_bucket);
    v(parent_new_level);
    v.Count(records);
    v.Pad(4);
    for (WireRecord& r : records) v(r);
  }
};

/// Parent -> coordinator: merge absorbed; restructuring may continue.
struct MergeDoneMsg : WireMessage<MergeDoneMsg> {
  static constexpr int kKind = LhStarMsg::kMergeDone;
  static constexpr char kName[] = "lhstar.MergeDone";

  BucketNo bucket = 0;

  template <class V>
  void Fields(V& v) {
    v(bucket);
    v.Pad(4);
  }
};

/// Coordinator -> client: authoritative file state. Sent when a client
/// addressed a bucket beyond the (shrunk) file — IAMs only ever advance an
/// image, so shrinking needs an explicit reset.
struct ImageResetMsg : WireMessage<ImageResetMsg> {
  static constexpr int kKind = LhStarMsg::kImageReset;
  static constexpr char kName[] = "lhstar.ImageReset";

  Level i = 0;
  BucketNo n = 0;

  template <class V>
  void Fields(V& v) {
    v(i);
    v(n);
    v.Pad(4);
  }
};

/// Restarted coordinator -> every node: identify yourself. The replies
/// rebuild the coordinator's soft state: the file state (i, n) via the
/// (A6) closed form, the allocation table, and (for availability layers)
/// the parity directory. Every node answers, so the survey terminates
/// deterministically against the known node count.
struct SurveyRequestMsg : WireMessage<SurveyRequestMsg> {
  static constexpr int kKind = LhStarMsg::kSurveyRequest;
  static constexpr char kName[] = "lhstar.SurveyRequest";

  uint64_t survey_id = 0;

  template <class V>
  void Fields(V& v) {
    v(survey_id);
  }
};

struct SurveyReplyMsg : WireMessage<SurveyReplyMsg> {
  static constexpr int kKind = LhStarMsg::kSurveyReply;
  static constexpr char kName[] = "lhstar.SurveyReply";

  uint64_t survey_id = 0;
  enum class Role : uint8_t { kOther, kDataBucket, kParityBucket };
  Role role = Role::kOther;
  bool decommissioned = false;
  // Data buckets:
  BucketNo bucket = 0;
  Level level = 0;
  uint64_t record_count = 0;
  // Parity buckets (availability layers):
  uint32_t group = 0;
  uint32_t parity_index = 0;
  uint32_t k = 0;

  template <class V>
  void Fields(V& v) {
    v(survey_id);
    v.Enum(role, Role::kParityBucket);
    v(decommissioned);
    v.Pad(2);
    v(bucket);
    v(level);
    v(record_count);
    v(group);
    v(parity_index);
    v(k);
  }
};

/// Client -> server: one bulk-load sub-batch of inserts, all addressed to
/// `intended_bucket` under the client's image. The server applies the
/// records that hash to it and returns the rest in the reply, so a batch
/// never fans out into per-record forwarding; the client re-groups
/// rejected records under its (IAM-adjusted) image and resends. `seq`
/// identifies the sub-batch within the client's batch operation `op_id`.
struct InsertBatchMsg : WireMessage<InsertBatchMsg> {
  static constexpr int kKind = LhStarMsg::kInsertBatch;
  static constexpr char kName[] = "lhstar.InsertBatch";

  uint64_t op_id = 0;
  uint64_t seq = 0;
  NodeId client = kInvalidNode;
  BucketNo intended_bucket = 0;
  uint32_t attempt = 1;  ///< Re-group generation (bounded by the client).
  std::vector<WireRecord> records;

  template <class V>
  void Fields(V& v) {
    v(op_id);
    v(seq);
    v(client);
    v(intended_bucket);
    v(attempt);
    v.Count(records);
    for (WireRecord& r : records) v(r);
  }
};

/// Server -> client: outcome of one bulk-load sub-batch. `bucket`/`level`
/// double as the IAM of the replying bucket; `rejected` holds the records
/// that hash elsewhere under the server's (authoritative) level. With
/// `bounced` set the server is displaced or stood down and could not judge
/// the records at all — the client re-routes them via the coordinator.
struct InsertBatchReplyMsg : WireMessage<InsertBatchReplyMsg> {
  static constexpr int kKind = LhStarMsg::kInsertBatchReply;
  static constexpr char kName[] = "lhstar.InsertBatchReply";

  uint64_t op_id = 0;
  uint64_t seq = 0;
  BucketNo bucket = 0;
  Level level = 0;
  uint32_t applied = 0;
  uint32_t exists = 0;  ///< Duplicate keys (already resident).
  bool bounced = false;
  std::vector<WireRecord> rejected;
  uint32_t attempt = 0;  ///< Transport metadata (resends); not in Fields().

  template <class V>
  void Fields(V& v) {
    v(op_id);
    v(seq);
    v(bucket);
    v(level);
    v(applied);
    v(exists);
    v(bounced);
    v.Pad(3);
    v.Count(rejected);
    for (WireRecord& r : rejected) v(r);
  }
};

/// Restored server -> coordinator: "am I still bucket m?" (self-detected
/// recovery, paper section 2.5.4).
struct SelfCheckRequestMsg : WireMessage<SelfCheckRequestMsg> {
  static constexpr int kKind = LhStarMsg::kSelfCheckRequest;
  static constexpr char kName[] = "lhstar.SelfCheckRequest";

  BucketNo bucket = 0;

  template <class V>
  void Fields(V& v) {
    v(bucket);
    v.Pad(4);
  }
};

/// Coordinator -> restored server: keep serving, or stand down as a hot
/// spare (your bucket was recreated at `replacement`).
struct SelfCheckReplyMsg : WireMessage<SelfCheckReplyMsg> {
  static constexpr int kKind = LhStarMsg::kSelfCheckReply;
  static constexpr char kName[] = "lhstar.SelfCheckReply";

  BucketNo bucket = 0;
  bool still_owner = false;
  NodeId replacement = kInvalidNode;

  template <class V>
  void Fields(V& v) {
    v(bucket);
    v(still_owner);
    v.Pad(3);
    v(replacement);
    v.Pad(4);
  }
};

/// Every LH* message, in kind order: the wire codec registry and the wire
/// tests iterate it.
using LhStarMessages =
    MessageList<OpRequestMsg, OpReplyMsg, OverflowReportMsg, SplitOrderMsg,
                MoveRecordsMsg, SplitDoneMsg, ScanRequestMsg, ScanReplyMsg,
                ClientOpViaCoordinatorMsg, UnavailableReportMsg,
                StateScanRequestMsg, StateScanReplyMsg, SelfCheckRequestMsg,
                SelfCheckReplyMsg, UnderflowReportMsg, MergeOutMsg,
                MergeRecordsMsg, MergeDoneMsg, ImageResetMsg,
                SurveyRequestMsg, SurveyReplyMsg, InsertBatchMsg,
                InsertBatchReplyMsg>;

}  // namespace lhrs

#endif  // LHRS_LHSTAR_MESSAGES_H_
