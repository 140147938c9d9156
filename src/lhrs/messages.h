#ifndef LHRS_LHRS_MESSAGES_H_
#define LHRS_LHRS_MESSAGES_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "lh/lh_math.h"
#include "lhstar/messages.h"
#include "net/fields.h"
#include "net/message.h"

namespace lhrs {

/// Message kinds of the LH*RS parity / recovery layer (range [200, 300)).
struct LhrsMsg {
  static constexpr int kParityDelta = MessageKindRange::kLhrsBase + 0;
  static constexpr int kParityDeltaBatch = MessageKindRange::kLhrsBase + 1;
  static constexpr int kGroupConfig = MessageKindRange::kLhrsBase + 2;
  static constexpr int kColumnReadRequest = MessageKindRange::kLhrsBase + 3;
  static constexpr int kColumnReadReply = MessageKindRange::kLhrsBase + 4;
  static constexpr int kInstallDataColumn = MessageKindRange::kLhrsBase + 5;
  static constexpr int kInstallParityColumn = MessageKindRange::kLhrsBase + 6;
  static constexpr int kInstallDone = MessageKindRange::kLhrsBase + 7;
  static constexpr int kFindRankRequest = MessageKindRange::kLhrsBase + 8;
  static constexpr int kFindRankReply = MessageKindRange::kLhrsBase + 9;
  static constexpr int kRecordReadRequest = MessageKindRange::kLhrsBase + 10;
  static constexpr int kRecordReadReply = MessageKindRange::kLhrsBase + 11;
  static constexpr int kParityRecordRequest =
      MessageKindRange::kLhrsBase + 12;
  static constexpr int kParityRecordReply = MessageKindRange::kLhrsBase + 13;
  static constexpr int kPingRequest = MessageKindRange::kLhrsBase + 14;
  static constexpr int kPongReply = MessageKindRange::kLhrsBase + 15;
};

/// Record rank within its bucket (1-based; the record group key is
/// (bucket group g, rank r)).
using Rank = uint32_t;

/// One incremental parity maintenance action for record group (g, rank).
struct ParityDelta {
  Rank rank = 0;
  uint32_t slot = 0;  ///< Data slot (bucket % m) the change happened at.
  enum class KeyOp : uint8_t {
    kNone,   ///< Value-only update.
    kSet,    ///< Member (re)registered: set key + length.
    kClear,  ///< Member removed from the group.
  };
  KeyOp key_op = KeyOp::kNone;
  Key key = 0;
  uint32_t new_length = 0;
  /// old XOR new (zero-padded); the parity-side change. A shared view:
  /// fanning one delta out to k parity buckets copies no payload bytes.
  BufferView delta;

  template <class V>
  void Fields(V& v) {
    v(rank);
    v(slot);
    v.Enum(key_op, KeyOp::kClear);
    v.Pad(3);
    v(key);
    v(new_length);
    v(delta);
  }
};

/// Data bucket -> parity bucket: one record's parity maintenance.
struct ParityDeltaMsg : WireMessage<ParityDeltaMsg> {
  static constexpr int kKind = LhrsMsg::kParityDelta;
  static constexpr char kName[] = "lhrs.ParityDelta";

  uint32_t group = 0;
  /// Retransmission count (chaos hardening): a delivery failure under an
  /// active fault injector re-sends the delta a bounded number of times
  /// before falling back to the unavailable-report path. Not on the wire
  /// (a real stack's transport header), so Fields() leaves it out.
  uint32_t attempt = 0;
  ParityDelta delta;

  template <class V>
  void Fields(V& v) {
    v(group);
    v.Pad(4);
    v(delta);
  }
};

/// Data bucket -> parity bucket: bulk parity maintenance (splits batch
/// all moved records into one transfer per parity bucket).
struct ParityDeltaBatchMsg : WireMessage<ParityDeltaBatchMsg> {
  static constexpr int kKind = LhrsMsg::kParityDeltaBatch;
  static constexpr char kName[] = "lhrs.ParityDeltaBatch";

  uint32_t group = 0;
  uint32_t attempt = 0;  ///< See ParityDeltaMsg::attempt.
  std::vector<ParityDelta> deltas;

  template <class V>
  void Fields(V& v) {
    v(group);
    v.Count(deltas);
    v.Pad(4);
    for (ParityDelta& d : deltas) v(d);
  }
};

/// Coordinator -> data bucket: the parity buckets serving your group (sent
/// at bucket creation and whenever a parity bucket moves to a spare).
struct GroupConfigMsg : WireMessage<GroupConfigMsg> {
  static constexpr int kKind = LhrsMsg::kGroupConfig;
  static constexpr char kName[] = "lhrs.GroupConfig";

  uint32_t group = 0;
  uint32_t k = 1;
  std::vector<NodeId> parity_nodes;  ///< size k.
  uint32_t attempt = 0;  ///< Transport metadata (resends); not in Fields().

  template <class V>
  void Fields(V& v) {
    v(group);
    v(k);
    v.Count(parity_nodes);
    v.Pad(4);
    for (NodeId& node : parity_nodes) v(node);
  }
};

/// One data record with its rank, as shipped in recovery dumps.
struct RankedRecord {
  Rank rank = 0;
  Key key = 0;
  BufferView value;  ///< Shares the dumping bucket's segment bytes.

  template <class V>
  void Fields(V& v) {
    v(rank);
    v(key);
    v(value);
  }
};

/// Wire form of a parity record (the non-key part of parity record (g, r)).
struct WireParityRecord {
  Rank rank = 0;
  /// Per data slot: the member's key, or nullopt when the slot has no
  /// member in this record group.
  std::vector<std::optional<Key>> keys;
  std::vector<uint32_t> lengths;  ///< Parallel to `keys`.
  BufferView parity;  ///< Snapshot view of the column's parity bytes.

  template <class V>
  void Fields(V& v) {
    v(rank);
    v.Count(keys, lengths);
    for (size_t i = 0; i < keys.size(); ++i) {
      v(keys[i]);
      v(lengths[i]);
    }
    v(parity);
  }
};

/// Coordinator -> surviving column (data or parity bucket): send your full
/// group-relevant content for recovery of group `group`.
struct ColumnReadRequestMsg : WireMessage<ColumnReadRequestMsg> {
  static constexpr int kKind = LhrsMsg::kColumnReadRequest;
  static constexpr char kName[] = "lhrs.ColumnReadRequest";

  uint64_t task_id = 0;
  uint32_t group = 0;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(group);
    v.Pad(4);
  }
};

/// Survivor -> coordinator: full column dump. Exactly one of
/// records/parity_records is populated, matching the sender's role.
struct ColumnReadReplyMsg : WireMessage<ColumnReadReplyMsg> {
  static constexpr int kKind = LhrsMsg::kColumnReadReply;
  static constexpr char kName[] = "lhrs.ColumnReadReply";

  uint64_t task_id = 0;
  uint32_t column = 0;  ///< 0..m-1 data slot, m..m+k-1 parity index + m.
  std::vector<RankedRecord> records;
  std::vector<WireParityRecord> parity_records;
  Level level = 0;  ///< Data columns: the bucket's level j.

  uint32_t attempt = 0;  ///< Transport metadata (resends); not in Fields().

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(column);
    v(level);
    v.Count(records);
    v.Count(parity_records);
    for (RankedRecord& r : records) v(r);
    for (WireParityRecord& p : parity_records) v(p);
  }
};

/// Coordinator -> spare: install a reconstructed data bucket.
struct InstallDataColumnMsg : WireMessage<InstallDataColumnMsg> {
  static constexpr int kKind = LhrsMsg::kInstallDataColumn;
  static constexpr char kName[] = "lhrs.InstallDataColumn";

  uint64_t task_id = 0;
  BucketNo bucket = 0;
  Level level = 0;
  std::vector<RankedRecord> records;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(bucket);
    v(level);
    v.Count(records);
    v.Pad(4);
    for (RankedRecord& r : records) v(r);
  }
};

/// Coordinator -> spare: install a reconstructed parity bucket.
struct InstallParityColumnMsg : WireMessage<InstallParityColumnMsg> {
  static constexpr int kKind = LhrsMsg::kInstallParityColumn;
  static constexpr char kName[] = "lhrs.InstallParityColumn";

  uint64_t task_id = 0;
  uint32_t group = 0;
  uint32_t parity_index = 0;
  std::vector<WireParityRecord> parity_records;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(group);
    v(parity_index);
    v.Count(parity_records);
    v.Pad(4);
    for (WireParityRecord& p : parity_records) v(p);
  }
};

/// Spare -> coordinator: installation finished; the bucket serves traffic.
struct InstallDoneMsg : WireMessage<InstallDoneMsg> {
  static constexpr int kKind = LhrsMsg::kInstallDone;
  static constexpr char kName[] = "lhrs.InstallDone";

  uint64_t task_id = 0;
  uint32_t column = 0;
  uint32_t attempt = 0;  ///< Transport metadata (resends); not in Fields().

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(column);
    v.Pad(4);
  }
};

/// Coordinator -> parity bucket: which record group holds key `key` at data
/// slot `slot`? First step of degraded-mode record recovery: unlike LH*g,
/// no scan of the parity file is needed — the group's parity bucket is
/// known directly.
struct FindRankRequestMsg : WireMessage<FindRankRequestMsg> {
  static constexpr int kKind = LhrsMsg::kFindRankRequest;
  static constexpr char kName[] = "lhrs.FindRankRequest";

  uint64_t task_id = 0;
  Key key = 0;
  uint32_t slot = 0;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(key);
    v(slot);
    v.Pad(4);
  }
};

struct FindRankReplyMsg : WireMessage<FindRankReplyMsg> {
  static constexpr int kKind = LhrsMsg::kFindRankReply;
  static constexpr char kName[] = "lhrs.FindRankReply";

  uint64_t task_id = 0;
  bool found = false;
  uint32_t parity_index = 0;  ///< Which parity column answered.
  WireParityRecord record;    ///< Valid when found.

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(found);
    v.Pad(3);
    v(parity_index);
    v(record);
  }
};

/// Coordinator -> data bucket: read the single record with rank `rank`.
struct RecordReadRequestMsg : WireMessage<RecordReadRequestMsg> {
  static constexpr int kKind = LhrsMsg::kRecordReadRequest;
  static constexpr char kName[] = "lhrs.RecordReadRequest";

  uint64_t task_id = 0;
  Rank rank = 0;
  uint32_t column = 0;  ///< Requester-side bookkeeping (echoed in replies).

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(rank);
    v(column);
  }
};

struct RecordReadReplyMsg : WireMessage<RecordReadReplyMsg> {
  static constexpr int kKind = LhrsMsg::kRecordReadReply;
  static constexpr char kName[] = "lhrs.RecordReadReply";

  uint64_t task_id = 0;
  uint32_t column = 0;
  bool found = false;
  RankedRecord record;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(column);
    v(found);
    v.Pad(11);
    v(record);
  }
};

/// Coordinator -> parity bucket: read the parity record of rank `rank`.
struct ParityRecordRequestMsg : WireMessage<ParityRecordRequestMsg> {
  static constexpr int kKind = LhrsMsg::kParityRecordRequest;
  static constexpr char kName[] = "lhrs.ParityRecordRequest";

  uint64_t task_id = 0;
  Rank rank = 0;
  uint32_t column = 0;  ///< Requester-side bookkeeping (echoed in replies).

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(rank);
    v(column);
  }
};

struct ParityRecordReplyMsg : WireMessage<ParityRecordReplyMsg> {
  static constexpr int kKind = LhrsMsg::kParityRecordReply;
  static constexpr char kName[] = "lhrs.ParityRecordReply";

  uint64_t task_id = 0;
  uint32_t column = 0;  ///< m + parity index.
  bool found = false;
  WireParityRecord record;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(column);
    v(found);
    v.Pad(11);
    v(record);
  }
};

/// Coordinator -> any node: liveness probe used to verify third-party
/// unavailability reports before committing to a recovery.
struct PingRequestMsg : WireMessage<PingRequestMsg> {
  static constexpr int kKind = LhrsMsg::kPingRequest;
  static constexpr char kName[] = "lhrs.PingRequest";

  uint64_t probe_id = 0;

  template <class V>
  void Fields(V& v) {
    v(probe_id);
  }
};

struct PongReplyMsg : WireMessage<PongReplyMsg> {
  static constexpr int kKind = LhrsMsg::kPongReply;
  static constexpr char kName[] = "lhrs.PongReply";

  uint64_t probe_id = 0;

  template <class V>
  void Fields(V& v) {
    v(probe_id);
  }
};

/// Every LH*RS message, in kind order: the wire codec registry and the wire
/// tests iterate it.
using LhrsMessages =
    MessageList<ParityDeltaMsg, ParityDeltaBatchMsg, GroupConfigMsg,
                ColumnReadRequestMsg, ColumnReadReplyMsg, InstallDataColumnMsg,
                InstallParityColumnMsg, InstallDoneMsg, FindRankRequestMsg,
                FindRankReplyMsg, RecordReadRequestMsg, RecordReadReplyMsg,
                ParityRecordRequestMsg, ParityRecordReplyMsg, PingRequestMsg,
                PongReplyMsg>;

}  // namespace lhrs

#endif  // LHRS_LHRS_MESSAGES_H_
