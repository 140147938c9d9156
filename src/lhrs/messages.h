#ifndef LHRS_LHRS_MESSAGES_H_
#define LHRS_LHRS_MESSAGES_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
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
/// The single-record replies of degraded reads carry one; a column dump
/// carries a ParityColumn, whose rows have this same wire form.
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

/// A whole parity column: the parity records of one parity bucket in
/// ascending rank order, as flat arrays. Row i is record group
/// (g, ranks[i]); its m member slots are cells [i * m, (i + 1) * m) of
/// `keys` and `lengths`. A column of n rows is four allocations, not one
/// heap object per record, and each parity value is a shared view.
///
/// On the wire each row is a WireParityRecord: rank, slot count m, m times
/// (key with presence, length), parity. The row count travels as the
/// enclosing message's `v.Count(column)`, the way a vector's does, so
/// Fields() lists the rows only.
struct ParityColumn {
  uint32_t m = 0;                        ///< Member slots per row.
  std::vector<Rank> ranks;               ///< [row], ascending.
  std::vector<std::optional<Key>> keys;  ///< [row * m + slot].
  std::vector<uint32_t> lengths;  ///< [row * m + slot]; 0 when no member.
  std::vector<BufferView> parity;  ///< [row].

  ParityColumn() = default;
  explicit ParityColumn(uint32_t slots) : m(slots) {}

  size_t size() const { return ranks.size(); }
  size_t Cell(size_t row, uint32_t slot) const { return row * m + slot; }
  void reserve(size_t rows) {
    ranks.reserve(rows);
    keys.reserve(rows * m);
    lengths.reserve(rows * m);
    parity.reserve(rows);
  }
  /// Appends a row with no members yet; returns its index.
  size_t AddRow(Rank rank, BufferView row_parity) {
    ranks.push_back(rank);
    keys.resize(keys.size() + m);
    lengths.resize(lengths.size() + m, 0);
    parity.push_back(std::move(row_parity));
    return ranks.size() - 1;
  }

  // The wire side (net/fields.h). `v.Count(column)` sizes the rows through
  // value_type and resize(); each row's `v.Count` then sizes its cells.
  using value_type = WireParityRecord;  ///< The smallest row on the wire.
  /// Sizes an empty column (a decode or a test sample) to `rows` rows
  /// whose cells arrive row by row.
  void resize(size_t rows) {
    ranks.resize(rows);
    parity.resize(rows);
  }

  template <class V>
  void Fields(V& v) {
    for (size_t row = 0; row < ranks.size(); ++row) {
      v(ranks[row]);
      RowCells<std::optional<Key>> row_keys{keys, row, m};
      RowCells<uint32_t> row_lengths{lengths, row, m};
      v.Count(row_keys, row_lengths);
      // A decode that failed before this row's cells exist visits none.
      const size_t end = std::min(keys.size(), (row + 1) * size_t{m});
      for (size_t cell = row * m; cell < end; ++cell) {
        v(keys[cell]);
        v(lengths[cell]);
      }
      v(parity[row]);
    }
  }

 private:
  /// One row's cells of a flat array, as `v.Count` sizes them: the first
  /// row's count sets the column's width m, and every row gets m cells. A
  /// later row that counts otherwise is refused (its size stays m), which
  /// fails the decode.
  template <class T>
  struct RowCells {
    std::vector<T>& cells;
    size_t row;
    uint32_t& width;

    using value_type = T;
    size_t size() const { return width; }
    void resize(size_t n) {
      if (row == 0) width = static_cast<uint32_t>(n);
      cells.resize((row + 1) * width);
    }
  };
};

/// One surviving column's full dump, as a column read returns it: a data
/// column's records or a parity column's rows, both in ascending rank
/// order. The reply carries it behind a shared pointer, so the recovery
/// task adopts it without a copy.
struct ColumnDump {
  uint32_t column = 0;  ///< 0..m-1 data slot, m..m+k-1 parity index + m.
  Level level = 0;      ///< Data columns: the bucket's level j.
  std::vector<RankedRecord> records;  ///< Data columns.
  ParityColumn parity;                ///< Parity columns.

  bool is_parity(uint32_t m) const { return column >= m; }

  template <class V>
  void Fields(V& v) {
    v(column);
    v(level);
    v.Count(records);
    v.Count(parity);
    for (RankedRecord& r : records) v(r);
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

/// Survivor -> coordinator: full column dump.
struct ColumnReadReplyMsg : WireMessage<ColumnReadReplyMsg> {
  static constexpr int kKind = LhrsMsg::kColumnReadReply;
  static constexpr char kName[] = "lhrs.ColumnReadReply";

  uint64_t task_id = 0;
  /// Immutable and shared: a resend or a chaos duplicate of this reply
  /// shares the one body, and the coordinator keeps the pointer.
  std::shared_ptr<const ColumnDump> dump;

  uint32_t attempt = 0;  ///< Transport metadata (resends); not in Fields().

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(dump);
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
  ParityColumn parity;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(group);
    v(parity_index);
    v.Count(parity);
    v.Pad(4);
    v(parity);
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
