#ifndef LHRS_BASELINES_LHG_LHG_MESSAGES_H_
#define LHRS_BASELINES_LHG_LHG_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "lh/lh_math.h"
#include "lhstar/messages.h"
#include "net/fields.h"
#include "net/message.h"

namespace lhrs::lhg {

/// The LH*g record-group key (g, r): bucket-group number of the bucket the
/// record was inserted into, plus that bucket's insert-counter value. Never
/// changes once assigned, even as splits move the record (the defining
/// property of LH*g).
struct GroupKey {
  uint32_t g = 0;
  uint32_t r = 0;

  /// Packed form used as the LH* key of the parity record in file F2 and
  /// as the WireRecord tag on record moves. The (g, r) pair occupies
  /// (high, low) halves, so parity records hash mostly by r, matching the
  /// paper's Fig. 2 where an F2 split separates odd from even r.
  uint64_t Packed() const { return (uint64_t{g} << 32) | r; }
  static GroupKey Unpack(uint64_t packed) {
    return GroupKey{static_cast<uint32_t>(packed >> 32),
                    static_cast<uint32_t>(packed)};
  }
  bool operator==(const GroupKey&) const = default;
};

/// A parity record of file F2 as a value object: the member keys c_1..c_l
/// (with their value lengths) and the XOR parity bits of the members'
/// values. Stored serialized in the parity buckets (which are plain LH*
/// buckets), so F2 splits move parity records with zero special handling.
///
/// Deviation note: the paper's bit-string model pads shorter values with
/// zeros and assumes self-delimiting data; we store each member's value
/// length so recovery reproduces values byte-exactly.
struct ParityRecordG {
  std::vector<Key> members;
  std::vector<uint32_t> lengths;  ///< Parallel to `members`.
  Bytes parity;

  Bytes Serialize() const;
  static ParityRecordG Deserialize(std::span<const uint8_t> data);
  /// Index of member `c`, or -1.
  int FindMember(Key c) const;
  bool HasMember(Key c) const { return FindMember(c) >= 0; }
  void AddMember(Key c, uint32_t length);
  void RemoveMember(Key c);
  void SetLength(Key c, uint32_t length);
};

/// Message kinds of the LH*g baseline (range [300, 400)).
struct LhgMsg {
  static constexpr int kParityUpdate = MessageKindRange::kLhgBase + 0;
  static constexpr int kParityIam = MessageKindRange::kLhgBase + 1;
  static constexpr int kCollectForData = MessageKindRange::kLhgBase + 2;
  static constexpr int kCollectForDataReply = MessageKindRange::kLhgBase + 3;
  static constexpr int kCollectForParity = MessageKindRange::kLhgBase + 4;
  static constexpr int kCollectForParityReply =
      MessageKindRange::kLhgBase + 5;
  static constexpr int kInstallParity = MessageKindRange::kLhgBase + 6;
  static constexpr int kInstallData = MessageKindRange::kLhgBase + 7;
  static constexpr int kInstallAck = MessageKindRange::kLhgBase + 8;
  static constexpr int kFindParity = MessageKindRange::kLhgBase + 9;
  static constexpr int kFindParityReply = MessageKindRange::kLhgBase + 10;
};

/// F1 data bucket (acting as an LH* client of F2) -> F2 parity bucket:
/// maintain parity record `gkey`. Forwarded between parity buckets per A2.
struct ParityUpdateMsg : WireMessage<ParityUpdateMsg> {
  static constexpr int kKind = LhgMsg::kParityUpdate;
  static constexpr char kName[] = "lhg.ParityUpdate";

  uint64_t gkey = 0;
  enum class Op : uint8_t { kAddMember, kRemoveMember, kValueUpdate };
  Op op = Op::kAddMember;
  Key member = 0;
  uint32_t new_length = 0;  ///< Value length after the change.
  BufferView delta;  ///< XORed into the parity bits (zero-padded).
  NodeId reply_to = kInvalidNode;  ///< The F1 bucket, for IAMs.
  BucketNo intended_bucket = 0;
  int hops = 0;

  template <class V>
  void Fields(V& v) {
    v(gkey);
    v.Enum(op, Op::kValueUpdate);
    v.Pad(3);
    v(member);
    v(new_length);
    v(reply_to);
    v(intended_bucket);
    v(hops);
    v(delta);
  }
};

/// F2 parity bucket -> F1 data bucket: image adjustment for the data
/// bucket's client image of F2 (sent when a parity update was forwarded).
struct ParityIamMsg : WireMessage<ParityIamMsg> {
  static constexpr int kKind = LhgMsg::kParityIam;
  static constexpr char kName[] = "lhg.ParityIam";

  BucketNo bucket = 0;
  Level level = 0;

  template <class V>
  void Fields(V& v) {
    v(bucket);
    v(level);
    v.Pad(4);
  }
};

/// Coordinator -> every F2 bucket (A4 step 1): send the parity records
/// relevant to recovering F1 bucket `bucket`, i.e. records with bucket
/// group g = bucket / k containing some member whose address chain passes
/// through `bucket` under file level `file_level`.
struct CollectForDataMsg : WireMessage<CollectForDataMsg> {
  static constexpr int kKind = LhgMsg::kCollectForData;
  static constexpr char kName[] = "lhg.CollectForData";

  uint64_t task_id = 0;
  BucketNo bucket = 0;
  Level file_level = 0;
  uint32_t group_size = 0;      ///< k (bucket-group size).
  uint32_t initial_buckets = 0;  ///< N of F1.

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(bucket);
    v(file_level);
    v(group_size);
    v(initial_buckets);
  }
};

struct SerializedParityRecord {
  uint64_t gkey = 0;
  BufferView data;  ///< ParityRecordG::Serialize form.

  template <class V>
  void Fields(V& v) {
    v(gkey);
    v(data);
  }
};

struct CollectForDataReplyMsg : WireMessage<CollectForDataReplyMsg> {
  static constexpr int kKind = LhgMsg::kCollectForDataReply;
  static constexpr char kName[] = "lhg.CollectForDataReply";

  uint64_t task_id = 0;
  BucketNo from_bucket = 0;
  std::vector<SerializedParityRecord> records;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(from_bucket);
    v.Count(records);
    for (SerializedParityRecord& r : records) v(r);
  }
};

/// Coordinator -> every F1 bucket (A5 step 1): send the (group key, key,
/// value) triples of your records whose parity record lives in F2 bucket
/// `parity_bucket` under F2 state (i2, n2). When the failed parity bucket
/// died between an F2 split order and its execution, `also_bucket` names
/// the (still empty) split target whose records also belong in the
/// rebuilt victim.
struct CollectForParityMsg : WireMessage<CollectForParityMsg> {
  static constexpr int kKind = LhgMsg::kCollectForParity;
  static constexpr char kName[] = "lhg.CollectForParity";

  uint64_t task_id = 0;
  BucketNo parity_bucket = 0;
  BucketNo also_bucket = ~BucketNo{0};
  Level i2 = 0;
  BucketNo n2 = 0;
  uint32_t f2_initial_buckets = 1;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(parity_bucket);
    v(also_bucket);
    v(i2);
    v(n2);
    v(f2_initial_buckets);
    v.Pad(4);
  }
};

struct TaggedRecord {
  uint64_t gkey = 0;
  Key key = 0;
  BufferView value;

  template <class V>
  void Fields(V& v) {
    v(gkey);
    v(key);
    v(value);
  }
};

struct CollectForParityReplyMsg : WireMessage<CollectForParityReplyMsg> {
  static constexpr int kKind = LhgMsg::kCollectForParityReply;
  static constexpr char kName[] = "lhg.CollectForParityReply";

  uint64_t task_id = 0;
  BucketNo from_bucket = 0;
  std::vector<TaggedRecord> records;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(from_bucket);
    v.Count(records);
    for (TaggedRecord& r : records) v(r);
  }
};

/// Coordinator -> spare: install a rebuilt F2 parity bucket.
struct InstallParityMsg : WireMessage<InstallParityMsg> {
  static constexpr int kKind = LhgMsg::kInstallParity;
  static constexpr char kName[] = "lhg.InstallParity";

  uint64_t task_id = 0;
  BucketNo bucket = 0;
  Level level = 0;
  std::vector<SerializedParityRecord> records;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(bucket);
    v(level);
    v.Count(records);
    v.Pad(4);
    for (SerializedParityRecord& r : records) v(r);
  }
};

/// Coordinator -> spare: install a rebuilt F1 data bucket (records carry
/// their immutable group keys; `counter` restores the insert counter r).
struct InstallDataMsg : WireMessage<InstallDataMsg> {
  static constexpr int kKind = LhgMsg::kInstallData;
  static constexpr char kName[] = "lhg.InstallData";

  uint64_t task_id = 0;
  BucketNo bucket = 0;
  Level level = 0;
  uint32_t counter = 0;
  std::vector<TaggedRecord> records;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(bucket);
    v(level);
    v(counter);
    v.Count(records);
    v.Pad(4);
    for (TaggedRecord& r : records) v(r);
  }
};

struct InstallAckMsg : WireMessage<InstallAckMsg> {
  static constexpr int kKind = LhgMsg::kInstallAck;
  static constexpr char kName[] = "lhg.InstallAck";

  uint64_t task_id = 0;

  template <class V>
  void Fields(V& v) {
    v(task_id);
  }
};

/// Coordinator -> every F2 bucket (A7 step 1): does any of your parity
/// records contain member key `key`?
struct FindParityMsg : WireMessage<FindParityMsg> {
  static constexpr int kKind = LhgMsg::kFindParity;
  static constexpr char kName[] = "lhg.FindParity";

  uint64_t task_id = 0;
  Key key = 0;

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(key);
  }
};

struct FindParityReplyMsg : WireMessage<FindParityReplyMsg> {
  static constexpr int kKind = LhgMsg::kFindParityReply;
  static constexpr char kName[] = "lhg.FindParityReply";

  uint64_t task_id = 0;
  BucketNo from_bucket = 0;
  bool found = false;
  uint64_t gkey = 0;
  BufferView record;  ///< Serialized ParityRecordG when found.

  template <class V>
  void Fields(V& v) {
    v(task_id);
    v(from_bucket);
    v(found);
    v.Pad(3);
    v(gkey);
    v(record);
  }
};

/// Every LH*g message, in kind order. LH*g runs only on the simulator, so
/// no wire codec registry lists it; the wire tests iterate it.
using LhgMessages =
    MessageList<ParityUpdateMsg, ParityIamMsg, CollectForDataMsg,
                CollectForDataReplyMsg, CollectForParityMsg,
                CollectForParityReplyMsg, InstallParityMsg, InstallDataMsg,
                InstallAckMsg, FindParityMsg, FindParityReplyMsg>;

}  // namespace lhrs::lhg

#endif  // LHRS_BASELINES_LHG_LHG_MESSAGES_H_
