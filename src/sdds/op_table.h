#ifndef LHRS_SDDS_OP_TABLE_H_
#define LHRS_SDDS_OP_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "common/status.h"
#include "lhstar/messages.h"
#include "net/message.h"

namespace lhrs {

/// Completed outcome of a client operation.
struct OpOutcome {
  Status status;
  BufferView value;                  ///< Search result payload (shared).
  std::vector<WireRecord> scan_records;
  bool was_forwarded = false;        ///< An IAM arrived with the reply.
  // Batch operations (StartInsertBatch) report per-record tallies.
  uint32_t batch_applied = 0;
  uint32_t batch_exists = 0;   ///< Duplicate keys (already resident).
  uint32_t batch_failed = 0;
};

namespace sdds {

/// Handle of one operation of a file, and the client op id its messages
/// carry: the op's OpTable slot in the low 32 bits, the slot's generation
/// in the high 32. Tokens are unique per file while a slot's generation
/// does not wrap (2^32 reuses of one slot); 0 is never a valid token.
using OpToken = uint64_t;

enum class OpKind : uint8_t {
  kFree,
  kKeyOp,       ///< A client's key-addressed op (a logical op's sub-op too).
  kScan,
  kBatch,       ///< A client's bulk-load batch.
  kBatchChild,  ///< One batch record re-routed via the coordinator.
  kLogical,     ///< A composite scheme's logical op (LH*m, LH*s).
};

/// One sub-batch of a batch op in flight.
struct SubBatch {
  std::vector<WireRecord> records;  ///< As sent (views; no copies).
  uint32_t attempt = 1;
};

/// One operation, from its start until its outcome is taken. The fields
/// after the header belong to the kinds named above them.
struct OpSlot {
  OpToken token = 0;       ///< Names the op; a free slot's next token.
  OpKind kind = OpKind::kFree;
  bool done = false;       ///< Finished: `outcome` waits for Take.
  OpToken parent = 0;      ///< The batch or logical op this op is part of.
  SimTime start_us = 0;

  // kKeyOp: the request, shared by every attempt.
  OpType op = OpType::kSearch;
  Key key = 0;
  BufferView value;
  BucketNo sent_to_bucket = 0;
  uint32_t attempts = 1;
  SimTime deadline = 0;    ///< Current attempt's timeout instant.

  // kScan.
  bool deterministic = true;
  std::map<BucketNo, Level> replied;

  // kBatch.
  size_t batch_total = 0;
  std::map<uint64_t, SubBatch> outstanding;  ///< In flight, by seq.
  size_t outstanding_children = 0;           ///< Records via coordinator.
  uint32_t batch_lost = 0;  ///< Failed records whose reply was kDataLoss.

  /// Scans gather records and batches tally here while in flight.
  OpOutcome outcome;
};

/// Every operation of one file, from start until its outcome is taken,
/// in a vector of slots with a free list. Freeing a slot bumps its
/// generation, so a stale token (a late or duplicated reply, an old retry
/// timer, a second Take) finds nothing. Slots live in fixed-size chunks:
/// a slot reference stays valid while other ops open.
class OpTable {
 public:
  OpSlot& Open(OpKind kind, SimTime now_us, OpToken parent = 0);

  /// The open slot `token` names, or nullptr.
  OpSlot* Find(OpToken token);
  const OpSlot* Find(OpToken token) const {
    return const_cast<OpTable*>(this)->Find(token);
  }

  /// Finishes an open op; its outcome stays in the slot until Take. Last,
  /// it calls the listener, which may open, complete and take ops.
  void Complete(OpSlot& slot, OpOutcome outcome);
  void SetCompletionListener(std::function<void(OpToken)> listener) {
    listener_ = std::move(listener);
  }

  bool Poll(OpToken token) const {
    const OpSlot* slot = Find(token);
    return slot != nullptr && slot->done;
  }

  /// Returns a finished op's outcome and frees its slot; kInternal if the
  /// token names no open slot or the op is still in flight.
  Result<OpOutcome> Take(OpToken token);

  /// Frees an open slot, outcome and all.
  void Free(OpSlot& slot);

  size_t open() const { return open_; }

  static uint32_t SlotOf(OpToken token) {
    return static_cast<uint32_t>(token);
  }

 private:
  static constexpr uint32_t kChunkSlots = 64;

  std::vector<std::unique_ptr<OpSlot[]>> chunks_;
  std::vector<uint32_t> free_;
  uint32_t slot_count_ = 0;  ///< Slots ever created.
  size_t open_ = 0;
  std::function<void(OpToken)> listener_;
};

}  // namespace sdds
}  // namespace lhrs

#endif  // LHRS_SDDS_OP_TABLE_H_
