#include "sdds/op_table.h"

#include <string>
#include <utility>

#include "common/logging.h"

namespace lhrs::sdds {

OpSlot& OpTable::Open(OpKind kind, SimTime now_us, OpToken parent) {
  uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = slot_count_++;
    if (index % kChunkSlots == 0) {
      chunks_.push_back(std::make_unique<OpSlot[]>(kChunkSlots));
    }
  }
  OpSlot& slot = chunks_[index / kChunkSlots][index % kChunkSlots];
  if (slot.token == 0) slot.token = (OpToken{1} << 32) | index;
  slot.kind = kind;
  slot.done = false;
  slot.parent = parent;
  slot.start_us = now_us;
  ++open_;
  return slot;
}

OpSlot* OpTable::Find(OpToken token) {
  const uint32_t index = SlotOf(token);
  if (index >= slot_count_) return nullptr;
  OpSlot& slot = chunks_[index / kChunkSlots][index % kChunkSlots];
  if (slot.kind == OpKind::kFree || slot.token != token) return nullptr;
  return &slot;
}

void OpTable::Complete(OpSlot& slot, OpOutcome outcome) {
  LHRS_CHECK(slot.kind != OpKind::kFree && !slot.done)
      << "completing op " << slot.token;
  slot.done = true;
  slot.outcome = std::move(outcome);
  if (listener_) listener_(slot.token);
}

Result<OpOutcome> OpTable::Take(OpToken token) {
  OpSlot* slot = Find(token);
  if (slot == nullptr || !slot->done) {
    return Status::Internal("operation " + std::to_string(token) +
                            " not finished");
  }
  OpOutcome out = std::move(slot->outcome);
  Free(*slot);
  return out;
}

void OpTable::Free(OpSlot& slot) {
  LHRS_CHECK(slot.kind != OpKind::kFree) << "freeing free op " << slot.token;
  // Drop what the op still shares (payloads, records); keep capacity.
  slot.kind = OpKind::kFree;
  slot.value = BufferView();
  slot.replied.clear();
  slot.outstanding.clear();
  slot.outcome = OpOutcome();
  // The next generation: every copy of the old token misses from now on.
  // Generation 0 is skipped, so no token is 0.
  const uint32_t index = SlotOf(slot.token);
  uint32_t generation = static_cast<uint32_t>(slot.token >> 32) + 1;
  if (generation == 0) generation = 1;
  slot.token = (OpToken{generation} << 32) | index;
  free_.push_back(index);
  --open_;
}

}  // namespace lhrs::sdds
