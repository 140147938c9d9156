#ifndef LHRS_LHRS_PARITY_BUCKET_H_
#define LHRS_LHRS_PARITY_BUCKET_H_

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "lhrs/messages.h"
#include "lhrs/shared.h"
#include "net/dedup.h"
#include "net/held.h"
#include "net/node.h"
#include "store/key_index.h"

namespace lhrs {

/// Parity record of record group (g, rank) at one parity bucket,
/// materialized from the bucket's rank-indexed columns: the member keys
/// and lengths per data slot, and this parity column's Reed-Solomon
/// parity bytes. A value type for single-record replies, invariant checks
/// and tests; the bucket itself never stores one.
struct ParityRecord {
  std::vector<std::optional<Key>> keys;  ///< size m.
  std::vector<uint32_t> lengths;         ///< size m; 0 when no member.
  BufferView parity;
};

/// A server carrying one parity bucket: parity column `parity_index` of
/// bucket group `group`, at availability level k.
///
/// Applies incremental parity deltas from the group's data buckets, serves
/// rank lookups for degraded-mode record recovery, and dumps / installs its
/// column during bucket recovery.
class ParityBucketNode : public Node {
 public:
  /// `pre_initialized` is false for recovery spares, which hold deltas
  /// and reads until the reconstructed column is installed.
  ParityBucketNode(std::shared_ptr<LhrsContext> ctx, uint32_t group,
                   uint32_t parity_index, uint32_t k, bool pre_initialized);

  void HandleMessage(const Message& msg) override;
  void HandleDeliveryFailure(const Message& msg) override;
  const char* role() const override { return "parity-bucket"; }

  uint32_t group() const { return group_; }
  uint32_t parity_index() const { return parity_index_; }
  uint32_t k() const { return k_; }
  /// Record groups with at least one member.
  size_t parity_record_count() const { return live_ranks_; }

  /// The ranks that have a parity record, ascending, and one record
  /// materialized (invariant checks, tests).
  std::vector<Rank> ParityRanks() const;
  std::optional<ParityRecord> FindParityRecord(Rank rank) const;
  /// The whole column in ascending rank order: a column read's dump.
  ParityColumn Column() const;

  /// Test-only hooks injecting silent corruption that scrubbing must
  /// detect. Each returns false (and changes nothing) when the rank has no
  /// parity record; SetKeyForTest also when the slot has no member.
  bool FlipParityByteForTest(Rank rank, size_t offset, uint8_t mask);
  bool SetLengthForTest(Rank rank, uint32_t slot, uint32_t length);
  bool SetKeyForTest(Rank rank, uint32_t slot, Key key);

  size_t StorageBytes() const;

 private:
  void Dispatch(const Message& msg);
  void ApplyDelta(const ParityDelta& delta);
  /// Applies `delta` unless its metadata precondition has not arrived yet
  /// (kSet onto a foreign key / kClear of an empty slot — possible only
  /// when chaos reordering swaps deltas in flight). Returns false without
  /// touching any state when the delta must wait.
  bool TryApplyDelta(const ParityDelta& delta);
  /// Re-attempts buffered deltas for (rank, slot) after a successful apply
  /// unblocked them, in arrival order.
  void DrainPendingDeltas(Rank rank, uint32_t slot);
  /// Telemetry for one applied delta round (a kParityDelta message or one
  /// kParityDeltaBatch of `deltas` updates).
  void RecordUpdateRound(size_t deltas);
  /// Index of `rank` in the rank-indexed columns when it has a parity
  /// record.
  std::optional<size_t> RowOf(Rank rank) const;
  size_t Cell(size_t row, uint32_t slot) const { return row * m_ + slot; }
  /// The key index's view of the keys: a cell's key.
  auto CellKey() const {
    return [this](uint32_t cell) { return keys_[cell]; };
  }
  bool HasMember(size_t cell) const {
    return (members_bits_[cell / 64] >> (cell % 64)) & 1;
  }
  /// Grows the columns so `rank` has a row.
  void GrowTo(Rank rank);
  /// Registers `key` as the member at (row, slot).
  void AddMember(size_t row, uint32_t slot, Key key);
  /// Retires a record group whose last member left.
  void DropRow(size_t row);
  ParityRecord Materialize(size_t row) const;
  WireParityRecord ToWire(size_t row) const;
  void InstallColumn(const InstallParityColumnMsg& install);

  std::shared_ptr<LhrsContext> ctx_;
  /// Delta application XORs into the column — not idempotent, so network
  /// duplicates (chaos) must be filtered by message id on arrival.
  DuplicateFilter dedup_;
  uint32_t group_;
  uint32_t parity_index_;
  uint32_t k_;
  bool initialized_;
  /// Task of the last column install applied. The coordinator numbers
  /// recovery, scrub and find tasks from one counter, so a repeat is a
  /// duplicated delivery: applying it again would clear the Δs replayed
  /// since the first copy.
  std::optional<uint64_t> installed_task_;
  uint32_t m_;  ///< Group size: data slots per record group.
  // Parity records as dense columns indexed by row = rank - 1; a row with
  // no member is free (no parity record). No per-record heap allocation.
  std::vector<Key> keys_;         ///< [row * m + slot]; valid where a member.
  std::vector<uint32_t> lengths_;  ///< [row * m + slot]; 0 when no member.
  std::vector<uint64_t> members_bits_;  ///< Bitmap over [row * m + slot].
  std::vector<uint32_t> member_count_;  ///< [row]: members per group.
  /// [row]: copy-on-write parity view. Delta application mutates in place
  /// while the column is the sole owner, and detaches automatically when a
  /// dump or reply snapshot still shares the buffer (DESIGN.md section 10).
  std::vector<BufferView> parity_;
  size_t live_ranks_ = 0;  ///< Rows with at least one member.
  /// Degraded-read index: key -> cell of keys_ (keys are unique across the
  /// group; the rank is cell / m + 1).
  store::KeyIndex key_index_;
  /// Deltas and reads that reached a spare before its install; replayed
  /// into Dispatch, in arrival order, once the column is installed.
  HeldMessages held_;
  /// Deltas that overtook the registration they depend on (chaos reorder
  /// only). The XOR parity bytes commute, but the key/length metadata does
  /// not — so an early arrival waits here, per (rank, slot), and drains in
  /// arrival order once the blocking registration lands.
  std::map<std::pair<Rank, uint32_t>, std::vector<ParityDelta>>
      pending_deltas_;
};

}  // namespace lhrs

#endif  // LHRS_LHRS_PARITY_BUCKET_H_
