#ifndef LHRS_LHRS_RECOVERY_H_
#define LHRS_LHRS_RECOVERY_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "lhrs/messages.h"
#include "lhrs/shared.h"

namespace lhrs {

/// A column dump as a recovery or scrub task holds it: the reply's own
/// body, shared.
using SharedDump = std::shared_ptr<const ColumnDump>;

/// The dumps of one bucket group merged by rank. Position i describes
/// record group rank(i), the i-th smallest rank any dump holds; under
/// `reuse_ranks = false` ranks are sparse, so positions, not ranks, index
/// everything. Built by one linear merge of the dumps, each of which is in
/// ascending rank order. It points into the dumps and copies no payload.
class Collation {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// `dumps` are columns of a group of m data slots and k parity columns,
  /// at most one dump per column. The dumps must outlive the collation.
  Collation(uint32_t m, uint32_t k, const std::vector<SharedDump>& dumps);

  size_t size() const { return ranks_.size(); }
  Rank rank(size_t i) const { return ranks_[i]; }

  /// Data slot `slot`'s record at position i, or nullptr (slot not in
  /// hand, or no member there).
  const RankedRecord* Record(uint32_t slot, size_t i) const {
    const uint32_t row = RowAt(slot, i);
    return row == kNone ? nullptr : &dump_[slot]->records[row];
  }
  /// Parity column `column`'s dump and its row at position i (kNone when
  /// the column is not in hand or has no row there).
  const ParityColumn& Parity(uint32_t column) const {
    return dump_[column]->parity;
  }
  uint32_t RowAt(uint32_t column, size_t i) const {
    const std::vector<uint32_t>& rows = row_[column];
    return rows.empty() ? kNone : rows[i];
  }

  /// Value of codeword column `col` at position i; nullptr for a zero
  /// column (no dump in hand, or no record there).
  const BufferView* Payload(uint32_t col, size_t i) const;
  /// Key of the slot's member at position i, if it has one: from the
  /// group's key/length directory (the first parity dump, in request
  /// order, with a row there), else from the slot's data dump.
  std::optional<Key> KeyAt(uint32_t slot, size_t i) const;
  /// Recorded value length of the slot's member at position i.
  uint32_t LengthAt(uint32_t slot, size_t i) const;
  /// The parity column whose row is position i's directory, or kNone.
  uint32_t DirectoryAt(size_t i) const { return directory_[i]; }

 private:
  uint32_t m_;
  std::vector<Rank> ranks_;
  /// [column]: the dump in hand, or nullptr.
  std::vector<const ColumnDump*> dump_;
  /// [column][i]: the dump's record or row index at position i, or kNone.
  /// Empty for columns not in hand.
  std::vector<std::vector<uint32_t>> row_;
  std::vector<uint32_t> directory_;  ///< [i]: see DirectoryAt.
};

/// Input of a group reconstruction: the survivors that were read, the
/// columns to rebuild, and the group geometry. `existing_slots` is the
/// number of data slots that exist (< m for the file's last, partial
/// group); non-existing slots are known-zero columns.
struct ReconstructionRequest {
  uint32_t m = 0;
  const parity::ParityCode* coder = nullptr;
  uint32_t existing_slots = 0;
  std::vector<SharedDump> survivors;
  std::vector<uint32_t> missing_columns;
  /// Plan the decode through the code's incremental decoder, consuming
  /// survivor columns in arrival order (`survivors` order) and stopping as
  /// soon as the rank suffices, instead of handing every column to
  /// PlanDecode.
  bool progressive = false;
};

/// Rebuilds every requested column of one bucket group from the surviving
/// columns, one ColumnDump per missing column in request order. Every
/// record group shares the erasure pattern, so one decode plan serves them
/// all; rebuilt data records are views of one arena buffer per column, in
/// ascending rank order.
///
/// Requirements checked: enough columns for an MDS decode (survivors +
/// known-zero slots >= m) and, when data columns are missing, at least one
/// parity survivor (the only holder of the missing records' keys and
/// lengths). Violations return kDataLoss.
Result<std::vector<ColumnDump>> ReconstructColumns(
    const ReconstructionRequest& request);

}  // namespace lhrs

#endif  // LHRS_LHRS_RECOVERY_H_
