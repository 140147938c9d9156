#ifndef LHRS_LHRS_RECOVERY_H_
#define LHRS_LHRS_RECOVERY_H_

#include <vector>

#include "common/result.h"
#include "lhrs/messages.h"
#include "lhrs/shared.h"

namespace lhrs {

/// One surviving codeword column of a bucket group, as dumped by its
/// server. Data columns carry ranked records; parity columns carry parity
/// records.
struct ColumnDump {
  uint32_t column = 0;  ///< 0..m-1 data slot, m..m+k-1 parity.
  std::vector<RankedRecord> records;
  std::vector<WireParityRecord> parity_records;

  bool is_parity(uint32_t m) const { return column >= m; }
};

/// Input of a group reconstruction: the survivors that were read, the
/// columns to rebuild, and the group geometry. `existing_slots` is the
/// number of data slots that exist (< m for the file's last, partial
/// group); non-existing slots are known-zero columns.
struct ReconstructionRequest {
  uint32_t m = 0;
  uint32_t k = 0;
  const parity::ParityCode* coder = nullptr;
  uint32_t existing_slots = 0;
  std::vector<ColumnDump> survivors;
  std::vector<uint32_t> missing_columns;
  /// Plan the decode through the code's incremental decoder, consuming
  /// survivor columns in arrival order (`survivors` order) and stopping as
  /// soon as the rank suffices, instead of handing every column to
  /// PlanDecode.
  bool progressive = false;
};

/// One rebuilt column, ready to install at a spare.
struct ReconstructedColumn {
  uint32_t column = 0;
  std::vector<RankedRecord> records;           ///< Data columns.
  std::vector<WireParityRecord> parity_records;  ///< Parity columns.
};

/// Rebuilds every requested column of one bucket group from the surviving
/// columns. Every record group shares the erasure pattern, so one decode
/// plan serves them all; rebuilt data records are views of one arena
/// buffer per column, in ascending rank order.
///
/// Requirements checked: enough columns for an MDS decode (survivors +
/// known-zero slots >= m) and, when data columns are missing, at least one
/// parity survivor (the only holder of the missing records' keys and
/// lengths). Violations return kDataLoss.
Result<std::vector<ReconstructedColumn>> ReconstructColumns(
    const ReconstructionRequest& request);

}  // namespace lhrs

#endif  // LHRS_LHRS_RECOVERY_H_
