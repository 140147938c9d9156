#ifndef LHRS_PARITY_PARITY_CODE_H_
#define LHRS_PARITY_PARITY_CODE_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/result.h"

namespace lhrs {

/// Galois field used by a file's parity subsystem. GF(2^8) treats every
/// payload byte as a symbol (the SIGMOD-era choice); GF(2^16) halves the
/// table lookups per byte at the cost of 256 KiB tables (the choice the
/// LH*RS line of work later moved to). Selected per file at creation.
enum class FieldChoice { kGf256, kGf65536 };

inline const char* FieldChoiceName(FieldChoice f) {
  return f == FieldChoice::kGf256 ? "GF(2^8)" : "GF(2^16)";
}

namespace parity {

/// Parity scheme family. kRs is the paper's generalized Reed-Solomon code
/// (MDS: any m of the m+k columns reconstruct the group); kLrc trades MDS
/// optimality for repair locality: the first parity columns are XOR
/// parities of disjoint slot groups of size `locality`, backed by
/// Cauchy-derived global columns (Rawat et al., (r,t)-availability).
enum class CodeKind : uint8_t { kRs = 0, kLrc = 1 };

/// Parity-code selection, carried per file (and over the cluster wire).
struct CodeSpec {
  CodeKind kind = CodeKind::kRs;
  /// Local-group size r for kLrc (slots [l*r, (l+1)*r) share one local XOR
  /// parity). Ignored for kRs.
  uint32_t locality = 0;
  /// Decode as survivor replies arrive instead of waiting for the full
  /// planned read set (Han et al., progressive decoding).
  bool progressive = false;

  /// Canonical name, e.g. "rs", "rs+prog", "lrc2", "lrc2+prog".
  std::string Name() const;
  /// Parses a canonical name back into a spec.
  static Result<CodeSpec> Parse(std::string_view name);

  friend bool operator==(const CodeSpec&, const CodeSpec&) = default;
};

/// What the coordinator knows about a bucket group when planning a repair.
/// Data slots >= existing_slots do not exist yet and are known-zero
/// columns; `alive_parity` holds parity *indexes* (not codeword columns).
struct RepairContext {
  uint32_t existing_slots = 0;
  std::vector<uint32_t> alive_data;
  std::vector<uint32_t> alive_parity;
  std::vector<uint32_t> missing;  ///< Codeword columns to rebuild.
};

/// A planned repair: which codeword columns to read (data < m, parity
/// >= m), and whether decode may begin before every read returns.
struct RepairPlan {
  std::vector<uint32_t> read_columns;
  bool progressive = false;
};

/// An immutable decode plan for one erasure pattern: the columns it reads
/// and, per wanted data column, one coefficient row that rebuilds it from
/// them. Built once (one matrix inversion or solver run) and applied to
/// every record group that shares the pattern; safe to share across
/// threads.
class DecodePlan {
 public:
  virtual ~DecodePlan() = default;

  /// Codeword columns the plan reads, in coefficient order.
  const std::vector<uint32_t>& inputs() const { return inputs_; }
  /// Data columns the plan rebuilds, in request order.
  const std::vector<uint32_t>& wanted() const { return wanted_; }

  /// Rounds a payload length up to a whole number of field symbols.
  size_t PaddedLength(size_t n) const {
    return (n + symbol_bytes_ - 1) / symbol_bytes_ * symbol_bytes_;
  }

  /// dst[0, len) += sum_t coeff(w, t) * srcs[t][0, len): folds every
  /// input into wanted()[w] with one fused kernel pass. `srcs` has one
  /// entry per input; nullptr is an all-zero column, anything else holds
  /// at least `len` bytes. `len` must be a whole number of symbols.
  virtual void MulAddRow(size_t w, const uint8_t* const* srcs, size_t len,
                         uint8_t* dst) const = 0;

  /// Rebuilds every wanted column of one record group. `payloads[t]` is
  /// the value of inputs()[t] (nullptr or empty: zero column). Results are
  /// padded to the inputs' common symbol-padded length.
  std::vector<Bytes> Decode(std::span<const BufferView* const> payloads) const;

 protected:
  DecodePlan(std::vector<uint32_t> inputs, std::vector<uint32_t> wanted,
             size_t symbol_bytes)
      : inputs_(std::move(inputs)),
        wanted_(std::move(wanted)),
        symbol_bytes_(symbol_bytes) {}

 private:
  std::vector<uint32_t> inputs_;
  std::vector<uint32_t> wanted_;
  size_t symbol_bytes_;
};

/// Incremental decoder: accepts survivor columns one at a time and reports
/// when the accumulated coefficient rank suffices to solve the wanted data
/// columns. Payload views are shared (zero-copy); all byte work is
/// deferred to Decode(). Columns may arrive in any order; redundant
/// columns (linearly dependent on ones already absorbed) are rejected so
/// `columns_used()` counts only useful survivors.
class ProgressiveDecoder {
 public:
  virtual ~ProgressiveDecoder() = default;

  /// Feeds one survivor column (data in [0, m), parity in [m, m+k)).
  /// Returns true when the column raised the solvable rank, false when it
  /// was redundant (its payload is then not retained).
  virtual bool AddColumn(uint32_t column, BufferView payload) = 0;

  /// True once every wanted data column is solvable from the columns
  /// absorbed so far.
  virtual bool Ready() const = 0;

  /// Number of columns absorbed as useful (pre-seeded known-zero columns
  /// do not count).
  virtual size_t columns_used() const = 0;

  /// The plan that rebuilds the wanted data columns (order of
  /// construction) from the useful columns absorbed so far. Fails with
  /// DataLoss while !Ready().
  virtual Result<std::unique_ptr<const DecodePlan>> Plan() const = 0;

  /// Solves for the wanted data columns: Plan() applied to the absorbed
  /// payloads. Fails with DataLoss while !Ready().
  virtual Result<std::vector<Bytes>> Decode() const = 0;
};

/// Scheme-agnostic parity code for one bucket group: m data columns,
/// k parity columns, all linear over a binary Galois field. Implementations
/// are immutable once built and safe to share across threads.
class ParityCode {
 public:
  virtual ~ParityCode() = default;

  virtual uint32_t m() const = 0;
  virtual uint32_t k() const = 0;
  virtual const CodeSpec& spec() const = 0;

  /// Folds coeff(slot, parity_index) * delta into parity (grows it). A
  /// zero coefficient (possible for non-MDS codes) is a no-op.
  virtual void ApplyDelta(size_t slot, std::span<const uint8_t> delta,
                          size_t parity_index, Bytes* parity) const = 0;

  /// Copy-on-write form: in place when the view is sole owner, detaching
  /// when a snapshot shares the buffer.
  virtual void ApplyDelta(size_t slot, std::span<const uint8_t> delta,
                          size_t parity_index, BufferView* parity) const = 0;

  /// Full-group encode. `data[i]` may be nullptr (absent member == zero
  /// buffer). Returns k parity buffers of the padded common length.
  virtual std::vector<Bytes> Encode(
      std::span<const Bytes* const> data) const = 0;

  /// Plans the reconstruction of `wanted_data` from the codeword columns
  /// in `columns` (values in hand, including known-zero data columns).
  /// The plan depends only on column identities, so one plan serves every
  /// record group with the same erasure pattern. Fails with DataLoss when
  /// the columns do not determine the wanted ones.
  virtual Result<std::unique_ptr<const DecodePlan>> PlanDecode(
      const std::vector<uint32_t>& columns,
      const std::vector<uint32_t>& wanted_data) const = 0;

  /// Reconstructs the requested data columns of one record group from the
  /// available columns (shared views of the survivors' dumps; no payload
  /// copies): PlanDecode plus one plan application. Absent-but-known-zero
  /// data slots should be passed as available columns with an empty
  /// payload. Fails with DataLoss when the available columns do not
  /// determine the wanted ones.
  Result<std::vector<Bytes>> DecodeData(
      const std::vector<std::pair<size_t, BufferView>>& available,
      const std::vector<size_t>& missing_data) const;

  /// True when the codeword columns in `columns` (values in hand,
  /// including known-zero data columns) determine every column in
  /// `wanted_data`.
  virtual bool CanDecodeFrom(
      const std::vector<uint32_t>& columns,
      const std::vector<uint32_t>& wanted_data) const = 0;

  /// Parity indexes in preference order for reconstructing `data_slot`
  /// (an LRC lists the slot's local parity first; RS has no preference).
  virtual std::vector<uint32_t> ParityPreference(uint32_t data_slot)
      const = 0;

  /// Plans which columns to read to rebuild `ctx.missing`. Fails with
  /// DataLoss when the surviving columns cannot determine the missing
  /// ones (the group is lost).
  virtual Result<RepairPlan> PlanRepair(const RepairContext& ctx) const = 0;

  /// Creates an incremental decoder for `wanted_data`, pre-seeded with
  /// the known-zero data columns.
  virtual std::unique_ptr<ProgressiveDecoder> NewProgressiveDecoder(
      std::vector<uint32_t> wanted_data,
      std::vector<uint32_t> known_zero_data) const = 0;

  /// Rounds a payload length up to a whole number of field symbols.
  virtual size_t PaddedLength(size_t n) const = 0;

  /// Convenience overload for owned buffers (tests, benches).
  Result<std::vector<Bytes>> DecodeData(
      const std::vector<std::pair<size_t, Bytes>>& available,
      const std::vector<size_t>& missing_data) const {
    std::vector<std::pair<size_t, BufferView>> views;
    views.reserve(available.size());
    for (const auto& [col, payload] : available) {
      views.emplace_back(col, BufferView(payload));
    }
    return DecodeData(views, missing_data);
  }
};

/// Builds a parity code over the requested field. Fails with
/// InvalidArgument on unsupported geometry (e.g. LRC with fewer parity
/// columns than local groups, or m + k beyond the field order).
Result<std::unique_ptr<ParityCode>> MakeParityCode(const CodeSpec& spec,
                                                   uint32_t m, uint32_t k,
                                                   FieldChoice field);

}  // namespace parity
}  // namespace lhrs

#endif  // LHRS_PARITY_PARITY_CODE_H_
