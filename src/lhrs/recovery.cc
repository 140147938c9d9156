#include "lhrs/recovery.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/buffer.h"
#include "common/logging.h"

namespace lhrs {

namespace {

/// The survivors collated into dense rank-indexed arrays: position i of
/// every array describes record group `ranks[i]`. Collation shares the
/// dump messages' records and payloads; it never copies a payload byte.
struct Collation {
  std::vector<Rank> ranks;  ///< Every rank some survivor holds, ascending.
  /// [slot][i]: the survivor data column's record, or nullptr when the
  /// rank has no member there. Empty for slots that are not survivors.
  std::vector<std::vector<const RankedRecord*>> data;
  /// [parity index][i]: the survivor parity column's record, or nullptr.
  /// Empty for parity columns that are not survivors.
  std::vector<std::vector<const WireParityRecord*>> parity;
  /// [i]: the group's key/length directory at the rank, from the first
  /// parity survivor (in request order) that holds it, or nullptr.
  std::vector<const WireParityRecord*> meta;

  size_t size() const { return ranks.size(); }

  /// Value of codeword column `col` at rank position i; nullptr for a zero
  /// column (known-zero slot, or no record there).
  const BufferView* Payload(uint32_t col, uint32_t m, size_t i) const {
    if (col < m) {
      const auto& c = data[col];
      return c.empty() || c[i] == nullptr ? nullptr : &c[i]->value;
    }
    const auto& c = parity[col - m];
    return c.empty() || c[i] == nullptr ? nullptr : &c[i]->parity;
  }

  /// Key of the slot's member at rank position i, if it has one.
  std::optional<Key> KeyAt(uint32_t slot, size_t i) const {
    if (meta[i] != nullptr) return meta[i]->keys[slot];
    const auto& c = data[slot];
    if (c.empty() || c[i] == nullptr) return std::nullopt;
    return c[i]->key;
  }

  /// Recorded value length of the slot's member at rank position i.
  uint32_t LengthAt(uint32_t slot, size_t i) const {
    if (meta[i] != nullptr) return meta[i]->lengths[slot];
    const auto& c = data[slot];
    if (c.empty() || c[i] == nullptr) return 0;
    return static_cast<uint32_t>(c[i]->value.size());
  }
};

Collation Collate(const ReconstructionRequest& req, uint32_t k) {
  const uint32_t m = req.m;
  Collation c;
  for (const auto& s : req.survivors) {
    for (const auto& rec : s.records) c.ranks.push_back(rec.rank);
    for (const auto& pr : s.parity_records) c.ranks.push_back(pr.rank);
  }
  std::sort(c.ranks.begin(), c.ranks.end());
  c.ranks.erase(std::unique(c.ranks.begin(), c.ranks.end()), c.ranks.end());
  const size_t n = c.ranks.size();
  auto pos = [&](Rank r) {
    return static_cast<size_t>(
        std::lower_bound(c.ranks.begin(), c.ranks.end(), r) - c.ranks.begin());
  };

  c.data.resize(m);
  c.parity.resize(k);
  c.meta.assign(n, nullptr);
  for (const auto& s : req.survivors) {
    LHRS_CHECK_LT(s.column, m + k);
    if (s.is_parity(m)) {
      auto& col = c.parity[s.column - m];
      col.assign(n, nullptr);
      for (const auto& pr : s.parity_records) {
        const size_t i = pos(pr.rank);
        col[i] = &pr;
        if (c.meta[i] == nullptr) c.meta[i] = &pr;
      }
    } else {
      auto& col = c.data[s.column];
      col.assign(n, nullptr);
      for (const auto& rec : s.records) col[pos(rec.rank)] = &rec;
    }
  }
  // Cross-check data-dump keys against the parity directory.
  for (const auto& s : req.survivors) {
    if (s.is_parity(m)) continue;
    const auto& col = c.data[s.column];
    for (size_t i = 0; i < n; ++i) {
      if (col[i] == nullptr || c.meta[i] == nullptr) continue;
      const std::optional<Key>& key = c.meta[i]->keys[s.column];
      LHRS_CHECK(key.has_value() && *key == col[i]->key)
          << "parity metadata disagrees with data column " << s.column;
    }
  }
  return c;
}

/// Builds the group's one decode plan for the missing data columns. A
/// progressive task plans from the arrival-order prefix of survivors that
/// reaches full rank; a one-shot task hands the code every column in hand
/// (survivor data, known-zero slots, survivor parity).
Result<std::unique_ptr<const parity::DecodePlan>> PlanGroupDecode(
    const ReconstructionRequest& req,
    const std::vector<uint32_t>& missing_data) {
  const uint32_t m = req.m;
  std::vector<uint32_t> known_zero;
  for (uint32_t slot = req.existing_slots; slot < m; ++slot) {
    known_zero.push_back(slot);
  }
  if (req.progressive) {
    auto decoder = req.coder->NewProgressiveDecoder(missing_data, known_zero);
    for (const auto& s : req.survivors) {
      if (decoder->Ready()) break;
      decoder->AddColumn(s.column, BufferView());
    }
    return decoder->Plan();
  }
  std::vector<uint32_t> columns;
  for (const auto& s : req.survivors) {
    if (!s.is_parity(m)) columns.push_back(s.column);
  }
  columns.insert(columns.end(), known_zero.begin(), known_zero.end());
  for (const auto& s : req.survivors) {
    if (s.is_parity(m)) columns.push_back(s.column);
  }
  return req.coder->PlanDecode(columns, missing_data);
}

}  // namespace

Result<std::vector<ReconstructedColumn>> ReconstructColumns(
    const ReconstructionRequest& req) {
  const uint32_t m = req.m;
  LHRS_CHECK(req.coder != nullptr);
  LHRS_CHECK_LE(req.existing_slots, m);
  const uint32_t k = req.coder->k();

  std::vector<uint32_t> missing_data;
  std::vector<uint32_t> missing_parity;
  for (uint32_t col : req.missing_columns) {
    LHRS_CHECK_LT(col, m + k);
    (col < m ? missing_data : missing_parity).push_back(col);
  }

  // Feasibility in column-identity space: the survivors (plus known-zero
  // slots) must determine every missing data column. For an MDS code this
  // is the classic >= m columns bound; non-MDS codes rank-check.
  std::vector<uint32_t> have;
  for (const auto& s : req.survivors) have.push_back(s.column);
  for (uint32_t slot = req.existing_slots; slot < m; ++slot) {
    have.push_back(slot);
  }
  if (!req.coder->CanDecodeFrom(have, missing_data)) {
    return Status::DataLoss("group unrecoverable: " +
                            std::to_string(req.survivors.size()) +
                            " survivors + " +
                            std::to_string(m - req.existing_slots) +
                            " empty slots do not determine the lost columns");
  }
  bool have_parity_survivor = false;
  for (const auto& s : req.survivors) {
    if (s.is_parity(m)) have_parity_survivor = true;
  }
  if (!missing_data.empty() && !have_parity_survivor) {
    return Status::DataLoss(
        "data columns lost and no parity survivor holds their keys");
  }
  if (!missing_parity.empty()) {
    // Re-encoding a parity column needs every existing data slot's value:
    // as a survivor, as a freshly decoded missing column, or known-zero.
    for (uint32_t slot = 0; slot < req.existing_slots; ++slot) {
      const bool covered =
          std::find(have.begin(), have.end(), slot) != have.end() ||
          std::find(missing_data.begin(), missing_data.end(), slot) !=
              missing_data.end();
      if (!covered) {
        return Status::DataLoss(
            "parity column lost and data slot " + std::to_string(slot) +
            " is neither a survivor nor being rebuilt");
      }
    }
  }

  const Collation table = Collate(req, k);
  const size_t n = table.size();

  std::vector<ReconstructedColumn> out;
  out.reserve(req.missing_columns.size());
  std::vector<ReconstructedColumn*> out_by_col(m + k, nullptr);
  for (uint32_t col : req.missing_columns) {
    out.push_back(ReconstructedColumn{col, {}, {}});
  }
  for (auto& col : out) out_by_col[col.column] = &col;

  // One plan for the whole group: every record group shares the erasure
  // pattern, so the decode matrix (or solver) is built once.
  std::unique_ptr<const parity::DecodePlan> plan;
  if (!missing_data.empty()) {
    auto planned = PlanGroupDecode(req, missing_data);
    if (!planned.ok()) return planned.status();
    plan = std::move(planned).value();
  }
  const std::vector<uint32_t> no_inputs;
  const std::vector<uint32_t>& inputs = plan ? plan->inputs() : no_inputs;

  // Layout pass: every record group with a member to rebuild gets one
  // region of its decode length (the inputs' common symbol-padded length)
  // at the same offset in each rebuilt column's arena, so a run of
  // consecutive groups is one contiguous stretch of every column.
  std::vector<size_t> offset(n + 1, 0);
  std::vector<size_t> member_count(missing_data.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    bool any_wanted = false;
    for (size_t w = 0; w < missing_data.size(); ++w) {
      if (!table.KeyAt(missing_data[w], i).has_value()) continue;
      any_wanted = true;
      ++member_count[w];
    }
    size_t len = 0;
    if (any_wanted) {
      for (uint32_t col : inputs) {
        if (const BufferView* p = table.Payload(col, m, i)) {
          len = std::max(len, p->size());
        }
      }
      len = plan->PaddedLength(len);
    }
    offset[i + 1] = offset[i] + len;
  }

  // Each rebuilt data column decodes into one zeroed arena; its records
  // are views of it, which the spare's install adopts as they are.
  std::vector<std::shared_ptr<Buffer>> arena(missing_data.size());
  for (size_t w = 0; w < missing_data.size(); ++w) {
    out_by_col[missing_data[w]]->records.reserve(member_count[w]);
    if (offset[n] > 0) arena[w] = Buffer::Allocate(offset[n]);
  }
  for (uint32_t col : missing_parity) {
    out_by_col[col]->parity_records.reserve(n);
  }

  // Decode in batches of consecutive record groups: each input's payloads
  // are gathered (zero-padded) into a scratch stretch laid out like the
  // arena, and each wanted column takes one fused MulAddRow over the whole
  // batch, so the kernel's per-call coefficient set-up is paid per batch,
  // not per record.
  constexpr size_t kBatchBytes = 64 * 1024;
  std::vector<Bytes> gathered(inputs.size());
  std::vector<const uint8_t*> srcs(inputs.size(), nullptr);
  std::vector<BufferView> decoded(missing_data.size());
  std::vector<std::span<const uint8_t>> row(m);
  // Emits record group i once its batch is decoded: checks and adopts
  // the rebuilt records, then re-encodes any missing parity column.
  auto emit_rank = [&](size_t i) {
    const Rank rank = table.ranks[i];
    const size_t len = offset[i + 1] - offset[i];
    for (size_t w = 0; w < missing_data.size(); ++w) {
      decoded[w] = BufferView();
      const uint32_t col = missing_data[w];
      const std::optional<Key> key = table.KeyAt(col, i);
      if (!key.has_value()) continue;
      const uint32_t value_len = table.LengthAt(col, i);
      LHRS_CHECK_LE(value_len, len);
      if (len != 0) {
        // The padding beyond the recorded length must decode to zero: a
        // strong end-to-end check of the survivors and the plan.
        const uint8_t* value = arena[w]->data() + offset[i];
        LHRS_CHECK(AllZero({value + value_len, len - value_len}))
            << "decode produced non-zero padding";
      }
      if (value_len != 0) {
        decoded[w] = BufferView(arena[w], offset[i], value_len);
      }
      out_by_col[col]->records.push_back(RankedRecord{rank, *key, decoded[w]});
    }
    if (missing_parity.empty()) return;

    // Assemble the full data row (survivor values + freshly decoded) and
    // re-encode the missing parity columns.
    bool any_member = false;
    for (uint32_t slot = 0; slot < m; ++slot) row[slot] = {};
    for (uint32_t slot = 0; slot < req.existing_slots; ++slot) {
      if (!table.KeyAt(slot, i).has_value()) continue;
      any_member = true;
      if (const BufferView* p = table.Payload(slot, m, i)) {
        row[slot] = *p;
        continue;
      }
      auto w = std::find(missing_data.begin(), missing_data.end(), slot);
      LHRS_CHECK(w != missing_data.end())
          << "member value for slot " << slot << " is neither a survivor "
          << "nor reconstructible";
      row[slot] = decoded[w - missing_data.begin()];
    }
    if (!any_member) return;
    std::vector<std::optional<Key>> keys;
    std::vector<uint32_t> lengths;
    if (table.meta[i] != nullptr) {
      keys = table.meta[i]->keys;
      lengths = table.meta[i]->lengths;
    } else {
      keys.resize(m);
      lengths.resize(m, 0);
      for (uint32_t slot = 0; slot < m; ++slot) {
        keys[slot] = table.KeyAt(slot, i);
        lengths[slot] = table.LengthAt(slot, i);
      }
    }
    for (uint32_t col : missing_parity) {
      const uint32_t j = col - m;
      BufferView parity;
      for (uint32_t slot = 0; slot < m; ++slot) {
        if (row[slot].empty()) continue;
        req.coder->ApplyDelta(slot, row[slot], j, &parity);
      }
      WireParityRecord pr;
      pr.rank = rank;
      pr.keys = keys;
      pr.lengths = lengths;
      pr.parity = std::move(parity);
      out_by_col[col]->parity_records.push_back(std::move(pr));
    }
  };

  for (size_t a = 0; a < n;) {
    size_t b = a + 1;
    while (b < n && offset[b + 1] - offset[a] <= kBatchBytes) ++b;
    const size_t stretch = offset[b] - offset[a];
    if (stretch != 0) {
      for (size_t t = 0; t < inputs.size(); ++t) {
        Bytes& g = gathered[t];
        if (g.size() < stretch) g.resize(stretch);
        bool any = false;
        for (size_t i = a; i < b; ++i) {
          const size_t len = offset[i + 1] - offset[i];
          if (len == 0) continue;  // Nothing to rebuild in this group.
          uint8_t* region = g.data() + (offset[i] - offset[a]);
          const BufferView* p = table.Payload(inputs[t], m, i);
          const size_t have = p == nullptr ? 0 : p->size();
          if (have != 0) std::copy(p->begin(), p->end(), region);
          std::fill(region + have, region + len, 0);
          any = any || have != 0;
        }
        srcs[t] = any ? g.data() : nullptr;
      }
      for (size_t w = 0; w < missing_data.size(); ++w) {
        plan->MulAddRow(w, srcs.data(), stretch,
                        arena[w]->data() + offset[a]);
      }
    }
    for (size_t i = a; i < b; ++i) emit_rank(i);
    a = b;
  }
  return out;
}

}  // namespace lhrs
