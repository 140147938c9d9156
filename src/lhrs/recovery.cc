#include "lhrs/recovery.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/buffer.h"
#include "common/fork_join.h"
#include "common/logging.h"

namespace lhrs {

Collation::Collation(uint32_t m, uint32_t k,
                     const std::vector<SharedDump>& dumps)
    : m_(m), dump_(m + k, nullptr), row_(m + k) {
  // One cursor per dump, in request order; the merge emits each rank any
  // cursor holds once, smallest first.
  struct Cursor {
    const ColumnDump* dump;
    bool parity;
    size_t next;
    size_t size;
    Rank Head() const {
      return parity ? dump->parity.ranks[next] : dump->records[next].rank;
    }
  };
  std::vector<Cursor> cursors;
  cursors.reserve(dumps.size());
  size_t longest = 0;
  for (const SharedDump& d : dumps) {
    LHRS_CHECK_LT(d->column, m + k);
    LHRS_CHECK(dump_[d->column] == nullptr)
        << "column " << d->column << " dumped twice";
    dump_[d->column] = d.get();
    const bool parity = d->is_parity(m);
    const size_t size = parity ? d->parity.size() : d->records.size();
    if (parity && size != 0) {
      LHRS_CHECK_EQ(d->parity.m, m);
      LHRS_CHECK_EQ(d->parity.keys.size(), size * m);
      LHRS_CHECK_EQ(d->parity.lengths.size(), size * m);
    }
    cursors.push_back(Cursor{d.get(), parity, 0, size});
    longest = std::max(longest, size);
  }
  ranks_.reserve(longest);
  directory_.reserve(longest);
  for (const Cursor& c : cursors) row_[c.dump->column].reserve(longest);
  for (;;) {
    bool any = false;
    Rank next = 0;
    for (const Cursor& c : cursors) {
      if (c.next == c.size) continue;
      const Rank r = c.Head();
      if (!any || r < next) next = r;
      any = true;
    }
    if (!any) break;
    LHRS_CHECK(ranks_.empty() || next > ranks_.back())
        << "column dump not in ascending rank order";
    ranks_.push_back(next);
    uint32_t directory = kNone;
    for (Cursor& c : cursors) {
      std::vector<uint32_t>& rows = row_[c.dump->column];
      if (c.next == c.size || c.Head() != next) {
        rows.push_back(kNone);
        continue;
      }
      rows.push_back(static_cast<uint32_t>(c.next++));
      if (c.parity && directory == kNone) directory = c.dump->column;
    }
    directory_.push_back(directory);
  }
}

const BufferView* Collation::Payload(uint32_t col, size_t i) const {
  const uint32_t row = RowAt(col, i);
  if (row == kNone) return nullptr;
  return col < m_ ? &dump_[col]->records[row].value
                  : &dump_[col]->parity.parity[row];
}

std::optional<Key> Collation::KeyAt(uint32_t slot, size_t i) const {
  if (const uint32_t dir = directory_[i]; dir != kNone) {
    const ParityColumn& p = dump_[dir]->parity;
    return p.keys[p.Cell(row_[dir][i], slot)];
  }
  const RankedRecord* rec = Record(slot, i);
  if (rec == nullptr) return std::nullopt;
  return rec->key;
}

uint32_t Collation::LengthAt(uint32_t slot, size_t i) const {
  if (const uint32_t dir = directory_[i]; dir != kNone) {
    const ParityColumn& p = dump_[dir]->parity;
    return p.lengths[p.Cell(row_[dir][i], slot)];
  }
  const RankedRecord* rec = Record(slot, i);
  return rec == nullptr ? 0 : static_cast<uint32_t>(rec->value.size());
}

namespace {

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
    for (const SharedDump& s : req.survivors) {
      if (decoder->Ready()) break;
      decoder->AddColumn(s->column, BufferView());
    }
    return decoder->Plan();
  }
  std::vector<uint32_t> columns;
  for (const SharedDump& s : req.survivors) {
    if (!s->is_parity(m)) columns.push_back(s->column);
  }
  columns.insert(columns.end(), known_zero.begin(), known_zero.end());
  for (const SharedDump& s : req.survivors) {
    if (s->is_parity(m)) columns.push_back(s->column);
  }
  return req.coder->PlanDecode(columns, missing_data);
}

}  // namespace

Result<std::vector<ColumnDump>> ReconstructColumns(
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
  for (const SharedDump& s : req.survivors) have.push_back(s->column);
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
  for (const SharedDump& s : req.survivors) {
    if (s->is_parity(m)) have_parity_survivor = true;
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

  const Collation table(m, k, req.survivors);
  const size_t n = table.size();
  // Cross-check data-dump keys against the parity directory.
  for (const SharedDump& s : req.survivors) {
    if (s->is_parity(m)) continue;
    for (size_t i = 0; i < n; ++i) {
      const RankedRecord* rec = table.Record(s->column, i);
      if (rec == nullptr || table.DirectoryAt(i) == Collation::kNone) continue;
      const std::optional<Key> key = table.KeyAt(s->column, i);
      LHRS_CHECK(key.has_value() && *key == rec->key)
          << "parity metadata disagrees with data column " << s->column;
    }
  }

  std::vector<ColumnDump> out(req.missing_columns.size());
  std::vector<ColumnDump*> out_by_col(m + k, nullptr);
  for (size_t c = 0; c < out.size(); ++c) {
    out[c].column = req.missing_columns[c];
    if (out[c].column >= m) out[c].parity = ParityColumn(m);
    out_by_col[out[c].column] = &out[c];
  }

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
        if (const BufferView* p = table.Payload(col, i)) {
          len = std::max(len, p->size());
        }
      }
      len = plan->PaddedLength(len);
    }
    offset[i + 1] = offset[i] + len;
  }

  // Decode in batches of consecutive record groups: each input's payloads
  // are gathered (zero-padded) into a scratch stretch laid out like the
  // arena, and each wanted column takes one fused MulAddRow over the whole
  // batch, so the kernel's per-call coefficient set-up is paid per batch,
  // not per record.
  constexpr size_t kBatchBytes = 64 * 1024;
  // The batches split into contiguous runs, one per decode worker, with at
  // least this much arena each. Handing a run to a parked worker and
  // joining it costs about 20-40 us on a 4-vCPU VM, while one core
  // zero-fills, gathers and decodes about 1 GB/s of arena: 256 KiB is some
  // 250 us of work, so the hand-off costs at most a sixth of what a worker
  // saves. It also keeps small rebuilds on the caller's thread, so a
  // process that only ever rebuilds small groups never starts a thread
  // (glibc malloc leaves its single-thread fast path for good once one
  // exists).
  constexpr size_t kMinWorkerBytes = 256 * 1024;
  std::vector<size_t> batch_start;  // Each batch's first group, then n.
  for (size_t a = 0; a < n;) {
    batch_start.push_back(a);
    size_t b = a + 1;
    while (b < n && offset[b + 1] - offset[a] <= kBatchBytes) ++b;
    a = b;
  }
  batch_start.push_back(n);
  const size_t batches = batch_start.size() - 1;
  const size_t parts = std::max<size_t>(
      1, std::min({ForkJoinWidth(), batches,
                   offset[n] * missing_data.size() / kMinWorkerBytes}));
  // part_start[p]: part p's first batch, so parts carry equal arena bytes
  // to within a batch.
  std::vector<size_t> part_start(parts + 1, batches);
  part_start[0] = 0;
  for (size_t p = 1, batch = 0; p < parts; ++p) {
    while (batch < batches &&
           offset[batch_start[batch]] * parts < p * offset[n]) {
      ++batch;
    }
    part_start[p] = batch;
  }

  // Each rebuilt data column decodes into one arena; its records are
  // views of it, which the spare's install adopts as they are. The
  // workers zero-fill the arena batch by batch, each its own stretch, so
  // the first touch of its pages happens on the core that decodes them.
  std::vector<BufferRef> arena(missing_data.size());
  std::vector<uint8_t*> arena_bytes(missing_data.size(), nullptr);
  for (size_t w = 0; w < missing_data.size(); ++w) {
    out_by_col[missing_data[w]]->records.reserve(member_count[w]);
    if (offset[n] == 0) continue;
    arena[w] = Buffer::AllocateUninitialized(offset[n]);
    arena_bytes[w] = arena[w]->data();
    arena[w]->ZeroFrom(offset[n]);
  }
  for (uint32_t col : missing_parity) out_by_col[col]->parity.reserve(n);

  // One part: the batches [part_start[p], part_start[p + 1]). A worker
  // reads survivor bytes and writes its own arena stretches and scratch:
  // it copies no view and touches no shared state. The scratch stays with
  // its thread, so later rounds reuse it without allocating, zero-filling
  // or faulting it in again.
  auto decode_part = [&](size_t p) {
    thread_local std::vector<Bytes> gathered;
    if (gathered.size() < inputs.size()) gathered.resize(inputs.size());
    std::vector<const uint8_t*> srcs(inputs.size(), nullptr);
    for (size_t batch = part_start[p]; batch < part_start[p + 1]; ++batch) {
      const size_t a = batch_start[batch];
      const size_t b = batch_start[batch + 1];
      const size_t stretch = offset[b] - offset[a];
      if (stretch == 0) continue;
      for (size_t t = 0; t < inputs.size(); ++t) {
        Bytes& g = gathered[t];
        if (g.size() < stretch) g.resize(stretch);
        bool any = false;
        for (size_t i = a; i < b; ++i) {
          const size_t len = offset[i + 1] - offset[i];
          if (len == 0) continue;  // Nothing to rebuild in this group.
          uint8_t* region = g.data() + (offset[i] - offset[a]);
          const BufferView* v = table.Payload(inputs[t], i);
          const size_t have = v == nullptr ? 0 : v->size();
          if (have != 0) std::copy(v->begin(), v->end(), region);
          std::fill(region + have, region + len, 0);
          any = any || have != 0;
        }
        srcs[t] = any ? g.data() : nullptr;
      }
      for (size_t w = 0; w < missing_data.size(); ++w) {
        uint8_t* dst = arena_bytes[w] + offset[a];
        std::fill(dst, dst + stretch, 0);  // MulAddRow accumulates.
        plan->MulAddRow(w, srcs.data(), stretch, dst);
      }
    }
  };
  ForkJoin(parts, decode_part);

  // Emits every record group in rank order: checks and adopts the rebuilt
  // records, then re-encodes any missing parity column.
  std::vector<BufferView> decoded(missing_data.size());
  std::vector<std::span<const uint8_t>> row(m);
  for (size_t i = 0; i < n; ++i) {
    const Rank rank = table.rank(i);
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
        const uint8_t* value = arena_bytes[w] + offset[i];
        LHRS_CHECK(AllZero({value + value_len, len - value_len}))
            << "decode produced non-zero padding";
      }
      if (value_len != 0) {
        decoded[w] = BufferView(arena[w], offset[i], value_len);
      }
      out_by_col[col]->records.push_back(RankedRecord{rank, *key, decoded[w]});
    }
    if (missing_parity.empty()) continue;

    // Assemble the full data row (survivor values + freshly decoded) and
    // re-encode the missing parity columns.
    bool any_member = false;
    for (uint32_t slot = 0; slot < m; ++slot) row[slot] = {};
    for (uint32_t slot = 0; slot < req.existing_slots; ++slot) {
      if (!table.KeyAt(slot, i).has_value()) continue;
      any_member = true;
      if (const BufferView* p = table.Payload(slot, i)) {
        row[slot] = *p;
        continue;
      }
      auto w = std::find(missing_data.begin(), missing_data.end(), slot);
      LHRS_CHECK(w != missing_data.end())
          << "member value for slot " << slot << " is neither a survivor "
          << "nor reconstructible";
      row[slot] = decoded[w - missing_data.begin()];
    }
    if (!any_member) continue;
    for (uint32_t col : missing_parity) {
      const uint32_t j = col - m;
      BufferView parity;
      for (uint32_t slot = 0; slot < m; ++slot) {
        if (row[slot].empty()) continue;
        req.coder->ApplyDelta(slot, row[slot], j, &parity);
      }
      ParityColumn& rebuilt = out_by_col[col]->parity;
      const size_t r = rebuilt.AddRow(rank, std::move(parity));
      for (uint32_t slot = 0; slot < m; ++slot) {
        rebuilt.keys[rebuilt.Cell(r, slot)] = table.KeyAt(slot, i);
        rebuilt.lengths[rebuilt.Cell(r, slot)] = table.LengthAt(slot, i);
      }
    }
  }
  return out;
}

}  // namespace lhrs
