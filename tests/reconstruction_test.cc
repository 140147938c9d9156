// Direct unit tests of the group-reconstruction engine (lhrs/recovery.h):
// mixed data/parity losses, partial groups, metadata propagation and both
// Galois fields — without any network in the loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "lhrs/recovery.h"

namespace lhrs {
namespace {

SharedDump Share(ColumnDump dump) {
  return std::make_shared<const ColumnDump>(std::move(dump));
}

/// Builds a consistent group over `m` slots, `existing` of which exist,
/// with one record group per entry of `ranks` (slot `slot` has no member
/// at rank r when slot + r is even), and returns the data dumps and parity
/// dumps a recovery would read.
struct Fixture {
  uint32_t m, k;
  CoderCache coders;
  std::vector<SharedDump> data_dumps;  // One per existing slot.
  std::vector<SharedDump> parity_dumps;

  Fixture(uint32_t m_in, uint32_t k_in, uint32_t existing, uint64_t seed,
          FieldChoice field = FieldChoice::kGf256,
          std::vector<Rank> ranks = {1, 2, 3})
      : m(m_in), k(k_in), coders(m_in, field) {
    Rng rng(seed);
    const parity::ParityCode& coder = coders.ForK(k);
    std::vector<std::vector<Bytes>> per_rank(ranks.size(),
                                             std::vector<Bytes>(m));
    for (uint32_t slot = 0; slot < existing; ++slot) {
      ColumnDump dump;
      dump.column = slot;
      for (size_t i = 0; i < ranks.size(); ++i) {
        const Rank r = ranks[i];
        if ((slot + r) % 2 == 0) continue;  // Some holes.
        Bytes v = rng.RandomBytes(1 + rng.Uniform(40));
        per_rank[i][slot] = v;
        dump.records.push_back(RankedRecord{r, 1000 * r + slot, v});
      }
      data_dumps.push_back(Share(std::move(dump)));
    }
    for (uint32_t j = 0; j < k; ++j) {
      ColumnDump dump;
      dump.column = m + j;
      dump.parity = ParityColumn(m);
      for (size_t i = 0; i < ranks.size(); ++i) {
        const Rank r = ranks[i];
        BufferView parity;
        for (uint32_t slot = 0; slot < m; ++slot) {
          const Bytes& v = per_rank[i][slot];
          if (!v.empty()) coder.ApplyDelta(slot, v, j, &parity);
        }
        if (parity.empty()) continue;  // No member at this rank.
        const size_t row = dump.parity.AddRow(r, parity);
        for (uint32_t slot = 0; slot < m; ++slot) {
          const Bytes& v = per_rank[i][slot];
          if (v.empty()) continue;
          dump.parity.keys[dump.parity.Cell(row, slot)] = 1000 * r + slot;
          dump.parity.lengths[dump.parity.Cell(row, slot)] =
              static_cast<uint32_t>(v.size());
        }
      }
      parity_dumps.push_back(Share(std::move(dump)));
    }
  }
};

TEST(ReconstructionTest, SingleDataColumn) {
  Fixture fx(4, 2, 4, 1);
  ReconstructionRequest req;
  req.m = 4;
  req.coder = &fx.coders.ForK(2);
  req.existing_slots = 4;
  for (uint32_t s = 1; s < 4; ++s) req.survivors.push_back(fx.data_dumps[s]);
  req.survivors.push_back(fx.parity_dumps[0]);
  req.missing_columns = {0};
  auto result = ReconstructColumns(req);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  // Compare against the original records of slot 0.
  const auto& rebuilt = (*result)[0].records;
  ASSERT_EQ(rebuilt.size(), fx.data_dumps[0]->records.size());
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    EXPECT_EQ(rebuilt[i].key, fx.data_dumps[0]->records[i].key);
    EXPECT_EQ(rebuilt[i].value, fx.data_dumps[0]->records[i].value);
  }
}

TEST(ReconstructionTest, MixedDataAndParityLoss) {
  Fixture fx(4, 3, 4, 2);
  ReconstructionRequest req;
  req.m = 4;
  req.coder = &fx.coders.ForK(3);
  req.existing_slots = 4;
  // Lose data slots 0, 2 and parity column 1: survivors are data 1, 3 and
  // parity 0, 2.
  req.survivors = {fx.data_dumps[1], fx.data_dumps[3], fx.parity_dumps[0],
                   fx.parity_dumps[2]};
  req.missing_columns = {0, 2, 5};
  auto result = ReconstructColumns(req);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 3u);
  for (const auto& col : *result) {
    if (col.column < 4) {
      const auto& expected = fx.data_dumps[col.column]->records;
      ASSERT_EQ(col.records.size(), expected.size()) << col.column;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(col.records[i].value, expected[i].value);
      }
    } else {
      const ParityColumn& expected = fx.parity_dumps[col.column - 4]->parity;
      ASSERT_EQ(col.parity.size(), expected.size());
      EXPECT_EQ(col.parity.keys, expected.keys);
      EXPECT_EQ(col.parity.lengths, expected.lengths);
      for (size_t i = 0; i < expected.size(); ++i) {
        const BufferView& a = col.parity.parity[i];
        const BufferView& b = expected.parity[i];
        const size_t n = std::max(a.size(), b.size());
        EXPECT_EQ(PadTo(a, n), PadTo(b, n));
      }
    }
  }
}

TEST(ReconstructionTest, PartialGroupUsesKnownZeroSlots) {
  // Only 2 of 4 slots exist; slot 1 lost: decode from slot 0 + 1 parity +
  // the two known-zero slots.
  Fixture fx(4, 1, 2, 3);
  ReconstructionRequest req;
  req.m = 4;
  req.coder = &fx.coders.ForK(1);
  req.existing_slots = 2;
  req.survivors = {fx.data_dumps[0], fx.parity_dumps[0]};
  req.missing_columns = {1};
  auto result = ReconstructColumns(req);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto& rebuilt = (*result)[0].records;
  ASSERT_EQ(rebuilt.size(), fx.data_dumps[1]->records.size());
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    EXPECT_EQ(rebuilt[i].value, fx.data_dumps[1]->records[i].value);
  }
}

TEST(ReconstructionTest, WorksOverGf65536) {
  Fixture fx(4, 2, 4, 4, FieldChoice::kGf65536);
  ReconstructionRequest req;
  req.m = 4;
  req.coder = &fx.coders.ForK(2);
  req.existing_slots = 4;
  req.survivors = {fx.data_dumps[0], fx.data_dumps[3], fx.parity_dumps[0],
                   fx.parity_dumps[1]};
  req.missing_columns = {1, 2};
  auto result = ReconstructColumns(req);
  ASSERT_TRUE(result.ok()) << result.status();
  for (const auto& col : *result) {
    const auto& expected = fx.data_dumps[col.column]->records;
    ASSERT_EQ(col.records.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(col.records[i].value, expected[i].value) << col.column;
    }
  }
}

TEST(ReconstructionTest, ParityOnlyRebuildNeedsNoParitySurvivor) {
  Fixture fx(4, 2, 4, 5);
  ReconstructionRequest req;
  req.m = 4;
  req.coder = &fx.coders.ForK(2);
  req.existing_slots = 4;
  req.survivors = {fx.data_dumps[0], fx.data_dumps[1], fx.data_dumps[2],
                   fx.data_dumps[3]};
  req.missing_columns = {4, 5};
  auto result = ReconstructColumns(req);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  for (const auto& col : *result) {
    const ParityColumn& expected = fx.parity_dumps[col.column - 4]->parity;
    ASSERT_EQ(col.parity.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      const BufferView& a = col.parity.parity[i];
      const BufferView& b = expected.parity[i];
      const size_t n = std::max(a.size(), b.size());
      EXPECT_EQ(PadTo(a, n), PadTo(b, n)) << "column " << col.column;
    }
  }
}

TEST(ReconstructionTest, GappedRanksRebuildInRankOrder) {
  // Sparse record groups: the rank table has gaps (ranks freed by deletes
  // and never reused), which the dense collation must not assume away.
  Fixture fx(4, 2, 4, 6, FieldChoice::kGf256, {1, 2, 7, 300});
  ReconstructionRequest req;
  req.m = 4;
  req.coder = &fx.coders.ForK(2);
  req.existing_slots = 4;
  req.survivors = {fx.data_dumps[3], fx.parity_dumps[0], fx.data_dumps[0],
                   fx.data_dumps[1]};
  req.missing_columns = {2, 5};
  auto result = ReconstructColumns(req);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  for (const auto& col : *result) {
    if (col.column < 4) {
      const auto& expected = fx.data_dumps[col.column]->records;
      ASSERT_EQ(col.records.size(), expected.size()) << col.column;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(col.records[i].rank, expected[i].rank);
        EXPECT_EQ(col.records[i].key, expected[i].key);
        EXPECT_EQ(col.records[i].value, expected[i].value);
      }
    } else {
      const ParityColumn& expected = fx.parity_dumps[1]->parity;
      EXPECT_EQ(col.parity.ranks, expected.ranks);
      EXPECT_EQ(col.parity.keys, expected.keys);
      EXPECT_EQ(col.parity.parity, expected.parity);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential test against the per-rank algorithm.

/// The per-rank reconstruction ReconstructColumns replaced, kept as the
/// oracle: collate survivors into one map entry per rank, then call
/// DecodeData (one decode matrix per rank) and re-encode parity rank by
/// rank.
Result<std::vector<ColumnDump>> PerRankOracle(
    const ReconstructionRequest& req) {
  const uint32_t m = req.m;
  std::vector<uint32_t> missing_data;
  std::vector<uint32_t> missing_parity;
  for (uint32_t col : req.missing_columns) {
    (col < m ? missing_data : missing_parity).push_back(col);
  }
  std::vector<uint32_t> have;
  bool have_parity_survivor = false;
  for (const SharedDump& s : req.survivors) {
    have.push_back(s->column);
    have_parity_survivor |= s->is_parity(m);
  }
  for (uint32_t slot = req.existing_slots; slot < m; ++slot) {
    have.push_back(slot);
  }
  if (!req.coder->CanDecodeFrom(have, missing_data) ||
      (!missing_data.empty() && !have_parity_survivor)) {
    return Status::DataLoss("unrecoverable");
  }

  struct RankState {
    std::vector<std::optional<Key>> keys;
    std::vector<uint32_t> lengths;
    std::map<uint32_t, BufferView> data;
    std::map<uint32_t, BufferView> parity;
    bool have_meta = false;
  };
  std::map<Rank, RankState> table;
  auto state = [&](Rank r) -> RankState& {
    RankState& st = table[r];
    if (st.keys.empty()) {
      st.keys.resize(m);
      st.lengths.resize(m, 0);
    }
    return st;
  };
  for (const SharedDump& s : req.survivors) {
    const ParityColumn& p = s->parity;
    for (size_t row = 0; row < p.size(); ++row) {
      RankState& st = state(p.ranks[row]);
      st.parity[s->column] = p.parity[row];
      if (!st.have_meta) {
        const auto first = static_cast<long>(p.Cell(row, 0));
        st.keys.assign(p.keys.begin() + first, p.keys.begin() + first + m);
        st.lengths.assign(p.lengths.begin() + first,
                          p.lengths.begin() + first + m);
        st.have_meta = true;
      }
    }
    for (const auto& rec : s->records) {
      state(rec.rank).data[s->column] = rec.value;
    }
  }
  for (const SharedDump& s : req.survivors) {
    for (const auto& rec : s->records) {
      RankState& st = table.at(rec.rank);
      if (!st.have_meta) {
        st.keys[s->column] = rec.key;
        st.lengths[s->column] = static_cast<uint32_t>(rec.value.size());
      }
    }
  }

  std::vector<ColumnDump> out(req.missing_columns.size());
  for (size_t c = 0; c < out.size(); ++c) {
    out[c].column = req.missing_columns[c];
    if (out[c].column >= m) out[c].parity = ParityColumn(m);
  }
  auto out_col = [&](uint32_t col) -> ColumnDump& {
    return *std::find_if(out.begin(), out.end(),
                         [&](const auto& c) { return c.column == col; });
  };
  const BufferView kEmpty;
  for (auto& [rank, st] : table) {
    std::vector<size_t> wanted;
    for (uint32_t col : missing_data) {
      if (st.keys[col].has_value()) wanted.push_back(col);
    }
    std::map<uint32_t, BufferView> values = st.data;
    if (!wanted.empty()) {
      std::vector<std::pair<size_t, BufferView>> available;
      for (const SharedDump& s : req.survivors) {
        if (s->is_parity(m)) continue;
        auto it = st.data.find(s->column);
        available.emplace_back(s->column,
                               it == st.data.end() ? kEmpty : it->second);
      }
      for (uint32_t slot = req.existing_slots; slot < m; ++slot) {
        available.emplace_back(slot, kEmpty);
      }
      for (const SharedDump& s : req.survivors) {
        if (!s->is_parity(m)) continue;
        auto it = st.parity.find(s->column);
        available.emplace_back(s->column,
                               it == st.parity.end() ? kEmpty : it->second);
      }
      auto decoded = req.coder->DecodeData(available, wanted);
      if (!decoded.ok()) return decoded.status();
      for (size_t i = 0; i < wanted.size(); ++i) {
        Bytes v = (*decoded)[i];
        v.resize(st.lengths[wanted[i]]);
        values[static_cast<uint32_t>(wanted[i])] = BufferView(v);
        out_col(static_cast<uint32_t>(wanted[i]))
            .records.push_back(RankedRecord{rank, *st.keys[wanted[i]], v});
      }
    }
    bool any_member = false;
    for (uint32_t slot = 0; slot < req.existing_slots; ++slot) {
      any_member |= st.keys[slot].has_value();
    }
    if (!any_member) continue;
    for (uint32_t col : missing_parity) {
      BufferView parity;
      for (uint32_t slot = 0; slot < req.existing_slots; ++slot) {
        if (!st.keys[slot].has_value() || values[slot].empty()) continue;
        req.coder->ApplyDelta(slot, values[slot], col - m, &parity);
      }
      ParityColumn& p = out_col(col).parity;
      const size_t row = p.AddRow(rank, std::move(parity));
      for (uint32_t slot = 0; slot < m; ++slot) {
        p.keys[p.Cell(row, slot)] = st.keys[slot];
        p.lengths[p.Cell(row, slot)] = st.lengths[slot];
      }
    }
  }
  return out;
}

struct CodeCase {
  const char* code;
  FieldChoice field;
};

void PrintTo(const CodeCase& c, std::ostream* os) {
  *os << c.code << " " << FieldChoiceName(c.field);
}

class ReconstructionOracleTest : public ::testing::TestWithParam<CodeCase> {};

/// One random group: sparse ranks, members of odd lengths (GF(2^16)
/// pads them) from a few bytes to several KiB (so a rebuild spans more
/// than one decode batch), a partial last group, and every parity column
/// encoded. `rank_count` record groups; with `empty_members`, about one
/// member in ten has a zero-length value.
struct RandomGroup {
  std::vector<ColumnDump> columns;  // Data slots < existing, then parity.
  uint32_t existing = 0;
};

RandomGroup MakeRandomGroup(const parity::ParityCode& coder, uint32_t existing,
                            Rng& rng, size_t rank_count = 64,
                            bool empty_members = false) {
  const uint32_t m = coder.m();
  RandomGroup g;
  g.existing = existing;
  std::vector<Rank> ranks;
  for (Rank r = 1; ranks.size() < rank_count; r += 1 + rng.Uniform(40)) {
    ranks.push_back(r);
  }
  std::vector<ColumnDump> data(existing);
  std::vector<ColumnDump> parity(coder.k());
  for (uint32_t slot = 0; slot < existing; ++slot) data[slot].column = slot;
  for (uint32_t j = 0; j < coder.k(); ++j) {
    parity[j].column = m + j;
    parity[j].parity = ParityColumn(m);
  }
  for (Rank r : ranks) {
    std::vector<std::optional<Key>> keys(m);
    std::vector<uint32_t> lengths(m, 0);
    std::vector<Bytes> values(m);
    bool any = false;
    for (uint32_t slot = 0; slot < existing; ++slot) {
      if (rng.Uniform(10) < 3) continue;  // ~30% holes.
      if (!empty_members || rng.Uniform(10) != 0) {
        const size_t max_len = rng.Uniform(3) == 0 ? 8191 : 61;
        values[slot] = rng.RandomBytes(1 + rng.Uniform(max_len));
      }
      const Key key = 100000 * static_cast<Key>(r) + slot;
      data[slot].records.push_back(RankedRecord{r, key, values[slot]});
      keys[slot] = key;
      lengths[slot] = static_cast<uint32_t>(values[slot].size());
      any = true;
    }
    if (!any) continue;
    for (uint32_t j = 0; j < coder.k(); ++j) {
      BufferView bytes;
      for (uint32_t slot = 0; slot < existing; ++slot) {
        if (!values[slot].empty()) {
          coder.ApplyDelta(slot, values[slot], j, &bytes);
        }
      }
      ParityColumn& p = parity[j].parity;
      const size_t row = p.AddRow(r, std::move(bytes));
      for (uint32_t slot = 0; slot < m; ++slot) {
        p.keys[p.Cell(row, slot)] = keys[slot];
        p.lengths[p.Cell(row, slot)] = lengths[slot];
      }
    }
  }
  g.columns = std::move(data);
  for (auto& p : parity) g.columns.push_back(std::move(p));
  return g;
}

void ExpectSameColumns(const std::vector<ColumnDump>& got,
                       const std::vector<ColumnDump>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t c = 0; c < want.size(); ++c) {
    ASSERT_EQ(got[c].column, want[c].column) << where;
    ASSERT_EQ(got[c].records.size(), want[c].records.size()) << where;
    for (size_t i = 0; i < want[c].records.size(); ++i) {
      EXPECT_EQ(got[c].records[i].rank, want[c].records[i].rank) << where;
      EXPECT_EQ(got[c].records[i].key, want[c].records[i].key) << where;
      EXPECT_EQ(got[c].records[i].value, want[c].records[i].value) << where;
    }
    const ParityColumn& a = got[c].parity;
    const ParityColumn& b = want[c].parity;
    EXPECT_EQ(a.m, b.m) << where;
    EXPECT_EQ(a.ranks, b.ranks) << where;
    EXPECT_EQ(a.keys, b.keys) << where;
    EXPECT_EQ(a.lengths, b.lengths) << where;
    EXPECT_EQ(a.parity, b.parity) << where;
  }
}

TEST_P(ReconstructionOracleTest, MatchesPerRankDecodeByteForByte) {
  const auto [code_name, field] = GetParam();
  auto spec = parity::CodeSpec::Parse(code_name);
  ASSERT_TRUE(spec.ok());
  constexpr uint32_t kM = 4;
  size_t rebuilt = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 7919);
    // LRC with locality 2 over m = 4 needs k >= 2 (one XOR per group).
    const uint32_t k =
        (spec->kind == parity::CodeKind::kLrc ? 2 : 1) + rng.Uniform(2);
    CoderCache coders(kM, field, *spec);
    const parity::ParityCode& coder = coders.ForK(k);
    const uint32_t existing = 1 + static_cast<uint32_t>(rng.Uniform(kM));
    RandomGroup g = MakeRandomGroup(coder, existing, rng);

    // Erase up to k columns, data and parity mixed; survivors arrive in
    // a seeded order.
    std::vector<ColumnDump> pool = g.columns;
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng.Uniform(i)]);
    }
    const size_t erase = 1 + rng.Uniform(k);
    ReconstructionRequest req;
    req.m = kM;
    req.coder = &coder;
    req.existing_slots = existing;
    req.progressive = spec->progressive;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (i < erase) {
        req.missing_columns.push_back(pool[i].column);
      } else {
        req.survivors.push_back(Share(pool[i]));
      }
    }

    const std::string where = std::string(code_name) + " seed " +
                              std::to_string(seed) + " k " +
                              std::to_string(k);
    auto got = ReconstructColumns(req);
    auto want = PerRankOracle(req);
    ASSERT_EQ(got.ok(), want.ok()) << where << ": " << got.status() << " vs "
                                   << want.status();
    if (!got.ok()) {
      EXPECT_TRUE(got.status().IsDataLoss()) << where;
      continue;
    }
    ExpectSameColumns(*got, *want, where);
    // And against the ground truth: every lost column comes back whole.
    for (const auto& col : *got) {
      const ColumnDump& truth = *std::find_if(
          g.columns.begin(), g.columns.end(),
          [&](const auto& d) { return d.column == col.column; });
      if (col.column < kM) {
        ASSERT_EQ(col.records.size(), truth.records.size()) << where;
        for (size_t i = 0; i < truth.records.size(); ++i) {
          EXPECT_EQ(col.records[i].value, truth.records[i].value) << where;
        }
      } else {
        EXPECT_EQ(col.parity.ranks, truth.parity.ranks) << where;
        EXPECT_EQ(col.parity.parity, truth.parity.parity) << where;
      }
    }
    ++rebuilt;
  }
  EXPECT_GT(rebuilt, 30u) << "too few decodable patterns to mean much";
}

INSTANTIATE_TEST_SUITE_P(
    Codes, ReconstructionOracleTest,
    ::testing::Values(CodeCase{"rs", FieldChoice::kGf256},
                      CodeCase{"rs", FieldChoice::kGf65536},
                      CodeCase{"rs+prog", FieldChoice::kGf256},
                      CodeCase{"rs+prog", FieldChoice::kGf65536},
                      CodeCase{"lrc2", FieldChoice::kGf256},
                      CodeCase{"lrc2", FieldChoice::kGf65536},
                      CodeCase{"lrc2+prog", FieldChoice::kGf256},
                      CodeCase{"lrc2+prog", FieldChoice::kGf65536}),
    [](const auto& info) {
      std::string name = info.param.code;
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name + (info.param.field == FieldChoice::kGf256 ? "_gf8"
                                                            : "_gf16");
    });

// ---------------------------------------------------------------------------
// Large rebuilds: enough bytes that the decode splits across workers on a
// multi-core host.

/// Two data columns of a full m = 4, k = 2 group lost, rebuilt from the
/// other two and both parity columns.
ReconstructionRequest LargeRequest(const parity::ParityCode& coder,
                                   const RandomGroup& g) {
  ReconstructionRequest req;
  req.m = coder.m();
  req.coder = &coder;
  req.existing_slots = g.existing;
  req.progressive = coder.spec().progressive;
  for (const ColumnDump& col : g.columns) {
    if (col.column == 1 || col.column == 2) {
      req.missing_columns.push_back(col.column);
    } else {
      req.survivors.push_back(Share(col));
    }
  }
  return req;
}

/// About 1600 record groups over gapped ranks, with members from empty to
/// several KiB: over 2 MiB rebuilt, ending in a partial decode batch.
RandomGroup MakeLargeGroup(const parity::ParityCode& coder, uint64_t seed) {
  Rng rng(seed);
  return MakeRandomGroup(coder, coder.m(), rng, 1600,
                         /*empty_members=*/true);
}

class ReconstructionWorkersTest : public ::testing::TestWithParam<CodeCase> {};

TEST_P(ReconstructionWorkersTest, LargeRebuildMatchesPerRankDecode) {
  const auto [code_name, field] = GetParam();
  auto spec = parity::CodeSpec::Parse(code_name);
  ASSERT_TRUE(spec.ok());
  CoderCache coders(4, field, *spec);
  const parity::ParityCode& coder = coders.ForK(2);
  const RandomGroup g = MakeLargeGroup(coder, 2024);
  const ReconstructionRequest req = LargeRequest(coder, g);
  auto got = ReconstructColumns(req);
  auto want = PerRankOracle(req);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(want.ok()) << want.status();
  size_t rebuilt_bytes = 0;
  size_t empty_values = 0;
  for (const ColumnDump& col : *got) {
    for (const RankedRecord& rec : col.records) {
      rebuilt_bytes += rec.value.size();
      if (rec.value.empty()) ++empty_values;
    }
  }
  EXPECT_GE(rebuilt_bytes, size_t{2} << 20);
  EXPECT_GT(empty_values, 0u);
  ExpectSameColumns(*got, *want, code_name);
}

INSTANTIATE_TEST_SUITE_P(
    Codes, ReconstructionWorkersTest,
    ::testing::Values(CodeCase{"rs", FieldChoice::kGf256},
                      CodeCase{"rs", FieldChoice::kGf65536},
                      CodeCase{"lrc2", FieldChoice::kGf256},
                      CodeCase{"lrc2", FieldChoice::kGf65536}),
    [](const auto& info) {
      return std::string(info.param.code) +
             (info.param.field == FieldChoice::kGf256 ? "_gf8" : "_gf16");
    });

TEST(ReconstructionTest, ConcurrentCallersMatchThePerRankDecode) {
  // Two coordinators of one process may rebuild at the same time; each
  // call's result must not depend on the other.
  auto rs = parity::CodeSpec::Parse("rs");
  auto lrc = parity::CodeSpec::Parse("lrc2");
  ASSERT_TRUE(rs.ok() && lrc.ok());
  CoderCache rs_coders(4, FieldChoice::kGf256, *rs);
  CoderCache lrc_coders(4, FieldChoice::kGf65536, *lrc);
  const RandomGroup groups[2] = {MakeLargeGroup(rs_coders.ForK(2), 11),
                                 MakeLargeGroup(lrc_coders.ForK(2), 12)};
  const ReconstructionRequest reqs[2] = {
      LargeRequest(rs_coders.ForK(2), groups[0]),
      LargeRequest(lrc_coders.ForK(2), groups[1])};
  std::vector<std::vector<ColumnDump>> wants;
  for (const ReconstructionRequest& req : reqs) {
    auto want = PerRankOracle(req);
    ASSERT_TRUE(want.ok()) << want.status();
    wants.push_back(std::move(want).value());
  }
  for (int round = 0; round < 4; ++round) {
    std::atomic<int> ready{0};
    // A rebuilt column's views belong to the thread that rebuilt it, so
    // each caller checks and drops its own result.
    auto run = [&](int which) {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      const Result<std::vector<ColumnDump>> got =
          ReconstructColumns(reqs[which]);
      const std::string where =
          "round " + std::to_string(round) + " caller " +
          std::to_string(which);
      ASSERT_TRUE(got.ok()) << where << ": " << got.status();
      ExpectSameColumns(got.value(), wants[which], where);
    };
    std::thread first(run, 0);
    std::thread second(run, 1);
    first.join();
    second.join();
  }
}

// ---------------------------------------------------------------------------
// Loud failures: a corrupted survivor must stop the rebuild, not install
// garbage.

TEST(ReconstructionDeathTest, CorruptSurvivorTripsPaddingCheck) {
  CoderCache coders(4);
  const parity::ParityCode& coder = coders.ForK(2);
  const Bytes short_value(5, 0x11);  // Slot 0: 5 bytes.
  const Bytes long_value(40, 0x22);  // Slot 1: 40 bytes.
  ColumnDump d1;
  d1.column = 1;
  d1.records.push_back(RankedRecord{1, 101, long_value});
  ColumnDump p0;
  p0.column = 4;
  p0.parity = ParityColumn(4);
  Bytes parity;
  coder.ApplyDelta(0, short_value, 0, &parity);
  coder.ApplyDelta(1, long_value, 0, &parity);
  parity[20] ^= 0x5a;  // Beyond slot 0's 5 recorded bytes.
  p0.parity.AddRow(1, BufferView(parity));
  p0.parity.keys = {Key{100}, Key{101}, std::nullopt, std::nullopt};
  p0.parity.lengths = {5, 40, 0, 0};

  ReconstructionRequest req;
  req.m = 4;
  req.coder = &coder;
  req.existing_slots = 2;
  req.survivors = {Share(d1), Share(p0)};
  req.missing_columns = {0};
  EXPECT_DEATH((void)ReconstructColumns(req), "non-zero padding");
}

TEST(ReconstructionDeathTest, ParityMetadataMismatchIsFatal) {
  Fixture fx(4, 1, 4, 7);
  ReconstructionRequest req;
  req.m = 4;
  req.coder = &fx.coders.ForK(1);
  req.existing_slots = 4;
  ColumnDump parity = *fx.parity_dumps[0];
  // Rank 1's member at slot 2 is listed under a key slot 2 never held.
  ASSERT_TRUE(parity.parity.keys[parity.parity.Cell(0, 2)].has_value());
  parity.parity.keys[parity.parity.Cell(0, 2)] = 424242;
  req.survivors = {fx.data_dumps[1], fx.data_dumps[2], fx.data_dumps[3],
                   Share(parity)};
  req.missing_columns = {0};
  EXPECT_DEATH((void)ReconstructColumns(req),
               "parity metadata disagrees with data column 2");
}

}  // namespace
}  // namespace lhrs
