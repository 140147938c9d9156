// Tests for sdds::OpTable, the one record of every operation of a file:
// generation-tagged tokens that go stale when their slot is freed, a
// chaos-duplicated reply that must not complete the slot's next occupant,
// and a seeded differential against a std::map oracle.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "common/rng.h"
#include "lhstar/lhstar_file.h"
#include "lhstar/messages.h"
#include "sdds/op_table.h"
#include "telemetry/metrics.h"

namespace lhrs {
namespace {

using sdds::OpKind;
using sdds::OpSlot;
using sdds::OpTable;
using sdds::OpToken;

Bytes Val(const std::string& s) { return BytesFromString(s); }

OpOutcome Tagged(uint32_t tag) {
  OpOutcome out;
  out.batch_applied = tag;
  return out;
}

TEST(OpTableTest, TokenGoesStaleWhenItsSlotIsReused) {
  OpTable table;
  const OpToken first = table.Open(OpKind::kKeyOp, 10).token;
  ASSERT_NE(first, 0u);
  table.Complete(*table.Find(first), Tagged(1));
  auto out = table.Take(first);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->batch_applied, 1u);

  const OpToken second = table.Open(OpKind::kKeyOp, 20).token;
  EXPECT_EQ(OpTable::SlotOf(second), OpTable::SlotOf(first));
  EXPECT_NE(second, first);
  EXPECT_EQ(table.Find(first), nullptr);
  EXPECT_FALSE(table.Poll(first));
  EXPECT_EQ(table.Take(first).status().code(), StatusCode::kInternal);
  ASSERT_NE(table.Find(second), nullptr);
  EXPECT_EQ(table.Find(second)->start_us, 20u);
  table.Complete(*table.Find(second), Tagged(2));
  EXPECT_TRUE(table.Poll(second));
  EXPECT_FALSE(table.Poll(first));
  EXPECT_EQ(table.open(), 1u);
}

TEST(OpTableTest, FacadeTokenGoesStaleWhenItsSlotIsReused) {
  LhStarFile file(LhStarFile::Options{});
  ASSERT_TRUE(file.Insert(1, Val("one")).ok());
  const OpToken first = file.Submit(0, OpType::kSearch, 1, {});
  file.network().RunUntilIdle();
  ASSERT_TRUE(file.Take(first).ok());
  const OpToken second = file.Submit(0, OpType::kSearch, 1, {});
  EXPECT_EQ(OpTable::SlotOf(second), OpTable::SlotOf(first));
  file.network().RunUntilIdle();
  EXPECT_FALSE(file.Poll(first));
  EXPECT_EQ(file.Take(first).status().code(), StatusCode::kInternal);
  EXPECT_TRUE(file.Poll(second));
}

TEST(OpTableTest, DuplicatedReplyDoesNotCompleteTheSlotsNextOccupant) {
  // Every OpReply is delivered twice, back to back. The listener takes
  // each op as its first reply lands and submits the next one at once,
  // into the slot just freed, so the duplicate reaches the client while
  // the slot holds a different op.
  LhStarFile::Options opts;
  opts.file.bucket_capacity = 16;
  LhStarFile file(opts);
  constexpr int kOps = 40;
  for (Key k = 0; k < kOps; ++k) {
    ASSERT_TRUE(file.Insert(k, Val("v" + std::to_string(k))).ok());
  }
  file.network().EnableTelemetry();
  chaos::FaultPlan plan;
  plan.seed = 5;
  chaos::MessageFaultRule rule;
  rule.kind = chaos::FaultKind::kDuplicate;
  rule.kind_min = rule.kind_max = LhStarMsg::kOpReply;
  plan.AddRule(rule);
  file.AttachChaos(std::move(plan));

  const uint64_t duplicates_before = file.client(0).duplicates_suppressed();
  // One op in flight at a time: the only token that may complete.
  OpToken in_flight = file.Submit(0, OpType::kSearch, 0, {});
  int completed = 0;
  file.SetCompletionListener([&](OpToken token) {
    ASSERT_EQ(token, in_flight) << "a stale reply completed an op";
    auto out = file.Take(token);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out->status.ok()) << out->status;
    EXPECT_EQ(out->value.ToBytes(), Val("v" + std::to_string(completed)));
    if (++completed >= kOps) return;
    in_flight = file.Submit(0, OpType::kSearch, completed, {});
    EXPECT_EQ(OpTable::SlotOf(in_flight), OpTable::SlotOf(token));
  });
  file.network().RunUntilIdle();
  file.SetCompletionListener(nullptr);
  file.DetachChaos();

  EXPECT_EQ(completed, kOps);
  const uint64_t suppressed =
      file.client(0).duplicates_suppressed() - duplicates_before;
  EXPECT_EQ(suppressed, static_cast<uint64_t>(kOps));
  EXPECT_EQ(file.network()
                .telemetry()
                ->metrics()
                .GetCounter("client.duplicates_suppressed")
                .value(),
            suppressed);
}

// --- Differential against a std::map oracle ---------------------------------

struct OracleOp {
  OpKind kind;
  OpToken parent;
  bool done = false;
  uint32_t tag = 0;
};

/// Drives one OpTable and a std::map of the open ops through the same
/// seeded mix of Open / Complete / Take / Free, probing live, stale and
/// never-issued tokens after every step.
void RunDifferential(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed);
  OpTable table;
  std::map<OpToken, OracleOp> oracle;
  std::set<OpToken> issued;
  std::vector<OpToken> completions;
  table.SetCompletionListener(
      [&](OpToken token) { completions.push_back(token); });
  size_t peak_open = 0;
  uint32_t max_slot = 0;
  uint32_t next_tag = 1;

  auto random_open = [&]() -> std::optional<OpToken> {
    if (oracle.empty()) return std::nullopt;
    auto it = oracle.begin();
    std::advance(it, static_cast<long>(rng.Uniform(oracle.size())));
    return it->first;
  };
  auto random_stale = [&]() -> OpToken {
    for (int tries = 0; tries < 8 && !issued.empty(); ++tries) {
      auto it = issued.begin();
      std::advance(it, static_cast<long>(rng.Uniform(issued.size())));
      if (!oracle.contains(*it)) return *it;
    }
    // A token whose slot was never created.
    return (OpToken{1} << 32) | (max_slot + 1 + rng.Uniform(8));
  };

  for (int step = 0; step < 4000; ++step) {
    const uint64_t roll = rng.Uniform(100);
    // Bias towards a working set of a few dozen open ops.
    if (roll < 35 || oracle.empty()) {
      const auto kind = static_cast<OpKind>(1 + rng.Uniform(5));
      const OpToken parent =
          rng.Uniform(3) == 0 ? random_open().value_or(0) : 0;
      const OpToken token = table.Open(kind, step, parent).token;
      ASSERT_NE(token, 0u);
      ASSERT_TRUE(issued.insert(token).second) << "token issued twice";
      oracle[token] = OracleOp{kind, parent};
      max_slot = std::max(max_slot, OpTable::SlotOf(token));
    } else if (roll < 60) {
      const OpToken token = *random_open();
      OracleOp& op = oracle[token];
      if (op.done) continue;
      op.done = true;
      op.tag = next_tag++;
      table.Complete(*table.Find(token), Tagged(op.tag));
      ASSERT_FALSE(completions.empty());
      EXPECT_EQ(completions.back(), token);
    } else if (roll < 85) {
      // Take a random token: open (done or not) or stale.
      const OpToken token =
          rng.Uniform(4) == 0 ? random_stale() : *random_open();
      auto it = oracle.find(token);
      auto out = table.Take(token);
      if (it != oracle.end() && it->second.done) {
        ASSERT_TRUE(out.ok());
        EXPECT_EQ(out->batch_applied, it->second.tag);
        oracle.erase(it);
      } else {
        EXPECT_EQ(out.status().code(), StatusCode::kInternal);
      }
    } else {
      const OpToken token = *random_open();
      table.Free(*table.Find(token));
      oracle.erase(token);
    }
    peak_open = std::max(peak_open, oracle.size());

    ASSERT_EQ(table.open(), oracle.size());
    for (int probe = 0; probe < 3; ++probe) {
      const OpToken token = probe == 0 ? random_stale()
                                       : random_open().value_or(0);
      auto it = oracle.find(token);
      const OpSlot* slot = table.Find(token);
      if (it == oracle.end()) {
        EXPECT_EQ(slot, nullptr) << "token " << token;
        EXPECT_FALSE(table.Poll(token));
        continue;
      }
      ASSERT_NE(slot, nullptr) << "token " << token;
      EXPECT_EQ(slot->kind, it->second.kind);
      EXPECT_EQ(slot->parent, it->second.parent);
      EXPECT_EQ(slot->done, it->second.done);
      EXPECT_EQ(table.Poll(token), it->second.done);
    }
  }
  // Freed slots are reused: the table never grows past the peak.
  EXPECT_LT(max_slot, peak_open);
}

TEST(OpTableTest, DifferentialAgainstMapOracle) {
  for (uint64_t seed = 1; seed <= 10; ++seed) RunDifferential(seed);
}

std::optional<uint64_t> EnvSeed() {
  const char* env = std::getenv("LHRS_OP_TABLE_SEED");
  if (env == nullptr || *env == '\0') return std::nullopt;
  const uint64_t seed = std::strtoull(env, nullptr, 10);
  std::cout << "LHRS_OP_TABLE_SEED=" << seed << std::endl;
  return seed;
}

TEST(OpTableTest, EnvSeededDifferential) {
  const std::optional<uint64_t> seed = EnvSeed();
  if (!seed.has_value()) GTEST_SKIP() << "LHRS_OP_TABLE_SEED not set";
  RunDifferential(*seed);
}

}  // namespace
}  // namespace lhrs
