// Chaos-engine tests: scripted fault schedules, probabilistic message
// faults, client retry resilience, and the headline property — a drill is
// a pure function of (workload, plan): same seed, byte-identical replay.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "common/rng.h"
#include "lhrs/lhrs_file.h"

namespace lhrs {
namespace {

using chaos::FaultKind;
using chaos::FaultPlan;

Bytes Val(const std::string& s) { return BytesFromString(s); }

LhrsFile::Options Opts(uint32_t m, uint32_t k, size_t capacity = 8) {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = capacity;
  opts.group_size = m;
  opts.policy.base_k = k;
  return opts;
}

ClientRetryPolicy Resilient(uint64_t seed = 7) {
  ClientRetryPolicy policy;
  policy.enabled = true;
  policy.seed = seed;
  return policy;
}

std::vector<Key> MakeKeys(int n, uint64_t seed) {
  Rng rng(seed);
  std::set<Key> keys;
  while (keys.size() < static_cast<size_t>(n)) keys.insert(rng.Next64());
  return {keys.begin(), keys.end()};
}

TEST(FaultPlanTest, BuildersFillRulesAndHorizon) {
  FaultPlan plan;
  plan.seed = 99;
  plan.CrashAt(1000, 3)
      .RestoreAt(5000, 3)
      .CrashGroupAt(2000, 0, 2)
      .DropMessages(0.05)
      .DuplicateMessages(0.1, 100, 900)
      .DelayMessages(0.2, 300, 200)
      .ReorderMessages(0.3, 500)
      .SlowNode(4, 3.0);
  EXPECT_EQ(plan.schedule.size(), 3u);
  EXPECT_EQ(plan.rules.size(), 5u);
  EXPECT_EQ(plan.Horizon(), 5000u);
  const std::string desc = plan.Describe();
  EXPECT_NE(desc.find("crash_group"), std::string::npos);
  EXPECT_NE(desc.find("slow_node"), std::string::npos);

  Message msg;
  msg.from = 1;
  msg.to = 4;
  auto body = std::make_unique<OpRequestMsg>();
  msg.body = std::move(body);
  // SlowNode's rule matches either endpoint; the window gates matching.
  EXPECT_TRUE(plan.rules[4].Matches(msg, 0));
  msg.to = 9;
  msg.from = 9;
  EXPECT_FALSE(plan.rules[4].Matches(msg, 0));
  EXPECT_TRUE(plan.rules[1].Matches(msg, 100));   // Duplicate window.
  EXPECT_FALSE(plan.rules[1].Matches(msg, 900));  // End-exclusive.
}

TEST(ChaosEngineTest, ScheduledCrashAndRestoreFire) {
  LhrsFile file(Opts(4, 1));
  std::vector<Key> keys = MakeKeys(40, 11);
  for (Key k : keys) {
    ASSERT_TRUE(file.Insert(k, Val("v" + std::to_string(k))).ok());
  }
  const NodeId victim = file.context().allocation.Lookup(1);

  FaultPlan plan;
  plan.CrashAt(1000, victim).RestoreAt(200000, victim);
  chaos::ChaosEngine& engine = file.AttachChaos(std::move(plan));
  EXPECT_TRUE(file.chaos_attached());
  file.PlayOutChaos();
  EXPECT_EQ(engine.injected(FaultKind::kCrash), 1u);
  EXPECT_EQ(engine.injected(FaultKind::kRestore), 1u);
  EXPECT_TRUE(file.network().available(victim));
  file.DetachChaos();
  EXPECT_FALSE(file.chaos_attached());

  for (Key k : keys) {
    auto got = file.Search(k);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, Val("v" + std::to_string(k)));
  }
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(ChaosEngineTest, CrashGroupMidWorkloadLosesNothing) {
  // The acceptance scenario: k members of one bucket group die at a
  // scripted instant while inserts are in flight; the file must end with
  // every record present exactly once.
  LhrsFile file(Opts(4, 2));  // 2-available: survives 2 failures/group.
  file.client(0).SetRetryPolicy(Resilient());
  std::vector<Key> keys = MakeKeys(140, 21);

  // Seed a third of the workload, then arm the group crash shortly ahead
  // of the remaining inserts.
  size_t i = 0;
  for (; i < keys.size() / 3; ++i) {
    ASSERT_TRUE(file.Insert(keys[i], Val("v" + std::to_string(keys[i]))).ok());
  }
  FaultPlan plan;
  plan.seed = 5;
  plan.CrashGroupAt(3000, 0, 2);
  chaos::ChaosEngine& engine = file.AttachChaos(std::move(plan));
  for (; i < keys.size(); ++i) {
    ASSERT_TRUE(file.Insert(keys[i], Val("v" + std::to_string(keys[i]))).ok())
        << "insert " << i;
  }
  file.PlayOutChaos();
  EXPECT_EQ(engine.injected(FaultKind::kCrashGroup), 1u);
  file.DetachChaos();
  file.RecoverAll();

  // Zero lost and zero duplicated records: scan the whole file.
  auto scan = file.Scan();
  ASSERT_TRUE(scan.ok()) << scan.status();
  std::set<Key> seen;
  for (const WireRecord& rec : *scan) {
    EXPECT_TRUE(seen.insert(rec.key).second)
        << "duplicate record " << rec.key;
  }
  EXPECT_EQ(seen.size(), keys.size());
  for (Key k : keys) EXPECT_TRUE(seen.contains(k)) << "lost record " << k;
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(ChaosEngineTest, DropRateWithRetriesStillConverges) {
  // 5% uniform message loss over the whole run. The client's bounded
  // retries plus the parity-delta retransmissions must absorb it.
  LhrsFile file(Opts(4, 1));
  file.network().EnableTelemetry();
  file.client(0).SetRetryPolicy(Resilient());
  std::vector<Key> keys = MakeKeys(120, 31);

  FaultPlan plan;
  plan.seed = 17;
  plan.DropMessages(0.05);
  chaos::ChaosEngine& engine = file.AttachChaos(std::move(plan));
  for (Key k : keys) {
    ASSERT_TRUE(file.Insert(k, Val("v" + std::to_string(k))).ok());
  }
  for (Key k : keys) {
    auto got = file.Search(k);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, Val("v" + std::to_string(k)));
  }
  // DetachChaos destroys the engine; read its counter first.
  const uint64_t drops_injected = engine.injected(FaultKind::kDrop);
  EXPECT_GT(drops_injected, 0u);
  file.DetachChaos();

  // Retries/backoffs surface as telemetry counters.
  telemetry::MetricsRegistry& m = file.network().telemetry()->metrics();
  EXPECT_GT(file.client(0).retries(), 0u);
  EXPECT_EQ(m.GetCounter("client.retries").value(),
            file.client(0).retries());
  EXPECT_EQ(m.GetCounter(telemetry::Labeled("chaos.faults_injected", "kind",
                                            "drop"))
                .value(),
            drops_injected);

  for (Key k : keys) {
    auto got = file.Search(k);
    ASSERT_TRUE(got.ok()) << got.status();
  }
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(ChaosEngineTest, DuplicatedRepliesAreSuppressed) {
  LhrsFile file(Opts(4, 1));
  file.client(0).SetRetryPolicy(Resilient());
  std::vector<Key> keys = MakeKeys(60, 41);

  FaultPlan plan;
  plan.seed = 23;
  plan.DuplicateMessages(0.5);
  file.AttachChaos(std::move(plan));
  for (Key k : keys) {
    ASSERT_TRUE(file.Insert(k, Val("v" + std::to_string(k))).ok());
  }
  for (Key k : keys) {
    auto got = file.Search(k);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, Val("v" + std::to_string(k)));
  }
  EXPECT_GT(file.chaos()->injected(FaultKind::kDuplicate), 0u);
  EXPECT_GT(file.client(0).duplicates_suppressed(), 0u);
  file.DetachChaos();
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(ChaosEngineTest, SlowNodeStretchesLatencyWithoutBreakingOps) {
  LhrsFile file(Opts(4, 1));
  std::vector<Key> keys = MakeKeys(30, 51);
  for (Key k : keys) {
    ASSERT_TRUE(file.Insert(k, Val("v" + std::to_string(k))).ok());
  }
  const NodeId slow = file.context().allocation.Lookup(0);

  const SimTime t0 = file.network().now();
  for (Key k : keys) ASSERT_TRUE(file.Search(k).ok());
  const SimTime baseline = file.network().now() - t0;

  FaultPlan plan;
  plan.SlowNode(slow, 8.0);
  file.AttachChaos(std::move(plan));
  const SimTime t1 = file.network().now();
  for (Key k : keys) {
    auto got = file.Search(k);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, Val("v" + std::to_string(k)));
  }
  const SimTime slowed = file.network().now() - t1;
  EXPECT_GT(file.chaos()->injected(FaultKind::kSlowNode), 0u);
  EXPECT_GT(slowed, baseline);
  file.DetachChaos();
}

/// One full drill: seeded workload under a composite plan. Returns the
/// telemetry trace JSON plus a digest of the final file contents.
struct DrillResult {
  std::string trace_json;
  std::string final_state;
  uint64_t faults = 0;
};

DrillResult RunDrill(uint64_t plan_seed) {
  LhrsFile::Options opts = Opts(4, 2);
  LhrsFile file(opts);
  file.network().EnableTelemetry();
  file.client(0).SetRetryPolicy(Resilient());

  std::vector<Key> keys = MakeKeys(100, 61);
  size_t i = 0;
  for (; i < keys.size() / 2; ++i) {
    EXPECT_TRUE(file.Insert(keys[i], Val("v" + std::to_string(keys[i]))).ok());
  }
  const NodeId victim = file.context().allocation.Lookup(2);

  FaultPlan plan;
  plan.seed = plan_seed;
  plan.CrashAt(2000, victim)
      .RestoreAt(400000, victim)
      .CrashGroupAt(5000, 0, 1)
      .DropMessages(0.03)
      .DuplicateMessages(0.05)
      .ReorderMessages(0.1, 400);
  chaos::ChaosEngine& engine = file.AttachChaos(std::move(plan));
  // Mid-outage inserts may exhaust their bounded retries (the victim stays
  // down far longer than the retry budget) — the client surfaces that
  // honestly and the application re-issues after recovery.
  std::vector<Key> deferred;
  for (; i < keys.size(); ++i) {
    if (!file.Insert(keys[i], Val("v" + std::to_string(keys[i]))).ok()) {
      deferred.push_back(keys[i]);
    }
  }
  file.PlayOutChaos();
  DrillResult result;
  result.faults = engine.injected_total();
  file.DetachChaos();
  file.RecoverAll();
  for (Key k : deferred) {
    // kAlreadyExists means the "failed" insert did land server-side — the
    // at-least-once ambiguity the drill is designed to exercise.
    const Status s = file.Insert(k, Val("v" + std::to_string(k)));
    EXPECT_TRUE(s.ok() || s.IsAlreadyExists()) << s;
  }

  result.trace_json = file.network().telemetry()->tracer().ToJson();
  for (Key k : keys) {
    auto got = file.Search(k);
    EXPECT_TRUE(got.ok()) << got.status();
    result.final_state += std::to_string(k) + "=" +
                          (got.ok() ? ToHex(*got) : "?") + ";";
  }
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
  return result;
}

TEST(ChaosEngineTest, SameSeedReplaysByteIdentically) {
  const DrillResult a = RunDrill(77);
  const DrillResult b = RunDrill(77);
  EXPECT_GT(a.faults, 0u);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.final_state, b.final_state);
  // The whole telemetry trace — every send, delivery, fault and recovery
  // event with its timestamp — is byte-identical.
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(ChaosEngineTest, DifferentSeedDivergesButStillConverges) {
  const DrillResult a = RunDrill(77);
  const DrillResult c = RunDrill(78);
  // Same records survive under any seed (the resilience claim)...
  EXPECT_EQ(a.final_state, c.final_state);
  // ...but the fault pattern differs (the seed actually matters).
  EXPECT_NE(a.trace_json, c.trace_json);
}

TEST(ChaosEngineTest, DrillsOverManySeedsConvergeWithIntactParity) {
  // Ten more fault patterns (crash, group crash, drop, duplicate, reorder):
  // each one injects faults, ends with intact parity (checked in RunDrill)
  // and keeps exactly the records of the reference seed.
  const DrillResult reference = RunDrill(77);
  for (uint64_t seed = 100; seed < 110; ++seed) {
    SCOPED_TRACE("plan seed " + std::to_string(seed));
    const DrillResult drill = RunDrill(seed);
    EXPECT_GT(drill.faults, 0u);
    EXPECT_EQ(drill.final_state, reference.final_state);
  }
}

}  // namespace
}  // namespace lhrs
