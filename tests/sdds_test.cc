// Tests for the scheme-agnostic SDDS facade and the pipelined session
// layer: async Submit/Poll/Take, bounded windows, completion-driven
// refill, latency attribution, and — the load-bearing property — exact
// equivalence of the N=1/W=1 open-loop schedule with the closed-loop
// synchronous API, chaos included.

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/lhg/lhg_file.h"
#include "baselines/lhm/lhm_file.h"
#include "baselines/lhs/lhs_file.h"
#include "chaos/chaos.h"
#include "common/rng.h"
#include "lhrs/lhrs_file.h"
#include "lhstar/lhstar_file.h"
#include "sdds/session.h"
#include "workload/generator.h"

namespace lhrs {
namespace {

using chaos::FaultPlan;
using sdds::OpToken;
using sdds::PipelinedRunner;
using sdds::RunnerOptions;
using sdds::RunnerReport;
using sdds::SddsOp;
using sdds::SessionPool;

Bytes Val(const std::string& s) { return BytesFromString(s); }

LhrsFile::Options LhrsOpts(uint32_t m = 4, uint32_t k = 1,
                           size_t capacity = 8) {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = capacity;
  opts.group_size = m;
  opts.policy.base_k = k;
  return opts;
}

std::vector<Key> MakeKeys(int n, uint64_t seed) {
  Rng rng(seed);
  std::set<Key> keys;
  while (keys.size() < static_cast<size_t>(n)) keys.insert(rng.Next64());
  return {keys.begin(), keys.end()};
}

/// Op source replaying a fixed script in order, any session.
sdds::PipelinedRunner::OpSource Scripted(const std::vector<SddsOp>& script) {
  auto next = std::make_shared<size_t>(0);
  return [&script, next](size_t /*session*/) -> std::optional<SddsOp> {
    if (*next >= script.size()) return std::nullopt;
    return script[(*next)++];
  };
}

TEST(SddsFacadeTest, SubmitPollTakeLifecycle) {
  LhStarFile file(LhStarFile::Options{});
  const OpToken ins = file.Submit(0, OpType::kInsert, 7, Val("seven"));
  EXPECT_FALSE(file.Poll(ins));  // Nothing ran yet.
  while (!file.Poll(ins)) ASSERT_TRUE(file.network().Step());
  auto out = file.Take(ins);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->status.ok());
  EXPECT_FALSE(file.Poll(ins));          // Consumed.
  EXPECT_FALSE(file.Take(ins).ok());     // Unknown token now.

  const OpToken get = file.Submit(0, OpType::kSearch, 7, {});
  file.network().RunUntilIdle();
  ASSERT_TRUE(file.Poll(get));
  auto got = file.Take(get);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->status.ok());
  EXPECT_EQ(got->value.ToBytes(), Val("seven"));
}

TEST(SddsFacadeTest, CompletionListenerFiresInsideEventProcessing) {
  LhStarFile file(LhStarFile::Options{});
  std::vector<OpToken> completed;
  file.SetCompletionListener([&](OpToken t) { completed.push_back(t); });
  const OpToken a = file.Submit(0, OpType::kInsert, 1, Val("a"));
  file.network().RunUntilIdle();
  EXPECT_EQ(completed, std::vector<OpToken>{a});
  // The listener may take the result from inside the callback.
  file.SetCompletionListener([&](OpToken t) {
    auto out = file.Take(t);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->status.ok());
  });
  file.Submit(0, OpType::kSearch, 1, {});
  file.network().RunUntilIdle();
  file.SetCompletionListener(nullptr);
}

TEST(SddsFacadeTest, SchemesWithoutScanRejectIt) {
  lhm::LhmFile mirror({});
  EXPECT_TRUE(mirror.Scan().status().IsInvalidArgument());
  lhs::LhsFile striped(lhs::LhsFile::Options{});
  EXPECT_TRUE(striped.Scan().status().IsInvalidArgument());
}

// --- The facade contract, on every scheme -----------------------------------

struct SchemeCase {
  const char* name;
  std::function<std::unique_ptr<sdds::SddsFile>()> make;
};

void PrintTo(const SchemeCase& c, std::ostream* os) { *os << c.name; }

std::vector<SchemeCase> AllSchemes() {
  return {
      {"lhstar",
       [] {
         LhStarFile::Options opts;
         opts.file.bucket_capacity = 8;
         return std::make_unique<LhStarFile>(opts);
       }},
      {"lhrs", [] { return std::make_unique<LhrsFile>(LhrsOpts()); }},
      {"lhg",
       [] {
         lhg::LhgFile::Options opts;
         opts.file.bucket_capacity = 8;
         return std::make_unique<lhg::LhgFile>(opts);
       }},
      {"lhm",
       [] {
         lhm::LhmFile::Options opts;
         opts.file.bucket_capacity = 8;
         return std::make_unique<lhm::LhmFile>(opts);
       }},
      {"lhs",
       [] {
         lhs::LhsFile::Options opts;
         opts.file.bucket_capacity = 8;
         return std::make_unique<lhs::LhsFile>(opts);
       }},
  };
}

class FacadeContractTest : public ::testing::TestWithParam<SchemeCase> {};

TEST_P(FacadeContractTest, PollIsFalseUntilTheLoopRunsAndTakeSucceedsOnce) {
  std::unique_ptr<sdds::SddsFile> file = GetParam().make();
  const OpToken token = file->Submit(0, OpType::kInsert, 11, Val("eleven"));
  EXPECT_NE(token, 0u);
  EXPECT_FALSE(file->Poll(token));
  // Taking an op still in flight fails and leaves the token live.
  EXPECT_EQ(file->Take(token).status().code(), StatusCode::kInternal);
  file->network().RunUntilIdle();
  ASSERT_TRUE(file->Poll(token));
  auto out = file->Take(token);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->status.ok()) << out->status;
  EXPECT_FALSE(file->Poll(token));
  EXPECT_EQ(file->Take(token).status().code(), StatusCode::kInternal);
  EXPECT_EQ(file->Take(0).status().code(), StatusCode::kInternal);
}

TEST_P(FacadeContractTest, ListenerMayTakeAndResubmit) {
  std::unique_ptr<sdds::SddsFile> file = GetParam().make();
  constexpr int kChain = 40;
  int completed = 0;
  std::set<OpToken> seen;
  file->SetCompletionListener([&](OpToken token) {
    auto out = file->Take(token);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->status.ok()) << out->status;
    if (++completed >= kChain) return;
    // Even steps insert key 100 + step/2, odd steps read it back.
    const OpToken next =
        file->Submit(0, completed % 2 == 0 ? OpType::kInsert : OpType::kSearch,
                     static_cast<Key>(100 + completed / 2), Val("chained"));
    EXPECT_TRUE(seen.insert(next).second) << "token " << next << " reused";
  });
  seen.insert(file->Submit(0, OpType::kInsert, 100, Val("chained")));
  file->network().RunUntilIdle();
  file->SetCompletionListener(nullptr);
  EXPECT_EQ(completed, kChain);
  EXPECT_EQ(seen.size(), static_cast<size_t>(kChain));
}

TEST_P(FacadeContractTest, InterleavedCyclesNeverRepeatAToken) {
  std::unique_ptr<sdds::SddsFile> file = GetParam().make();
  constexpr Key kKeys = 32;
  for (Key k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(file->Insert(k, Val("v")).ok());
  }
  while (file->session_count() < 3) file->AddSession();
  std::set<OpToken> handed_out;
  std::deque<OpToken> open;
  Rng rng(1729);
  for (int cycle = 0; cycle < 10000; ++cycle) {
    const size_t session = rng.Uniform(3);
    const Key key = rng.Uniform(kKeys);
    const OpToken token =
        rng.Uniform(2) == 0
            ? file->Submit(session, OpType::kSearch, key, {})
            : file->Submit(session, OpType::kUpdate, key, Val("u"));
    ASSERT_TRUE(handed_out.insert(token).second)
        << "token " << token << " handed out twice at cycle " << cycle;
    open.push_back(token);
    // Keep one to four ops in flight; take the oldest once it is done.
    while (open.size() > 1 + rng.Uniform(4)) {
      const OpToken oldest = open.front();
      while (!file->Poll(oldest)) ASSERT_TRUE(file->network().Step());
      auto out = file->Take(oldest);
      ASSERT_TRUE(out.ok());
      EXPECT_TRUE(out->status.ok()) << out->status;
      EXPECT_EQ(file->Take(oldest).status().code(), StatusCode::kInternal);
      open.pop_front();
    }
  }
  file->network().RunUntilIdle();
  for (OpToken token : open) EXPECT_TRUE(file->Take(token).ok());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, FacadeContractTest,
                         ::testing::ValuesIn(AllSchemes()),
                         [](const ::testing::TestParamInfo<SchemeCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(SessionPoolTest, WindowIsEnforcedAndLatenciesStamped) {
  LhrsFile file(LhrsOpts());
  SessionPool pool(file, /*sessions=*/1, /*window=*/2);
  std::vector<SimTime> latencies;
  pool.SetCompletionHandler([&](size_t session, const SddsOp& op,
                                const OpOutcome& outcome, SimTime latency) {
    EXPECT_EQ(session, 0u);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status << " op " << op.key;
    latencies.push_back(latency);
  });
  pool.Submit(0, SddsOp{OpType::kInsert, 1, Val("one")});
  pool.Submit(0, SddsOp{OpType::kInsert, 2, Val("two")});
  EXPECT_FALSE(pool.HasCapacity(0));  // Window full at W=2.
  EXPECT_EQ(pool.inflight_total(), 2u);
  file.network().RunUntilIdle();
  EXPECT_EQ(pool.inflight_total(), 0u);
  ASSERT_EQ(latencies.size(), 2u);
  for (SimTime l : latencies) EXPECT_GT(l, 0u);
}

TEST(SessionPoolTest, LatencyExcludesBackgroundSplitWork) {
  // Fill one bucket so the next insert triggers a split. The op's latency
  // is stamped when *its reply* reaches the client — the split traffic the
  // drain then plays out must not be billed to the op.
  LhrsFile file(LhrsOpts(4, 1, /*capacity=*/4));
  std::vector<Key> keys = MakeKeys(5, 31);
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    ASSERT_TRUE(file.Insert(keys[i], Val("x")).ok());
  }
  SessionPool pool(file, 1, 1);
  SimTime latency = 0;
  pool.SetCompletionHandler([&](size_t, const SddsOp&, const OpOutcome& out,
                                SimTime l) {
    ASSERT_TRUE(out.status.ok());
    latency = l;
  });
  const SimTime start = file.network().now();
  pool.Submit(0, SddsOp{OpType::kInsert, keys.back(), Val("x")});
  file.network().RunUntilIdle();
  const SimTime drained = file.network().now() - start;
  ASSERT_GT(latency, 0u);
  // The drain kept processing split/parity traffic well past the reply.
  EXPECT_LT(latency, drained);
}

TEST(PipelinedRunnerTest, UnitWindowMatchesSynchronousRunExactly) {
  // N=1/W=1 is the seed's closed-loop execution model: the same ops must
  // produce the same message count and the same final clock, to the byte.
  const std::vector<Key> keys = MakeKeys(60, 41);
  std::vector<SddsOp> script;
  for (Key k : keys) {
    script.push_back(SddsOp{OpType::kInsert, k, Val("v" + std::to_string(k))});
  }
  for (Key k : keys) script.push_back(SddsOp{OpType::kSearch, k, {}});

  LhrsFile sync_file(LhrsOpts());
  for (Key k : keys) {
    ASSERT_TRUE(sync_file.Insert(k, Val("v" + std::to_string(k))).ok());
  }
  for (Key k : keys) ASSERT_TRUE(sync_file.Search(k).ok());

  LhrsFile piped_file(LhrsOpts());
  PipelinedRunner runner(piped_file, RunnerOptions{1, 1, 0});
  const RunnerReport report = runner.Run(Scripted(script));
  EXPECT_EQ(report.completed, script.size());
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.stalled, 0u);
  EXPECT_EQ(piped_file.network().stats().total_messages(),
            sync_file.network().stats().total_messages());
  EXPECT_EQ(piped_file.network().now(), sync_file.network().now());
}

TEST(PipelinedRunnerTest, PipeliningRaisesThroughputWithSameWork) {
  const std::vector<Key> keys = MakeKeys(200, 43);
  std::vector<SddsOp> script;
  for (Key k : keys) {
    script.push_back(SddsOp{OpType::kInsert, k, Val("w" + std::to_string(k))});
  }
  auto run = [&](size_t sessions, size_t window) {
    LhrsFile file(LhrsOpts());
    PipelinedRunner runner(file, RunnerOptions{sessions, window, 0});
    RunnerReport report = runner.Run(Scripted(script));
    EXPECT_EQ(report.completed, script.size());
    EXPECT_EQ(report.failures, 0u);
    return report;
  };
  const RunnerReport closed = run(1, 1);
  const RunnerReport open = run(4, 4);
  // Same ops, overlapping in simulated time: strictly less wall-clock.
  EXPECT_LT(open.elapsed_us(), closed.elapsed_us());
  EXPECT_GT(open.OpsPerSimSecond(), closed.OpsPerSimSecond());
}

TEST(PipelinedRunnerTest, TwoSessionsRacingASplitLoseNothing) {
  // Tiny buckets force splits mid-stream while two sessions keep four ops
  // in flight; every record must land and stay addressable, and the
  // parity invariants must hold afterwards.
  LhrsFile file(LhrsOpts(4, 1, /*capacity=*/4));
  const std::vector<Key> keys = MakeKeys(160, 47);
  std::vector<SddsOp> script;
  for (Key k : keys) {
    script.push_back(SddsOp{OpType::kInsert, k, Val("r" + std::to_string(k))});
  }
  PipelinedRunner runner(file, RunnerOptions{2, 2, 0});
  const RunnerReport report = runner.Run(Scripted(script));
  EXPECT_EQ(report.completed, script.size());
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.stalled, 0u);
  for (Key k : keys) {
    auto got = file.Search(k);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, Val("r" + std::to_string(k)));
  }
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(PipelinedRunnerTest, MirroredFilePipelinesWithoutBreakingInvariant) {
  lhm::LhmFile file({});
  const std::vector<Key> keys = MakeKeys(120, 53);
  std::vector<SddsOp> script;
  for (Key k : keys) {
    script.push_back(SddsOp{OpType::kInsert, k, Val("m" + std::to_string(k))});
  }
  PipelinedRunner runner(file, RunnerOptions{2, 2, 0});
  const RunnerReport report = runner.Run(Scripted(script));
  EXPECT_EQ(report.completed, script.size());
  EXPECT_EQ(report.failures, 0u);
  EXPECT_TRUE(file.VerifyMirrorInvariant().ok());
  for (Key k : keys) {
    auto got = file.Search(k);
    ASSERT_TRUE(got.ok()) << got.status();
  }
}

TEST(PipelinedRunnerTest, StripedFileServesDegradedReadsPipelined) {
  lhs::LhsFile file(lhs::LhsFile::Options{});
  const std::vector<Key> keys = MakeKeys(40, 59);
  Rng rng(59);
  std::vector<Bytes> values;
  std::vector<SddsOp> inserts;
  for (Key k : keys) {
    values.push_back(rng.RandomBytes(64 + rng.Uniform(64)));
    inserts.push_back(SddsOp{OpType::kInsert, k, values.back()});
  }
  {
    PipelinedRunner runner(file, RunnerOptions{2, 2, 0});
    const RunnerReport report = runner.Run(Scripted(inserts));
    ASSERT_EQ(report.completed, inserts.size());
    ASSERT_EQ(report.failures, 0u);
  }
  // Kill one stripe column's bucket mid-life; pipelined reads must still
  // all complete with the right payloads (parked + rebuilt server-side).
  file.CrashStripeBucketOf(2, keys[0]);
  std::vector<SddsOp> searches;
  for (Key k : keys) searches.push_back(SddsOp{OpType::kSearch, k, {}});
  std::map<Key, Bytes> expected;
  for (size_t i = 0; i < keys.size(); ++i) expected[keys[i]] = values[i];
  PipelinedRunner runner(file, RunnerOptions{2, 2, 0});
  size_t verified = 0;
  const RunnerReport report = runner.Run(
      Scripted(searches),
      [&](size_t, const SddsOp& op, const OpOutcome& out) {
        ASSERT_TRUE(out.status.ok()) << out.status;
        EXPECT_EQ(out.value.ToBytes(), expected[op.key]);
        ++verified;
      });
  EXPECT_EQ(report.completed, searches.size());
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(verified, searches.size());
}

/// The generator's search / read-modify-write / insert mix: `sessions`
/// streams of `ops` each over a 64-key preloaded keyspace.
workload::GeneratorOptions GeneratedMix(uint64_t seed, size_t sessions,
                                        uint64_t ops) {
  workload::GeneratorOptions opts;
  opts.seed = seed;
  opts.sessions = sessions;
  opts.ops_per_session = ops;
  opts.keyspace = 64;
  opts.value_bytes = 24;
  return opts;
}

/// Inserts the generator's keyspace through the synchronous API.
void Preload(sdds::SddsFile& file, const workload::WorkloadGenerator& gen) {
  Rng values(gen.options().seed);
  for (Key key : gen.preload_keys()) {
    ASSERT_TRUE(
        file.Insert(key, values.RandomBytes(gen.options().value_bytes)).ok());
  }
}

TEST(OpenLoopWorkloadTest, DriverRunsCleanAcrossSchemes) {
  auto drive = [](sdds::SddsFile& file) {
    workload::WorkloadGenerator gen(GeneratedMix(67, 4, 75));
    Preload(file, gen);
    PipelinedRunner runner(file, RunnerOptions{4, 2, 0});
    const RunnerReport report =
        runner.Run([&gen](size_t session) { return gen.Next(session); });
    EXPECT_EQ(report.completed, 300u);
    EXPECT_EQ(report.ok, 300u);
    EXPECT_EQ(report.failures, 0u);
    EXPECT_EQ(report.stalled, 0u);
    EXPECT_GT(report.OpsPerSimSecond(), 0.0);
  };
  LhrsFile rs(LhrsOpts());
  drive(rs);
  EXPECT_TRUE(rs.VerifyParityInvariants().ok());
  lhm::LhmFile mirror({});
  drive(mirror);
  EXPECT_TRUE(mirror.VerifyMirrorInvariant().ok());
}

TEST(OpenLoopWorkloadTest, SameSeedReplaysByteIdenticallyUnderChaos) {
  // The headline determinism property carried over to the open-loop world:
  // a pipelined run under seeded message chaos (delays, duplicates,
  // reorders) is a pure function of its seeds — the full telemetry trace
  // and every per-op latency replay byte-identically.
  auto run = [](std::string& trace, RunnerReport& report) {
    LhrsFile file(LhrsOpts(4, 2));
    file.network().EnableTelemetry();
    workload::WorkloadGenerator gen(GeneratedMix(97, 3, 84));
    Preload(file, gen);
    FaultPlan plan;
    plan.seed = 91;
    plan.DuplicateMessages(0.05)
        .DelayMessages(0.15, 400, 200)
        .ReorderMessages(0.1, 300);
    file.AttachChaos(std::move(plan));
    PipelinedRunner runner(file, RunnerOptions{3, 2, 0});
    report = runner.Run([&gen](size_t session) { return gen.Next(session); });
    EXPECT_EQ(report.completed, 252u);
    file.DetachChaos();
    trace = file.network().telemetry()->tracer().ToJson();
  };
  std::string trace_a, trace_b;
  RunnerReport report_a, report_b;
  run(trace_a, report_a);
  run(trace_b, report_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(report_a.latencies_us, report_b.latencies_us);
  EXPECT_EQ(report_a.end_us, report_b.end_us);
  EXPECT_EQ(report_a.ok, report_b.ok);
}

}  // namespace
}  // namespace lhrs
