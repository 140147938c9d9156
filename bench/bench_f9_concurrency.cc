// Experiment F9 — open-loop concurrency through the session layer.
//
// The SDDS claim this measures: with autonomous clients, throughput grows
// with the number of clients because operations from different sessions
// overlap in the network, while the per-operation message cost stays the
// flat per-op cost of T2 (no coordination added by concurrency). The
// scheme comparison inherits T2's messaging story: LH*RS searches stay 2
// messages where LH*s pays 2k, and LH*m doubles every write.
//
// All tables are simulated-cost tables (us/op, latency percentiles,
// msgs/op): deterministic, byte-identical across runs, gated by
// tools/check_bench_regression.py against BENCH_f9_concurrency.json.
//
// The binary self-checks the headline shapes (us/op strictly improving
// from 1 to 8 clients; steady-state msgs/op flat across client counts)
// and exits non-zero when they break.

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "baselines/lhg/lhg_file.h"
#include "baselines/lhm/lhm_file.h"
#include "baselines/lhs/lhs_file.h"
#include "bench/bench_util.h"
#include "lhrs/lhrs_file.h"
#include "lhstar/lhstar_file.h"
#include "lhrs/messages.h"
#include "sdds/session.h"
#include "transport/cluster.h"
#include "transport/wire.h"

namespace lhrs::bench {
namespace {

using sdds::PipelinedRunner;
using sdds::RunnerOptions;
using sdds::RunnerReport;
using sdds::SddsOp;

constexpr size_t kKeys = 400;
constexpr size_t kValueBytes = 32;
constexpr uint64_t kKeySeed = 1009;

struct Scheme {
  const char* name;
  std::function<std::unique_ptr<sdds::SddsFile>()> make;
};

std::vector<Scheme> Schemes() {
  std::vector<Scheme> schemes;
  schemes.push_back({"LH*", [] {
                       LhStarFile::Options opts;
                       opts.file.bucket_capacity = 16;
                       return std::make_unique<LhStarFile>(opts);
                     }});
  schemes.push_back({"LH*RS m=4 k=1", [] {
                       LhrsFile::Options opts;
                       opts.file.bucket_capacity = 16;
                       opts.group_size = 4;
                       opts.policy.base_k = 1;
                       return std::make_unique<LhrsFile>(opts);
                     }});
  schemes.push_back({"LH*g k=3", [] {
                       lhg::LhgFile::Options opts;
                       opts.file.bucket_capacity = 16;
                       return std::make_unique<lhg::LhgFile>(opts);
                     }});
  schemes.push_back({"LH*m", [] {
                       lhm::LhmFile::Options opts;
                       opts.file.bucket_capacity = 16;
                       return std::make_unique<lhm::LhmFile>(opts);
                     }});
  schemes.push_back({"LH*s k=4", [] {
                       lhs::LhsFile::Options opts;
                       opts.file.bucket_capacity = 16;
                       opts.stripe_count = 4;
                       return std::make_unique<lhs::LhsFile>(opts);
                     }});
  return schemes;
}

/// The growth workload: insert every key, then search every key — the
/// same script for every scheme and every (N, W) point.
std::vector<SddsOp> MakeScript(const std::vector<Key>& keys) {
  Rng rng(kKeySeed + 1);
  std::vector<SddsOp> script;
  script.reserve(2 * keys.size());
  for (Key k : keys) {
    script.push_back(SddsOp{OpType::kInsert, k, rng.RandomBytes(kValueBytes)});
  }
  for (Key k : keys) script.push_back(SddsOp{OpType::kSearch, k, {}});
  return script;
}

/// The steady-state workload: `passes` search sweeps over a grown file.
/// Fresh clients converge their file image inside the first few ops; two
/// passes amortise that one-time cost so msgs/op reflects the steady state.
std::vector<SddsOp> MakeSearchScript(const std::vector<Key>& keys,
                                     size_t passes) {
  std::vector<SddsOp> script;
  script.reserve(passes * keys.size());
  for (size_t p = 0; p < passes; ++p) {
    for (Key k : keys) script.push_back(SddsOp{OpType::kSearch, k, {}});
  }
  return script;
}

/// Grows a fresh file to kKeys records through the synchronous facade.
void GrowFile(sdds::SddsFile& file, const std::vector<Key>& keys) {
  Rng rng(kKeySeed + 1);
  for (Key k : keys) {
    const Status s = file.Insert(k, rng.RandomBytes(kValueBytes));
    LHRS_CHECK(s.ok()) << "grow insert failed: " << s.ToString();
  }
}

struct Cell {
  RunnerReport report;
  double msgs_per_op = 0.0;
  double us_per_op = 0.0;
};

/// Runs `script` through a fresh pipelined runner; `on_submit` (optional)
/// observes each submission index — the mid-stream fault hook.
Cell RunCell(sdds::SddsFile& file, const std::vector<SddsOp>& script,
             size_t sessions, size_t window,
             const std::function<void(uint64_t)>& on_submit = {}) {
  const uint64_t msgs_before = file.network().stats().total_messages();
  uint64_t submitted = 0;
  auto next = std::make_shared<size_t>(0);
  PipelinedRunner runner(file, RunnerOptions{sessions, window, 0});
  Cell cell;
  cell.report = runner.Run([&](size_t /*session*/) -> std::optional<SddsOp> {
    if (*next >= script.size()) return std::nullopt;
    if (on_submit) on_submit(submitted);
    ++submitted;
    return script[(*next)++];
  });
  const uint64_t msgs =
      file.network().stats().total_messages() - msgs_before;
  cell.msgs_per_op =
      static_cast<double>(msgs) / static_cast<double>(cell.report.completed);
  cell.us_per_op = static_cast<double>(cell.report.elapsed_us()) /
                   static_cast<double>(cell.report.completed);
  return cell;
}

std::vector<std::string> CellRow(const std::string& label, size_t clients,
                                 size_t window, const Cell& cell) {
  return {label,
          std::to_string(clients),
          std::to_string(window),
          Fmt(cell.us_per_op),
          std::to_string(cell.report.LatencyPercentileUs(50)),
          std::to_string(cell.report.LatencyPercentileUs(95)),
          std::to_string(cell.report.LatencyPercentileUs(99)),
          Fmt(cell.msgs_per_op),
          std::to_string(cell.report.failures)};
}

bool Run(BenchReport& r) {
  bool ok = true;
  const std::vector<Key> keys = RandomKeys(kKeys, kKeySeed);
  const std::vector<SddsOp> script = MakeScript(keys);
  const std::vector<SddsOp> steady = MakeSearchScript(keys, 2);
  const std::vector<size_t> client_counts = {1, 2, 4, 8};

  // Table A measures the steady state: the file is grown to 400 records
  // first (not measured), then N fresh clients sweep every key twice.
  // Growth is excluded because a growing file charges every client its
  // own image-convergence cost (forwards + IAMs scale with client count —
  // inherent SDDS client autonomy, not pipelining overhead); the window
  // sweep in Table B keeps inserts and splits in the measured path.
  r.BeginTable(
      "F9 — open-loop scaling by client count (W=4; 800 searches over 400 "
      "keys, b=16)",
      {"scheme", "clients", "window", "sim us/op", "p50 us", "p95 us",
       "p99 us", "msgs/op", "failures"});
  for (const Scheme& scheme : Schemes()) {
    double prev_us_per_op = 0.0;
    double w1_msgs_per_op = 0.0;
    for (size_t clients : client_counts) {
      auto file = scheme.make();
      GrowFile(*file, keys);
      const size_t window = clients == 1 ? 1 : 4;
      const Cell cell = RunCell(*file, steady, clients, window);
      r.Row(CellRow(scheme.name, clients, window, cell));
      if (cell.report.completed != steady.size() ||
          cell.report.failures != 0) {
        std::fprintf(stderr, "FAIL: %s N=%zu lost ops (%llu/%zu, %llu failed)\n",
                     scheme.name, clients,
                     static_cast<unsigned long long>(cell.report.completed),
                     steady.size(),
                     static_cast<unsigned long long>(cell.report.failures));
        ok = false;
      }
      // Shape check 1: more clients never slow the file down; the
      // improvement must be strict at every doubling.
      if (clients > 1 && cell.us_per_op >= prev_us_per_op) {
        std::fprintf(stderr,
                     "FAIL: %s us/op not improving at N=%zu (%.2f >= %.2f)\n",
                     scheme.name, clients, cell.us_per_op, prev_us_per_op);
        ok = false;
      }
      prev_us_per_op = cell.us_per_op;
      // Shape check 2: concurrency adds no coordination messages — per-op
      // cost stays the closed-loop (T2) cost within 5%. The slack covers
      // the one-time image convergence each fresh client pays (a few
      // forwards + IAMs, amortised over its share of 800 searches).
      if (clients == 1) {
        w1_msgs_per_op = cell.msgs_per_op;
      } else if (cell.msgs_per_op > w1_msgs_per_op * 1.05 ||
                 cell.msgs_per_op < w1_msgs_per_op * 0.95) {
        std::fprintf(stderr,
                     "FAIL: %s msgs/op moved with concurrency "
                     "(N=%zu: %.3f vs W=1: %.3f)\n",
                     scheme.name, clients, cell.msgs_per_op, w1_msgs_per_op);
        ok = false;
      }
    }
  }
  std::puts("");

  r.BeginTable("F9 — LH*RS window sweep (4 clients, m=4, k=1)",
               {"scheme", "clients", "window", "sim us/op", "p50 us",
                "p95 us", "p99 us", "msgs/op", "failures"});
  for (size_t window : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    LhrsFile::Options opts;
    opts.file.bucket_capacity = 16;
    opts.group_size = 4;
    opts.policy.base_k = 1;
    LhrsFile file(opts);
    const Cell cell = RunCell(file, script, 4, window);
    r.Row(CellRow("LH*RS m=4 k=1", 4, window, cell));
  }
  std::puts("");

  // Degraded-mode variant: a data bucket dies while half the searches are
  // already pipelined. Ops aimed at it bounce to the coordinator, recovery
  // reconstructs the bucket from the parity group, and the stream finishes
  // with zero failures — at a visible p99 and msgs/op premium.
  r.BeginTable(
      "F9 — degraded mid-stream (LH*RS m=4 k=1; crash at half the searches)",
      {"variant", "clients", "window", "sim us/op", "p50 us", "p95 us",
       "p99 us", "msgs/op", "failures"});
  std::vector<SddsOp> searches;
  for (Key k : keys) searches.push_back(SddsOp{OpType::kSearch, k, {}});
  for (const bool crash : {false, true}) {
    LhrsFile::Options opts;
    opts.file.bucket_capacity = 16;
    opts.group_size = 4;
    opts.policy.base_k = 1;
    LhrsFile file(opts);
    Rng rng(kKeySeed + 1);
    for (Key k : keys) {
      if (!file.Insert(k, rng.RandomBytes(kValueBytes)).ok()) ok = false;
    }
    const Cell cell = RunCell(
        file, searches, 4, 4, [&](uint64_t submitted) {
          if (crash && submitted == searches.size() / 2) {
            file.CrashDataBucket(1);
          }
        });
    r.Row(CellRow(crash ? "crash mid-stream" : "healthy", 4, 4, cell));
    if (cell.report.failures != 0 ||
        cell.report.completed != searches.size()) {
      std::fprintf(stderr, "FAIL: degraded variant lost ops\n");
      ok = false;
    }
  }
  std::puts("");
  std::puts(
      "shape check: us/op strictly improves 1->8 clients at flat msgs/op; "
      "mid-stream crash finishes with 0 failures.");
  return ok;
}

// --transport=udp: the same open-loop concurrency story, but measured over
// the real-socket cluster backend instead of the simulator — an in-process
// coordinator + servers + clients, each with its own runtime, exchanging
// UDP requests / parity deltas and TCP recovery bulk on the loopback.
// Wall-clock numbers vary run to run, so this mode is reported (committed
// as BENCH_f9_cluster.json for trajectory eyeballing) but never gated.
bool RunCluster(BenchReport& r) {
  using transport::ClusterClient;
  using transport::ClusterCoordinator;
  using transport::ClusterLayout;
  using transport::ClusterMemberOptions;
  using transport::ClusterServer;
  using transport::ControlListener;

  ClusterLayout layout;  // 3 servers + 2 clients, as in examples/cluster.
  layout.file.initial_buckets = 4;
  layout.file.bucket_capacity = 32;
  layout.group_size = 4;
  layout.base_k = 1;
  constexpr uint32_t kClusterKeys = 120;

  ControlListener probe;
  if (!probe.Open(0).ok()) {
    std::fprintf(stderr, "FAIL: cannot allocate control port\n");
    return false;
  }
  const uint16_t port = probe.port();
  probe.Close();

  const auto member_options = [&](int /*rank*/) {
    ClusterMemberOptions options;
    options.layout = layout;
    options.control_port = port;
    options.deadline_ms = 60'000;
    return options;
  };

  ClusterCoordinator::Options coord_options;
  static_cast<ClusterMemberOptions&>(coord_options) = member_options(0);
  coord_options.crash_bucket = 1;
  ClusterCoordinator coordinator(coord_options);

  std::vector<int> codes(layout.total_ranks(), -1);
  std::vector<std::thread> threads;
  threads.emplace_back([&] { codes[0] = coordinator.Run(); });
  for (uint32_t s = 0; s < layout.server_ranks; ++s) {
    const int rank = 1 + static_cast<int>(s);
    threads.emplace_back([&, rank] {
      ClusterServer server(member_options(rank), rank);
      codes[rank] = server.Run();
    });
  }
  for (uint32_t c = 0; c < layout.client_ranks; ++c) {
    const int rank = 1 + static_cast<int>(layout.server_ranks + c);
    threads.emplace_back([&, rank] {
      ClusterClient client(member_options(rank), rank, kClusterKeys);
      codes[rank] = client.Run();
    });
  }
  for (std::thread& t : threads) t.join();

  bool ok = true;
  for (size_t rank = 0; rank < codes.size(); ++rank) {
    if (codes[rank] != 0) {
      std::fprintf(stderr, "FAIL: cluster rank %zu exited %d\n", rank,
                   codes[rank]);
      ok = false;
    }
  }

  r.BeginTable(
      "F9 — cluster mode (udp transport; 3 servers + 2 clients on the "
      "loopback; phase 1 = mixed workload with splits, then a bucket crash "
      "+ RS recovery, phase 2 = verification reads)",
      {"phase", "client rank", "ops", "failures", "elapsed ms", "ops/s",
       "p50 us", "p95 us", "p99 us"});
  for (const auto& [key, result] : coordinator.results()) {
    const double secs =
        static_cast<double>(result.elapsed_us) / 1e6;
    r.Row({std::to_string(key.first), std::to_string(key.second),
           std::to_string(result.ops), std::to_string(result.failures),
           Fmt(static_cast<double>(result.elapsed_us) / 1e3),
           Fmt(secs > 0 ? static_cast<double>(result.ops) / secs : 0.0),
           std::to_string(result.p50_us), std::to_string(result.p95_us),
           std::to_string(result.p99_us)});
    if (!result.ok || result.failures != 0) {
      std::fprintf(stderr, "FAIL: phase %u rank %d had failures\n",
                   key.first, key.second);
      ok = false;
    }
  }
  std::puts("");
  std::puts(
      "shape check: both phases finish on every client with 0 failures "
      "across a real-socket split and recovery.");
  return ok;
}

}  // namespace
}  // namespace lhrs::bench

int main(int argc, char** argv) {
  bool cluster = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--transport=udp") == 0) cluster = true;
  }
  if (cluster) {
    lhrs::bench::BenchReport report("f9_cluster");
    report.report().AddParam("transport", "udp");
    report.report().AddParam("servers", int64_t{3});
    report.report().AddParam("clients", int64_t{2});
    report.report().AddParam("keys_per_session", int64_t{120});
    const bool ok = lhrs::bench::RunCluster(report);
    const int write_rc = lhrs::bench::WriteReport(report.report(), argc, argv);
    return ok ? write_rc : 1;
  }
  lhrs::bench::BenchReport report("f9_concurrency");
  report.report().AddParam("keys", int64_t{lhrs::bench::kKeys});
  report.report().AddParam("key_seed", int64_t{lhrs::bench::kKeySeed});
  report.report().AddParam("value_bytes", int64_t{lhrs::bench::kValueBytes});
  const bool ok = lhrs::bench::Run(report);
  const int write_rc = lhrs::bench::WriteReport(report.report(), argc, argv);
  return ok ? write_rc : 1;
}
