// Host-time ledger for LH*RS: runs one workload (ingest, serve or repair)
// for a fixed time and prints its end-to-end metrics (--trace 0) or its
// per-layer split (--trace 1). The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 when every correctness check passed, 1 when one failed,
// 2 on bad arguments.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "gf/kernels.h"
#include "layers.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (a != name || i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (a == "--smoke") {
      args->smoke = true;
    } else if (const char* v = value("--workload")) {
      args->workload = v;
    } else if (const char* v = value("--seed")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds")) {
      args->seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace")) {
      args->trace = std::atoi(v);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

template <typename Fn>
double MedianOfPasses(const std::vector<PassResult>& passes, Fn&& fn) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(fn(p));
  return Median(std::move(v));
}

double OpsPerS(const PassResult& p) {
  return Ratio(static_cast<double>(p.ops) * 1e9,
               static_cast<double>(p.op_phase_ns));
}

/// Adds the figures every pass must agree on to the correctness tally.
void CheckDeterminism(const std::vector<const PassResult*>& passes,
                      uint64_t* failed, std::string* error) {
  for (const PassResult* p : passes) {
    if (p->DeterministicDigest() != passes[0]->DeterministicDigest()) {
      ++*failed;
      if (error->empty()) {
        *error = "deterministic figures differ between passes:\n  " +
                 passes[0]->DeterministicDigest() + "\n  " +
                 p->DeterministicDigest();
      }
    }
  }
}

/// Elementwise minimum over the passes of a per-piece time series: the
/// best time each repeated piece of work (an op, a window of ops, a repair
/// round) took in this run. Load from elsewhere on a shared host only ever
/// adds time, so the best of several repetitions is the steadiest estimate
/// of what the work itself costs.
std::vector<uint64_t> BestOf(const std::vector<PassResult>& passes,
                             std::vector<uint64_t> PassResult::*series) {
  std::vector<uint64_t> best = passes[0].*series;
  for (const PassResult& p : passes) {
    const std::vector<uint64_t>& s = p.*series;
    best.resize(std::min(best.size(), s.size()));
    for (size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], s[i]);
  }
  return best;
}

double Sum(const std::vector<uint64_t>& v) {
  double sum = 0;
  for (uint64_t x : v) sum += static_cast<double>(x);
  return sum;
}

/// Client ops per host second over the best time of each window of ops.
double BestOpsPerS(const std::vector<PassResult>& passes) {
  const std::vector<uint64_t> windows = BestOf(passes, &PassResult::window_ns);
  return Ratio(static_cast<double>(windows.size() * passes[0].window_ops) * 1e9,
               Sum(windows));
}

std::vector<Metric> EndToEnd(const std::vector<PassResult>& passes) {
  const PassResult& first = passes[0];
  const std::vector<uint64_t> op_ns = BestOf(passes, &PassResult::op_host_ns);
  const std::vector<uint64_t> rounds =
      BestOf(passes, &PassResult::repair_round_ns);
  const double ops = static_cast<double>(first.ops);
  return {
      {"setup_s",
       MedianOfPasses(passes,
                      [](const PassResult& p) { return p.setup_ns / 1e9; }),
       "s"},
      {"ops_per_s", BestOpsPerS(passes), "1/s"},
      {"op_us_p50", Percentile(op_ns, 50) / 1e3, "us"},
      {"op_us_p99", Percentile(op_ns, 99) / 1e3, "us"},
      {"msgs_per_op", Ratio(static_cast<double>(first.msgs), ops), "msgs/op"},
      {"repair_mb_per_s",
       Ratio(static_cast<double>(first.repair_bytes) * 1e3, Sum(rounds)),
       "MB/s"},
      {"repair_sim_ms",
       Ratio(static_cast<double>(first.repair_sim_us) / 1e3,
             static_cast<double>(first.repair_rounds)),
       "ms"},
      {"stored_bytes_per_user_byte", first.stored_bytes_per_user_byte,
       "B/B"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const std::vector<PassResult>& untraced,
                             const std::vector<PassResult>& traced,
                             const LayerFigures& layers, double calib_ns) {
  const PassResult& t0 = traced[0];
  const double ops = static_cast<double>(t0.ops);
  const double rounds = static_cast<double>(t0.repair_rounds);
  auto slot_ns = [&](Span span) {
    return MedianOfPasses(traced, [span](const PassResult& p) {
      const Ledger::Slot& s = p.ledger.slot(span);
      return Ratio(static_cast<double>(s.self_ns),
                   static_cast<double>(s.calls));
    });
  };
  auto per_op_ns = [&](auto fn) {
    return MedianOfPasses(traced, [&](const PassResult& p) {
      return Ratio(fn(p), static_cast<double>(p.ops));
    });
  };
  auto phase_ms = [&](int phase) {
    return MedianOfPasses(traced, [&](const PassResult& p) {
      return Ratio(p.phase_ns[phase] / 1e6,
                   static_cast<double>(p.repair_rounds));
    });
  };
  const double untraced_ops = BestOpsPerS(untraced);
  const double traced_ops = BestOpsPerS(traced);
  return {
      {"sdds.submit_ns", slot_ns(Span::kSddsSubmit), "ns"},
      {"sdds.session_ns_per_op", per_op_ns([](const PassResult& p) {
         return static_cast<double>(p.ledger.slot(Span::kSddsSession).self_ns +
                                    p.ledger.slot(Span::kSddsTake).self_ns);
       }),
       "ns"},
      {"net.step_ns", slot_ns(Span::kNetStep), "ns"},
      {"net.steps_per_op", Ratio(static_cast<double>(t0.events), ops),
       "steps/op"},
      {"net.msgs_per_op.lhstar",
       Ratio(static_cast<double>(t0.msgs_lhstar), ops), "msgs/op"},
      {"net.msgs_per_op.lhrs", Ratio(static_cast<double>(t0.msgs_lhrs), ops),
       "msgs/op"},
      {"lhstar.splits", static_cast<double>(t0.splits), "count"},
      {"lhstar.split_ms", MedianOfPasses(traced,
                                         [](const PassResult& p) {
                                           return Ratio(p.split_ns / 1e6,
                                                        static_cast<double>(
                                                            p.splits_traced));
                                         }),
       "ms"},
      {"lhstar.load_factor", t0.load_factor, "ratio"},
      {"lhrs.parity_deltas_per_op",
       Ratio(static_cast<double>(t0.deltas_applied), ops), "deltas/op"},
      {"lhrs.recovery_plan_ms", phase_ms(0), "ms"},
      {"lhrs.recovery_read_ms", phase_ms(1), "ms"},
      {"lhrs.recovery_decode_install_ms", phase_ms(2), "ms"},
      {"lhrs.repair_bytes_per_round",
       Ratio(static_cast<double>(t0.survivor_bytes), rounds), "B"},
      {"store.insert_ns", layers.store_insert_ns, "ns"},
      {"store.erase_ns", layers.store_erase_ns, "ns"},
      {"store.compact_ms", layers.store_compact_ms, "ms"},
      {"store.find_ns", layers.store_find_ns, "ns"},
      {"parity.apply_delta_ns", layers.parity_apply_delta_ns, "ns"},
      {"parity.decode_mb_per_s", layers.parity_decode_mb_per_s, "MB/s"},
      {"gf.muladd_gbps", layers.gf_muladd_gbps, "GB/s"},
      {"workload.next_ns", slot_ns(Span::kWorkloadNext), "ns"},
      {"ledger.coverage_pct", MedianOfPasses(traced,
                                             [](const PassResult& p) {
                                               return 100.0 *
                                                      Ratio(p.ledger
                                                                .TotalSelfNs(),
                                                            p.measured_wall_ns);
                                             }),
       "%"},
      {"ledger.trace_overhead_pct",
       100.0 * (1.0 - Ratio(traced_ops, untraced_ops)), "%"},
      {"ledger.calib_ns", calib_ns, "ns"},
  };
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: lhrs_perfbench --workload ingest|serve|repair "
                 "--seed N --seconds S --trace 0|1 [--smoke]\n");
    return 2;
  }
  const Sizes sizes = args.smoke ? Sizes::Smoke() : Sizes{};
  std::printf("facts: workload=%s seed=%llu trace=%d seconds=%g smoke=%d "
              "kernel_isa=%s build_type=%s nproc=%u\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace, args.seconds, args.smoke ? 1 : 0,
              lhrs::ActiveKernels().name, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency());
  std::fflush(stdout);

  // Passes repeat until the time is used up; the next one starts only if
  // it is expected to finish in time (at least one always runs). The
  // traced run alternates untraced and traced passes so drift hits both,
  // and keeps a fifth of its time for the single-layer replays.
  const uint64_t start = NowNs();
  const double pass_budget_s =
      args.trace == 1 ? args.seconds * 0.8 : args.seconds;
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::vector<double> calib;
  for (;;) {
    const uint64_t t0 = NowNs();
    calib.push_back(CalibrationNs());
    untraced.push_back(RunPass(spec, sizes, args.seed, false));
    if (args.trace == 1) traced.push_back(RunPass(spec, sizes, args.seed, true));
    const double round_s = (NowNs() - t0) / 1e9;
    const double elapsed_s = (NowNs() - start) / 1e9;
    if (elapsed_s + round_s > pass_budget_s) break;
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;
  std::vector<const PassResult*> all;
  for (const auto* set : {&untraced, &traced}) {
    for (const PassResult& p : *set) {
      attempted += p.attempted;
      failed += p.failed;
      if (error.empty() && !p.first_error.empty()) error = p.first_error;
      all.push_back(&p);
    }
  }
  CheckDeterminism(all, &failed, &error);
  for (const PassResult& p : traced) {
    // The structural trace must see exactly the splits the file did.
    if (p.splits_traced != p.splits) {
      ++failed;
      if (error.empty()) error = "traced splits disagree with bucket count";
    }
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = EndToEnd(untraced);
  } else {
    const double remaining_s =
        std::max(0.5, args.seconds - (NowNs() - start) / 1e9);
    const LayerFigures layers =
        MeasureLayers(spec, sizes, args.seed, std::min(remaining_s, 4.0));
    ++attempted;
    if (!layers.ok) {
      ++failed;
      if (error.empty()) error = "a single-layer replay produced wrong output";
    }
    metrics = PerLayer(untraced, traced, layers, Median(calib));
  }
  if (!error.empty()) std::fprintf(stderr, "FAIL: %s\n", error.c_str());

  std::printf("passes: untraced=%zu traced=%zu calib_ns=%.4f\n",
              untraced.size(), traced.size(), Median(calib));
  for (const PassResult& p : untraced) {
    std::printf("pass: setup_s=%.4f ops_per_s=%.1f op_us_p50=%.3f\n",
                p.setup_ns / 1e9, OpsPerS(p),
                Percentile(p.op_host_ns, 50) / 1e3);
  }
  std::printf("fail_ratio: %.17g\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  std::printf("deterministic: %s\n", untraced[0].DeterministicDigest().c_str());
  std::printf("sim_us: mean=%.3f p50=%.0f p99=%.0f (see README.md)\n",
              Mean(untraced[0].sim_us), Percentile(untraced[0].sim_us, 50),
              Percentile(untraced[0].sim_us, 99));
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = failed == 0;
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
