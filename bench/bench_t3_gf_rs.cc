// Experiment T3 — Galois-field and Reed-Solomon kernel throughput across
// the runtime-dispatched ISA tiers (gf/kernels.h).
//
// Paper shapes to reproduce: the XOR fast path (parity column 0 /
// coefficient 1) beats general field multiply-add; GF(2^16)'s wider
// symbols trade table size for per-byte work vs GF(2^8); erasure decode
// costs roughly an encode plus a small matrix inversion; incremental
// delta updates beat full re-encodes.
//
// Every kernel row is repeated for every tier available on this machine
// (scalar reference, word-wise portable floor, and whichever of
// SSSE3/AVX2/NEON the CPU offers), so the per-ISA speedups are directly
// quotable. Encode/decode rows force each tier through
// ForceActiveKernelsForTesting to show the end-to-end effect on the
// parity code. Acceptance self-check: when an AVX2 (or NEON) tier is
// present, GF(2^8) MulAdd at 4 KiB must be >= 4x the word-wise kernel,
// else the binary exits non-zero.

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/buffer.h"
#include "common/logging.h"
#include "common/rng.h"
#include "gf/gf256.h"
#include "gf/gf65536.h"
#include "gf/kernels.h"
#include "parity/generator.h"
#include "parity/matrix.h"
#include "parity/parity_code.h"

namespace lhrs::bench {
namespace {

Bytes MakeBuffer(size_t n, uint64_t seed) {
  Rng rng(seed);
  return rng.RandomBytes(n);
}

// Runs `op` until ~40ms of wall clock has elapsed (one warmup call first)
// and returns {iterations, seconds}.
template <typename Fn>
std::pair<uint64_t, double> Measure(Fn&& op) {
  op();  // Warmup: faults pages, builds kernel tables.
  WallTimer timer;
  uint64_t iters = 0;
  do {
    op();
    ++iters;
  } while (timer.Seconds() < 0.04);
  return {iters, timer.Seconds()};
}

// bytes/s for one (tier, kernel, size) cell, remembered for the ratio
// table and the acceptance self-check.
std::map<std::string, double> g_rates;

template <typename Fn>
void KernelRow(BenchReport& rep, const std::string& label, size_t bytes_per_op,
               Fn&& op) {
  const auto [iters, seconds] = Measure(op);
  const double s = seconds > 0 ? seconds : 1e-9;
  g_rates[label] = static_cast<double>(iters) * bytes_per_op / s;
  rep.ThroughputRow(label, iters, iters * bytes_per_op, seconds);
}

void RunKernelTiers(BenchReport& rep) {
  rep.BeginTable(
      "T3 — dispatched kernel throughput per ISA tier (64B-aligned buffers)",
      {"op/tier/size", "ops", "bytes", "ops/s", "bytes/s"});
  for (const GfKernels* k : AvailableKernels()) {
    for (size_t n : {size_t{4096}, size_t{65536}}) {
      BufferView src(MakeBuffer(n, 51));
      BufferView dst(MakeBuffer(n, 52));
      uint8_t* d = dst.MutableData();
      const std::string suffix =
          std::string("/") + k->name + "/" + std::to_string(n);
      KernelRow(rep, "xor" + suffix, n,
                [&] { k->xor_buf(d, src.data(), n); });
      KernelRow(rep, "muladd_gf8" + suffix, n,
                [&] { k->mul_add_8(d, src.data(), n, 0x53); });
      KernelRow(rep, "muladd_gf16" + suffix, n,
                [&] { k->mul_add_16(d, src.data(), n, 0x1053); });
    }
    // Fused 4-source row apply (the recovery-decode shape: m=4 survivors
    // folded into one reconstructed column per pass).
    const size_t n = 16384;
    std::vector<Bytes> store;
    std::vector<const uint8_t*> srcs;
    for (uint64_t s = 0; s < 4; ++s) {
      store.push_back(MakeBuffer(n, 60 + s));
      srcs.push_back(store.back().data());
    }
    BufferView dst(MakeBuffer(n, 59));
    uint8_t* d = dst.MutableData();
    const uint8_t c8[] = {0x53, 0xA7, 0x01, 0x39};
    const uint16_t c16[] = {0x1053, 0x8001, 0x0001, 0x7F39};
    const std::string suffix = std::string("/") + k->name + "/16384";
    KernelRow(rep, "rowapply4_gf8" + suffix, 4 * n,
              [&] { k->matrix_row_apply_8(d, srcs.data(), c8, 4, n); });
    KernelRow(rep, "rowapply4_gf16" + suffix, 4 * n,
              [&] { k->matrix_row_apply_16(d, srcs.data(), c16, 4, n); });
    // The degraded-read shape: one 1 KiB record folded from four
    // survivors, with new coefficients on every call (each record's
    // erasure pattern brings its own), so per-call set-up shows.
    const size_t record = 1024;
    uint32_t step = 0;
    KernelRow(rep, std::string("rowapply4_gf8/") + k->name + "/1024",
              4 * record, [&] {
                uint8_t rotating[4];
                for (uint32_t s = 0; s < 4; ++s) {
                  rotating[s] = static_cast<uint8_t>(1 + (step + 64 * s) % 255);
                }
                ++step;
                k->matrix_row_apply_8(d, srcs.data(), rotating, 4, record);
              });
  }
}

// The m x k RS parity code over `field`, as the file's buckets build it.
std::unique_ptr<parity::ParityCode> RsCode(uint32_t m, uint32_t k,
                                           FieldChoice field) {
  auto code = parity::MakeParityCode(parity::CodeSpec{}, m, k, field);
  LHRS_CHECK(code.ok()) << code.status();
  return std::move(code).value();
}

void EncodeDecodeRows(BenchReport& rep, FieldChoice field,
                      const GfKernels* tier) {
  const uint32_t m = 4, k = 3;
  const size_t n = 16384;
  const auto code = RsCode(m, k, field);
  std::vector<Bytes> data;
  std::vector<const Bytes*> ptrs;
  for (uint32_t i = 0; i < m; ++i) data.push_back(MakeBuffer(n, 10 + i));
  for (const auto& d : data) ptrs.push_back(&d);
  const std::string suffix =
      std::string("/") + (field == FieldChoice::kGf256 ? "gf8" : "gf16") +
      "/" + tier->name;
  KernelRow(rep, "encode_m4k3" + suffix, n * m, [&] {
    auto parity = code->Encode(ptrs);
  });

  std::vector<Bytes> parity = code->Encode(ptrs);
  const uint32_t erasures = 3;
  std::vector<std::pair<size_t, Bytes>> available;
  std::vector<size_t> missing;
  for (uint32_t i = 0; i < m; ++i) {
    if (i < erasures) {
      missing.push_back(i);
    } else {
      available.emplace_back(i, data[i]);
    }
  }
  for (uint32_t j = 0; j < k; ++j) available.emplace_back(m + j, parity[j]);
  KernelRow(rep, "decode_3of4" + suffix, n * erasures, [&] {
    auto decoded = code->DecodeData(available, missing);
  });
}

void RunEncodeDecodeTiers(BenchReport& rep) {
  rep.BeginTable(
      "T3 — RS group encode/decode per ISA tier (m=4, k=3, 16 KiB members)",
      {"op/field/tier", "ops", "bytes", "ops/s", "bytes/s"});
  const GfKernels& startup = ActiveKernels();
  for (const GfKernels* k : AvailableKernels()) {
    ForceActiveKernelsForTesting(k);
    EncodeDecodeRows(rep, FieldChoice::kGf256, k);
    EncodeDecodeRows(rep, FieldChoice::kGf65536, k);
  }
  ForceActiveKernelsForTesting(nullptr);
  (void)startup;
}

void RunUpdateAblation(BenchReport& rep) {
  rep.BeginTable(
      "T3 — parity update: incremental delta vs full re-encode (m=4, k=2, "
      "16 KiB, active tier)",
      {"op", "ops", "bytes", "ops/s", "bytes/s"});
  const uint32_t m = 4, k = 2;
  const size_t n = 16384;
  const auto code = RsCode(m, k, FieldChoice::kGf256);
  {
    Bytes delta = MakeBuffer(n, 30);
    std::vector<Bytes> parity(k, Bytes(n, 0));
    KernelRow(rep, "delta_update_gf8", n * k, [&] {
      for (uint32_t j = 0; j < k; ++j) code->ApplyDelta(1, delta, j,
                                                        &parity[j]);
    });
  }
  {
    std::vector<Bytes> data;
    std::vector<const Bytes*> ptrs;
    for (uint32_t i = 0; i < m; ++i) data.push_back(MakeBuffer(n, 40 + i));
    for (const auto& d : data) ptrs.push_back(&d);
    KernelRow(rep, "full_reencode_gf8", n * k, [&] {
      auto parity = code->Encode(ptrs);
    });
  }
}

void RunMatrixInversion(BenchReport& rep) {
  rep.BeginTable("T3 — decode matrix inversion (GF(2^8), k=3 parity columns)",
                 {"m", "ops", "bytes", "ops/s", "bytes/s"});
  for (uint32_t m : {4u, 8u, 16u}) {
    auto p = BuildParityMatrix<GF256>(m, 3);
    LHRS_CHECK(p.ok()) << p.status();
    Matrix<GF256> a(m, m);
    for (uint32_t t = 0; t < m; ++t) {
      for (uint32_t i = 0; i < m; ++i) {
        if (t < 3) {
          a.Set(i, t, p->At(i, t));
        } else {
          a.Set(i, t, i == t ? 1 : 0);
        }
      }
    }
    KernelRow(rep, "invert_m" + std::to_string(m), 0, [&] {
      auto inv = a.Inverted();
    });
  }
}

// Speedup summary (best SIMD tier vs word-wise floor vs scalar reference)
// and the acceptance self-check. Ratios are deterministic enough to quote
// but the gate only enforces the coarse 4x bar.
int RunSummary(BenchReport& rep) {
  const GfKernels* best = nullptr;
  for (const GfKernels* k : AvailableKernels()) best = k;  // Last is best.
  const bool simd = std::strcmp(best->name, "scalar") != 0 &&
                    std::strcmp(best->name, "wordwise") != 0;
  rep.BeginTable("T3 — 4 KiB speedups vs tiers",
                 {"kernel", "best tier", "best/scalar", "best/wordwise"});
  for (const char* op : {"xor", "muladd_gf8", "muladd_gf16"}) {
    const std::string key = std::string(op) + "/";
    const double b = g_rates[key + best->name + "/4096"];
    const double sc = g_rates[key + "scalar/4096"];
    const double ww = g_rates[key + "wordwise/4096"];
    rep.Row({op, best->name, Fmt(sc > 0 ? b / sc : 0, 1) + "x",
             Fmt(ww > 0 ? b / ww : 0, 1) + "x"});
  }
  std::puts("");
  if (!simd) {
    std::puts("shape check: no SIMD tier on this machine; 4x gate skipped.");
    return 0;
  }
  const double ratio = g_rates[std::string("muladd_gf8/") + best->name +
                               "/4096"] /
                       g_rates["muladd_gf8/wordwise/4096"];
  std::printf("shape check: GF(2^8) MulAdd @4KiB %s/wordwise = %.1fx "
              "(gate: >= 4x)\n", best->name, ratio);
  if (ratio < 4.0) {
    std::fprintf(stderr,
                 "FAIL: SIMD GF(2^8) MulAdd speedup %.2fx below the 4x "
                 "acceptance bar\n", ratio);
    return 1;
  }
  return 0;
}

int Run(BenchReport& rep) {
  std::printf("selected kernel tier: %s (override with LHRS_KERNEL_ISA)\n\n",
              ActiveKernels().name);
  RunKernelTiers(rep);
  RunEncodeDecodeTiers(rep);
  RunUpdateAblation(rep);
  RunMatrixInversion(rep);
  return RunSummary(rep);
}

}  // namespace
}  // namespace lhrs::bench

int main(int argc, char** argv) {
  lhrs::bench::BenchReport report("t3_gf_rs");
  const int check = lhrs::bench::Run(report);
  const int write = lhrs::bench::WriteReport(report.report(), argc, argv);
  return check != 0 ? check : write;
}
