#include "layers.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "gf/kernels.h"
#include "parity/parity_code.h"
#include "store/bucket_store.h"

namespace perfbench {
namespace {

using lhrs::Bytes;
using lhrs::Key;
using lhrs::Rng;

/// Repeats `sample` until `budget_s` has passed (at least three times) and
/// returns the median sample.
template <typename Fn>
double MedianOver(double budget_s, Fn&& sample) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(budget_s * 1e9);
  std::vector<double> samples;
  do {
    samples.push_back(sample());
  } while (NowNs() < deadline || samples.size() < 3);
  return Median(std::move(samples));
}

/// Keys and values of one bucket's worth of records (plus a quarter of
/// fresh ones for the churn).
struct RecordPool {
  std::vector<Key> keys;
  std::vector<uint8_t> values;
  size_t value_bytes = 0;

  RecordPool(size_t count, size_t vb, Rng& rng)
      : keys(count), values(count * vb), value_bytes(vb) {
    for (Key& k : keys) k = rng.Next64();
    FillRandom(rng, values.data(), values.size());
  }
  std::span<const uint8_t> value(size_t i) const {
    return {values.data() + i * value_bytes, value_bytes};
  }
};

/// store.insert/erase/compact: the life of one bucket's store — b
/// inserts, a quarter erased and replaced by fresh keys, then a full
/// compaction — replayed at the workload's record size.
void StoreChurn(const RecordPool& pool, size_t b, double budget_s,
                LayerFigures* out) {
  const size_t churn = b / 4;
  std::vector<double> insert_ns;
  std::vector<double> erase_ns;
  std::vector<double> compact_ms;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(budget_s * 1e9);
  uint64_t salt = 0;
  do {
    ++salt;
    lhrs::store::BucketStore store;
    uint64_t t0 = NowNs();
    for (size_t i = 0; i < b; ++i) store.Insert(pool.keys[i] ^ salt, pool.value(i));
    insert_ns.push_back(static_cast<double>(NowNs() - t0) / b);
    t0 = NowNs();
    for (size_t i = 0; i < churn; ++i) store.Erase(pool.keys[i * 4] ^ salt);
    erase_ns.push_back(static_cast<double>(NowNs() - t0) / churn);
    t0 = NowNs();
    for (size_t i = b; i < b + churn; ++i) {
      store.Insert(pool.keys[i] ^ salt, pool.value(i));
    }
    insert_ns.push_back(static_cast<double>(NowNs() - t0) / churn);
    t0 = NowNs();
    store.Compact();
    compact_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    // Output check: the live set and a sample of its bytes.
    if (store.size() != b) out->ok = false;
    for (size_t i = 1; i < b + churn; i += 97) {
      const lhrs::BufferView* v = store.Find(pool.keys[i] ^ salt);
      const bool erased = i < b && i % 4 == 0 && i / 4 < churn;
      if (erased != (v == nullptr)) out->ok = false;
      if (v != nullptr && !std::equal(v->begin(), v->end(),
                                      pool.value(i).begin())) {
        out->ok = false;
      }
    }
  } while (NowNs() < deadline || compact_ms.size() < 3);
  out->store_insert_ns = Median(insert_ns);
  out->store_erase_ns = Median(erase_ns);
  out->store_compact_ms = Median(compact_ms);
}

/// store.find: the workload's read stream against stores of b records
/// each (keys routed by key mod store count). Serve replays its
/// generator's searches; the others read uniformly.
void StoreFind(const WorkloadSpec& spec, const Sizes& sizes, uint64_t seed,
               double budget_s, LayerFigures* out) {
  constexpr size_t kMaxBytes = 32u << 20;
  const size_t vb = spec.value_bytes;
  const size_t max_keys = std::max<size_t>(kMaxBytes / vb, sizes.bucket_capacity);
  Rng rng(Salted(seed, 0x66696e64ULL));

  std::vector<Key> keys;
  std::vector<Key> reads;
  if (spec.name == "serve") {
    lhrs::workload::WorkloadGenerator gen(
        ServeGeneratorOptions(sizes, vb, seed));
    const auto& preload = gen.preload_keys();
    keys.assign(preload.begin(),
                preload.begin() + static_cast<long>(
                                      std::min(max_keys, preload.size())));
    std::vector<Key> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    for (size_t s = 0; s < 4; ++s) {
      while (auto op = gen.Next(s)) {
        if (op->op == lhrs::OpType::kSearch &&
            std::binary_search(sorted.begin(), sorted.end(), op->key)) {
          reads.push_back(op->key);
        }
      }
    }
  } else {
    keys.resize(std::min(max_keys, size_t{100000}));
    for (Key& k : keys) k = rng.Next64();
    reads.resize(200000);
    for (Key& k : reads) k = keys[rng.Uniform(keys.size())];
  }
  if (reads.empty()) {
    out->ok = false;
    return;
  }

  const size_t stores_n =
      std::max<size_t>(1, keys.size() / sizes.bucket_capacity);
  std::vector<lhrs::store::BucketStore> stores(stores_n);
  std::vector<uint8_t> value(vb);
  for (Key k : keys) {
    FillRandom(rng, value.data(), vb);
    stores[k % stores_n].Insert(k, value);
  }
  size_t at = 0;
  constexpr size_t kChunk = 20000;
  out->store_find_ns = MedianOver(budget_s, [&] {
    size_t hits = 0;
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < kChunk; ++i) {
      const Key k = reads[at];
      at = at + 1 == reads.size() ? 0 : at + 1;
      hits += stores[k % stores_n].Find(k) != nullptr;
    }
    const double ns = static_cast<double>(NowNs() - t0) / kChunk;
    if (hits != kChunk) out->ok = false;
    return ns;
  });
}

/// parity.apply_delta: ParityCode::ApplyDelta at the workload's value
/// size, over every parity column of its k. Each delta is applied twice,
/// so the parity must come back to its start (characteristic 2).
void ParityApply(const lhrs::parity::ParityCode& code, size_t vb,
                 double budget_s, Rng& rng, LayerFigures* out) {
  Bytes parity(vb);
  FillRandom(rng, parity.data(), vb);
  const Bytes start = parity;
  std::vector<Bytes> deltas(16, Bytes(vb));
  for (Bytes& d : deltas) FillRandom(rng, d.data(), vb);
  constexpr size_t kCalls = 4096;
  out->parity_apply_delta_ns = MedianOver(budget_s, [&] {
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < kCalls; i += 2) {
      const size_t slot = (i / 2) % code.m();
      const size_t j = (i / 2) % code.k();
      const Bytes& d = deltas[(i / 2) % deltas.size()];
      code.ApplyDelta(slot, d, j, &parity);
      code.ApplyDelta(slot, d, j, &parity);
    }
    const double ns = static_cast<double>(NowNs() - t0) / kCalls;
    if (parity != start) out->ok = false;
    return ns;
  });
}

/// parity.decode: k erased data columns of bucket size (b records of the
/// workload's value size) rebuilt from the survivors with DecodeData.
void ParityDecode(const lhrs::parity::ParityCode& code, size_t column_bytes,
                  double budget_s, Rng& rng, LayerFigures* out) {
  const uint32_t m = code.m();
  const uint32_t k = code.k();
  std::vector<Bytes> data(m, Bytes(column_bytes));
  for (Bytes& d : data) FillRandom(rng, d.data(), d.size());
  std::vector<const Bytes*> ptrs;
  for (const Bytes& d : data) ptrs.push_back(&d);
  const std::vector<Bytes> parity = code.Encode(ptrs);
  std::vector<std::pair<size_t, Bytes>> available;
  std::vector<size_t> missing;
  for (uint32_t s = 0; s < m; ++s) {
    if (s < k) {
      missing.push_back(s);
    } else {
      available.emplace_back(s, data[s]);
    }
  }
  for (uint32_t j = 0; j < k; ++j) available.emplace_back(m + j, parity[j]);
  out->parity_decode_mb_per_s = MedianOver(budget_s, [&] {
    const uint64_t t0 = NowNs();
    auto decoded = code.DecodeData(available, missing);
    const uint64_t dt = std::max<uint64_t>(NowNs() - t0, 1);
    if (!decoded.ok() || decoded->size() != k) {
      out->ok = false;
    } else {
      for (uint32_t s = 0; s < k; ++s) {
        const Bytes& got = (*decoded)[s];
        if (got.size() < column_bytes ||
            !std::equal(data[s].begin(), data[s].end(), got.begin())) {
          out->ok = false;
        }
      }
    }
    return static_cast<double>(k * column_bytes) * 1e3 /
           static_cast<double>(dt);
  });
}

/// gf.muladd: the active kernel tier's GF(2^8) multiply-add on 1 KiB.
/// Applied twice per step, so dst must come back to its start.
void GfMulAdd(double budget_s, Rng& rng, LayerFigures* out) {
  constexpr size_t kBytes = 1024;
  constexpr size_t kCalls = 4096;
  const lhrs::GfKernels& kernels = lhrs::ActiveKernels();
  std::vector<uint8_t> dst(kBytes);
  std::vector<uint8_t> src(kBytes);
  FillRandom(rng, dst.data(), kBytes);
  FillRandom(rng, src.data(), kBytes);
  const std::vector<uint8_t> start = dst;
  out->gf_muladd_gbps = MedianOver(budget_s, [&] {
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < kCalls; i += 2) {
      const auto coeff = static_cast<uint8_t>(2 + (i / 2) % 250);
      kernels.mul_add_8(dst.data(), src.data(), kBytes, coeff);
      kernels.mul_add_8(dst.data(), src.data(), kBytes, coeff);
    }
    const uint64_t dt = std::max<uint64_t>(NowNs() - t0, 1);
    if (dst != start) out->ok = false;
    return static_cast<double>(kCalls * kBytes) / static_cast<double>(dt);
  });
}

}  // namespace

LayerFigures MeasureLayers(const WorkloadSpec& spec, const Sizes& sizes,
                           uint64_t seed, double budget_s) {
  LayerFigures out;
  const double share = budget_s / 5.0;
  Rng rng(Salted(seed, 0x6c6179657273ULL));
  const size_t b = sizes.bucket_capacity;
  const RecordPool pool(b + b / 4, spec.value_bytes, rng);
  StoreChurn(pool, b, share, &out);
  StoreFind(spec, sizes, seed, share, &out);

  auto code = lhrs::parity::MakeParityCode(lhrs::parity::CodeSpec{}, 4,
                                           spec.k, lhrs::FieldChoice::kGf256);
  if (!code.ok()) {
    out.ok = false;
    return out;
  }
  ParityApply(**code, spec.value_bytes, share, rng, &out);
  ParityDecode(**code, b * spec.value_bytes, share, rng, &out);
  GfMulAdd(share, rng, &out);
  return out;
}

double CalibrationNs() {
  constexpr size_t kIters = 1 << 20;
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) table[i] = i * 2654435761u;
  uint32_t x = 1;
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < kIters; ++i) {
    x = table[(x ^ (x >> 8)) & 255] + x * 3 + 1;
  }
  const uint64_t dt = NowNs() - t0;
  // Keep the chain observable so it is not folded away.
  __asm__ volatile("" : : "r"(x));
  return static_cast<double>(dt) / kIters;
}

}  // namespace perfbench
