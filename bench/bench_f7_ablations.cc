// Experiment F7 — ablations of the design choices DESIGN.md calls out.
//
// F7a  rank reuse on delete/move vs monotone ranks: group density and
//      parity storage under churn.
// F7b  hardware multicast vs unicast fan-out: scan and recovery-scan costs.
// F7c  LH*g vs LH*g1: split-time parity traffic vs recovery locality
//      (the design axis on which LH*RS sits at the far end).

#include <cstdio>
#include <optional>

#include "baselines/lhg/lhg_file.h"
#include "bench/bench_util.h"
#include "lhrs/lhrs_file.h"

namespace lhrs::bench {
namespace {

void RankReuseAblation(BenchReport& r) {
  r.BeginTable("F7a — rank reuse vs monotone ranks (m=4, k=1, churn)",
               {"variant", "records", "parity records", "avg group fill",
                "parity overhead"});
  for (bool reuse : {true, false}) {
    LhrsFile::Options opts;
    opts.file.bucket_capacity = 100000;
    opts.file.initial_buckets = 4;
    opts.group_size = 4;
    opts.policy.base_k = 1;
    opts.reuse_ranks = reuse;
    LhrsFile file(opts);
    Rng rng(1001);
    // Churn: insert 2000, then repeatedly delete + insert.
    std::vector<Key> keys;
    for (int i = 0; i < 2000; ++i) {
      const Key k = rng.Next64();
      if (file.Insert(k, rng.RandomBytes(64)).ok()) keys.push_back(k);
    }
    for (int round = 0; round < 4000; ++round) {
      const size_t at = rng.Uniform(keys.size());
      (void)file.Delete(keys[at]);
      const Key k = rng.Next64();
      if (file.Insert(k, rng.RandomBytes(64)).ok()) keys[at] = k;
    }
    size_t parity_records = 0;
    size_t members = 0;
    for (uint32_t g = 0; g < file.group_count(); ++g) {
      const auto* p = file.parity_bucket(g, 0);
      parity_records += p->parity_record_count();
      for (const Rank rank : p->ParityRanks()) {
        const std::optional<ParityRecord> rec = p->FindParityRecord(rank);
        for (const auto& key : rec->keys) members += key.has_value() ? 1 : 0;
      }
    }
    const StorageStats stats = file.GetStorageStats();
    r.Row({reuse ? "reuse (paper 4.3)" : "monotone",
           std::to_string(stats.record_count),
           std::to_string(parity_records),
           Fmt(static_cast<double>(members) / parity_records),
           Fmt(100.0 * stats.ParityOverhead(), 1) + "%"});
  }
}

void MulticastAblation(BenchReport& r) {
  std::puts("");
  r.BeginTable("F7b — hardware multicast vs unicast fan-out (scan cost)",
               {"multicast", "buckets", "scan msgs", "degraded-read msgs"});
  for (bool multicast : {true, false}) {
    LhrsFile::Options opts;
    opts.file.bucket_capacity = 12;
    opts.group_size = 4;
    opts.policy.base_k = 1;
    opts.net.multicast_available = multicast;
    opts.auto_recover = false;
    LhrsFile file(opts);
    Rng rng(1002);
    std::vector<Key> keys;
    for (int i = 0; i < 400; ++i) {
      const Key k = rng.Next64();
      if (file.Insert(k, rng.RandomBytes(32)).ok()) keys.push_back(k);
    }
    uint64_t before = file.network().stats().total_messages();
    LHRS_CHECK(file.Scan().ok());
    const uint64_t scan_msgs =
        file.network().stats().total_messages() - before;
    // Degraded read (LH*RS needs no scan, so this stays small either way).
    const FileState& state = file.coordinator().state();
    Key victim_key = 0;
    for (Key k : keys) {
      if (state.Address(k) == 2) {
        victim_key = k;
        break;
      }
    }
    file.CrashDataBucket(2);
    before = file.network().stats().total_messages();
    LHRS_CHECK(file.Search(victim_key).ok());
    const uint64_t degraded_msgs =
        file.network().stats().total_messages() - before;
    r.Row({multicast ? "yes" : "no", std::to_string(file.bucket_count()),
           std::to_string(scan_msgs), std::to_string(degraded_msgs)});
  }
}

void Lhg1Ablation(BenchReport& r) {
  std::puts("");
  r.BeginTable("F7c — LH*g vs LH*g1 (group-key reassignment on split)",
               {"variant", "parity msgs total", "A4 recovery msgs",
                "dual-group failure"});
  for (bool g1 : {false, true}) {
    lhg::LhgFile::Options opts;
    opts.file.bucket_capacity = 10;
    opts.parity_bucket_capacity = 10;
    opts.group_size = 3;
    opts.reassign_group_keys_on_split = g1;
    lhg::LhgFile file(opts);
    Rng rng(1003);
    std::vector<Key> keys;
    for (int i = 0; i < 400; ++i) {
      const Key k = rng.Next64();
      if (file.Insert(k, rng.RandomBytes(32)).ok()) keys.push_back(k);
    }
    const uint64_t parity_total =
        file.network().stats().ForKind(lhg::LhgMsg::kParityUpdate).messages;

    // A4 recovery cost of the last bucket.
    const BucketNo victim = file.bucket_count() - 1;
    file.CrashDataBucket(victim);
    const uint64_t before = file.network().stats().total_messages();
    file.RecoverDataBucket(victim);
    const uint64_t recovery_msgs =
        file.network().stats().total_messages() - before;

    // Failures in two different bucket groups: recoverable iff no record
    // group spans them (always true for LH*g1).
    bool dual_ok = true;
    {
      lhg::LhgFile::Options opts2 = opts;
      lhg::LhgFile file2(opts2);
      Rng rng2(1003);
      std::vector<Key> keys2;
      for (int i = 0; i < 400; ++i) {
        const Key k = rng2.Next64();
        if (file2.Insert(k, rng2.RandomBytes(32)).ok()) keys2.push_back(k);
      }
      file2.CrashDataBucket(1);   // Group 0.
      file2.CrashDataBucket(4);   // Group 1.
      file2.RecoverDataBucket(1);
      file2.RecoverDataBucket(4);
      for (Key k : keys2) {
        if (!file2.Search(k).ok()) {
          dual_ok = false;
          break;
        }
      }
    }
    r.Row({g1 ? "LH*g1" : "LH*g", std::to_string(parity_total),
           std::to_string(recovery_msgs),
           dual_ok ? "recovered" : "DATA LOSS"});
  }
  std::puts("");
  std::puts(
      "shape check: LH*g1 pays more parity traffic for group locality; "
      "cross-group dual failures always recover under LH*g1 (and LH*RS), "
      "only sometimes under basic LH*g.");
}

}  // namespace
}  // namespace lhrs::bench

int main(int argc, char** argv) {
  lhrs::bench::BenchReport report("f7_ablations");
  lhrs::bench::RankReuseAblation(report);
  lhrs::bench::MulticastAblation(report);
  lhrs::bench::Lhg1Ablation(report);
  return lhrs::bench::WriteReport(report.report(), argc, argv);
}
