#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "lhrs/lhrs_file.h"
#include "sdds/session.h"
#include "telemetry/telemetry.h"
#include "workload/bulk_load.h"
#include "workload/generator.h"

namespace perfbench {

using lhrs::Bytes;
using lhrs::Key;
using lhrs::LhrsFile;
using lhrs::NodeId;
using lhrs::OpOutcome;
using lhrs::OpType;
using lhrs::Rng;
using lhrs::SimTime;
using lhrs::Status;
using lhrs::WireRecord;

Sizes Sizes::Smoke() {
  Sizes s;
  s.bucket_capacity = 50;
  s.ingest_records = 3000;
  s.serve_keys = 2000;
  s.serve_ops_per_session = 500;
  s.repair_records = 2000;
  s.repair_rounds = 3;
  s.repair_searches = 4;
  s.drill_rounds = 3;
  s.verify_sample = 200;
  return s;
}

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  if (name == "ingest") {
    *spec = WorkloadSpec{name, 1, 64};
  } else if (name == "serve") {
    *spec = WorkloadSpec{name, 1, 256};
  } else if (name == "repair") {
    *spec = WorkloadSpec{name, 2, 1024};
  } else {
    return false;
  }
  return true;
}

std::string PassResult::DeterministicDigest() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "ops=%" PRIu64 " msgs=%" PRIu64 " lhstar=%" PRIu64 " lhrs=%" PRIu64
      " events=%" PRIu64 " sim_mean=%.17g sim_p99=%.17g splits=%" PRIu64
      " load=%.17g rounds=%" PRIu64 " repair_sim=%" PRIu64
      " repair_bytes=%" PRIu64 " stored=%.17g",
      ops, msgs, msgs_lhstar, msgs_lhrs, events, Mean(sim_us),
      Percentile(sim_us, 99), splits, load_factor, repair_rounds,
      repair_sim_us, repair_bytes, stored_bytes_per_user_byte);
  return buf;
}

uint64_t Salted(uint64_t seed, uint64_t salt) {
  return lhrs::workload::WorkloadGenerator::SessionSeed(seed, salt);
}

void FillRandom(Rng& rng, uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; i += 8) {
    const uint64_t w = rng.Next64();
    std::memcpy(p + i, &w, std::min<size_t>(8, n - i));
  }
}

lhrs::workload::GeneratorOptions ServeGeneratorOptions(const Sizes& sizes,
                                                       size_t value_bytes,
                                                       uint64_t seed) {
  lhrs::workload::GeneratorOptions gopts;
  gopts.seed = Salted(seed, 0x7365727665ULL);
  gopts.sessions = 4;
  gopts.ops_per_session = sizes.serve_ops_per_session;
  gopts.keyspace = sizes.serve_keys;
  gopts.value_bytes = value_bytes;
  gopts.dist = lhrs::workload::GeneratorOptions::KeyDist::kZipfian;
  gopts.zipf_theta = 0.99;
  return gopts;
}

namespace {

constexpr uint32_t kGroupSize = 4;  // m.

/// 64-bit content hash for the correctness checks. Eight bytes per step:
/// it runs inside the timed loop of serve, where a byte-wise FNV
/// (workload::DigestOp) would add about a tenth to a 256-B op.
uint64_t HashBytes(std::span<const uint8_t> b) {
  uint64_t h = 0x9E3779B97F4A7C15ULL ^ b.size();
  size_t i = 0;
  for (; i + 8 <= b.size(); i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, b.data() + i, 8);
    h = (h ^ w) * 0x100000001B3ULL;
    h ^= h >> 29;
  }
  for (; i < b.size(); ++i) h = (h ^ b[i]) * 0x100000001B3ULL;
  return h;
}

/// Partial Fisher-Yates: the first `count` of a seeded permutation of
/// [0, n).
std::vector<size_t> SamplePermutation(size_t n, size_t count, Rng& rng) {
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), size_t{0});
  count = std::min(count, n);
  for (size_t i = 0; i < count; ++i) {
    const size_t j = i + rng.Uniform(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(count);
  return idx;
}

/// One entry of the serve workload's op log, checked after the run.
struct LogEntry {
  uint64_t ns = 0;
  Key key = 0;
  uint64_t hash = 0;  ///< Written value, or value read by a search.
  uint32_t session = 0;
  OpType op = OpType::kSearch;
  bool complete = false;
  bool ok = false;
};

class Pass {
 public:
  Pass(const WorkloadSpec& spec, const Sizes& sizes, uint64_t seed,
       bool traced)
      : spec_(spec),
        sizes_(sizes),
        seed_(seed),
        traced_(traced),
        // Ops per throughput window: a fiftieth of the op phase, or one
        // repair round's degraded searches.
        window_(spec.name == "ingest"  ? sizes.ingest_records * 3 / 2 / 50
                : spec.name == "serve" ? 4 * sizes.serve_ops_per_session / 50
                                       : uint64_t{2} * sizes.repair_searches) {}

  PassResult Run() {
    if (spec_.name == "ingest") {
      RunIngest();
    } else if (spec_.name == "serve") {
      RunServe();
    } else {
      RunRepair();
    }
    return std::move(r_);
  }

 private:
  // --- Plumbing -------------------------------------------------------------

  /// `preload_records` > 0: the file is filled by BulkLoad, so it starts
  /// with enough buckets (whole groups) to hold them at about 80% load,
  /// and dedups overflow reports. Grown from one bucket instead, the
  /// bulk-loaded shape is chaotic in the seed (see README.md).
  void MakeFile(size_t preload_records, bool auto_recover) {
    LhrsFile::Options opts;
    opts.file.bucket_capacity = sizes_.bucket_capacity;
    if (preload_records > 0) {
      const size_t per_group = sizes_.bucket_capacity * kGroupSize * 8 / 10;
      opts.file.initial_buckets = static_cast<uint32_t>(
          kGroupSize * ((preload_records + per_group - 1) / per_group));
      opts.file.dedup_overflow_reports = true;
    }
    opts.group_size = kGroupSize;
    opts.policy.base_k = spec_.k;
    opts.auto_recover = auto_recover;
    file_ = std::make_unique<LhrsFile>(opts);
    if (traced_) {
      lhrs::telemetry::TelemetryConfig tcfg;
      tcfg.trace_messages = false;  // Structural events only.
      tm_ = file_->network().EnableTelemetry(tcfg);
    }
  }

  lhrs::Network& net() { return file_->network(); }

  /// Closes set-up: its time is recorded and the trace of the load (its
  /// splits) is dropped, so the traced figures cover the measured phases.
  void EndSetup(uint64_t start_ns) {
    r_.setup_ns = NowNs() - start_ns;
    if (tm_ != nullptr) tm_->tracer().Clear();
  }

  void Fail(const std::string& what) {
    ++r_.failed;
    if (r_.first_error.empty()) r_.first_error = spec_.name + ": " + what;
  }

  uint64_t Counter(const char* name) const {
    if (tm_ == nullptr) return 0;
    const auto* c = tm_->metrics().FindCounter(name);
    return c == nullptr ? 0 : c->value();
  }

  uint64_t LhStarMsgs() const {
    return file_->network()
        .stats()
        .ForKindRange(lhrs::MessageKindRange::kLhStarBase,
                      lhrs::MessageKindRange::kLhrsBase)
        .messages;
  }
  uint64_t LhrsMsgs() const {
    return file_->network()
        .stats()
        .ForKindRange(lhrs::MessageKindRange::kLhrsBase,
                      lhrs::MessageKindRange::kLhgBase)
        .messages;
  }

  /// Opens a stretch of the op phase: wall time, traffic, events, splits
  /// and parity deltas until CloseOpPhase count as the op phase's. Ingest
  /// and serve have one stretch; repair has one per round of degraded
  /// searches.
  void OpenOpPhase() {
    msgs0_ = net().stats().total_messages();
    lhstar0_ = LhStarMsgs();
    lhrs0_ = LhrsMsgs();
    events0_ = net().processed_events();
    buckets0_ = file_->bucket_count();
    deltas0_ = Counter("parity.deltas_applied");
    phase_start_ns_ = NowNs();
    window_start_ns_ = phase_start_ns_;
    window_ops_ = 0;
  }

  void CloseOpPhase() {
    const uint64_t dt = NowNs() - phase_start_ns_;
    r_.op_phase_ns += dt;
    r_.measured_wall_ns += dt;
    r_.msgs += net().stats().total_messages() - msgs0_;
    r_.msgs_lhstar += LhStarMsgs() - lhstar0_;
    r_.msgs_lhrs += LhrsMsgs() - lhrs0_;
    r_.events += net().processed_events() - events0_;
    r_.splits += file_->bucket_count() - buckets0_;
    r_.deltas_applied += Counter("parity.deltas_applied") - deltas0_;
  }

  /// Counts one completed client op; every `window_` ops close a window.
  void CountOp() {
    if (++window_ops_ < window_) return;
    const uint64_t now = NowNs();
    r_.window_ns.push_back(now - window_start_ns_);
    r_.window_ops = window_;
    window_start_ns_ = now;
    window_ops_ = 0;
  }

  /// One Network::Step; traced, it is timed and attributed to any open
  /// split or recovery phase from the structural trace events.
  bool Step() {
    if (!traced_) return net().Step();
    ledger().Begin(Span::kNetStep);
    const bool more = net().Step();
    Attribute(ledger().End(), /*is_plan=*/false);
    return more;
  }

  /// Runs the network to idle: RunUntilIdle untraced, Step by Step traced
  /// (the identical event sequence).
  void Drain() {
    if (!traced_) {
      net().RunUntilIdle();
      return;
    }
    while (Step()) {
    }
  }

  Ledger& ledger() { return r_.ledger; }

  void Attribute(uint64_t dur_ns, bool is_plan) {
    using lhrs::telemetry::TraceEventType;
    bool split_touched = split_open_ > 0;
    int begun = -1;
    int ended = -1;
    const int at_start = phase_;
    auto& tracer = tm_->tracer();
    if (tracer.size() > 0) {
      for (const auto& ev : tracer.Events()) {
        switch (ev.type) {
          case TraceEventType::kSplitBegin:
            ++split_open_;
            split_touched = true;
            break;
          case TraceEventType::kSplitEnd:
            if (split_open_ > 0) --split_open_;
            ++r_.splits_traced;
            split_touched = true;
            break;
          case TraceEventType::kRecoveryPhaseBegin:
            phase_ = static_cast<int>(ev.detail);
            begun = phase_;
            break;
          case TraceEventType::kRecoveryPhaseEnd:
            ended = static_cast<int>(ev.detail);
            phase_ = -1;
            break;
          default:
            break;
        }
      }
      tracer.Clear();
    }
    if (split_touched) r_.split_ns += dur_ns;
    // The work of a call follows the events it emits: a Step that closes
    // the read phase goes on to decode, so a begun phase wins; the plan
    // runs synchronously inside NotifyUnavailable.
    const int phase = is_plan           ? 0
                      : begun >= 0      ? begun
                      : at_start >= 0   ? at_start
                                        : ended;
    if (phase >= 0 && phase < 3) r_.phase_ns[phase] += dur_ns;
  }

  /// A synchronous client call on session 0: SddsFile::Insert/Search/Delete
  /// untraced, Submit + Step + Take traced. Returns the outcome status;
  /// `value_hash` (searches only) receives the hash of the result.
  Status SyncOp(OpType op, Key key, std::span<const uint8_t> value,
                uint64_t* value_hash) {
    if (!traced_) {
      switch (op) {
        case OpType::kInsert:
          return file_->Insert(key, Bytes(value.begin(), value.end()));
        case OpType::kDelete:
          return file_->Delete(key);
        case OpType::kSearch: {
          auto got = file_->Search(key);
          if (!got.ok()) return got.status();
          *value_hash = HashBytes(*got);
          return Status::OK();
        }
        case OpType::kUpdate:
          return file_->Update(key, Bytes(value.begin(), value.end()));
      }
      return Status::Internal("unknown op");
    }
    Bytes payload;
    {
      Scoped s(&ledger(), Span::kWorkloadNext);
      payload.assign(value.begin(), value.end());
    }
    lhrs::sdds::OpToken token = 0;
    {
      Scoped s(&ledger(), Span::kSddsSubmit);
      token = file_->Submit(0, op, key, std::move(payload));
    }
    while (Step()) {
    }
    Scoped s(&ledger(), Span::kSddsTake);
    if (!file_->Poll(token)) return Status::Internal("op did not complete");
    auto outcome = file_->Take(token);
    if (!outcome.ok()) return outcome.status();
    if (op == OpType::kSearch && outcome->status.ok()) {
      *value_hash = HashBytes(outcome->value);
    }
    return outcome->status;
  }

  /// Times one synchronous op: host ns and simulated us are appended.
  Status TimedOp(OpType op, Key key, std::span<const uint8_t> value,
                 uint64_t* value_hash = nullptr) {
    const SimTime sim0 = net().now();
    const uint64_t t0 = NowNs();
    Status st = SyncOp(op, key, value, value_hash);
    r_.op_host_ns.push_back(NowNs() - t0);
    r_.sim_us.push_back(net().now() - sim0);
    ++r_.attempted;
    CountOp();
    return st;
  }

  /// LhrsFile::DetectAndRecover untraced; NotifyUnavailable + Steps traced.
  void DetectAndRecover(NodeId node) {
    if (!traced_) {
      file_->DetectAndRecover(node);
      return;
    }
    ledger().Begin(Span::kLhrsNotify);
    file_->rs_coordinator().NotifyUnavailable(node);
    Attribute(ledger().End(), /*is_plan=*/true);
    Drain();
  }

  /// Crashes `buckets` (all of one group), optionally runs degraded
  /// searches against them, recovers the group and checks that every
  /// rebuilt record equals its pre-crash value.
  void RepairRound(const std::vector<lhrs::BucketNo>& buckets,
                   uint32_t searches_per_bucket, Rng& rng) {
    // Per bucket: (key, value hash) of every record before the crash.
    std::vector<std::vector<std::pair<Key, uint64_t>>> snaps(buckets.size());
    uint64_t bytes = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      const auto& store = file_->bucket(buckets[i])->records();
      bytes += store.payload_bytes();
      store.ForEachOrdered([&](uint64_t key, const lhrs::BufferView& v) {
        snaps[i].emplace_back(key, HashBytes(v));
      });
    }
    std::vector<NodeId> dead;
    for (lhrs::BucketNo b : buckets) dead.push_back(file_->CrashDataBucket(b));

    // Degraded searches: record recovery through the coordinator.
    if (searches_per_bucket > 0) {
      OpenOpPhase();
      for (const auto& snap : snaps) {
        if (snap.empty()) continue;
        for (uint32_t s = 0; s < searches_per_bucket; ++s) {
          const auto& [key, expect] = snap[rng.Uniform(snap.size())];
          uint64_t got = 0;
          const Status st = TimedOp(OpType::kSearch, key, {}, &got);
          ++r_.ops;
          if (!st.ok()) {
            Fail("degraded search failed: " + st.ToString());
          } else if (got != expect) {
            Fail("degraded search returned wrong bytes");
          }
        }
      }
      CloseOpPhase();
    }

    const SimTime sim0 = net().now();
    const uint64_t t0 = NowNs();
    DetectAndRecover(dead[0]);
    const uint64_t dt = NowNs() - t0;
    r_.measured_wall_ns += dt;
    r_.repair_sim_us += net().now() - sim0;
    r_.repair_bytes += bytes;
    ++r_.repair_rounds;
    r_.repair_round_ns.push_back(dt);

    // Every rebuilt record must equal its pre-crash bytes.
    for (size_t i = 0; i < buckets.size(); ++i) {
      const auto& store = file_->bucket(buckets[i])->records();
      ++r_.attempted;
      if (store.size() != snaps[i].size()) {
        Fail("rebuilt bucket " + std::to_string(buckets[i]) + " has " +
             std::to_string(store.size()) + " records, expected " +
             std::to_string(snaps[i].size()));
        continue;
      }
      for (const auto& [key, expect] : snaps[i]) {
        const lhrs::BufferView* v = store.Find(key);
        if (v == nullptr || HashBytes(*v) != expect) {
          Fail("rebuilt record differs in bucket " +
               std::to_string(buckets[i]));
          break;
        }
      }
    }
  }

  /// Up to `rounds` groups whose m data buckets all exist, spread evenly
  /// over the file: every group when there are fewer. A sweep, not a
  /// seeded draw, so the repair figures average over the whole file.
  std::vector<uint32_t> SweepGroups(uint32_t rounds) const {
    const uint32_t groups = file_->bucket_count() / kGroupSize;
    const uint32_t n = std::min(rounds, groups);
    std::vector<uint32_t> out;
    for (uint32_t r = 0; r < n; ++r) {
      out.push_back(static_cast<uint32_t>(uint64_t{r} * groups / n));
    }
    return out;
  }

  /// Single-erasure repair phase of ingest and serve.
  void RepairDrill() {
    Rng rng(Salted(seed_, 0x6472696c6cULL));
    const std::vector<uint32_t> groups = SweepGroups(sizes_.drill_rounds);
    if (groups.empty()) {
      Fail("file too small for the repair drill");
      return;
    }
    const uint64_t survivors0 = Counter("recovery.repair_bytes_moved");
    for (const uint32_t g : groups) {
      const auto slot = static_cast<uint32_t>(rng.Uniform(kGroupSize));
      RepairRound({g * kGroupSize + slot}, 0, rng);
    }
    r_.survivor_bytes = Counter("recovery.repair_bytes_moved") - survivors0;
  }

  void MeasureStorage(uint64_t live_records) {
    const lhrs::StorageStats stats = file_->GetStorageStats();
    ++r_.attempted;
    if (stats.record_count != live_records) {
      Fail("file holds " + std::to_string(stats.record_count) +
           " records, expected " + std::to_string(live_records));
    }
    const double user = static_cast<double>(live_records) *
                        static_cast<double>(sizeof(Key) + spec_.value_bytes);
    r_.stored_bytes_per_user_byte =
        static_cast<double>(stats.data_bytes + stats.parity_bytes) / user;
  }

  void CheckInvariants() {
    ++r_.attempted;
    const Status st = file_->VerifyParityInvariants();
    if (!st.ok()) Fail("parity invariants: " + st.ToString());
  }

  // --- ingest ---------------------------------------------------------------

  void RunIngest() {
    const size_t n = sizes_.ingest_records;
    const size_t churn = n / 4;
    const size_t vb = spec_.value_bytes;

    // Inputs: n keys to grow the file, then `churn` (delete, fresh insert)
    // pairs. Values live in one arena; index i is key i's value. Both
    // buffers are reused across passes, so set-up times generating the
    // inputs rather than the kernel faulting in fresh pages.
    static std::vector<Key> keys;
    static std::vector<uint8_t> arena;
    keys.resize(n + churn);
    arena.resize((n + churn) * vb);
    const uint64_t t0 = NowNs();
    Rng rng(Salted(seed_, 0x696e67657374ULL));
    for (Key& k : keys) k = rng.Next64();
    FillRandom(rng, arena.data(), arena.size());
    const std::vector<size_t> victims = SamplePermutation(n, churn, rng);
    MakeFile(/*preload_records=*/0, /*auto_recover=*/true);
    EndSetup(t0);

    auto value_of = [&](size_t i) {
      return std::span<const uint8_t>(arena.data() + i * vb, vb);
    };
    std::vector<uint8_t> live(n + churn, 0);
    OpenOpPhase();
    for (size_t i = 0; i < n; ++i) {
      const Status st = TimedOp(OpType::kInsert, keys[i], value_of(i));
      if (st.ok()) {
        live[i] = 1;
      } else {
        Fail("insert failed: " + st.ToString());
      }
    }
    r_.load_factor = file_->GetStorageStats().load_factor;
    for (size_t j = 0; j < churn; ++j) {
      const size_t victim = victims[j];
      Status st = TimedOp(OpType::kDelete, keys[victim], {});
      if (st.ok()) {
        live[victim] = 0;
      } else {
        Fail("delete failed: " + st.ToString());
      }
      const size_t fresh = n + j;
      st = TimedOp(OpType::kInsert, keys[fresh], value_of(fresh));
      if (st.ok()) {
        live[fresh] = 1;
      } else {
        Fail("insert failed: " + st.ToString());
      }
    }
    Drain();
    CloseOpPhase();
    r_.ops = n + 2 * churn;
    MeasureStorage(n);

    RepairDrill();

    // Read-back: a seeded sample of live keys byte-equal, deleted keys
    // kNotFound.
    Rng check(Salted(seed_, 0x636865636bULL));
    for (size_t s = 0; s < sizes_.verify_sample; ++s) {
      const size_t i = check.Uniform(n + churn);
      auto got = file_->Search(keys[i]);
      ++r_.attempted;
      if (live[i]) {
        if (!got.ok() || HashBytes(*got) != HashBytes(value_of(i))) {
          Fail("live key did not read back byte-equal");
        }
      } else if (got.ok() || !got.status().IsNotFound()) {
        Fail("deleted key did not return kNotFound");
      }
    }
    CheckInvariants();
  }

  // --- serve ----------------------------------------------------------------

  void RunServe() {
    namespace wl = lhrs::workload;
    const uint64_t t0 = NowNs();
    wl::WorkloadGenerator gen(
        ServeGeneratorOptions(sizes_, spec_.value_bytes, seed_));
    Rng rng(Salted(seed_, 0x707265ULL));
    std::vector<WireRecord> records;
    records.reserve(gen.preload_keys().size());
    std::unordered_map<Key, std::vector<uint64_t>> written;
    written.reserve(gen.preload_keys().size() * 2);
    for (Key k : gen.preload_keys()) {
      Bytes v(spec_.value_bytes);
      FillRandom(rng, v.data(), v.size());
      written[k].push_back(HashBytes(v));
      records.push_back(WireRecord{k, 0, lhrs::BufferView(v)});
    }
    MakeFile(records.size(), /*auto_recover=*/true);
    const auto load = wl::BulkLoad(*file_, records);
    EndSetup(t0);
    ++r_.attempted;
    if (load.applied != records.size() || load.failed != 0) {
      Fail("preload applied " + std::to_string(load.applied) + " of " +
           std::to_string(records.size()));
    }
    r_.load_factor = file_->GetStorageStats().load_factor;

    std::vector<LogEntry> log;
    log.reserve(2 * 4 * sizes_.serve_ops_per_session + 16);
    auto log_submit = [&](size_t session, const lhrs::sdds::SddsOp& op) {
      log.push_back(LogEntry{NowNs(), op.key,
                             op.value.empty() ? 0 : HashBytes(op.value),
                             static_cast<uint32_t>(session), op.op, false,
                             false});
    };
    auto log_complete = [&](size_t session, const lhrs::sdds::SddsOp& op,
                            const OpOutcome& outcome) {
      const bool ok = outcome.status.ok();
      CountOp();
      log.push_back(LogEntry{
          NowNs(), op.key,
          ok && op.op == OpType::kSearch ? HashBytes(outcome.value) : 0,
          static_cast<uint32_t>(session), op.op, true, ok});
    };

    constexpr size_t kSessions = 4;
    constexpr size_t kWindow = 8;
    OpenOpPhase();
    uint64_t completed = 0;
    if (!traced_) {
      lhrs::sdds::PipelinedRunner runner(
          *file_, lhrs::sdds::RunnerOptions{kSessions, kWindow, 0});
      auto report = runner.Run(
          [&](size_t s) {
            auto op = gen.Next(s);
            if (op.has_value()) log_submit(s, *op);
            return op;
          },
          log_complete);
      completed = report.completed;
      r_.sim_us.assign(report.latencies_us.begin(), report.latencies_us.end());
      if (report.stalled != 0) Fail("ops stalled in flight");
    } else {
      // PipelinedRunner's schedule, driven by hand: refill from inside the
      // completion handler, Step until nothing is in flight.
      lhrs::sdds::SessionPool pool(*file_, kSessions, kWindow);
      std::vector<bool> exhausted(kSessions, false);
      auto refill = [&](size_t s) {
        while (!exhausted[s] && pool.HasCapacity(s)) {
          std::optional<lhrs::sdds::SddsOp> op;
          {
            Scoped span(&ledger(), Span::kWorkloadNext);
            op = gen.Next(s);
          }
          if (!op.has_value()) {
            exhausted[s] = true;
            break;
          }
          log_submit(s, *op);
          Scoped span(&ledger(), Span::kSddsSubmit);
          pool.Submit(s, std::move(*op));
        }
      };
      pool.SetCompletionHandler([&](size_t s, const lhrs::sdds::SddsOp& op,
                                    const OpOutcome& outcome,
                                    SimTime latency) {
        Scoped span(&ledger(), Span::kSddsSession);
        ++completed;
        r_.sim_us.push_back(latency);
        log_complete(s, op, outcome);
        refill(s);
      });
      for (size_t s = 0; s < kSessions; ++s) refill(s);
      while (pool.inflight_total() > 0) {
        if (!Step()) break;
      }
      if (pool.inflight_total() != 0) Fail("ops stalled in flight");
    }
    Drain();  // Trailing parity deltas belong to the op phase.
    CloseOpPhase();
    r_.ops = completed;
    r_.attempted += completed;
    if (completed != kSessions * sizes_.serve_ops_per_session) {
      Fail("completed " + std::to_string(completed) + " ops");
    }

    // Host latency: submit -> completion, ops of equal (session, key, type)
    // paired first-in first-out. Correctness: every write succeeded and
    // every search returned a value written to its key before it finished.
    std::unordered_map<uint64_t, std::deque<uint64_t>> open;
    uint64_t live = gen.preload_keys().size();
    for (const LogEntry& e : log) {
      const uint64_t id = (e.key * 0x9E3779B97F4A7C15ULL) ^
                          (uint64_t{e.session} << 8) ^
                          static_cast<uint64_t>(e.op);
      if (!e.complete) {
        open[id].push_back(e.ns);
        if (e.op != OpType::kSearch) written[e.key].push_back(e.hash);
        continue;
      }
      auto& q = open[id];
      if (!q.empty()) {
        r_.op_host_ns.push_back(e.ns - q.front());
        q.pop_front();
      }
      if (!e.ok) {
        Fail("serve op failed");
        continue;
      }
      if (e.op == OpType::kInsert) ++live;
      if (e.op == OpType::kSearch) {
        const auto it = written.find(e.key);
        if (it == written.end() ||
            std::find(it->second.begin(), it->second.end(), e.hash) ==
                it->second.end()) {
          Fail("search returned bytes never written to its key");
        }
      }
    }
    MeasureStorage(live);

    RepairDrill();

    // Read-back of a seeded sample of the preloaded keys.
    Rng check(Salted(seed_, 0x636865636bULL));
    for (size_t s = 0; s < sizes_.verify_sample; ++s) {
      const Key key = gen.preload_keys()[check.Uniform(
          gen.preload_keys().size())];
      auto got = file_->Search(key);
      ++r_.attempted;
      const auto& vals = written[key];
      if (!got.ok() || std::find(vals.begin(), vals.end(),
                                 HashBytes(*got)) == vals.end()) {
        Fail("preloaded key did not read back a written value");
      }
    }
    CheckInvariants();
  }

  // --- repair ---------------------------------------------------------------

  void RunRepair() {
    namespace wl = lhrs::workload;
    const size_t n = sizes_.repair_records;
    const uint64_t t0 = NowNs();
    Rng rng(Salted(seed_, 0x726570616972ULL));
    std::vector<WireRecord> records;
    records.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Bytes v(spec_.value_bytes);
      FillRandom(rng, v.data(), v.size());
      records.push_back(WireRecord{rng.Next64(), 0, lhrs::BufferView(v)});
    }
    MakeFile(records.size(), /*auto_recover=*/false);
    const auto load = wl::BulkLoad(*file_, records);
    EndSetup(t0);
    ++r_.attempted;
    if (load.applied != records.size() || load.failed != 0) {
      Fail("preload applied " + std::to_string(load.applied) + " of " +
           std::to_string(records.size()));
    }
    r_.load_factor = file_->GetStorageStats().load_factor;
    MeasureStorage(n);

    // Rounds: two data buckets of one group crash, degraded searches are
    // served from the survivors, then the group is rebuilt (a double
    // erasure, decoded through the non-XOR RS column).
    Rng rounds(Salted(seed_, 0x726f756e64ULL));
    const std::vector<uint32_t> groups = SweepGroups(sizes_.repair_rounds);
    if (groups.empty()) {
      Fail("file too small for repair rounds");
      return;
    }
    const uint64_t survivors0 = Counter("recovery.repair_bytes_moved");
    for (const uint32_t g : groups) {
      const std::vector<size_t> slots = SamplePermutation(kGroupSize, 2, rounds);
      RepairRound({static_cast<lhrs::BucketNo>(g * kGroupSize + slots[0]),
                   static_cast<lhrs::BucketNo>(g * kGroupSize + slots[1])},
                  sizes_.repair_searches, rounds);
    }
    r_.survivor_bytes = Counter("recovery.repair_bytes_moved") - survivors0;

    // Rebuilt contents against the loaded values, not just the pre-crash
    // snapshot: a seeded sample of every record.
    Rng check(Salted(seed_, 0x636865636bULL));
    for (size_t s = 0; s < sizes_.verify_sample; ++s) {
      const WireRecord& rec = records[check.Uniform(n)];
      auto got = file_->Search(rec.key);
      ++r_.attempted;
      if (!got.ok() || HashBytes(*got) != HashBytes(rec.value)) {
        Fail("loaded record did not read back byte-equal");
      }
    }
    CheckInvariants();
  }

  const WorkloadSpec& spec_;
  const Sizes& sizes_;
  const uint64_t seed_;
  const bool traced_;
  const uint64_t window_;
  PassResult r_;

  std::unique_ptr<LhrsFile> file_;
  lhrs::telemetry::Telemetry* tm_ = nullptr;
  int split_open_ = 0;
  int phase_ = -1;

  uint64_t phase_start_ns_ = 0;
  uint64_t window_start_ns_ = 0;
  uint64_t window_ops_ = 0;
  uint64_t msgs0_ = 0;
  uint64_t lhstar0_ = 0;
  uint64_t lhrs0_ = 0;
  uint64_t events0_ = 0;
  uint64_t deltas0_ = 0;
  lhrs::BucketNo buckets0_ = 0;
};

}  // namespace

PassResult RunPass(const WorkloadSpec& spec, const Sizes& sizes,
                   uint64_t seed, bool traced) {
  return Pass(spec, sizes, seed, traced).Run();
}

}  // namespace perfbench
