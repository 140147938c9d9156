#ifndef LHRS_SDDS_SESSION_H_
#define LHRS_SDDS_SESSION_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sdds/facade.h"

namespace lhrs::sdds {

/// One operation as a plain value, so drivers can generate work without
/// touching scheme internals.
struct SddsOp {
  OpType op = OpType::kSearch;
  Key key = 0;
  Bytes value;  ///< Insert/update payload.
};

/// Bounded-window multiplexer over an SddsFile's sessions.
///
/// Owns the file's completion listener while alive. Each session may have
/// at most `window` operations in flight; Submit() CHECK-fails beyond that
/// (drivers gate on HasCapacity). Every completion is reported through the
/// handler with the operation's latency in simulated time — stamped from
/// Submit() to the completion callback on the client reply path, so
/// background work (splits, parity traffic, other sessions' ops) never
/// pollutes the measurement.
class SessionPool {
 public:
  using CompletionHandler =
      std::function<void(size_t session, const SddsOp& op,
                         const OpOutcome& outcome, SimTime latency_us)>;

  /// Grows the file to at least `sessions` sessions and installs the
  /// completion listener.
  SessionPool(SddsFile& file, size_t sessions, size_t window);
  ~SessionPool();
  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  bool HasCapacity(size_t session) const {
    return inflight_per_session_[session] < window_;
  }
  size_t inflight_total() const { return inflight_total_; }

  /// Submits `op` on `session` (which must have capacity).
  OpToken Submit(size_t session, SddsOp op);

  /// Handler invoked on every completion, inside event processing. It may
  /// Submit() again (completion-driven refill) as long as capacity allows.
  void SetCompletionHandler(CompletionHandler handler) {
    handler_ = std::move(handler);
  }

 private:
  /// One op this pool submitted, indexed by the slot of its token.
  struct Inflight {
    OpToken token = 0;  ///< 0: the slot holds no op of this pool.
    size_t session = 0;
    SimTime submitted_us = 0;
    SddsOp op;
  };

  void OnComplete(OpToken token);

  SddsFile& file_;
  size_t sessions_;
  size_t window_;
  std::vector<size_t> inflight_per_session_;
  size_t inflight_total_ = 0;
  std::vector<Inflight> open_;
  CompletionHandler handler_;
};

/// Open-loop driver configuration.
struct RunnerOptions {
  size_t sessions = 1;  ///< Concurrent client sessions (N).
  size_t window = 1;    ///< Outstanding ops per session (W).
  uint64_t max_ops = 0; ///< Stop submitting after this many (0 = source-bounded).
};

/// What one PipelinedRunner::Run produced.
struct RunnerReport {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t ok = 0;
  uint64_t not_found = 0; ///< kNotFound outcomes (racing deletes, misses).
  uint64_t failures = 0;  ///< Any other non-OK outcome.
  uint64_t stalled = 0;   ///< In flight when the network went idle for good.
  SimTime start_us = 0;   ///< Simulated time when the run began.
  SimTime end_us = 0;     ///< Simulated time when the run finished.
  /// Per-op latency in completion order — exact values, not bucketed.
  std::vector<SimTime> latencies_us;

  SimTime elapsed_us() const { return end_us - start_us; }

  /// Aggregate throughput in operations per simulated second.
  double OpsPerSimSecond() const;

  /// Exact nearest-rank percentile of the per-op latencies (p in [0,100]).
  SimTime LatencyPercentileUs(double p) const;
};

/// Drives an SddsFile open-loop: N sessions, each refilled from `source`
/// up to W outstanding ops, completions triggering the next submit from
/// inside event processing. Everything runs in simulated time on the
/// deterministic event loop, so a run is exactly reproducible.
///
/// Degenerate case: with sessions == 1 and window == 1 the runner drains
/// the network to idle between consecutive ops — literally the closed-loop
/// execution model every scheme used before this layer existed, so W=1
/// numbers are directly comparable to (and message-identical with) the
/// synchronous API.
class PipelinedRunner {
 public:
  /// Returns the next op for `session`, or nullopt when that session's
  /// work is exhausted. Called inside event processing in completion
  /// order — deterministic, but interleaved across sessions.
  using OpSource = std::function<std::optional<SddsOp>(size_t session)>;
  using OnComplete = std::function<void(size_t session, const SddsOp& op,
                                        const OpOutcome& outcome)>;

  PipelinedRunner(SddsFile& file, RunnerOptions options)
      : file_(file), options_(options) {}

  /// Runs until every session's source is exhausted (or max_ops reached)
  /// and all in-flight ops completed.
  RunnerReport Run(const OpSource& source, const OnComplete& on_complete = {});

 private:
  SddsFile& file_;
  RunnerOptions options_;
};

}  // namespace lhrs::sdds

#endif  // LHRS_SDDS_SESSION_H_
