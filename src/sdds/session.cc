#include "sdds/session.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace lhrs::sdds {

SessionPool::SessionPool(SddsFile& file, size_t sessions, size_t window)
    : file_(file), sessions_(sessions), window_(window) {
  LHRS_CHECK(sessions_ > 0);
  LHRS_CHECK(window_ > 0);
  while (file_.session_count() < sessions_) file_.AddSession();
  inflight_per_session_.assign(sessions_, 0);
  file_.SetCompletionListener([this](OpToken token) { OnComplete(token); });
}

SessionPool::~SessionPool() { file_.SetCompletionListener(nullptr); }

OpToken SessionPool::Submit(size_t session, SddsOp op) {
  LHRS_CHECK_LT(session, sessions_);
  LHRS_CHECK(HasCapacity(session)) << "session window exceeded";
  const SimTime now = file_.network().now();
  // Submit sends messages but cannot complete the op before the event
  // loop runs again, so registering the token afterwards is safe.
  const OpToken token = file_.Submit(session, op.op, op.key, Bytes(op.value));
  const size_t slot = OpTable::SlotOf(token);
  if (open_.size() <= slot) open_.resize(slot + 1);
  open_[slot] = Inflight{token, session, now, std::move(op)};
  ++inflight_per_session_[session];
  ++inflight_total_;
  return token;
}

void SessionPool::OnComplete(OpToken token) {
  const size_t slot = OpTable::SlotOf(token);
  // A sync call outside the pool holds no entry under its token.
  if (slot >= open_.size() || open_[slot].token != token) return;
  Inflight entry = std::move(open_[slot]);
  open_[slot].token = 0;
  --inflight_per_session_[entry.session];
  --inflight_total_;
  Result<OpOutcome> outcome = file_.Take(token);
  LHRS_CHECK(outcome.ok()) << "listener fired for unfinished op";
  const SimTime latency = file_.network().now() - entry.submitted_us;
  // Last: the handler may Submit() into the freed window slot.
  if (handler_) handler_(entry.session, entry.op, *outcome, latency);
}

double RunnerReport::OpsPerSimSecond() const {
  if (completed == 0 || end_us <= start_us) return 0.0;
  return static_cast<double>(completed) * 1e6 /
         static_cast<double>(end_us - start_us);
}

SimTime RunnerReport::LatencyPercentileUs(double p) const {
  if (latencies_us.empty()) return 0;
  std::vector<SimTime> sorted = latencies_us;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<size_t>(std::llround(rank));
  return sorted[std::min(idx, sorted.size() - 1)];
}

RunnerReport PipelinedRunner::Run(const OpSource& source,
                                  const OnComplete& on_complete) {
  LHRS_CHECK(source != nullptr);
  Network& net = file_.network();
  RunnerReport report;
  report.start_us = net.now();

  SessionPool pool(file_, options_.sessions, options_.window);
  std::vector<bool> exhausted(options_.sessions, false);
  // The closed-loop degenerate case (see header): drain between ops so a
  // 1x1 run is message-identical with the synchronous API.
  const bool drain_between_ops =
      options_.sessions == 1 && options_.window == 1;

  auto refill_session = [&](size_t session) {
    while (!exhausted[session] && pool.HasCapacity(session) &&
           (options_.max_ops == 0 || report.submitted < options_.max_ops)) {
      std::optional<SddsOp> op = source(session);
      if (!op.has_value()) {
        exhausted[session] = true;
        break;
      }
      pool.Submit(session, std::move(*op));
      ++report.submitted;
    }
  };
  auto refill_all = [&] {
    for (size_t s = 0; s < options_.sessions; ++s) refill_session(s);
  };

  pool.SetCompletionHandler([&](size_t session, const SddsOp& op,
                                const OpOutcome& outcome, SimTime latency) {
    ++report.completed;
    report.latencies_us.push_back(latency);
    if (outcome.status.ok()) {
      ++report.ok;
    } else if (outcome.status.IsNotFound()) {
      ++report.not_found;
    } else {
      ++report.failures;
    }
    if (on_complete) on_complete(session, op, outcome);
    if (!drain_between_ops) refill_session(session);
  });

  if (drain_between_ops) {
    for (;;) {
      refill_all();
      if (pool.inflight_total() == 0) break;  // Source dry.
      net.RunUntilIdle();
      if (pool.inflight_total() > 0) break;  // Op never completed.
    }
  } else {
    refill_all();
    while (pool.inflight_total() > 0) {
      if (!net.Step()) break;  // Idle with ops stuck in flight.
    }
  }
  report.stalled = pool.inflight_total();
  report.end_us = net.now();
  return report;
}

}  // namespace lhrs::sdds
