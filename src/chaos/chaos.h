#ifndef LHRS_CHAOS_CHAOS_H_
#define LHRS_CHAOS_CHAOS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "chaos/fault_plan.h"
#include "common/rng.h"
#include "net/network.h"

namespace lhrs::chaos {

class ChaosControllerNode;

/// Executes a FaultPlan against a Network: a FaultInjector for the
/// message-fault rules plus a hidden controller node whose (non-wake)
/// timers fire the scheduled structural faults. Everything probabilistic
/// draws from one Rng seeded with plan.seed, and rules are evaluated in
/// plan order, so a run is a pure function of (workload, plan): the same
/// seed replays byte-identical telemetry.
///
/// Construction attaches immediately: the controller node is registered,
/// the schedule is armed relative to `net->now()`, and the network's
/// injector hook is pointed here. Destruction detaches the hook (the
/// controller node stays registered — networks never remove nodes — but
/// becomes inert). Enable telemetry *before* constructing the engine if
/// you want the `faults_injected{kind=...}` counters.
///
/// Scheduled-fault timers do not wake the event loop: an idle file does
/// not fast-forward through its fault script. Drivers interleave workload
/// with `RunUntilIdle()` and finish with `net->RunUntil(engine.Horizon())`
/// to play out the tail of the schedule.
class ChaosEngine final : public FaultInjector {
 public:
  /// Maps a bucket group to its current member nodes (data + parity) for
  /// kCrashGroup; the engine picks the random victims. Supplied by the
  /// file facade, which knows the group layout.
  using GroupResolver = std::function<std::vector<NodeId>(uint32_t group)>;

  /// Invoked for kRestore instead of a bare SetAvailable(node, true), so
  /// the facade can trigger the node's self-announcement protocol. Must
  /// not pump the event loop (it runs inside event processing).
  using RestoreHook = std::function<void(NodeId node)>;

  ChaosEngine(Network* net, FaultPlan plan,
              GroupResolver group_resolver = nullptr,
              RestoreHook restore_hook = nullptr);
  ~ChaosEngine() override;

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  /// FaultInjector: evaluates the plan's message rules against `msg`.
  FaultActions OnMessage(const Message& msg, SimTime now) override;

  const FaultPlan& plan() const { return plan_; }

  /// Absolute sim time of the last scheduled fault (attach time + plan
  /// horizon) — pass to Network::RunUntil to drain the schedule.
  SimTime Horizon() const { return attach_time_ + plan_.Horizon(); }

  /// Faults actually injected so far, by kind and in total. These mirror
  /// the `faults_injected{kind=...}` telemetry counters but work with
  /// telemetry disabled.
  uint64_t injected(FaultKind kind) const {
    return injected_[static_cast<size_t>(kind)];
  }
  uint64_t injected_total() const;

  NodeId controller() const { return controller_id_; }

 private:
  friend class ChaosControllerNode;

  /// Timer callback from the controller: schedule[index] is due.
  void FireScheduled(uint64_t index);

  void CrashGroup(const ScheduledFault& fault);

  /// Bumps the per-kind tally + telemetry counter and records a
  /// kFaultInjected trace event. Message-level kinds respect the
  /// trace_messages gate; structural kinds are always traced.
  void Count(FaultKind kind, NodeId node, NodeId peer, int msg_kind,
             int32_t group);

  Network* net_;
  FaultPlan plan_;
  GroupResolver group_resolver_;
  RestoreHook restore_hook_;
  Rng rng_;
  SimTime attach_time_ = 0;
  NodeId controller_id_ = kInvalidNode;
  ChaosControllerNode* controller_ = nullptr;

  std::array<uint64_t, 8> injected_{};
  /// Cached telemetry counters per kind (null when telemetry was off at
  /// construction).
  std::array<telemetry::Counter*, 8> counters_{};
};

}  // namespace lhrs::chaos

#endif  // LHRS_CHAOS_CHAOS_H_
