#ifndef LHRS_CHAOS_FAULT_PLAN_H_
#define LHRS_CHAOS_FAULT_PLAN_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/message.h"

namespace lhrs::chaos {

/// Sentinel for "window never closes" in message fault rules.
inline constexpr SimTime kAlways = std::numeric_limits<SimTime>::max();

/// The fault taxonomy of the chaos engine. Scheduled (structural) faults
/// use the first three kinds; message fault rules use the rest. The values
/// are stable because they appear verbatim in telemetry
/// (`faults_injected{kind=...}` counters and kFaultInjected trace events).
enum class FaultKind : uint8_t {
  kCrash = 0,   ///< Mark one node unavailable at a scheduled time.
  kRestore,     ///< Bring a crashed node back (and let it self-report).
  kCrashGroup,  ///< Crash k random live members of one bucket group —
                ///< the correlated-failure scenario LH*RS is built for.
  kDrop,        ///< Lose a matching message (sender sees an RPC timeout).
  kDuplicate,   ///< Deliver an extra copy (same message id).
  kDelay,       ///< Add fixed + jittered latency to a matching message.
  kReorder,     ///< Add random latency only: messages overtake each other.
  kSlowNode,    ///< Multiply delivery latency for messages touching a node.
};

const char* FaultKindName(FaultKind kind);

/// One structural fault at a scripted instant. Times are offsets from the
/// moment the plan is attached (ChaosEngine records the attach time), so a
/// plan built at t=0 replays identically when attached mid-run.
struct ScheduledFault {
  SimTime at = 0;
  FaultKind kind = FaultKind::kCrash;
  NodeId node = kInvalidNode;  ///< kCrash / kRestore target.
  uint32_t group = 0;          ///< kCrashGroup: which bucket group.
  uint32_t count = 1;          ///< kCrashGroup: how many members to crash.
};

/// One probabilistic message-fault rule. A rule fires when the message
/// matches every set predicate AND a Bernoulli(p) draw succeeds. Unset
/// predicates (kInvalidNode / full kind range / kAlways window) match
/// everything, so `{.kind = kDrop, .p = 0.05}` is "drop 5% of all
/// traffic".
struct MessageFaultRule {
  FaultKind kind = FaultKind::kDrop;
  double p = 1.0;

  /// Active window [window_begin, window_end), offsets from attach.
  SimTime window_begin = 0;
  SimTime window_end = kAlways;

  /// Message-kind range [kind_min, kind_max], matching MessageBody::kind().
  int kind_min = 0;
  int kind_max = std::numeric_limits<int>::max();

  NodeId from = kInvalidNode;       ///< Exact sender, or any.
  NodeId to = kInvalidNode;         ///< Exact destination, or any.
  NodeId involving = kInvalidNode;  ///< Sender OR destination, or any.

  SimTime delay_us = 0;    ///< kDelay: fixed extra latency.
  SimTime jitter_us = 0;   ///< kDelay / kReorder: uniform extra in [0, j].
  double factor = 1.0;     ///< kSlowNode: latency multiplier.

  /// Predicate part only (time window, kind range, endpoints) — the
  /// probability draw is the engine's job so rule evaluation order alone
  /// determines the random stream.
  bool Matches(const Message& msg, SimTime offset_now) const;
};

/// A scripted, seed-deterministic fault scenario: structural faults at
/// fixed instants plus probabilistic message-fault rules. Plans are plain
/// data — build one with the fluent helpers, hand it to
/// ChaosEngine / LhStarFile::AttachChaos, and the same (plan, seed) pair
/// replays the exact same faults event for event.
struct FaultPlan {
  uint64_t seed = 1;  ///< Drives every probabilistic decision.
  std::vector<ScheduledFault> schedule;
  std::vector<MessageFaultRule> rules;

  FaultPlan& CrashAt(SimTime at, NodeId node);
  FaultPlan& RestoreAt(SimTime at, NodeId node);
  /// Crash `count` random currently-live members of bucket `group`.
  FaultPlan& CrashGroupAt(SimTime at, uint32_t group, uint32_t count);

  FaultPlan& DropMessages(double p, SimTime begin = 0, SimTime end = kAlways);
  FaultPlan& DuplicateMessages(double p, SimTime begin = 0,
                               SimTime end = kAlways);
  FaultPlan& DelayMessages(double p, SimTime delay_us, SimTime jitter_us,
                           SimTime begin = 0, SimTime end = kAlways);
  /// Pure jitter: a later message can overtake an earlier one.
  FaultPlan& ReorderMessages(double p, SimTime jitter_us, SimTime begin = 0,
                             SimTime end = kAlways);
  /// Every message to or from `node` takes `factor` times as long.
  FaultPlan& SlowNode(NodeId node, double factor, SimTime begin = 0,
                      SimTime end = kAlways);
  FaultPlan& AddRule(MessageFaultRule rule);

  /// Latest scheduled-fault offset (0 for a rules-only plan). Drivers play
  /// the script out with `RunUntil(attach_time + Horizon())`.
  SimTime Horizon() const;

  /// One line per scheduled fault and rule — for logging the scenario a
  /// drill or CI job is about to run.
  std::string Describe() const;
};

}  // namespace lhrs::chaos

#endif  // LHRS_CHAOS_FAULT_PLAN_H_
