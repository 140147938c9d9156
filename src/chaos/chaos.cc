#include "chaos/chaos.h"

#include <algorithm>
#include <utility>

namespace lhrs::chaos {

/// Hidden node whose timers carry the fault schedule. It never exchanges
/// messages; it exists because structural faults must fire at scripted
/// simulated times, and timers are the simulator's only time source.
class ChaosControllerNode final : public Node {
 public:
  void HandleMessage(const Message& msg) override { (void)msg; }

  void HandleTimer(uint64_t timer_id) override {
    if (engine_ != nullptr) engine_->FireScheduled(timer_id);
  }

  const char* role() const override { return "chaos"; }

 private:
  friend class ChaosEngine;

  ChaosEngine* engine_ = nullptr;
};

ChaosEngine::ChaosEngine(Network* net, FaultPlan plan,
                         GroupResolver group_resolver,
                         RestoreHook restore_hook)
    : net_(net),
      plan_(std::move(plan)),
      group_resolver_(std::move(group_resolver)),
      restore_hook_(std::move(restore_hook)),
      rng_(plan_.seed),
      attach_time_(net->now()) {
  auto controller = std::make_unique<ChaosControllerNode>();
  controller_ = controller.get();
  controller_->engine_ = this;
  controller_id_ = net_->AddNode(std::move(controller));
  for (size_t i = 0; i < plan_.schedule.size(); ++i) {
    net_->ScheduleTimer(controller_id_, plan_.schedule[i].at, i,
                        /*wake=*/false);
  }
  if (telemetry::Telemetry* t = net_->telemetry()) {
    for (size_t k = 0; k < counters_.size(); ++k) {
      counters_[k] = &t->metrics().GetCounter(
          telemetry::Labeled("chaos.faults_injected", "kind",
                             FaultKindName(static_cast<FaultKind>(k))));
    }
  }
  net_->SetFaultInjector(this);
}

ChaosEngine::~ChaosEngine() {
  controller_->engine_ = nullptr;  // Stale schedule timers become no-ops.
  net_->SetFaultInjector(nullptr);
}

uint64_t ChaosEngine::injected_total() const {
  uint64_t total = 0;
  for (uint64_t n : injected_) total += n;
  return total;
}

FaultActions ChaosEngine::OnMessage(const Message& msg, SimTime now) {
  FaultActions actions;
  const SimTime offset = now - attach_time_;
  for (const MessageFaultRule& rule : plan_.rules) {
    if (!rule.Matches(msg, offset)) continue;
    switch (rule.kind) {
      case FaultKind::kDrop:
        if (rng_.Flip(rule.p)) {
          actions.drop = true;
          Count(FaultKind::kDrop, msg.from, msg.to, msg.body->kind(), -1);
          return actions;  // The message is gone; later rules are moot.
        }
        break;
      case FaultKind::kDuplicate:
        if (rng_.Flip(rule.p)) {
          ++actions.duplicates;
          Count(FaultKind::kDuplicate, msg.from, msg.to, msg.body->kind(),
                -1);
        }
        break;
      case FaultKind::kDelay:
        if (rng_.Flip(rule.p)) {
          actions.extra_delay_us +=
              rule.delay_us +
              (rule.jitter_us > 0 ? rng_.Uniform(rule.jitter_us + 1) : 0);
          Count(FaultKind::kDelay, msg.from, msg.to, msg.body->kind(), -1);
        }
        break;
      case FaultKind::kReorder:
        if (rng_.Flip(rule.p)) {
          actions.extra_delay_us +=
              (rule.jitter_us > 0 ? rng_.Uniform(rule.jitter_us + 1) : 0);
          Count(FaultKind::kReorder, msg.from, msg.to, msg.body->kind(), -1);
        }
        break;
      case FaultKind::kSlowNode:
        if (rng_.Flip(rule.p)) {
          actions.latency_factor *= rule.factor;
          Count(FaultKind::kSlowNode, msg.from, msg.to, msg.body->kind(),
                -1);
        }
        break;
      default:
        break;  // Structural kinds are invalid as message rules.
    }
  }
  return actions;
}

void ChaosEngine::FireScheduled(uint64_t index) {
  if (index >= plan_.schedule.size()) return;
  const ScheduledFault& fault = plan_.schedule[index];
  switch (fault.kind) {
    case FaultKind::kCrash:
      if (fault.node != kInvalidNode && net_->available(fault.node)) {
        net_->SetAvailable(fault.node, false);
        Count(FaultKind::kCrash, fault.node, kInvalidNode, -1, -1);
      }
      break;
    case FaultKind::kRestore:
      if (fault.node != kInvalidNode && !net_->available(fault.node)) {
        if (restore_hook_) {
          restore_hook_(fault.node);
        } else {
          net_->SetAvailable(fault.node, true);
        }
        Count(FaultKind::kRestore, fault.node, kInvalidNode, -1, -1);
      }
      break;
    case FaultKind::kCrashGroup:
      CrashGroup(fault);
      break;
    default:
      break;  // Message kinds never appear in the schedule.
  }
}

void ChaosEngine::CrashGroup(const ScheduledFault& fault) {
  if (!group_resolver_) return;
  std::vector<NodeId> members = group_resolver_(fault.group);
  members.erase(std::remove_if(members.begin(), members.end(),
                               [&](NodeId n) { return !net_->available(n); }),
                members.end());
  const uint32_t count = std::min<uint32_t>(
      fault.count, static_cast<uint32_t>(members.size()));
  // Partial Fisher–Yates: the first `count` slots become the victims.
  for (uint32_t i = 0; i < count; ++i) {
    const size_t j = i + rng_.Uniform(members.size() - i);
    std::swap(members[i], members[j]);
    net_->SetAvailable(members[i], false);
  }
  if (count > 0) {
    Count(FaultKind::kCrashGroup, members[0], kInvalidNode, -1,
          static_cast<int32_t>(fault.group));
  }
}

void ChaosEngine::Count(FaultKind kind, NodeId node, NodeId peer,
                        int msg_kind, int32_t group) {
  ++injected_[static_cast<size_t>(kind)];
  if (counters_[static_cast<size_t>(kind)] != nullptr) {
    counters_[static_cast<size_t>(kind)]->Add();
  }
  telemetry::Telemetry* t = net_->telemetry();
  if (t == nullptr) return;
  const bool structural = kind == FaultKind::kCrash ||
                          kind == FaultKind::kRestore ||
                          kind == FaultKind::kCrashGroup;
  if (!structural && !t->trace_messages()) return;
  t->tracer().Record({net_->now(), telemetry::TraceEventType::kFaultInjected,
                      node, peer, msg_kind, group,
                      static_cast<int64_t>(kind)});
}

}  // namespace lhrs::chaos
