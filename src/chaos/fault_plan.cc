#include "chaos/fault_plan.h"

#include <algorithm>

namespace lhrs::chaos {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRestore:
      return "restore";
    case FaultKind::kCrashGroup:
      return "crash_group";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kSlowNode:
      return "slow_node";
  }
  return "unknown";
}

bool MessageFaultRule::Matches(const Message& msg, SimTime offset_now) const {
  if (offset_now < window_begin || offset_now >= window_end) return false;
  const int kind_value = msg.body->kind();
  if (kind_value < kind_min || kind_value > kind_max) return false;
  if (from != kInvalidNode && msg.from != from) return false;
  if (to != kInvalidNode && msg.to != to) return false;
  if (involving != kInvalidNode && msg.from != involving &&
      msg.to != involving) {
    return false;
  }
  return true;
}

FaultPlan& FaultPlan::CrashAt(SimTime at, NodeId node) {
  schedule.push_back({at, FaultKind::kCrash, node, 0, 1});
  return *this;
}

FaultPlan& FaultPlan::RestoreAt(SimTime at, NodeId node) {
  schedule.push_back({at, FaultKind::kRestore, node, 0, 1});
  return *this;
}

FaultPlan& FaultPlan::CrashGroupAt(SimTime at, uint32_t group,
                                   uint32_t count) {
  schedule.push_back({at, FaultKind::kCrashGroup, kInvalidNode, group, count});
  return *this;
}

FaultPlan& FaultPlan::DropMessages(double p, SimTime begin, SimTime end) {
  MessageFaultRule rule;
  rule.kind = FaultKind::kDrop;
  rule.p = p;
  rule.window_begin = begin;
  rule.window_end = end;
  return AddRule(rule);
}

FaultPlan& FaultPlan::DuplicateMessages(double p, SimTime begin,
                                        SimTime end) {
  MessageFaultRule rule;
  rule.kind = FaultKind::kDuplicate;
  rule.p = p;
  rule.window_begin = begin;
  rule.window_end = end;
  return AddRule(rule);
}

FaultPlan& FaultPlan::DelayMessages(double p, SimTime delay_us,
                                    SimTime jitter_us, SimTime begin,
                                    SimTime end) {
  MessageFaultRule rule;
  rule.kind = FaultKind::kDelay;
  rule.p = p;
  rule.delay_us = delay_us;
  rule.jitter_us = jitter_us;
  rule.window_begin = begin;
  rule.window_end = end;
  return AddRule(rule);
}

FaultPlan& FaultPlan::ReorderMessages(double p, SimTime jitter_us,
                                      SimTime begin, SimTime end) {
  MessageFaultRule rule;
  rule.kind = FaultKind::kReorder;
  rule.p = p;
  rule.jitter_us = jitter_us;
  rule.window_begin = begin;
  rule.window_end = end;
  return AddRule(rule);
}

FaultPlan& FaultPlan::SlowNode(NodeId node, double factor, SimTime begin,
                               SimTime end) {
  MessageFaultRule rule;
  rule.kind = FaultKind::kSlowNode;
  rule.p = 1.0;
  rule.involving = node;
  rule.factor = factor;
  rule.window_begin = begin;
  rule.window_end = end;
  return AddRule(rule);
}

FaultPlan& FaultPlan::AddRule(MessageFaultRule rule) {
  rules.push_back(rule);
  return *this;
}

SimTime FaultPlan::Horizon() const {
  SimTime horizon = 0;
  for (const ScheduledFault& fault : schedule) {
    horizon = std::max(horizon, fault.at);
  }
  return horizon;
}

std::string FaultPlan::Describe() const {
  std::string out = "FaultPlan seed=" + std::to_string(seed) + "\n";
  for (const ScheduledFault& fault : schedule) {
    out += "  @" + std::to_string(fault.at) + "us " +
           FaultKindName(fault.kind);
    if (fault.kind == FaultKind::kCrashGroup) {
      out += " group=" + std::to_string(fault.group) +
             " count=" + std::to_string(fault.count);
    } else {
      out += " node=" + std::to_string(fault.node);
    }
    out += "\n";
  }
  for (const MessageFaultRule& rule : rules) {
    out += "  rule " + std::string(FaultKindName(rule.kind)) +
           " p=" + std::to_string(rule.p);
    if (rule.kind_min != 0 ||
        rule.kind_max != std::numeric_limits<int>::max()) {
      out += " kinds=[" + std::to_string(rule.kind_min) + "," +
             std::to_string(rule.kind_max) + "]";
    }
    if (rule.from != kInvalidNode) out += " from=" + std::to_string(rule.from);
    if (rule.to != kInvalidNode) out += " to=" + std::to_string(rule.to);
    if (rule.involving != kInvalidNode) {
      out += " involving=" + std::to_string(rule.involving);
    }
    if (rule.delay_us != 0) out += " delay=" + std::to_string(rule.delay_us);
    if (rule.jitter_us != 0) {
      out += " jitter=" + std::to_string(rule.jitter_us);
    }
    if (rule.factor != 1.0) out += " factor=" + std::to_string(rule.factor);
    if (rule.window_begin != 0 || rule.window_end != kAlways) {
      out += " window=[" + std::to_string(rule.window_begin) + "," +
             (rule.window_end == kAlways ? std::string("inf")
                                         : std::to_string(rule.window_end)) +
             ")";
    }
    out += "\n";
  }
  return out;
}

}  // namespace lhrs::chaos
