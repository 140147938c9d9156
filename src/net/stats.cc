#include "net/stats.h"

#include <map>
#include <sstream>

#include "telemetry/metrics.h"

namespace lhrs {

namespace {

std::map<int, std::string>& KindNames() {
  static auto* names = new std::map<int, std::string>();
  return *names;
}

}  // namespace

void RegisterMessageKindName(int kind, std::string name) {
  KindNames().emplace(kind, std::move(name));
}

std::string MessageKindName(int kind) {
  const auto& names = KindNames();
  auto it = names.find(kind);
  if (it != names.end()) return it->second;
  return "kind" + std::to_string(kind);
}

void MessageStats::ExportTo(telemetry::MetricsRegistry* registry) const {
  using telemetry::Labeled;
  for (size_t kind = 0; kind < per_kind_.size(); ++kind) {
    const Counter& c = per_kind_[kind];
    if (c.bytes == 0 && c.messages == 0) continue;
    const std::string name = MessageKindName(static_cast<int>(kind));
    registry->GetCounter(Labeled("net.sent.messages", "kind", name))
        .Add(c.messages);
    registry->GetCounter(Labeled("net.sent.bytes", "kind", name))
        .Add(c.bytes);
  }
  for (size_t node = 0; node < per_node_sent_.size(); ++node) {
    const Counter& c = per_node_sent_[node];
    if (c.messages == 0) continue;
    const auto id = static_cast<NodeId>(node);
    registry->GetCounter(Labeled("net.node_sent.messages", "node", id))
        .Add(c.messages);
    registry->GetCounter(Labeled("net.node_sent.bytes", "node", id))
        .Add(c.bytes);
  }
  for (size_t node = 0; node < per_node_received_.size(); ++node) {
    const Counter& c = per_node_received_[node];
    if (c.messages == 0) continue;
    const auto id = static_cast<NodeId>(node);
    registry->GetCounter(Labeled("net.node_received.messages", "node", id))
        .Add(c.messages);
    registry->GetCounter(Labeled("net.node_received.bytes", "node", id))
        .Add(c.bytes);
  }
}

std::string MessageStats::ToString() const {
  std::ostringstream os;
  os << "messages=" << total_.messages << " bytes=" << total_.bytes
     << " deliveries=" << deliveries_ << " failures=" << delivery_failures_
     << "\n";
  for (size_t kind = 0; kind < per_kind_.size(); ++kind) {
    const Counter& c = per_kind_[kind];
    if (c.bytes == 0 && c.messages == 0) continue;
    os << "  " << MessageKindName(static_cast<int>(kind)) << ": "
       << c.messages << " msgs, " << c.bytes << " B\n";
  }
  return os.str();
}

}  // namespace lhrs
