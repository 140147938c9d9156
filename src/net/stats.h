#ifndef LHRS_NET_STATS_H_
#define LHRS_NET_STATS_H_

#include <cstdint>
#include <map>
#include <string>

#include "net/message.h"

namespace lhrs {

namespace telemetry {
class MetricsRegistry;
}  // namespace telemetry

/// Message-traffic counters, the primary metric of every SDDS evaluation
/// ("messaging costs are network-speed invariant"). Counts are kept per
/// message kind; benches snapshot/diff around operations.
class MessageStats {
 public:
  struct Counter {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };

  /// Records one sent message. A multicast to n destinations is recorded as
  /// one message when the multicast service is on (`count_as_message` true
  /// only for the first member), matching how the paper counts scans.
  /// `from` attributes the send to a node (kInvalidNode: unattributed).
  void RecordSend(int kind, size_t bytes, bool count_as_message,
                  NodeId from = kInvalidNode) {
    Counter& c = per_kind_[kind];
    c.bytes += bytes;
    total_.bytes += bytes;
    if (count_as_message) {
      ++c.messages;
      ++total_.messages;
    }
    ++deliveries_;
    if (from != kInvalidNode) {
      Counter& n = per_node_sent_[from];
      ++n.messages;  // Per-node counts are physical, every copy counts.
      n.bytes += bytes;
    }
  }

  /// Records one successful point-to-point delivery at node `to`.
  void RecordReceive(NodeId to, size_t bytes) {
    if (to == kInvalidNode) return;
    Counter& n = per_node_received_[to];
    ++n.messages;
    n.bytes += bytes;
  }

  void RecordDeliveryFailure() { ++delivery_failures_; }

  const Counter& total() const { return total_; }
  uint64_t total_messages() const { return total_.messages; }

  /// Point-to-point deliveries including every member of a multicast.
  uint64_t deliveries() const { return deliveries_; }
  uint64_t delivery_failures() const { return delivery_failures_; }

  Counter ForKind(int kind) const {
    auto it = per_kind_.find(kind);
    return it == per_kind_.end() ? Counter{} : it->second;
  }

  /// Sum over a half-open kind range [lo, hi) — e.g. all LH*RS parity
  /// traffic.
  Counter ForKindRange(int lo, int hi) const {
    Counter out;
    for (auto it = per_kind_.lower_bound(lo);
         it != per_kind_.end() && it->first < hi; ++it) {
      out.messages += it->second.messages;
      out.bytes += it->second.bytes;
    }
    return out;
  }

  // --- Per-node attribution (hot-bucket skew visibility) -----------------
  Counter SentBy(NodeId node) const {
    auto it = per_node_sent_.find(node);
    return it == per_node_sent_.end() ? Counter{} : it->second;
  }
  Counter ReceivedBy(NodeId node) const {
    auto it = per_node_received_.find(node);
    return it == per_node_received_.end() ? Counter{} : it->second;
  }
  const std::map<NodeId, Counter>& per_node_sent() const {
    return per_node_sent_;
  }
  const std::map<NodeId, Counter>& per_node_received() const {
    return per_node_received_;
  }

  /// Publishes every per-kind and per-node series into a metrics registry
  /// as "net.sent.messages{kind=...}", "net.node_sent.messages{node=N}",
  /// "net.node_received.bytes{node=N}", ... — the bridge between the
  /// paper-style message accounting and the telemetry run reports.
  void ExportTo(telemetry::MetricsRegistry* registry) const;

  void Reset() {
    per_kind_.clear();
    per_node_sent_.clear();
    per_node_received_.clear();
    total_ = Counter{};
    deliveries_ = 0;
    delivery_failures_ = 0;
  }

  /// Multi-line table of per-kind counts using the registered kind names.
  std::string ToString() const;

 private:
  std::map<int, Counter> per_kind_;
  std::map<NodeId, Counter> per_node_sent_;
  std::map<NodeId, Counter> per_node_received_;
  Counter total_;
  uint64_t deliveries_ = 0;
  uint64_t delivery_failures_ = 0;
};

/// Registers a display name for a message kind (idempotent).
void RegisterMessageKindName(int kind, std::string name);

/// Name previously registered, or "kind<N>".
std::string MessageKindName(int kind);

}  // namespace lhrs

#endif  // LHRS_NET_STATS_H_
