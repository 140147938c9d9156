#ifndef LHRS_NET_STATS_H_
#define LHRS_NET_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"

namespace lhrs {

namespace telemetry {
class MetricsRegistry;
}  // namespace telemetry

/// Message-traffic counters, the primary metric of every SDDS evaluation
/// ("messaging costs are network-speed invariant"). Counts are kept per
/// message kind and per node in dense vectors indexed by kind and node id
/// (both small dense integers); benches snapshot/diff around operations.
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
    Counter& c = Grow(per_kind_, kind);
    c.bytes += bytes;
    total_.bytes += bytes;
    if (count_as_message) {
      ++c.messages;
      ++total_.messages;
    }
    ++deliveries_;
    if (from != kInvalidNode) {
      Counter& n = Grow(per_node_sent_, from);
      ++n.messages;  // Per-node counts are physical, every copy counts.
      n.bytes += bytes;
    }
  }

  /// Records one successful point-to-point delivery at node `to`.
  void RecordReceive(NodeId to, size_t bytes) {
    if (to == kInvalidNode) return;
    Counter& n = Grow(per_node_received_, to);
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
    return Contains(per_kind_, kind) ? per_kind_[kind] : Counter{};
  }

  /// Sum over a half-open kind range [lo, hi) — e.g. all LH*RS parity
  /// traffic.
  Counter ForKindRange(int lo, int hi) const {
    Counter out;
    for (int kind = std::max(lo, 0);
         kind < hi && Contains(per_kind_, kind); ++kind) {
      out.messages += per_kind_[kind].messages;
      out.bytes += per_kind_[kind].bytes;
    }
    return out;
  }

  // --- Per-node attribution (hot-bucket skew visibility) -----------------
  Counter SentBy(NodeId node) const {
    return Contains(per_node_sent_, node) ? per_node_sent_[node] : Counter{};
  }
  Counter ReceivedBy(NodeId node) const {
    return Contains(per_node_received_, node) ? per_node_received_[node]
                                              : Counter{};
  }

  /// Publishes every per-kind and per-node series into a metrics registry
  /// as "net.sent.messages{kind=...}", "net.node_sent.messages{node=N}",
  /// "net.node_received.bytes{node=N}", ... — the bridge between the
  /// paper-style message accounting and the telemetry run reports.
  void ExportTo(telemetry::MetricsRegistry* registry) const;

  void Reset() { *this = MessageStats(); }

  /// Multi-line table of per-kind counts using the registered kind names.
  std::string ToString() const;

 private:
  template <typename T>
  static bool Contains(const std::vector<T>& v, int i) {
    return i >= 0 && static_cast<size_t>(i) < v.size();
  }
  template <typename T>
  static T& Grow(std::vector<T>& v, int i) {
    const auto at = static_cast<size_t>(i);
    if (at >= v.size()) v.resize(at + 1);
    return v[at];
  }

  // Indexed by kind / node id. An entry that is all zero was never
  // recorded: every recorded message has bytes, and every per-node record
  // counts one message.
  std::vector<Counter> per_kind_;
  std::vector<Counter> per_node_sent_;
  std::vector<Counter> per_node_received_;
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
