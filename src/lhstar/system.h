#ifndef LHRS_LHSTAR_SYSTEM_H_
#define LHRS_LHSTAR_SYSTEM_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "lh/lh_math.h"
#include "net/message.h"

namespace lhrs {

/// Static parameters of one LH* file.
struct FileConfig {
  uint32_t initial_buckets = 1;  ///< The paper's N.
  size_t bucket_capacity = 50;   ///< The paper's b (records per bucket).

  /// Load control: when false, every overflow report triggers a split
  /// (plain LH*, ~70% load factor). When true, the coordinator splits only
  /// while the global load factor exceeds `split_load_threshold` (~up to
  /// 85% load factor per the paper).
  bool use_load_control = false;
  double split_load_threshold = 0.8;

  /// Collapses repeat overflow reports from the same bucket into one
  /// queued split (re-armed when a split completes). In the simulator a
  /// split lands within a few events of the report, so this barely
  /// matters; over a real transport dozens of reports from one overflowing
  /// bucket arrive before the first split finishes, and without damping
  /// each would queue another split — cluster mode turns this on.
  bool dedup_overflow_reports = false;

  /// File shrinking by bucket merge (paper section 4.3): when enabled,
  /// deletions that leave the file's load factor below
  /// `merge_load_threshold` merge the last bucket back into its parent.
  bool enable_merge = false;
  double merge_load_threshold = 0.4;
};

/// Maps logical bucket numbers to the nodes currently carrying them — the
/// paper's (dynamic) allocation tables "at the clients and the servers".
///
/// Simulation note: we model one authoritative table, updated by the
/// coordinator at splits and recoveries. Clients additionally keep private
/// *cached* copies (see ClientNode) so the displaced-bucket protocol of
/// section 2.8 — a client contacting the pre-recovery server — still
/// happens. Server-side forward-address resolution reads the authoritative
/// table directly; in a real deployment servers learn child addresses from
/// the coordinator at split time, and that lookup is local there exactly as
/// it is here, so no counted message traffic is hidden by this shortcut.
class AllocationTable {
 public:
  void Set(BucketNo bucket, NodeId node) {
    if (bucket >= table_.size()) table_.resize(bucket + 1, kInvalidNode);
    table_[bucket] = node;
    ++version_;
  }

  NodeId Lookup(BucketNo bucket) const {
    LHRS_CHECK_LT(bucket, table_.size()) << "unknown bucket";
    return table_[bucket];
  }

  bool Knows(BucketNo bucket) const {
    return bucket < table_.size() && table_[bucket] != kInvalidNode;
  }

  /// Forgets every mapping (coordinator soft-state loss simulation).
  void Clear() {
    table_.clear();
    ++version_;
  }

  size_t size() const { return table_.size(); }

  /// Monotone change counter. Cluster mode broadcasts a fresh snapshot of
  /// the coordinator's authoritative table whenever the version moves, so
  /// worker/client replicas converge without per-entry messages.
  uint64_t version() const { return version_; }

  /// Snapshot of the bucket -> node vector (for the wire).
  std::vector<NodeId> entries() const { return table_; }

  /// Replaces the whole table with a received snapshot.
  void Restore(std::vector<NodeId> entries, uint64_t version) {
    table_ = std::move(entries);
    version_ = version;
  }

 private:
  std::vector<NodeId> table_;
  uint64_t version_ = 0;
};

/// Shared wiring of one LH* file instance, handed to every node of that
/// file. Holds only location metadata, never record data.
struct SystemContext {
  FileConfig config;
  AllocationTable allocation;     ///< Authoritative bucket -> node map.
  NodeId coordinator = kInvalidNode;

  /// Record count maintained by the buckets (insert/delete), read by the
  /// coordinator's load-control policy. Models the load statistics real
  /// LH* piggybacks on existing traffic; no extra messages are charged.
  uint64_t total_records = 0;
};

}  // namespace lhrs

#endif  // LHRS_LHSTAR_SYSTEM_H_
