#ifndef LHRS_TRANSPORT_CLUSTER_H_
#define LHRS_TRANSPORT_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lhrs/shared.h"
#include "lhstar/client.h"
#include "lhstar/system.h"
#include "net/network.h"
#include "transport/cluster_proto.h"
#include "transport/socket_transport.h"

namespace lhrs {
class RsCoordinatorNode;
}  // namespace lhrs

namespace lhrs::transport {

/// Static node-id layout of a multi-process LH*RS cluster.
///
/// Every process builds the *same* global id space in the same order, so a
/// NodeId means the same node everywhere without any naming service:
///
///   id 0                      the LH*/LH*RS coordinator (rank 0)
///   ids 1 .. N                the N initial data buckets, striped
///                             round-robin across the server ranks
///   per server rank           a contiguous pool of spare slots, consumed
///                             by splits, parity allocation and recovery
///   per client rank           a contiguous run of client-session ids
///
/// Ranks: 0 = coordinator process, 1..server_ranks = servers, then
/// client_ranks client processes.
struct ClusterLayout {
  uint32_t server_ranks = 3;
  uint32_t client_ranks = 2;
  uint32_t spares_per_server = 12;
  uint32_t sessions_per_client = 1;

  FileConfig file;
  uint32_t group_size = 4;  ///< LH*RS m.
  uint32_t base_k = 1;      ///< Parity buckets per group.
  FieldChoice field = FieldChoice::kGf256;  ///< Parity symbol width.
  /// Parity scheme ("rs", "lrc2", "rs+prog", ...). The coordinator's
  /// choice is authoritative: it rides in the Welcome frame, so every
  /// member encodes and decodes with the same code.
  parity::CodeSpec code;

  uint32_t total_ranks() const { return 1 + server_ranks + client_ranks; }

  NodeId first_spare(uint32_t server) const {
    return static_cast<NodeId>(1 + file.initial_buckets +
                               server * spares_per_server);
  }
  NodeId first_client_id(uint32_t client) const {
    return static_cast<NodeId>(1 + file.initial_buckets +
                               server_ranks * spares_per_server +
                               client * sessions_per_client);
  }
  size_t total_nodes() const {
    return 1 + file.initial_buckets + server_ranks * spares_per_server +
           client_ranks * sessions_per_client;
  }

  /// The process rank hosting `id` (-1 for out-of-range ids).
  int RankOf(NodeId id) const;

  /// The server rank hosting initial bucket `b`.
  int ServerRankOfBucket(uint32_t b) const {
    return 1 + static_cast<int>(b % server_ranks);
  }
};

/// The per-process composition root of cluster mode: one local Network
/// whose node table spans the global id space (stub nodes for ids resident
/// elsewhere), one SocketTransport, and the RemoteRouter glue between
/// them.
///
/// Wall-clock pumping: each Pump() first services the sockets, then runs
/// the local simulator up to the elapsed wall-clock microseconds — so
/// simulated-time machinery (client retry timers, bounded resend backoff)
/// runs unchanged on real time.
class ClusterRuntime : public RemoteRouter {
 public:
  ClusterRuntime(const ClusterLayout& layout, int my_rank,
                 NetworkConfig net_config = {});
  ~ClusterRuntime() override;

  /// Installs every rank's data-plane endpoint (from Welcome).
  void SetEndpoints(const std::vector<Endpoint>& endpoints);

  /// Populates the network with one stub per global id. Resident ids are
  /// then upgraded with MakeResident.
  void BuildStubs();

  /// Swaps the stub at `id` for the real node and replays any messages
  /// that arrived for it while it was still pending activation.
  void MakeResident(NodeId id, std::unique_ptr<Node> node);

  bool resident(NodeId id) const { return resident_.contains(id); }

  /// Services the sockets (<= timeout_ms wait) and advances the local
  /// simulator to wall-clock now. Returns messages delivered locally.
  size_t Pump(int timeout_ms);

  Network& network() { return network_; }
  SocketTransport& transport() { return transport_; }
  const ClusterLayout& layout() const { return layout_; }
  int my_rank() const { return my_rank_; }

  // RemoteRouter:
  /// Non-resident ids are "remote" even on this rank: a send racing ahead
  /// of a spare's activation takes the transport's loopback path, which
  /// stashes it until MakeResident replays it into the real node.
  bool IsRemote(NodeId to) const override {
    return layout_.RankOf(to) != my_rank_ || !resident_.contains(to);
  }
  void RouteRemote(NodeId from, NodeId to,
                   std::unique_ptr<MessageBody> body) override;

 private:
  struct Stashed {
    NodeId from;
    std::unique_ptr<MessageBody> body;
  };

  ClusterLayout layout_;
  int my_rank_;
  Network network_;
  SocketTransport transport_;
  std::set<NodeId> resident_;
  std::map<NodeId, std::vector<Stashed>> stash_;
  uint64_t epoch_us_ = 0;  ///< Wall-clock origin of simulated time.
};

/// Options shared by every cluster member.
struct ClusterMemberOptions {
  ClusterLayout layout;
  uint16_t control_port = 0;
  NetworkConfig net;
  std::string report_path;  ///< RunReport destination ("" = skip).
  /// Wall-clock safety net: a member that has not finished its lifecycle
  /// within this bound aborts with a non-zero exit code.
  uint64_t deadline_ms = 60'000;
  bool verbose = false;
  /// Deterministic data-plane loss injection (tests): drop every Nth
  /// outgoing UDP data datagram / duplicate every Mth (0 = off). Acks and
  /// the TCP paths are untouched.
  uint32_t loss_drop_every = 0;
  uint32_t loss_dup_every = 0;
};

/// A worker (server) process: hosts data and parity buckets of the global
/// id space, activates spares on coordinator command, and drains cleanly
/// on Stop or RequestStop() (the SIGTERM hook).
class ClusterServer {
 public:
  ClusterServer(ClusterMemberOptions options, int rank);

  /// Runs the full lifecycle; returns a process exit code.
  int Run();

  /// Signal-safe shutdown request: the run loop drains in-flight work,
  /// writes the telemetry report, and exits as if Stop had arrived.
  void RequestStop() { stop_requested_.store(true); }

 private:
  ClusterMemberOptions options_;
  int rank_;
  std::atomic<bool> stop_requested_{false};
};

/// A client process: hosts `sessions_per_client` autonomous ClientNodes
/// and runs scripted workload phases on coordinator command.
///
/// Phase 1 — mixed workload over this client's key range: inserts (enough
/// to force splits), searches, updates and deletes, submitted open-loop
/// with a bounded window per session.
/// Phase 2 — verification: re-reads every key that phase 1 left live and
/// checks the payload bytes.
class ClusterClient {
 public:
  ClusterClient(ClusterMemberOptions options, int rank,
                uint32_t keys_per_session = 120);

  int Run();
  void RequestStop() { stop_requested_.store(true); }

 private:
  ClusterMemberOptions options_;
  int rank_;
  uint32_t keys_per_session_;
  std::atomic<bool> stop_requested_{false};
};

/// The coordinator process (rank 0): owns the control plane, hosts the
/// RsCoordinatorNode, and drives the drill — workload phase, a scripted
/// bucket crash plus recovery, then a verification phase.
class ClusterCoordinator {
 public:
  struct Options : ClusterMemberOptions {
    /// Crash drill: bucket whose server is killed between the phases
    /// (disabled when negative).
    int crash_bucket = 1;
  };

  explicit ClusterCoordinator(Options options);

  int Run();
  void RequestStop() { stop_requested_.store(true); }

  /// Phase results by (phase, client rank), filled during Run.
  const std::map<std::pair<uint32_t, int>, PhaseResult>& results() const {
    return results_;
  }

 private:
  Options options_;
  std::atomic<bool> stop_requested_{false};
  std::map<std::pair<uint32_t, int>, PhaseResult> results_;
  std::set<int> goodbyes_;  ///< Ranks that completed their drain.
};

}  // namespace lhrs::transport

#endif  // LHRS_TRANSPORT_CLUSTER_H_
