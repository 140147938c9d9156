#ifndef LHRS_NET_NETWORK_H_
#define LHRS_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "net/message.h"
#include "net/node.h"
#include "net/stats.h"
#include "telemetry/telemetry.h"

namespace lhrs {

/// Latency and service parameters of the simulated network. Defaults model
/// the ~100 Mb/s switched-Ethernet multicomputer of the original LH*
/// experiments: ~100 us per short message plus per-KB serialisation cost.
struct NetworkConfig {
  SimTime unicast_latency_us = 100;   ///< Fixed per-message latency.
  SimTime per_kb_us = 80;             ///< Added latency per KiB of payload.
  SimTime timeout_us = 2000;          ///< Failure-detection (RPC timeout).
  bool multicast_available = true;    ///< Hardware multicast for scans.
};

/// What a fault injector tells the network to do with one message about to
/// be scheduled for delivery. The default value is "deliver normally".
struct FaultActions {
  bool drop = false;           ///< Lose the message (sender times out).
  uint32_t duplicates = 0;     ///< Extra copies delivered alongside.
  SimTime extra_delay_us = 0;  ///< Added to the computed latency.
  double latency_factor = 1.0; ///< Multiplies the computed latency.
};

/// Hook between the network and its delivery queue. When attached, every
/// enqueued message is offered to the injector, which can drop, duplicate,
/// delay or slow it (see src/chaos for the scripted implementation). The
/// injector must be deterministic for replays to be byte-identical.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual FaultActions OnMessage(const Message& msg, SimTime now) = 0;
};

/// Egress hook for cluster mode. In a multi-process deployment every
/// process runs its own Network whose node table spans the *global* id
/// space; ids resident elsewhere hold stub nodes. A router attached via
/// SetRemoteRouter intercepts sends to such ids before they reach the
/// event queue and hands them to a real transport (src/transport). Traffic
/// statistics are still recorded by the local network, so per-node
/// messaging costs keep their simulator semantics.
class RemoteRouter {
 public:
  virtual ~RemoteRouter() = default;

  /// True when `to` is not resident in this process.
  virtual bool IsRemote(NodeId to) const = 0;

  /// Takes ownership of the body and moves it across the wire.
  virtual void RouteRemote(NodeId from, NodeId to,
                           std::unique_ptr<MessageBody> body) = 0;
};

/// Discrete-event message-passing simulator of a share-nothing
/// multicomputer.
///
/// Single-threaded and deterministic: events are processed in (time, seq)
/// order, so a scenario replays identically from the same seed. Nodes are
/// added dynamically (file growth allocates new servers; recovery allocates
/// hot spares). A node can be marked unavailable, after which messages to
/// it bounce back to the sender as delivery failures after the configured
/// timeout — the simulator's model of crash + detection.
class Network {
 public:
  explicit Network(NetworkConfig config = {});

  /// Registers a node and assigns its NodeId. May be called while the
  /// event loop runs (splits and recoveries allocate servers on the fly).
  NodeId AddNode(std::unique_ptr<Node> node);

  /// Replaces the node object at an existing id, keeping availability and
  /// crash epoch. Cluster mode uses this to swap a remote stub for the
  /// real node when a spare slot is activated in this process.
  void ReplaceNode(NodeId id, std::unique_ptr<Node> node);

  /// The node object at `id` (never null for a valid id).
  Node* node(NodeId id) const {
    LHRS_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
    return nodes_[id].node.get();
  }

  /// Downcasts node(id); CHECK-fails if the role does not match.
  template <typename T>
  T* node_as(NodeId id) const {
    T* t = dynamic_cast<T*>(node(id));
    LHRS_CHECK(t != nullptr) << "node " << id << " has unexpected role";
    return t;
  }

  size_t node_count() const { return nodes_.size(); }

  /// Queues a unicast message for delivery.
  void Send(NodeId from, NodeId to, std::unique_ptr<MessageBody> body);

  /// Queues one message per destination as a single multicast batch:
  /// counted as one message in the statistics when hardware multicast is
  /// available (how the paper accounts scan costs), as N unicasts
  /// otherwise. Bodies may differ per destination (scans attach
  /// per-bucket presumed levels).
  void Multicast(
      NodeId from,
      std::vector<std::pair<NodeId, std::unique_ptr<MessageBody>>> batch);

  /// Crash / restore a node. An unavailable node receives nothing; senders
  /// get HandleDeliveryFailure after the timeout. A crash also increments
  /// the node's crash epoch: messages already in flight towards it bounce
  /// even if the node is restored before their delivery time.
  void SetAvailable(NodeId id, bool available);
  bool available(NodeId id) const;

  /// Schedules `node`'s HandleTimer(timer_id) to fire after `delay`.
  /// Timers to a node that is unavailable at fire time are silently
  /// dropped. With `wake` false the timer does not keep RunUntilIdle
  /// going: it fires only if protocol traffic carries simulated time past
  /// it (the chaos engine schedules its fault script this way, so an idle
  /// file does not fast-forward through the whole schedule).
  void ScheduleTimer(NodeId node, SimTime delay, uint64_t timer_id,
                     bool wake = true);

  /// Runs the event loop until no *wake* events remain (messages, delivery
  /// failures and ordinary timers). Every client-visible operation in this
  /// codebase completes within one call (the protocols' retries are
  /// bounded). Non-wake timers scheduled beyond the quiescent time stay
  /// queued. Each call — like each RunUntil — may process at most the
  /// event budget (200M events), so a protocol loop aborts loudly instead
  /// of hanging.
  void RunUntilIdle();

  /// Processes exactly one event — the next one in (time, seq) order — and
  /// returns true; returns false without touching the queue when no wake
  /// events remain (the RunUntilIdle stopping condition). N calls to Step()
  /// process the identical event sequence RunUntilIdle would, so a driver
  /// can interleave issuing new operations with event processing without
  /// perturbing determinism.
  bool Step();

  /// Steps until `done()` returns true or the network is idle. The
  /// predicate is evaluated before each event, so the event that makes it
  /// true is not followed by further processing.
  void RunUntil(const std::function<bool()>& done);

  /// Processes every event (wake or not) with time <= t, then advances the
  /// clock to `t`. Lets a driver play out the remainder of a scripted
  /// fault schedule after the workload went idle.
  void RunUntil(SimTime t);

  /// Current simulated time (microseconds).
  SimTime now() const { return now_; }

  /// Traffic statistics: the one count of sent messages and bytes
  /// (MessageStats::ExportTo copies it into a metrics registry).
  MessageStats& stats() { return stats_; }
  const MessageStats& stats() const { return stats_; }
  const NetworkConfig& config() const { return config_; }

  /// Turns observability on: the network owns a Telemetry instance, wires
  /// its clock to the simulated time, and from here on feeds the delivery
  /// counters, the delivery-latency histogram and (config-dependent)
  /// per-message trace events. Returns the instance so callers can add
  /// their own series.
  /// Idempotent; the config of the first call wins.
  telemetry::Telemetry* EnableTelemetry(
      telemetry::TelemetryConfig config = {});

  /// The attached telemetry, or nullptr when disabled. Every instrumented
  /// layer gates on this pointer, so the disabled path costs one branch.
  telemetry::Telemetry* telemetry() const { return telemetry_.get(); }

  /// Attaches (or with nullptr detaches) a fault injector. Not owned; the
  /// caller keeps it alive while attached.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// True while a fault injector is attached — or while the network sits on
  /// a real, lossy transport. Protocol layers use this to turn on
  /// retransmissions that would be dead weight in a fault-free simulation.
  bool fault_injection_active() const {
    return injector_ != nullptr || lossy_transport_;
  }

  /// Declares that this network's traffic crosses a real transport that
  /// may lose or duplicate messages, so the protocol hardening gated on
  /// fault_injection_active() must stay armed.
  void SetLossyTransport(bool lossy) { lossy_transport_ = lossy; }

  /// Attaches (or with nullptr detaches) the cluster egress router. Not
  /// owned. While attached, Send/Multicast to ids the router claims are
  /// remote bypass the event queue (statistics are still recorded).
  void SetRemoteRouter(RemoteRouter* router) { router_ = router; }

  /// Ingress path for cluster mode: delivers `body` to local node `to` as
  /// if it had just arrived from `from`, at the current time. The message
  /// gets a fresh local id (transport-level retransmits deliver at most
  /// once, so ids stay unique) and is processed through the ordinary
  /// delivery event so telemetry, stats and crash-epoch checks all apply.
  void Inject(NodeId from, NodeId to, std::unique_ptr<MessageBody> body);

  /// Ingress path for transport-detected send failures: invokes `from`'s
  /// HandleDeliveryFailure with a synthesized bounced message, mirroring
  /// the simulator's RPC-timeout model (recorded in stats/telemetry).
  void NotifyDeliveryFailure(NodeId from, NodeId to,
                             std::unique_ptr<MessageBody> body);

  /// Total events processed since construction.
  uint64_t processed_events() const { return processed_events_; }

  /// Lowers the per-call event budget, so tests can reach it quickly.
  void SetEventBudgetForTest(uint64_t budget) { event_budget_ = budget; }

  /// Deliveries queued towards `id` but not yet processed — the node's
  /// instantaneous ingress queue depth, the quantity the per-bucket
  /// queueing telemetry records under skewed workloads.
  size_t PendingTo(NodeId id) const {
    return static_cast<size_t>(id) < pending_deliver_.size()
               ? pending_deliver_[id]
               : 0;
  }

 private:
  enum class EventType : uint8_t { kDeliver, kDeliveryFailure, kTimer };

  /// One queued event. The message or timer it concerns sits in the pool
  /// slot `slot`, so the heap moves 24-byte entries only.
  struct Event {
    SimTime time;
    uint64_t seq;  // FIFO tiebreak.
    uint32_t slot;
    EventType type;
    bool wake;  ///< Keeps RunUntilIdle going (see ScheduleTimer).
  };
  static_assert(sizeof(Event) == 24);

  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// A pool slot: an in-flight message, or a timer (`message.to` is the
  /// node, `timer_id` the id). Slots live in fixed-size chunks, so a
  /// handler's `const Message&` stays valid while it sends (which may add
  /// chunks). Chaos duplicates of a message share its slot; a bounce
  /// re-queues the slot it came in.
  struct Pending {
    Message message;
    uint64_t timer_id = 0;
    /// Holds: one per queued event naming this slot, plus the caller's
    /// between NewSlot and its Release.
    uint32_t refs = 0;
  };
  static constexpr uint32_t kChunkSlots = 256;

  /// Hard cap on the events one RunUntilIdle or RunUntil call processes,
  /// so a protocol bug (forwarding loop, retry storm) fails a test loudly
  /// instead of hanging.
  static constexpr uint64_t kEventBudget = 200'000'000;

  struct NodeSlot {
    std::unique_ptr<Node> node;
    bool available = true;
    uint64_t epoch = 0;  ///< Incremented on each crash (see Message).
  };

  SimTime DeliveryLatency(size_t bytes) const {
    // Ceiling division: a sub-KiB payload still pays one KB quantum of
    // serialisation cost (flooring would make short messages free).
    return config_.unicast_latency_us +
           config_.per_kb_us * ((bytes + 1023) / 1024);
  }

  void Enqueue(std::unique_ptr<MessageBody> body, NodeId from, NodeId to,
               bool multicast_member);
  Pending& pending(uint32_t slot) {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }
  /// Takes a free slot, held once by the caller.
  uint32_t NewSlot();
  /// Takes a slot (held by the caller) for a message with a fresh id,
  /// sent now.
  uint32_t NewMessage(NodeId from, NodeId to,
                      std::unique_ptr<MessageBody> body, size_t bytes);
  /// Drops one hold on `slot`; the last one frees it.
  void Release(uint32_t slot);
  /// Queues an event for `slot`; the event holds the slot until processed.
  void Push(SimTime time, uint32_t slot, EventType type, bool wake = true);
  Event PopEvent();
  void ProcessEvent(const Event& ev);
  void CheckBudget(uint64_t events) const;

  NetworkConfig config_;
  std::vector<NodeSlot> nodes_;
  std::vector<Event> heap_;  ///< Min-heap in (time, seq) order.
  std::vector<std::unique_ptr<Pending[]>> chunks_;
  std::vector<uint32_t> free_slots_;
  uint32_t slot_count_ = 0;  ///< Slots ever created.
  SimTime now_ = 0;
  uint64_t next_message_id_ = 1;
  uint64_t next_seq_ = 1;
  uint64_t processed_events_ = 0;
  uint64_t event_budget_ = kEventBudget;
  size_t wake_events_ = 0;  ///< Queued events with wake == true.
  /// Queued kDeliver events per destination (see PendingTo), maintained in
  /// Push/ProcessEvent.
  std::vector<uint32_t> pending_deliver_;
  MessageStats stats_;
  FaultInjector* injector_ = nullptr;
  RemoteRouter* router_ = nullptr;
  bool lossy_transport_ = false;

  std::unique_ptr<telemetry::Telemetry> telemetry_;
  /// Cached metric handles so the enabled per-message path does no name
  /// lookups (resolved once in EnableTelemetry).
  struct TelemetryHandles {
    telemetry::Counter* deliveries = nullptr;
    telemetry::Counter* delivery_failures = nullptr;
    telemetry::Gauge* nodes_unavailable = nullptr;
    telemetry::Histogram* delivery_latency_us = nullptr;
  };
  TelemetryHandles tm_;
};

}  // namespace lhrs

#endif  // LHRS_NET_NETWORK_H_
