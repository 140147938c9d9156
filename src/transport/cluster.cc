#include "transport/cluster.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "lhrs/parity_bucket.h"
#include "lhrs/rs_coordinator.h"
#include "lhrs/rs_data_bucket.h"
#include "lhstar/messages.h"
#include "telemetry/run_report.h"
#include "transport/wire.h"

namespace lhrs::transport {

namespace {

/// Placeholder for a node resident in another process. Receives nothing:
/// the RemoteRouter intercepts sends to it, and incoming frames for a
/// not-yet-activated local id are stashed before injection.
class StubNode : public Node {
 public:
  void HandleMessage(const Message& msg) override {
    LHRS_LOG(Warning) << "stub node " << id() << " received message kind "
                      << msg.body->kind() << " (dropped)";
  }
  const char* role() const override { return "stub"; }
};

uint64_t NowUs() { return SocketTransport::MonotonicMicros(); }

/// A peer process dying mid-write must surface as an error return, not a
/// SIGPIPE kill — every member calls this before touching sockets.
void IgnoreSigpipe() { signal(SIGPIPE, SIG_IGN); }

struct MemberContexts {
  std::shared_ptr<SystemContext> ctx;
  std::shared_ptr<LhrsContext> lhrs;
};

/// Every process builds the same context replica: file config, coordinator
/// id 0, and the initial-bucket allocation. Later allocation changes
/// arrive as kAllocUpdate snapshots.
MemberContexts MakeContexts(const ClusterLayout& layout) {
  MemberContexts out;
  out.ctx = std::make_shared<SystemContext>();
  out.ctx->config = layout.file;
  // Real wire latency widens the window between a bucket's first overflow
  // report and the split that relieves it; without damping every insert in
  // that window queues another split.
  out.ctx->config.dedup_overflow_reports = true;
  out.ctx->coordinator = 0;
  for (uint32_t b = 0; b < layout.file.initial_buckets; ++b) {
    out.ctx->allocation.Set(b, static_cast<NodeId>(1 + b));
  }
  out.lhrs = std::make_shared<LhrsContext>();
  out.lhrs->base = out.ctx;
  out.lhrs->m = layout.group_size;
  out.lhrs->coders = std::make_shared<CoderCache>(layout.group_size,
                                                  layout.field, layout.code);
  out.lhrs->policy.base_k = layout.base_k;
  out.lhrs->auto_recover = true;
  return out;
}

/// Adopts the coordinator's authoritative erasure-code choice from a
/// Welcome frame (a member must not guess the scheme from its own flags —
/// mixed codes would corrupt every parity column it hosts). A code or
/// field the member cannot decode is an error, never a fallback to the
/// local default.
Status ApplyWelcomeCode(const CtrlMsg& welcome, ClusterLayout* layout) {
  auto spec = parity::CodeSpec::Parse(welcome.code);
  if (!spec.ok()) {
    return Status::InvalidArgument("unparseable code spec in Welcome: '" +
                                   welcome.code + "'");
  }
  if (welcome.field_choice > static_cast<uint32_t>(FieldChoice::kGf65536)) {
    return Status::InvalidArgument("unknown field in Welcome: " +
                                   std::to_string(welcome.field_choice));
  }
  layout->field = static_cast<FieldChoice>(welcome.field_choice);
  layout->code = *spec;
  return Status::OK();
}

/// Pumps until the transport is quiescent and nothing got delivered for
/// `quiet_iters` consecutive iterations, or `budget_ms` elapses.
/// `service` is invoked each iteration (control-plane upkeep); returning
/// false aborts the wait.
void PumpUntilQuiet(ClusterRuntime& runtime, uint64_t budget_ms,
                    int quiet_iters,
                    const std::function<bool()>& service = {}) {
  const uint64_t deadline = NowUs() + budget_ms * 1000;
  int calm = 0;
  while (NowUs() < deadline && calm < quiet_iters) {
    const size_t activity = runtime.Pump(2);
    if (service && !service()) return;
    if (activity == 0 && runtime.transport().Quiescent()) {
      ++calm;
    } else {
      calm = 0;
    }
  }
}

/// Members may start before the coordinator's listener is bound (forked
/// children, in-process test threads); retry briefly before declaring the
/// coordinator missing.
Status ConnectControl(uint16_t port, ControlConn* out, uint64_t deadline) {
  for (;;) {
    Status status = ControlConn::Connect(port, out);
    if (status.ok() || NowUs() + 100'000 > deadline) return status;
    usleep(100'000);
  }
}

/// Binds the data-plane sockets and installs the deterministic lossy shim
/// the options ask for: the full-stack duplicate/drop resilience test
/// (client retry + DuplicateFilter above, ack + bounded retransmit below).
Status OpenTransport(ClusterRuntime& runtime,
                     const ClusterMemberOptions& options) {
  if (Status s = runtime.transport().Open(); !s.ok()) return s;
  if (options.loss_drop_every == 0 && options.loss_dup_every == 0) {
    return Status::OK();
  }
  runtime.transport().SetLossShim(
      [n = uint64_t{0}, drop = options.loss_drop_every,
       dup = options.loss_dup_every](bool is_ack, uint64_t) mutable {
        LossAction action;
        if (is_ack) return action;
        ++n;
        if (drop != 0 && n % drop == 0) action.drop = true;
        if (dup != 0 && n % dup == 0) action.duplicates = 1;
        return action;
      });
  return Status::OK();
}

/// Wires a runtime to the cluster's endpoint table: one peer per rank, a
/// stub per global id, telemetry for the network and the transport's ack
/// round trips, and this process's context replica.
MemberContexts Assemble(ClusterRuntime& runtime,
                        const std::vector<Endpoint>& endpoints,
                        const ClusterLayout& layout) {
  runtime.SetEndpoints(endpoints);
  runtime.BuildStubs();
  runtime.transport().AttachTelemetry(runtime.network().EnableTelemetry());
  return MakeContexts(layout);
}

uint64_t Percentile(std::vector<uint64_t>& sorted_latencies, int p) {
  if (sorted_latencies.empty()) return 0;
  const size_t idx = std::min(
      sorted_latencies.size() - 1,
      static_cast<size_t>(static_cast<double>(sorted_latencies.size()) * p /
                          100.0));
  return sorted_latencies[idx];
}

/// Writes the telemetry RunReport of one cluster process (members and the
/// coordinator alike): its role, rank and transport, whatever `extra`
/// adds, then the registry with the network's and the transport's counts.
/// The report must be complete valid JSON even when the process is
/// shutting down on SIGTERM — the graceful-shutdown test parses it back.
bool WriteReport(
    ClusterRuntime& runtime, const std::string& path, const std::string& role,
    int rank, bool ok,
    const std::function<void(telemetry::RunReport&)>& extra = {}) {
  if (path.empty()) return true;
  telemetry::RunReport report("cluster_" + role);
  report.AddParam("role", role);
  report.AddParam("rank", static_cast<int64_t>(rank));
  report.AddParam("transport", runtime.transport().name());
  report.AddParam("clean_shutdown", ok ? "true" : "false");
  if (extra) extra(report);
  report.AddMetric("sim.messages", runtime.network().stats().total_messages());
  if (telemetry::Telemetry* t = runtime.network().telemetry()) {
    runtime.network().stats().ExportTo(&t->metrics());
    runtime.transport().stats().ExportTo(&t->metrics());
    report.AddRegistry(t->metrics());
  }
  return report.WriteFile(path);
}

/// The drain half of a graceful shutdown: in-flight operations finish
/// (bounded), the transport empties its retransmit queues, and only then
/// does the caller write its report and exit.
void DrainRuntime(ClusterRuntime& runtime, uint64_t budget_ms) {
  PumpUntilQuiet(runtime, budget_ms, /*quiet_iters=*/25);
}

void LogVerbose(const ClusterMemberOptions& options, const std::string& who,
                const std::string& what) {
  if (!options.verbose) return;
  std::fprintf(stderr, "[%s] %s\n", who.c_str(), what.c_str());
}

/// The lifecycle both member roles share. Join connects to the
/// coordinator, trades a Hello for the Welcome, adopts its code and
/// endpoint table and assembles the runtime; the role then makes its own
/// nodes resident and calls Ready. Serve obeys the control messages every
/// member obeys and hands the rest to the role; Leave drains, writes the
/// report and says Goodbye.
class Member {
 public:
  using RoleHandler = std::function<void(const CtrlMsg&)>;

  Member(const ClusterMemberOptions& options, int rank, std::string role,
         const std::atomic<bool>& stop_requested)
      : layout(options.layout),
        runtime(options.layout, rank, options.net),
        options_(options),
        rank_(rank),
        role_(std::move(role)),
        who_(role_ + std::to_string(rank)),
        deadline_(NowUs() + options.deadline_ms * 1000),
        stop_requested_(stop_requested) {}

  /// 0 once joined; otherwise the exit code: 2 when the transport or the
  /// coordinator is unreachable, 3 without a usable Welcome.
  int Join() {
    IgnoreSigpipe();
    if (!OpenTransport(runtime, options_).ok()) return 2;
    if (!ConnectControl(options_.control_port, &ctrl, deadline_).ok()) {
      return 2;
    }
    ctrl.SendMsg({.type = CtrlType::kHello,
                  .rank = static_cast<uint32_t>(rank_),
                  .endpoint = runtime.transport().local()});

    std::optional<CtrlMsg> welcome;
    while (!welcome.has_value()) {
      if (std::optional<CtrlMsg> m = ctrl.Poll();
          m.has_value() && m->type == CtrlType::kWelcome) {
        welcome = std::move(m);
      } else if (ctrl.closed() || NowUs() >= deadline_) {
        return 3;
      } else {
        usleep(1000);
      }
    }
    if (Status s = ApplyWelcomeCode(*welcome, &layout); !s.ok()) {
      LHRS_LOG(Warning) << who_ << ": " << s;
      return 3;
    }
    if (welcome->endpoints.empty()) return 3;
    contexts = Assemble(runtime, welcome->endpoints, layout);
    return 0;
  }

  void Ready() {
    ctrl.SendMsg({.type = CtrlType::kReady});
    Log("ready");
  }

  /// Pumps and services the control plane until Stop, a lost coordinator
  /// or RequestStop. Returns 0, or 4 when the deadline passes first.
  int Serve(const RoleHandler& role_msg) {
    while (Service(role_msg)) {
      if (NowUs() > deadline_) return 4;
      runtime.Pump(2);
    }
    return 0;
  }

  /// Obeys kAllocUpdate, kSetAvailable, kQuiesce and kStop, and hands every
  /// other message to `role_msg`. False once the member must stop.
  bool Service(const RoleHandler& role_msg = {}) {
    ctrl.Flush();
    while (std::optional<CtrlMsg> msg = ctrl.Poll()) {
      switch (msg->type) {
        case CtrlType::kAllocUpdate:
          contexts.ctx->allocation.Restore(msg->entries, msg->version);
          break;
        case CtrlType::kSetAvailable:
          runtime.network().SetAvailable(msg->node, msg->up);
          break;
        case CtrlType::kQuiesce: {
          // The coordinator's barrier: pump until this process's transport
          // has nothing in flight (bounded), then ack with our rank.
          PumpUntilQuiet(runtime, /*budget_ms=*/2000, /*quiet_iters=*/10);
          ctrl.SendMsg({.type = CtrlType::kQuiesced,
                        .rank = static_cast<uint32_t>(rank_)});
          break;
        }
        case CtrlType::kStop:
          stop_ = true;
          break;
        default:
          if (role_msg) role_msg(*msg);
          break;
      }
    }
    // A lost coordinator or RequestStop drains and exits like a Stop.
    if (ctrl.closed() || stop_requested_.load()) stop_ = true;
    return !stop_;
  }

  /// Drains, writes the report, says Goodbye; returns the exit code.
  int Leave(int exit_code) {
    Log("draining");
    DrainRuntime(runtime, /*budget_ms=*/500);
    const bool wrote = WriteReport(runtime, options_.report_path, role_,
                                   rank_, exit_code == 0);
    ctrl.SendMsg({.type = CtrlType::kGoodbye});
    ctrl.Flush();
    return wrote ? exit_code : 5;
  }

  void Log(const std::string& what) const {
    LogVerbose(options_, who_, what);
  }
  uint64_t deadline() const { return deadline_; }

  // Public state the roles build on.
  ClusterLayout layout;  ///< The options' layout with the Welcome's code.
  ClusterRuntime runtime;
  ControlConn ctrl;
  MemberContexts contexts;

 private:
  const ClusterMemberOptions& options_;
  const int rank_;
  const std::string role_;
  const std::string who_;
  const uint64_t deadline_;
  const std::atomic<bool>& stop_requested_;
  bool stop_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// ClusterLayout

int ClusterLayout::RankOf(NodeId id) const {
  if (id < 0) return -1;
  if (id == 0) return 0;
  uint32_t u = static_cast<uint32_t>(id) - 1;
  if (u < file.initial_buckets) return ServerRankOfBucket(u);
  u -= file.initial_buckets;
  if (u < server_ranks * spares_per_server) {
    return 1 + static_cast<int>(u / spares_per_server);
  }
  u -= server_ranks * spares_per_server;
  if (u < client_ranks * sessions_per_client) {
    return 1 + static_cast<int>(server_ranks) +
           static_cast<int>(u / sessions_per_client);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// ClusterRuntime

ClusterRuntime::ClusterRuntime(const ClusterLayout& layout, int my_rank,
                               NetworkConfig net_config)
    : layout_(layout), my_rank_(my_rank), network_(net_config) {
  transport_.set_my_rank(my_rank);
  transport_.SetNodeRank([this](NodeId id) { return layout_.RankOf(id); });
  transport_.SetDeliverFn(
      [this](NodeId from, NodeId to, std::unique_ptr<MessageBody> body) {
        if (layout_.RankOf(to) != my_rank_) return false;  // Misrouted.
        if (!network_.available(to)) return false;  // Crashed: never ack.
        if (!resident_.contains(to)) {
          // Activation race: the data plane outran the control plane.
          // Accept (and ack) now, inject once the node exists.
          stash_[to].push_back(Stashed{from, std::move(body)});
          return true;
        }
        network_.Inject(from, to, std::move(body));
        return true;
      });
  transport_.SetFailFn(
      [this](NodeId from, NodeId to, std::unique_ptr<MessageBody> body) {
        // Retransmits exhausted: the peer process is dead or the node is
        // crashed over there. Mirror the coordinator's liveness oracle
        // locally and surface the simulator's RPC-timeout signal.
        if (to >= 0 && static_cast<size_t>(to) < network_.node_count() &&
            network_.available(to)) {
          network_.SetAvailable(to, false);
        }
        if (body != nullptr) {
          network_.NotifyDeliveryFailure(from, to, std::move(body));
        }
      });
  network_.SetRemoteRouter(this);
  // Real sockets lose and duplicate: keep the protocol hardening from the
  // chaos PR (client retries, server-side duplicate filters) armed.
  network_.SetLossyTransport(true);
}

ClusterRuntime::~ClusterRuntime() { network_.SetRemoteRouter(nullptr); }

void ClusterRuntime::SetEndpoints(const std::vector<Endpoint>& endpoints) {
  for (size_t rank = 0; rank < endpoints.size(); ++rank) {
    if (static_cast<int>(rank) == my_rank_) continue;
    transport_.SetPeer(static_cast<int>(rank), endpoints[rank]);
  }
}

void ClusterRuntime::BuildStubs() {
  for (size_t i = network_.node_count(); i < layout_.total_nodes(); ++i) {
    network_.AddNode(std::make_unique<StubNode>());
  }
}

void ClusterRuntime::MakeResident(NodeId id, std::unique_ptr<Node> node) {
  LHRS_CHECK(layout_.RankOf(id) == my_rank_)
      << "node " << id << " is not resident on rank " << my_rank_;
  network_.ReplaceNode(id, std::move(node));
  resident_.insert(id);
  auto it = stash_.find(id);
  if (it != stash_.end()) {
    for (Stashed& s : it->second) {
      network_.Inject(s.from, id, std::move(s.body));
    }
    stash_.erase(it);
  }
}

size_t ClusterRuntime::Pump(int timeout_ms) {
  const uint64_t events_before = network_.processed_events();
  const size_t delivered = transport_.Pump(timeout_ms);
  const uint64_t wall = NowUs();
  if (epoch_us_ == 0) epoch_us_ = wall;
  network_.RunUntil(static_cast<SimTime>(wall - epoch_us_));
  return delivered +
         static_cast<size_t>(network_.processed_events() - events_before);
}

void ClusterRuntime::RouteRemote(NodeId from, NodeId to,
                                 std::unique_ptr<MessageBody> body) {
  // The local liveness view gates the wire: once a destination is known
  // dead here (crash broadcast or exhausted retransmits), further sends
  // bounce immediately — same signal the simulator's timeout model gives,
  // without burning a full retransmit cycle per message.
  if (to >= 0 && static_cast<size_t>(to) < network_.node_count() &&
      !network_.available(to)) {
    network_.NotifyDeliveryFailure(from, to, std::move(body));
    return;
  }
  transport_.Send(from, to, std::move(body));
}

// ---------------------------------------------------------------------------
// ClusterServer

ClusterServer::ClusterServer(ClusterMemberOptions options, int rank)
    : options_(std::move(options)), rank_(rank) {}

int ClusterServer::Run() {
  Member member(options_, rank_, "server", stop_requested_);
  if (const int code = member.Join(); code != 0) return code;
  const std::shared_ptr<LhrsContext>& lhrs = member.contexts.lhrs;

  // The initial buckets striped onto this rank exist from the start,
  // pre-initialized — exactly as in the single-process facade.
  for (uint32_t b = 0; b < member.layout.file.initial_buckets; ++b) {
    if (member.layout.ServerRankOfBucket(b) != rank_) continue;
    member.runtime.MakeResident(
        static_cast<NodeId>(1 + b),
        std::make_unique<RsDataBucketNode>(lhrs, b, /*level=*/0,
                                           /*pre_initialized=*/true));
  }
  member.Ready();

  const int exit_code = member.Serve([&](const CtrlMsg& msg) {
    if (msg.type != CtrlType::kActivateNode) return;
    std::unique_ptr<Node> node;
    if (msg.is_parity) {
      node = std::make_unique<ParityBucketNode>(lhrs, msg.bucket, msg.level,
                                                msg.k, msg.pre_initialized);
    } else {
      node = std::make_unique<RsDataBucketNode>(lhrs, msg.bucket, msg.level,
                                                msg.pre_initialized);
    }
    member.runtime.MakeResident(msg.node, std::move(node));
    member.Log("activated node " + std::to_string(msg.node));
  });
  return member.Leave(exit_code);
}

// ---------------------------------------------------------------------------
// ClusterClient

namespace {

/// One scripted client operation plus its expected outcome.
struct ScriptOp {
  OpType op = OpType::kInsert;
  Key key = 0;
  uint32_t version = 1;        ///< Which deterministic payload to write.
  uint32_t expect_version = 0; ///< Search: payload to expect (0 = none).
  bool expect_missing = false; ///< Search: key must be gone.
};

/// Deterministic payload for (key, version): reproducible on any process,
/// so verification needs no shared state.
Bytes ValueFor(Key key, uint32_t version) {
  Rng rng(0x6c75737465725250ULL ^ (key * 0x9E3779B97F4A7C15ULL) ^ version);
  return rng.RandomBytes(24 + static_cast<size_t>(key % 17));
}

bool OutcomeMatches(const ScriptOp& op, const OpOutcome& out) {
  switch (op.op) {
    case OpType::kInsert:
      // A transport-level duplicate of an acked insert surfaces as
      // kAlreadyExists; the retry policy maps it back, but accept it
      // defensively too.
      return out.status.ok() || out.status.IsAlreadyExists();
    case OpType::kUpdate:
      return out.status.ok();
    case OpType::kDelete:
      return out.status.ok() || out.status.IsNotFound();
    case OpType::kSearch: {
      if (op.expect_missing) return out.status.IsNotFound();
      if (!out.status.ok()) return false;
      const Bytes expected = ValueFor(op.key, op.expect_version);
      if (out.value.size() != expected.size()) return false;
      return std::equal(expected.begin(), expected.end(),
                        out.value.data());
    }
  }
  return false;
}

/// The phase-1 script for one session: inserts (sized to overflow buckets
/// and force splits), a full search sweep, updates of every even key and
/// deletes of every fifth — four passes with a barrier between them so
/// same-key operations never race inside the open-loop window.
std::vector<std::vector<ScriptOp>> MixedScript(Key base, uint32_t keys) {
  std::vector<std::vector<ScriptOp>> passes(4);
  for (uint32_t i = 0; i < keys; ++i) {
    const Key key = base + i;
    passes[0].push_back({OpType::kInsert, key, 1, 0, false});
    passes[1].push_back({OpType::kSearch, key, 0, 1, false});
    if (i % 2 == 0) {
      passes[2].push_back({OpType::kUpdate, key, 2, 0, false});
    }
    if (i % 5 == 0) {
      passes[3].push_back({OpType::kDelete, key, 0, 0, false});
    }
  }
  return passes;
}

/// The phase-2 script: verify every key phase 1 left live (and that the
/// deleted ones stay gone) — including the records that lived on the
/// crashed-and-recovered bucket.
std::vector<std::vector<ScriptOp>> VerifyScript(Key base, uint32_t keys) {
  std::vector<std::vector<ScriptOp>> passes(1);
  for (uint32_t i = 0; i < keys; ++i) {
    const Key key = base + i;
    ScriptOp op{OpType::kSearch, key, 0, 0, false};
    if (i % 5 == 0) {
      op.expect_missing = true;
    } else {
      op.expect_version = i % 2 == 0 ? 2 : 1;
    }
    passes[0].push_back(op);
  }
  return passes;
}

/// Runs scripted passes across this process's sessions, open-loop with a
/// bounded per-session window. The sessions' ops live in `ops`, whose
/// completion listener tallies each op as the pump delivers its reply.
/// `service` keeps the control plane alive mid-phase (allocation updates,
/// crash notices); returning false aborts.
PhaseResult RunPasses(ClusterRuntime& runtime, sdds::OpTable& ops,
                      std::vector<ClientNode*>& sessions,
                      const std::vector<std::vector<ScriptOp>>& passes,
                      size_t window, uint64_t deadline,
                      const std::function<bool()>& service) {
  PhaseResult result;
  std::vector<uint64_t> latencies;
  const uint64_t phase_start = NowUs();
  // The ops in flight, indexed by the slot of their token.
  struct Inflight {
    sdds::OpToken token = 0;  ///< 0: the slot holds no op in flight.
    const ScriptOp* op = nullptr;
    size_t session = 0;
    uint64_t start_us = 0;
  };
  std::vector<Inflight> open;
  std::vector<size_t> inflight(sessions.size(), 0);
  ops.SetCompletionListener([&](sdds::OpToken token) {
    const size_t slot = sdds::OpTable::SlotOf(token);
    if (slot >= open.size() || open[slot].token != token) return;
    const Inflight done = open[slot];
    open[slot].token = 0;
    --inflight[done.session];
    Result<OpOutcome> outcome = ops.Take(token);
    ++result.ops;
    latencies.push_back(NowUs() - done.start_us);
    if (!outcome.ok() || !OutcomeMatches(*done.op, outcome.value())) {
      ++result.failures;
    }
  });
  const auto give_up = [&] {
    ops.SetCompletionListener(nullptr);
    result.ok = false;
    return result;
  };
  for (const std::vector<ScriptOp>& pass : passes) {
    // Deal the pass round-robin across sessions.
    std::vector<std::vector<const ScriptOp*>> dealt(sessions.size());
    std::vector<size_t> next(sessions.size(), 0);
    for (size_t i = 0; i < pass.size(); ++i) {
      dealt[i % sessions.size()].push_back(&pass[i]);
    }
    while (true) {
      if (NowUs() > deadline) {
        result.failures += pass.size();
        return give_up();
      }
      bool done = true;
      for (size_t s = 0; s < sessions.size(); ++s) {
        while (inflight[s] < window && next[s] < dealt[s].size()) {
          const ScriptOp* op = dealt[s][next[s]++];
          BufferView value;
          if (op->op == OpType::kInsert || op->op == OpType::kUpdate) {
            value = BufferView(ValueFor(op->key, op->version));
          }
          const sdds::OpToken token =
              sessions[s]->StartOp(op->op, op->key, std::move(value));
          const size_t slot = sdds::OpTable::SlotOf(token);
          if (open.size() <= slot) open.resize(slot + 1);
          open[slot] = Inflight{token, op, s, NowUs()};
          ++inflight[s];
        }
        if (next[s] < dealt[s].size() || inflight[s] > 0) done = false;
      }
      if (done) break;
      runtime.Pump(1);
      if (service && !service()) return give_up();
    }
  }
  ops.SetCompletionListener(nullptr);
  result.elapsed_us = NowUs() - phase_start;
  std::sort(latencies.begin(), latencies.end());
  result.p50_us = Percentile(latencies, 50);
  result.p95_us = Percentile(latencies, 95);
  result.p99_us = Percentile(latencies, 99);
  result.ok = result.ok && result.failures == 0;
  return result;
}

}  // namespace

ClusterClient::ClusterClient(ClusterMemberOptions options, int rank,
                             uint32_t keys_per_session)
    : options_(std::move(options)),
      rank_(rank),
      keys_per_session_(keys_per_session) {}

int ClusterClient::Run() {
  const ClusterLayout& layout = options_.layout;
  const int client_index = rank_ - 1 - static_cast<int>(layout.server_ranks);
  LHRS_CHECK(client_index >= 0 &&
             client_index < static_cast<int>(layout.client_ranks));

  // The sessions' ops, declared before the member so it outlives the
  // resident clients.
  sdds::OpTable ops;
  Member member(options_, rank_, "client", stop_requested_);
  if (const int code = member.Join(); code != 0) return code;

  // Resident client sessions, each with the at-least-once retry layer on:
  // a real transport loses and duplicates, and the bounded-resend /
  // coordinator-escalation machinery is what absorbs it.
  std::vector<ClientNode*> sessions;
  for (uint32_t s = 0; s < layout.sessions_per_client; ++s) {
    auto client = std::make_unique<ClientNode>(member.contexts.ctx, ops);
    ClientNode* ptr = client.get();
    ClientRetryPolicy policy;
    policy.enabled = true;
    policy.request_timeout_us = 50'000;  // Wall-clock now; loopback is fast.
    policy.max_backoff_us = 100'000;
    policy.seed = 42 + static_cast<uint64_t>(rank_) * 100 + s;
    member.runtime.MakeResident(
        layout.first_client_id(static_cast<uint32_t>(client_index)) +
            static_cast<NodeId>(s),
        std::move(client));
    ptr->SetRetryPolicy(policy);
    sessions.push_back(ptr);
  }
  member.Ready();

  const Key key_base =
      (static_cast<Key>(client_index) + 1) * 1'000'000ULL;
  const uint32_t total_keys =
      keys_per_session_ * layout.sessions_per_client;

  const int exit_code = member.Serve([&](const CtrlMsg& msg) {
    if (msg.type != CtrlType::kRunPhase) return;
    member.Log("phase " + std::to_string(msg.phase));
    const auto passes = msg.phase == 1 ? MixedScript(key_base, total_keys)
                                       : VerifyScript(key_base, total_keys);
    // Mid-phase upkeep serves the shared messages only, so a Stop or a
    // lost coordinator aborts the phase.
    const PhaseResult result =
        RunPasses(member.runtime, ops, sessions, passes, /*window=*/4,
                  member.deadline(), [&] { return member.Service(); });
    member.ctrl.SendMsg(
        {.type = CtrlType::kPhaseDone, .phase = msg.phase, .result = result});
    member.Log("phase " + std::to_string(msg.phase) + " done: " +
               std::to_string(result.ops) + " ops, " +
               std::to_string(result.failures) + " failures");
  });
  return member.Leave(exit_code);
}

// ---------------------------------------------------------------------------
// ClusterCoordinator

ClusterCoordinator::ClusterCoordinator(Options options)
    : options_(std::move(options)) {}

int ClusterCoordinator::Run() {
  const std::string who = "coord";
  const uint64_t deadline = NowUs() + options_.deadline_ms * 1000;
  IgnoreSigpipe();

  const ClusterLayout& layout = options_.layout;
  ControlListener listener;
  if (!listener.Open(options_.control_port).ok()) return 2;
  options_.control_port = listener.port();

  ClusterRuntime runtime(layout, /*my_rank=*/0, options_.net);
  if (!OpenTransport(runtime, options_).ok()) return 2;

  // Accept and identify every member. A Hello naming the coordinator's
  // rank, a rank outside the layout or a rank already identified is
  // refused and its connection closed.
  std::map<int, ControlConn> members;  // rank -> control connection.
  std::vector<Endpoint> endpoints(layout.total_ranks());  // By rank.
  endpoints[0] = runtime.transport().local();
  std::vector<ControlConn> unidentified;
  const size_t expected = layout.total_ranks() - 1;
  while (members.size() < expected) {
    if (NowUs() > deadline) return 3;
    if (std::optional<ControlConn> conn = listener.Accept()) {
      unidentified.push_back(std::move(*conn));
    }
    for (auto it = unidentified.begin(); it != unidentified.end();) {
      std::optional<CtrlMsg> msg = it->Poll();
      if (msg.has_value() && msg->type == CtrlType::kHello) {
        const int rank = static_cast<int>(msg->rank);
        if (msg->rank == 0 || msg->rank >= layout.total_ranks() ||
            members.contains(rank)) {
          LHRS_LOG(Warning) << "coord: refused Hello from rank " << msg->rank;
        } else {
          endpoints[msg->rank] = msg->endpoint;
          members.emplace(rank, std::move(*it));
        }
        it = unidentified.erase(it);
      } else if (it->closed()) {
        it = unidentified.erase(it);
      } else {
        ++it;
      }
    }
    usleep(1000);
  }
  LogVerbose(options_, who, "all members connected");

  const auto broadcast = [&](const CtrlMsg& msg) {
    for (auto& [rank, conn] : members) conn.SendMsg(msg);
  };
  // Welcome everyone with the full endpoint table.
  broadcast({.type = CtrlType::kWelcome,
             .endpoints = endpoints,
             .field_choice = static_cast<uint32_t>(layout.field),
             .code = layout.code.Name()});
  MemberContexts m = Assemble(runtime, endpoints, layout);

  // Spare-slot allocator: round-robin across the server ranks' pools.
  std::vector<uint32_t> spare_used(layout.server_ranks, 0);
  uint32_t next_server = 0;
  const auto pop_spare = [&]() -> std::pair<NodeId, int> {
    for (uint32_t tries = 0; tries < layout.server_ranks; ++tries) {
      const uint32_t s = next_server;
      next_server = (next_server + 1) % layout.server_ranks;
      if (spare_used[s] < layout.spares_per_server) {
        const NodeId id =
            layout.first_spare(s) + static_cast<NodeId>(spare_used[s]++);
        return {id, 1 + static_cast<int>(s)};
      }
    }
    LHRS_LOG(Fatal) << "cluster spare pool exhausted";
    return {kInvalidNode, -1};
  };

  auto coordinator = std::make_unique<RsCoordinatorNode>(m.lhrs);
  RsCoordinatorNode* rs = coordinator.get();
  rs->SetBucketFactory([&](BucketNo bucket, Level level) {
    const auto [id, rank] = pop_spare();
    members.at(rank).SendMsg({.type = CtrlType::kActivateNode,
                              .node = id,
                              .bucket = bucket,
                              .level = level});
    return id;
  });
  rs->SetParityFactory(
      [&](uint32_t group, uint32_t parity_index, uint32_t k, bool spare) {
        const auto [id, rank] = pop_spare();
        members.at(rank).SendMsg({.type = CtrlType::kActivateNode,
                                  .node = id,
                                  .is_parity = true,
                                  .pre_initialized = !spare,
                                  .bucket = group,
                                  .level = parity_index,
                                  .k = k});
        return id;
      });
  runtime.MakeResident(0, std::move(coordinator));

  // Wait for every member's Ready before any data-plane traffic.
  std::set<int> ready;
  while (ready.size() < expected) {
    if (NowUs() > deadline) return 3;
    for (auto& [rank, conn] : members) {
      while (std::optional<CtrlMsg> msg = conn.Poll()) {
        if (msg->type == CtrlType::kReady) ready.insert(rank);
      }
    }
    usleep(1000);
  }
  LogVerbose(options_, who, "all members ready");

  // Initial parity groups: allocates parity buckets from the spare pools
  // (ActivateNode to their owners) and pushes group configs on the wire.
  rs->InitializeGroups();

  // Control upkeep run every pump: forward allocation changes the moment
  // the coordinator's authoritative table moves (splits, recoveries), and
  // collect phase reports.
  uint64_t last_alloc_version = 0;
  const auto broadcast_alloc = [&]() {
    last_alloc_version = m.ctx->allocation.version();
    broadcast({.type = CtrlType::kAllocUpdate,
               .version = last_alloc_version,
               .entries = m.ctx->allocation.entries()});
  };
  std::set<int> quiesced;
  const auto service = [&]() {
    if (m.ctx->allocation.version() != last_alloc_version) {
      broadcast_alloc();
    }
    for (auto& [rank, conn] : members) {
      conn.Flush();
      while (std::optional<CtrlMsg> msg = conn.Poll()) {
        if (msg->type == CtrlType::kQuiesced) {
          quiesced.insert(rank);
        } else if (msg->type == CtrlType::kPhaseDone) {
          results_[{msg->phase, rank}] = msg->result;
        } else if (msg->type == CtrlType::kGoodbye) {
          goodbyes_.insert(rank);
        }
      }
    }
    return !stop_requested_.load();
  };
  broadcast_alloc();

  // Data-plane barrier: every member drains its transport (all in-flight
  // datagrams delivered or abandoned), then acks. Phase completion only
  // proves the clients' replies arrived — parity deltas trail behind on
  // their own datagrams, and a crash injected while one is still in
  // flight orphans the update (the recovered column then misses it). The
  // simulator injects crashes at protocol quiescence; this is the
  // cluster-mode equivalent.
  const auto quiesce_members = [&]() {
    quiesced.clear();
    broadcast({.type = CtrlType::kQuiesce});
    while (NowUs() < deadline && !stop_requested_.load()) {
      runtime.Pump(2);
      if (!service()) return false;
      if (quiesced.size() == members.size() &&
          runtime.transport().Quiescent()) {
        return true;
      }
    }
    return false;
  };

  // Let the group configuration settle before opening the workload.
  PumpUntilQuiet(runtime, /*budget_ms=*/2000, /*quiet_iters=*/25, service);

  const auto client_ranks = [&]() {
    std::vector<int> ranks;
    for (uint32_t c = 0; c < layout.client_ranks; ++c) {
      ranks.push_back(1 + static_cast<int>(layout.server_ranks) +
                      static_cast<int>(c));
    }
    return ranks;
  }();
  const auto run_phase = [&](uint32_t phase) {
    for (int rank : client_ranks) {
      members.at(rank).SendMsg({.type = CtrlType::kRunPhase, .phase = phase});
    }
    while (NowUs() < deadline && !stop_requested_.load()) {
      runtime.Pump(2);
      if (!service()) break;
      bool all = true;
      for (int rank : client_ranks) {
        if (!results_.contains({phase, rank})) all = false;
      }
      if (all) return true;
    }
    return false;
  };

  bool ok = true;

  // Phase 1: the mixed workload — inserts sized to overflow buckets, so
  // at least one split runs over the real transport mid-phase.
  LogVerbose(options_, who, "phase 1");
  const BucketNo buckets_before = rs->state().bucket_count();
  if (!run_phase(1)) ok = false;
  const bool split_happened = rs->state().bucket_count() > buckets_before;
  if (!split_happened) {
    std::fprintf(stderr, "[coord] FAIL: no split during phase 1\n");
    ok = false;
  }

  // The crash drill: kill the server slot of one data bucket everywhere,
  // then run the coordinator's k-availability recovery over the wire.
  bool recovered = false;
  if (ok && options_.crash_bucket >= 0 && !quiesce_members()) {
    std::fprintf(stderr, "[coord] FAIL: pre-crash quiesce barrier\n");
    ok = false;
  }
  if (ok && options_.crash_bucket >= 0) {
    const BucketNo victim_bucket =
        static_cast<BucketNo>(options_.crash_bucket);
    const NodeId victim = m.ctx->allocation.Lookup(victim_bucket);
    LogVerbose(options_, who,
               "crashing bucket " + std::to_string(victim_bucket) +
                   " (node " + std::to_string(victim) + ")");
    broadcast({.type = CtrlType::kSetAvailable, .node = victim, .up = false});
    runtime.network().SetAvailable(victim, false);

    const uint64_t recoveries_before = rs->recoveries_completed();
    rs->NotifyUnavailable(victim);
    while (NowUs() < deadline && !stop_requested_.load()) {
      runtime.Pump(2);
      if (!service()) break;
      if (rs->recoveries_completed() > recoveries_before) {
        recovered = true;
        break;
      }
    }
    if (!recovered) {
      std::fprintf(stderr, "[coord] FAIL: recovery did not complete\n");
      ok = false;
    }
    // Post-recovery barrier: the spare's install and the refreshed group
    // configs must land everywhere before verification reads begin.
    if (ok && !quiesce_members()) {
      std::fprintf(stderr, "[coord] FAIL: post-recovery quiesce barrier\n");
      ok = false;
    }
  }

  // Phase 2: every surviving key must read back, including the recovered
  // bucket's records.
  if (ok) {
    LogVerbose(options_, who, "phase 2");
    if (!run_phase(2)) ok = false;
  }
  for (const auto& [key, result] : results_) {
    if (!result.ok || result.failures != 0) ok = false;
  }

  // Stop everyone, wait for the goodbyes (members drain + write reports).
  broadcast({.type = CtrlType::kStop});
  const uint64_t bye_deadline = std::min(deadline, NowUs() + 5'000'000);
  while (goodbyes_.size() < expected && NowUs() < bye_deadline) {
    runtime.Pump(2);
    service();
  }

  DrainRuntime(runtime, /*budget_ms=*/300);
  const auto coordinator_report = [&](telemetry::RunReport& report) {
    report.AddParam("server_ranks", static_cast<int64_t>(layout.server_ranks));
    report.AddParam("client_ranks", static_cast<int64_t>(layout.client_ranks));
    report.AddParam("group_size", static_cast<int64_t>(layout.group_size));
    report.AddParam("base_k", static_cast<int64_t>(layout.base_k));
    report.AddParam("code", layout.code.Name());
    report.AddMetric("buckets_final",
                     static_cast<uint64_t>(rs->state().bucket_count()));
    report.AddMetric("split_happened", split_happened ? uint64_t{1} : 0);
    report.AddMetric("recoveries_completed", rs->recoveries_completed());
    report.AddMetric("columns_recovered", rs->columns_recovered());
    report.AddMetric("degraded_reads_served", rs->degraded_reads_served());
    for (const auto& [key, result] : results_) {
      const std::string prefix = "phase" + std::to_string(key.first) +
                                 ".rank" + std::to_string(key.second) + ".";
      report.AddMetric(prefix + "ops", result.ops);
      report.AddMetric(prefix + "failures", result.failures);
      report.AddMetric(prefix + "elapsed_us", result.elapsed_us);
      report.AddMetric(prefix + "p99_us", result.p99_us);
    }
  };
  if (!WriteReport(runtime, options_.report_path, "coordinator", /*rank=*/0,
                   ok, coordinator_report)) {
    ok = false;
  }
  LogVerbose(options_, who, ok ? "success" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace lhrs::transport
