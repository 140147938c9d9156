#include "net/network.h"

#include <algorithm>
#include <utility>

namespace lhrs {

Network::Network(NetworkConfig config) : config_(config) {}

telemetry::Telemetry* Network::EnableTelemetry(
    telemetry::TelemetryConfig config) {
  if (telemetry_ != nullptr) return telemetry_.get();
  telemetry_ = std::make_unique<telemetry::Telemetry>(config);
  telemetry_->set_clock([this] { return now_; });
  telemetry::MetricsRegistry& m = telemetry_->metrics();
  tm_.deliveries = &m.GetCounter("net.deliveries");
  tm_.delivery_failures = &m.GetCounter("net.delivery_failures");
  tm_.nodes_unavailable = &m.GetGauge("net.nodes_unavailable");
  tm_.delivery_latency_us = &m.GetHistogram("net.delivery_latency_us");
  return telemetry_.get();
}

NodeId Network::AddNode(std::unique_ptr<Node> node) {
  LHRS_CHECK(node != nullptr);
  LHRS_CHECK(node->network_ == nullptr) << "node already registered";
  const NodeId id = static_cast<NodeId>(nodes_.size());
  node->network_ = this;
  node->id_ = id;
  nodes_.push_back(NodeSlot{std::move(node), /*available=*/true});
  return id;
}

void Network::ReplaceNode(NodeId id, std::unique_ptr<Node> node) {
  LHRS_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  LHRS_CHECK(node != nullptr);
  LHRS_CHECK(node->network_ == nullptr) << "node already registered";
  node->network_ = this;
  node->id_ = id;
  nodes_[id].node = std::move(node);  // Availability and epoch persist.
}

void Network::Send(NodeId from, NodeId to,
                   std::unique_ptr<MessageBody> body) {
  Enqueue(std::move(body), from, to, /*multicast_member=*/false);
}

void Network::Multicast(
    NodeId from,
    std::vector<std::pair<NodeId, std::unique_ptr<MessageBody>>> batch) {
  bool first = true;
  for (auto& [to, body] : batch) {
    const bool member = config_.multicast_available && !first;
    Enqueue(std::move(body), from, to, member);
    first = false;
  }
}

uint32_t Network::NewSlot() {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slot_count_ % kChunkSlots == 0) {
      chunks_.push_back(std::make_unique<Pending[]>(kChunkSlots));
    }
    slot = slot_count_++;
  }
  pending(slot).refs = 1;
  return slot;
}

uint32_t Network::NewMessage(NodeId from, NodeId to,
                             std::unique_ptr<MessageBody> body,
                             size_t bytes) {
  const uint32_t slot = NewSlot();
  Message& msg = pending(slot).message;
  msg.id = next_message_id_++;
  msg.from = from;
  msg.to = to;
  msg.send_time = now_;
  msg.multicast_member = false;
  // A transport's failure notice may name a node this network lacks.
  msg.to_epoch = to >= 0 && static_cast<size_t>(to) < nodes_.size()
                     ? nodes_[to].epoch
                     : 0;
  msg.bytes = bytes;
  msg.body = std::move(body);
  return slot;
}

void Network::Release(uint32_t slot) {
  Pending& p = pending(slot);
  if (--p.refs != 0) return;
  p.message.body.reset();
  free_slots_.push_back(slot);
}

void Network::Push(SimTime time, uint32_t slot, EventType type, bool wake) {
  Pending& p = pending(slot);
  ++p.refs;
  if (wake) ++wake_events_;
  if (type == EventType::kDeliver) {
    const auto to = static_cast<size_t>(p.message.to);
    if (to >= pending_deliver_.size()) pending_deliver_.resize(to + 1, 0);
    ++pending_deliver_[to];
  }
  heap_.push_back(Event{time, next_seq_++, slot, type, wake});
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

Network::Event Network::PopEvent() {
  std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
  const Event ev = heap_.back();
  heap_.pop_back();
  return ev;
}

void Network::Enqueue(std::unique_ptr<MessageBody> body, NodeId from,
                      NodeId to, bool multicast_member) {
  LHRS_CHECK(body != nullptr);
  LHRS_CHECK(to >= 0 && static_cast<size_t>(to) < nodes_.size())
      << "send to unknown node " << to;
  const size_t bytes = body->ByteSize();
  stats_.RecordSend(body->kind(), bytes, !multicast_member, from);
  if (telemetry_ != nullptr && telemetry_->trace_messages()) {
    telemetry_->tracer().Record({now_, telemetry::TraceEventType::kSend, from,
                                 to, body->kind(), -1,
                                 static_cast<int64_t>(bytes)});
  }

  if (router_ != nullptr && router_->IsRemote(to)) {
    router_->RouteRemote(from, to, std::move(body));
    return;
  }

  const uint32_t slot = NewMessage(from, to, std::move(body), bytes);
  Message& msg = pending(slot).message;
  msg.multicast_member = multicast_member;

  SimTime latency = DeliveryLatency(bytes);
  uint32_t copies = 1;
  if (injector_ != nullptr) {
    const FaultActions actions = injector_->OnMessage(msg, now_);
    if (actions.latency_factor != 1.0) {
      latency = static_cast<SimTime>(static_cast<double>(latency) *
                                     actions.latency_factor);
    }
    latency += actions.extra_delay_us;
    if (actions.drop) {
      // The loss is indistinguishable from a crashed destination for the
      // sender: its RPC times out and HandleDeliveryFailure fires.
      stats_.RecordDeliveryFailure();
      if (telemetry_ != nullptr) tm_.delivery_failures->Add();
      if (from != kInvalidNode) {
        Push(now_ + latency + config_.timeout_us, slot,
             EventType::kDeliveryFailure);
      }
      Release(slot);
      return;
    }
    // Copies share the slot: same id, same body — exactly what
    // receiver-side duplicate suppression must cope with.
    copies += actions.duplicates;
  }
  for (uint32_t c = 0; c < copies; ++c) {
    Push(now_ + latency, slot, EventType::kDeliver);
  }
  Release(slot);
}

void Network::Inject(NodeId from, NodeId to,
                     std::unique_ptr<MessageBody> body) {
  LHRS_CHECK(body != nullptr);
  LHRS_CHECK(to >= 0 && static_cast<size_t>(to) < nodes_.size())
      << "inject to unknown node " << to;
  const size_t bytes = body->ByteSize();
  const uint32_t slot = NewMessage(from, to, std::move(body), bytes);
  // Delivered through the ordinary event path so the crash-epoch check,
  // receive statistics and tracing behave exactly as for local traffic.
  Push(now_, slot, EventType::kDeliver);
  Release(slot);
}

void Network::NotifyDeliveryFailure(NodeId from, NodeId to,
                                    std::unique_ptr<MessageBody> body) {
  LHRS_CHECK(body != nullptr);
  stats_.RecordDeliveryFailure();
  if (telemetry_ != nullptr) tm_.delivery_failures->Add();
  if (from == kInvalidNode) return;
  LHRS_CHECK(static_cast<size_t>(from) < nodes_.size());
  const size_t bytes = body->ByteSize();
  const uint32_t slot = NewMessage(from, to, std::move(body), bytes);
  Push(now_, slot, EventType::kDeliveryFailure);
  Release(slot);
}

void Network::ScheduleTimer(NodeId node, SimTime delay, uint64_t timer_id,
                            bool wake) {
  LHRS_CHECK(node >= 0 && static_cast<size_t>(node) < nodes_.size());
  const uint32_t slot = NewSlot();
  Pending& timer = pending(slot);
  timer.message.to = node;
  timer.timer_id = timer_id;
  Push(now_ + delay, slot, EventType::kTimer, wake);
  Release(slot);
}

void Network::SetAvailable(NodeId id, bool available) {
  LHRS_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  if (telemetry_ != nullptr && nodes_[id].available != available) {
    telemetry_->tracer().Record({now_,
                                 available
                                     ? telemetry::TraceEventType::kRestore
                                     : telemetry::TraceEventType::kCrash,
                                 id, -1, -1, -1, 0});
    tm_.nodes_unavailable->Add(available ? -1 : 1);
  }
  if (nodes_[id].available && !available) ++nodes_[id].epoch;
  nodes_[id].available = available;
}

bool Network::available(NodeId id) const {
  LHRS_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  return nodes_[id].available;
}

void Network::CheckBudget(uint64_t events) const {
  LHRS_CHECK_LT(events, event_budget_)
      << "event budget exhausted — protocol loop?";
}

void Network::RunUntilIdle() {
  uint64_t events = 0;
  while (Step()) CheckBudget(++events);
}

bool Network::Step() {
  if (wake_events_ == 0) return false;
  LHRS_CHECK(!heap_.empty());
  ProcessEvent(PopEvent());
  return true;
}

void Network::RunUntil(const std::function<bool()>& done) {
  uint64_t events = 0;
  while (!done() && Step()) CheckBudget(++events);
}

void Network::RunUntil(SimTime t) {
  uint64_t events = 0;
  while (!heap_.empty() && heap_.front().time <= t) {
    ProcessEvent(PopEvent());
    CheckBudget(++events);
  }
  now_ = std::max(now_, t);
}

void Network::ProcessEvent(const Event& ev) {
  LHRS_CHECK_GE(ev.time, now_);
  now_ = ev.time;
  if (ev.wake) --wake_events_;
  ++processed_events_;

  Message& msg = pending(ev.slot).message;
  switch (ev.type) {
    case EventType::kTimer: {
      if (nodes_[msg.to].available) {
        nodes_[msg.to].node->HandleTimer(pending(ev.slot).timer_id);
      }
      break;
    }
    case EventType::kDeliver: {
      if (static_cast<size_t>(msg.to) < pending_deliver_.size() &&
          pending_deliver_[msg.to] > 0) {
        --pending_deliver_[msg.to];
      }
      if (!nodes_[msg.to].available ||
          nodes_[msg.to].epoch != msg.to_epoch) {
        // Destination is down — or crashed while the message was in
        // flight (the crash lost it even if the node is back): the sender
        // times out. An unavailable sender gets nothing (it crashed too).
        stats_.RecordDeliveryFailure();
        if (telemetry_ != nullptr) tm_.delivery_failures->Add();
        if (msg.from != kInvalidNode && nodes_[msg.from].available) {
          Push(now_ + config_.timeout_us, ev.slot,
               EventType::kDeliveryFailure);
        }
        break;
      }
      stats_.RecordReceive(msg.to, msg.bytes);
      if (telemetry_ != nullptr) {
        tm_.deliveries->Add();
        tm_.delivery_latency_us->Record(now_ - msg.send_time);
        if (telemetry_->trace_messages()) {
          telemetry_->tracer().Record(
              {now_, telemetry::TraceEventType::kDeliver, msg.to, msg.from,
               msg.body->kind(), -1, static_cast<int64_t>(msg.bytes)});
        }
      }
      nodes_[msg.to].node->HandleMessage(msg);
      break;
    }
    case EventType::kDeliveryFailure: {
      if (msg.from != kInvalidNode && nodes_[msg.from].available) {
        if (telemetry_ != nullptr && telemetry_->trace_messages()) {
          telemetry_->tracer().Record(
              {now_, telemetry::TraceEventType::kDeliveryFailure, msg.from,
               msg.to, msg.body->kind(), -1,
               static_cast<int64_t>(msg.bytes)});
        }
        nodes_[msg.from].node->HandleDeliveryFailure(msg);
      }
      break;
    }
  }
  Release(ev.slot);
}

}  // namespace lhrs
