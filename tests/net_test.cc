// Tests for the discrete-event multicomputer simulator.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/message.h"
#include "net/network.h"
#include "net/node.h"
#include "net/stats.h"

namespace lhrs {
namespace {

constexpr int kTestMsgKind = 90;

struct TestMsg : MessageBody {
  int payload = 0;
  size_t size = 16;

  int kind() const override { return kTestMsgKind; }
  size_t ByteSize() const override { return size; }
};

/// Records everything it receives; optionally echoes back.
class EchoNode : public Node {
 public:
  explicit EchoNode(bool echo) : echo_(echo) {}

  void HandleMessage(const Message& msg) override {
    received.push_back(static_cast<const TestMsg&>(*msg.body).payload);
    receive_times.push_back(network()->now());
    if (echo_) {
      auto reply = std::make_unique<TestMsg>();
      reply->payload = -received.back();
      Send(msg.from, std::move(reply));
    }
  }

  void HandleDeliveryFailure(const Message& msg) override {
    failures.push_back(static_cast<const TestMsg&>(*msg.body).payload);
    failure_times.push_back(network()->now());
  }

  std::vector<int> received;
  std::vector<SimTime> receive_times;
  std::vector<int> failures;
  std::vector<SimTime> failure_times;

 private:
  bool echo_;
};

/// Returns every message to its sender with the payload counted down and
/// stops at zero: a ping-pong of payload + 1 deliveries.
class CountdownNode : public Node {
 public:
  void HandleMessage(const Message& msg) override {
    const int left = static_cast<const TestMsg&>(*msg.body).payload;
    if (left == 0) return;
    auto reply = std::make_unique<TestMsg>();
    reply->payload = left - 1;
    Send(msg.from, std::move(reply));
  }
};

TEST(NetworkTest, DeliversInSendOrder) {
  Network net;
  auto* a = new EchoNode(false);
  auto* b = new EchoNode(false);
  const NodeId ida = net.AddNode(std::unique_ptr<Node>(a));
  const NodeId idb = net.AddNode(std::unique_ptr<Node>(b));
  for (int i = 0; i < 5; ++i) {
    auto msg = std::make_unique<TestMsg>();
    msg->payload = i;
    net.Send(ida, idb, std::move(msg));
  }
  net.RunUntilIdle();
  EXPECT_EQ(b->received, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(net.stats().total_messages(), 5u);
}

TEST(NetworkTest, EchoRoundTripAdvancesClock) {
  Network net;
  auto* a = new EchoNode(false);
  auto* b = new EchoNode(true);
  const NodeId ida = net.AddNode(std::unique_ptr<Node>(a));
  const NodeId idb = net.AddNode(std::unique_ptr<Node>(b));
  auto msg = std::make_unique<TestMsg>();
  msg->payload = 42;
  net.Send(ida, idb, std::move(msg));
  net.RunUntilIdle();
  ASSERT_EQ(a->received.size(), 1u);
  EXPECT_EQ(a->received[0], -42);
  // Two hops, each 100us base latency plus one 80us KB quantum (the 16-byte
  // payload rounds up to one KiB of serialisation cost).
  EXPECT_EQ(net.now(), 360u);
}

TEST(NetworkTest, LargeMessagesTakeLonger) {
  NetworkConfig cfg;
  cfg.unicast_latency_us = 100;
  cfg.per_kb_us = 80;
  Network net(cfg);
  auto* a = new EchoNode(false);
  auto* b = new EchoNode(false);
  const NodeId ida = net.AddNode(std::unique_ptr<Node>(a));
  const NodeId idb = net.AddNode(std::unique_ptr<Node>(b));
  auto big = std::make_unique<TestMsg>();
  big->payload = 1;
  big->size = 8192;  // 8 KiB -> 8 * 80 extra us.
  net.Send(ida, idb, std::move(big));
  net.RunUntilIdle();
  EXPECT_EQ(b->receive_times[0], 100u + 8 * 80u);
}

TEST(NetworkTest, UnavailableDestinationBouncesAfterTimeout) {
  NetworkConfig cfg;
  cfg.timeout_us = 2000;
  Network net(cfg);
  auto* a = new EchoNode(false);
  auto* b = new EchoNode(false);
  const NodeId ida = net.AddNode(std::unique_ptr<Node>(a));
  const NodeId idb = net.AddNode(std::unique_ptr<Node>(b));
  net.SetAvailable(idb, false);
  auto msg = std::make_unique<TestMsg>();
  msg->payload = 7;
  net.Send(ida, idb, std::move(msg));
  net.RunUntilIdle();
  EXPECT_TRUE(b->received.empty());
  ASSERT_EQ(a->failures.size(), 1u);
  EXPECT_EQ(a->failures[0], 7);
  // Delivery time (100us base + one KB quantum) plus the detection timeout.
  EXPECT_EQ(a->failure_times[0], 180u + 2000u);
  EXPECT_EQ(net.stats().delivery_failures(), 1u);
}

TEST(NetworkTest, RestoredNodeReceivesAgain) {
  Network net;
  auto* a = new EchoNode(false);
  auto* b = new EchoNode(false);
  const NodeId ida = net.AddNode(std::unique_ptr<Node>(a));
  const NodeId idb = net.AddNode(std::unique_ptr<Node>(b));
  net.SetAvailable(idb, false);
  auto m1 = std::make_unique<TestMsg>();
  m1->payload = 1;
  net.Send(ida, idb, std::move(m1));
  net.RunUntilIdle();
  net.SetAvailable(idb, true);
  auto m2 = std::make_unique<TestMsg>();
  m2->payload = 2;
  net.Send(ida, idb, std::move(m2));
  net.RunUntilIdle();
  EXPECT_EQ(b->received, std::vector<int>{2});
}

TEST(NetworkTest, MulticastCountsAsOneMessage) {
  NetworkConfig cfg;
  cfg.multicast_available = true;
  Network net(cfg);
  auto* src = new EchoNode(false);
  const NodeId id_src = net.AddNode(std::unique_ptr<Node>(src));
  std::vector<EchoNode*> sinks;
  std::vector<std::pair<NodeId, std::unique_ptr<MessageBody>>> batch;
  for (int i = 0; i < 8; ++i) {
    auto* sink = new EchoNode(false);
    const NodeId id = net.AddNode(std::unique_ptr<Node>(sink));
    sinks.push_back(sink);
    auto msg = std::make_unique<TestMsg>();
    msg->payload = i;
    batch.emplace_back(id, std::move(msg));
  }
  net.Multicast(id_src, std::move(batch));
  net.RunUntilIdle();
  EXPECT_EQ(net.stats().total_messages(), 1u);   // Paper-style accounting.
  EXPECT_EQ(net.stats().deliveries(), 8u);       // Physical deliveries.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(sinks[i]->received.size(), 1u);
    EXPECT_EQ(sinks[i]->received[0], i);
  }
}

TEST(NetworkTest, WithoutMulticastServiceEachCopyCounts) {
  NetworkConfig cfg;
  cfg.multicast_available = false;
  Network net(cfg);
  auto* src = new EchoNode(false);
  const NodeId id_src = net.AddNode(std::unique_ptr<Node>(src));
  std::vector<std::pair<NodeId, std::unique_ptr<MessageBody>>> batch;
  for (int i = 0; i < 4; ++i) {
    const NodeId id = net.AddNode(std::make_unique<EchoNode>(false));
    auto msg = std::make_unique<TestMsg>();
    batch.emplace_back(id, std::move(msg));
  }
  net.Multicast(id_src, std::move(batch));
  net.RunUntilIdle();
  EXPECT_EQ(net.stats().total_messages(), 4u);
}

TEST(NetworkTest, StatsPerKindAndRange) {
  RegisterMessageKindName(kTestMsgKind, "test.Msg");
  Network net;
  const NodeId a = net.AddNode(std::make_unique<EchoNode>(false));
  const NodeId b = net.AddNode(std::make_unique<EchoNode>(false));
  for (int i = 0; i < 3; ++i) {
    net.Send(a, b, std::make_unique<TestMsg>());
  }
  net.RunUntilIdle();
  EXPECT_EQ(net.stats().ForKind(kTestMsgKind).messages, 3u);
  EXPECT_EQ(net.stats().ForKind(kTestMsgKind).bytes, 48u);
  EXPECT_EQ(net.stats().ForKindRange(0, 100).messages, 3u);
  EXPECT_EQ(net.stats().ForKindRange(100, 200).messages, 0u);
  EXPECT_NE(net.stats().ToString().find("test.Msg"), std::string::npos);
}

TEST(NetworkTest, InFlightMessageLostByCrash) {
  // Regression: a message already queued towards a node that crashes
  // before its delivery time is lost by the crash — even when the node is
  // restored before the delivery event comes up. Previously only the
  // availability flag at delivery time was consulted, so a fast restore
  // would resurrect in-flight messages.
  Network net;
  auto* a = new EchoNode(false);
  auto* b = new EchoNode(false);
  const NodeId ida = net.AddNode(std::unique_ptr<Node>(a));
  const NodeId idb = net.AddNode(std::unique_ptr<Node>(b));
  auto msg = std::make_unique<TestMsg>();
  msg->payload = 11;
  net.Send(ida, idb, std::move(msg));  // Delivery due at t=180.
  net.SetAvailable(idb, false);        // Crash at t=0: the message dies.
  net.SetAvailable(idb, true);         // Restored long before t=180.
  net.RunUntilIdle();
  EXPECT_TRUE(b->received.empty());
  ASSERT_EQ(a->failures.size(), 1u);
  EXPECT_EQ(a->failures[0], 11);
  // A fresh message to the restored node flows normally again.
  auto msg2 = std::make_unique<TestMsg>();
  msg2->payload = 12;
  net.Send(ida, idb, std::move(msg2));
  net.RunUntilIdle();
  EXPECT_EQ(b->received, std::vector<int>{12});
}

class TimerNode : public Node {
 public:
  void HandleMessage(const Message& msg) override { (void)msg; }
  void HandleTimer(uint64_t timer_id) override {
    fired.push_back(timer_id);
    fire_times.push_back(network()->now());
  }
  std::vector<uint64_t> fired;
  std::vector<SimTime> fire_times;
};

TEST(NetworkTest, TimersFireInOrderAtTheirDeadlines) {
  Network net;
  auto* t = new TimerNode();
  const NodeId id = net.AddNode(std::unique_ptr<Node>(t));
  net.ScheduleTimer(id, 500, 2);
  net.ScheduleTimer(id, 100, 1);
  net.RunUntilIdle();
  EXPECT_EQ(t->fired, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(t->fire_times, (std::vector<SimTime>{100, 500}));
  EXPECT_EQ(net.now(), 500u);
}

TEST(NetworkTest, TimerToUnavailableNodeIsDropped) {
  Network net;
  auto* t = new TimerNode();
  const NodeId id = net.AddNode(std::unique_ptr<Node>(t));
  const NodeId other = net.AddNode(std::make_unique<TimerNode>());
  net.ScheduleTimer(id, 100, 1);
  net.ScheduleTimer(other, 200, 9);  // Keeps the loop running past 100.
  net.SetAvailable(id, false);
  net.RunUntilIdle();
  EXPECT_TRUE(t->fired.empty());
}

TEST(NetworkTest, NonWakeTimerNeedsRunUntil) {
  // A wake=false timer must not keep RunUntilIdle alive (the chaos engine
  // schedules its fault script that way), but RunUntil plays it out.
  Network net;
  auto* t = new TimerNode();
  const NodeId id = net.AddNode(std::unique_ptr<Node>(t));
  net.ScheduleTimer(id, 1000, 7, /*wake=*/false);
  net.RunUntilIdle();
  EXPECT_TRUE(t->fired.empty());
  EXPECT_EQ(net.now(), 0u);  // Idle file: time did not fast-forward.
  net.RunUntil(2000);
  EXPECT_EQ(t->fired, std::vector<uint64_t>{7});
  EXPECT_EQ(net.now(), 2000u);
}

/// Scripted per-call injector for hook-level tests.
class ListInjector : public FaultInjector {
 public:
  FaultActions OnMessage(const Message& msg, SimTime now) override {
    (void)msg;
    (void)now;
    if (next_ >= script.size()) return {};
    return script[next_++];
  }
  std::vector<FaultActions> script;

 private:
  size_t next_ = 0;
};

TEST(NetworkTest, InjectedDropBouncesToSender) {
  Network net;
  auto* a = new EchoNode(false);
  auto* b = new EchoNode(false);
  const NodeId ida = net.AddNode(std::unique_ptr<Node>(a));
  const NodeId idb = net.AddNode(std::unique_ptr<Node>(b));
  ListInjector injector;
  injector.script.push_back({.drop = true});
  net.SetFaultInjector(&injector);
  EXPECT_TRUE(net.fault_injection_active());
  auto msg = std::make_unique<TestMsg>();
  msg->payload = 3;
  net.Send(ida, idb, std::move(msg));
  net.RunUntilIdle();
  EXPECT_TRUE(b->received.empty());
  ASSERT_EQ(a->failures.size(), 1u);
  EXPECT_EQ(a->failures[0], 3);
  // Indistinguishable from a crashed destination: same bounce timing.
  EXPECT_EQ(a->failure_times[0], 180u + 2000u);
  net.SetFaultInjector(nullptr);
  EXPECT_FALSE(net.fault_injection_active());
}

TEST(NetworkTest, InjectedDuplicateDeliversTwiceWithSameId) {
  class IdRecorder : public Node {
   public:
    void HandleMessage(const Message& msg) override {
      ids.push_back(msg.id);
    }
    std::vector<uint64_t> ids;
  };
  Network net;
  auto* a = new EchoNode(false);
  auto* b = new IdRecorder();
  const NodeId ida = net.AddNode(std::unique_ptr<Node>(a));
  const NodeId idb = net.AddNode(std::unique_ptr<Node>(b));
  ListInjector injector;
  injector.script.push_back({.duplicates = 1});
  net.SetFaultInjector(&injector);
  net.Send(ida, idb, std::make_unique<TestMsg>());
  net.RunUntilIdle();
  ASSERT_EQ(b->ids.size(), 2u);
  EXPECT_EQ(b->ids[0], b->ids[1]);  // Receiver-side dedup keys off the id.
  net.SetFaultInjector(nullptr);
}

TEST(NetworkTest, InjectedDelayAndSlowdownStackOnLatency) {
  Network net;
  auto* a = new EchoNode(false);
  auto* b = new EchoNode(false);
  const NodeId ida = net.AddNode(std::unique_ptr<Node>(a));
  const NodeId idb = net.AddNode(std::unique_ptr<Node>(b));
  ListInjector injector;
  injector.script.push_back({.extra_delay_us = 1000, .latency_factor = 2.0});
  net.SetFaultInjector(&injector);
  net.Send(ida, idb, std::make_unique<TestMsg>());
  net.RunUntilIdle();
  // Base 180us doubled, plus 1000us extra delay.
  ASSERT_EQ(b->receive_times.size(), 1u);
  EXPECT_EQ(b->receive_times[0], 2 * 180u + 1000u);
  net.SetFaultInjector(nullptr);
}

TEST(NetworkTest, StepProcessesExactlyOneEvent) {
  Network net;
  auto* a = new EchoNode(false);
  auto* b = new EchoNode(false);
  const NodeId ida = net.AddNode(std::unique_ptr<Node>(a));
  const NodeId idb = net.AddNode(std::unique_ptr<Node>(b));
  for (int i = 0; i < 3; ++i) {
    auto msg = std::make_unique<TestMsg>();
    msg->payload = i;
    net.Send(ida, idb, std::move(msg));
  }
  for (size_t expect = 1; expect <= 3; ++expect) {
    EXPECT_TRUE(net.Step());
    EXPECT_EQ(b->received.size(), expect);
  }
  EXPECT_FALSE(net.Step());  // Idle: nothing left to process.
  EXPECT_EQ(b->received, (std::vector<int>{0, 1, 2}));
}

TEST(NetworkTest, StepSequenceMatchesRunUntilIdle) {
  // N x Step() must pop the identical event sequence RunUntilIdle does —
  // the property that makes open-loop runs trace-identical to closed-loop
  // ones. Drive two identical topologies, one per mode, and compare.
  auto drive = [](bool stepped, std::vector<int>& received,
                  std::vector<SimTime>& times, SimTime& end) {
    Network net;
    auto* a = new EchoNode(false);
    auto* b = new EchoNode(true);
    const NodeId ida = net.AddNode(std::unique_ptr<Node>(a));
    const NodeId idb = net.AddNode(std::unique_ptr<Node>(b));
    for (int i = 1; i <= 4; ++i) {
      auto msg = std::make_unique<TestMsg>();
      msg->payload = i;
      msg->size = static_cast<size_t>(512 * i);
      net.Send(ida, idb, std::move(msg));
    }
    if (stepped) {
      while (net.Step()) {
      }
    } else {
      net.RunUntilIdle();
    }
    received = b->received;
    received.insert(received.end(), a->received.begin(), a->received.end());
    times = b->receive_times;
    times.insert(times.end(), a->receive_times.begin(),
                 a->receive_times.end());
    end = net.now();
  };
  std::vector<int> run_received, step_received;
  std::vector<SimTime> run_times, step_times;
  SimTime run_end = 0, step_end = 0;
  drive(false, run_received, run_times, run_end);
  drive(true, step_received, step_times, step_end);
  EXPECT_EQ(step_received, run_received);
  EXPECT_EQ(step_times, run_times);
  EXPECT_EQ(step_end, run_end);
}

TEST(NetworkTest, RunUntilPredicateStopsMidDrain) {
  Network net;
  auto* a = new EchoNode(false);
  auto* b = new EchoNode(false);
  const NodeId ida = net.AddNode(std::unique_ptr<Node>(a));
  const NodeId idb = net.AddNode(std::unique_ptr<Node>(b));
  for (int i = 0; i < 5; ++i) {
    auto msg = std::make_unique<TestMsg>();
    msg->payload = i;
    net.Send(ida, idb, std::move(msg));
  }
  net.RunUntil([&] { return b->received.size() >= 2; });
  EXPECT_EQ(b->received.size(), 2u);  // Stopped exactly at the predicate.
  net.RunUntilIdle();                 // The rest is still deliverable.
  EXPECT_EQ(b->received.size(), 5u);
}

TEST(NetworkTest, NonWakeTimerSurvivesStepBoundaries) {
  // A wake=false timer (the chaos engine's fault script) must neither be
  // popped by Step() on an otherwise idle file nor be lost by stepping —
  // the same contract NonWakeTimerNeedsRunUntil pins for RunUntilIdle.
  Network net;
  auto* t = new TimerNode();
  auto* a = new EchoNode(false);
  const NodeId idt = net.AddNode(std::unique_ptr<Node>(t));
  const NodeId ida = net.AddNode(std::unique_ptr<Node>(a));
  net.ScheduleTimer(idt, 1000, 7, /*wake=*/false);
  net.Send(idt, ida, std::make_unique<TestMsg>());
  EXPECT_TRUE(net.Step());   // Delivers the message (t=180).
  EXPECT_FALSE(net.Step());  // The non-wake timer alone does not wake.
  EXPECT_TRUE(t->fired.empty());
  net.RunUntil(2000);  // Fast-forward plays the timer out.
  EXPECT_EQ(t->fired, std::vector<uint64_t>{7});
  EXPECT_EQ(net.now(), 2000u);
}

TEST(NetworkTest, CrashEpochBetweenStepsBouncesInFlightMessage) {
  // A crash/restore epoch bump between two Step() calls must kill the
  // messages then in flight, exactly as it does inside a RunUntilIdle
  // drain — open-loop drivers crash nodes between steps all the time.
  Network net;
  auto* a = new EchoNode(false);
  auto* b = new EchoNode(false);
  const NodeId ida = net.AddNode(std::unique_ptr<Node>(a));
  const NodeId idb = net.AddNode(std::unique_ptr<Node>(b));
  auto m1 = std::make_unique<TestMsg>();
  m1->payload = 21;
  net.Send(ida, idb, std::move(m1));  // Delivery due at t=180.
  net.SetAvailable(idb, false);       // Crash between steps...
  net.SetAvailable(idb, true);        // ...and bounce back immediately.
  while (net.Step()) {
  }
  EXPECT_TRUE(b->received.empty());
  ASSERT_EQ(a->failures.size(), 1u);
  EXPECT_EQ(a->failures[0], 21);
  EXPECT_EQ(a->failure_times[0], 180u + 2000u);
  // The restored node is reachable again in subsequent steps.
  auto m2 = std::make_unique<TestMsg>();
  m2->payload = 22;
  net.Send(ida, idb, std::move(m2));
  while (net.Step()) {
  }
  EXPECT_EQ(b->received, std::vector<int>{22});
}

TEST(NetworkTest, NodesAddedDuringRunReceiveMessages) {
  // Models split-time server allocation: a node created by a handler can
  // be messaged immediately.
  class SpawnerNode : public Node {
   public:
    void HandleMessage(const Message& msg) override {
      auto* child = new EchoNode(false);
      child_id = network()->AddNode(std::unique_ptr<Node>(child));
      child_ptr = child;
      auto fwd = std::make_unique<TestMsg>();
      fwd->payload = static_cast<const TestMsg&>(*msg.body).payload;
      Send(child_id, std::move(fwd));
    }
    NodeId child_id = kInvalidNode;
    EchoNode* child_ptr = nullptr;
  };
  Network net;
  auto* spawner = new SpawnerNode();
  const NodeId a = net.AddNode(std::make_unique<EchoNode>(false));
  const NodeId s = net.AddNode(std::unique_ptr<Node>(spawner));
  auto msg = std::make_unique<TestMsg>();
  msg->payload = 5;
  net.Send(a, s, std::move(msg));
  net.RunUntilIdle();
  ASSERT_NE(spawner->child_ptr, nullptr);
  EXPECT_EQ(spawner->child_ptr->received, std::vector<int>{5});
}

// The event budget caps one RunUntilIdle / RunUntil call, not the
// network's lifetime: a long-lived network keeps running past it.
TEST(NetworkTest, EventBudgetCountsEachCallAfresh) {
  Network net;
  net.SetEventBudgetForTest(1000);
  const NodeId a = net.AddNode(std::make_unique<CountdownNode>());
  const NodeId b = net.AddNode(std::make_unique<CountdownNode>());
  const auto serve = [&](int deliveries) {
    auto msg = std::make_unique<TestMsg>();
    msg->payload = deliveries - 1;
    net.Send(a, b, std::move(msg));
  };
  for (int call = 0; call < 3; ++call) {
    serve(600);
    net.RunUntilIdle();
  }
  serve(600);
  net.RunUntil(net.now() + 1'000'000);
  serve(600);
  net.RunUntil([] { return false; });
  EXPECT_EQ(net.processed_events(), 3000u);
}

TEST(NetworkDeathTest, EventBudgetStopsARunawayPingPong) {
  EXPECT_DEATH(
      {
        Network net;
        net.SetEventBudgetForTest(1000);
        const NodeId a = net.AddNode(std::make_unique<EchoNode>(true));
        const NodeId b = net.AddNode(std::make_unique<EchoNode>(true));
        auto msg = std::make_unique<TestMsg>();
        msg->payload = 1;
        net.Send(a, b, std::move(msg));
        net.RunUntilIdle();  // Echoes forever.
      },
      "event budget exhausted");
}

}  // namespace
}  // namespace lhrs
