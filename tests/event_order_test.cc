// Golden event order of the discrete-event simulator.
//
// One seeded chaos scenario — drop, duplicate, delay and slow-node rules, a
// crash-epoch bounce, Inject, NotifyDeliveryFailure and non-wake timers —
// is recorded callback by callback as (now, message id, kind, from, to,
// deliver/bounce/timer), together with every MessageStats view. The
// expected text pins the (time, seq) event order and the traffic counters:
// any change to how the network queues, stores or counts messages that
// alters either one fails here.

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "chaos/fault_plan.h"
#include "net/message.h"
#include "net/network.h"
#include "net/node.h"
#include "net/stats.h"
#include "telemetry/metrics.h"

namespace lhrs {
namespace {

constexpr int kHopKind = 91;
constexpr int kNoteKind = 92;

/// A request that is passed on `hops` more times before it stops.
struct HopMsg : MessageBody {
  int hops = 0;
  size_t size = 32;

  int kind() const override { return kHopKind; }
  size_t ByteSize() const override { return size; }
};

/// A one-way message nobody answers.
struct NoteMsg : MessageBody {
  size_t size = 8;

  int kind() const override { return kNoteKind; }
  size_t ByteSize() const override { return size; }
};

/// Logs every callback into a shared trace. A HopMsg with hops left goes
/// on to the next protocol node; a bounce is retried once towards the
/// node after the dead one; timers with an odd id send a note.
class TraceNode : public Node {
 public:
  TraceNode(std::ostringstream* log, int ring) : log_(log), ring_(ring) {}

  void HandleMessage(const Message& msg) override {
    Line(msg, "deliver");
    if (msg.body->kind() != kHopKind) return;
    const auto& hop = static_cast<const HopMsg&>(*msg.body);
    if (hop.hops <= 0) return;
    auto next = std::make_unique<HopMsg>();
    next->hops = hop.hops - 1;
    next->size = hop.size;
    Send((id() + 1) % ring_, std::move(next));
  }

  void HandleDeliveryFailure(const Message& msg) override {
    Line(msg, "bounce");
    if (msg.body->kind() != kHopKind) return;
    const auto& hop = static_cast<const HopMsg&>(*msg.body);
    if (hop.hops < 0) return;  // Already a retry.
    auto retry = std::make_unique<HopMsg>();
    retry->hops = -1;
    retry->size = hop.size;
    Send((msg.to + 1) % ring_, std::move(retry));
  }

  void HandleTimer(uint64_t timer_id) override {
    *log_ << network()->now() << " timer node=" << id() << " id=" << timer_id
          << "\n";
    if (timer_id % 2 == 1) {
      auto note = std::make_unique<NoteMsg>();
      note->size = 1500;
      Send((id() + 2) % ring_, std::move(note));
    }
  }

 private:
  void Line(const Message& msg, const char* what) {
    *log_ << network()->now() << " id=" << msg.id
          << " kind=" << msg.body->kind() << " " << msg.from << "->"
          << msg.to << " " << what << "\n";
  }

  std::ostringstream* log_;
  int ring_;
};

std::unique_ptr<HopMsg> Hop(int hops, size_t size) {
  auto msg = std::make_unique<HopMsg>();
  msg->hops = hops;
  msg->size = size;
  return msg;
}

std::string Counts(const MessageStats::Counter& c) {
  return std::to_string(c.messages) + "/" + std::to_string(c.bytes);
}

/// Runs the scenario and returns the trace followed by the stats views.
std::string RunScenario() {
  RegisterMessageKindName(kHopKind, "Hop");
  RegisterMessageKindName(kNoteKind, "Note");
  constexpr int kRing = 4;
  std::ostringstream log;
  Network net;
  for (int i = 0; i < kRing; ++i) {
    net.AddNode(std::make_unique<TraceNode>(&log, kRing));
  }

  chaos::FaultPlan plan;
  plan.seed = 7;
  plan.DropMessages(0.1)
      .DuplicateMessages(0.15)
      .DelayMessages(0.2, 50, 300)
      .SlowNode(2, 3.0)
      .CrashAt(1500, 3)
      .RestoreAt(2600, 3);
  chaos::ChaosEngine engine(&net, plan);  // Controller is node kRing.

  net.ScheduleTimer(0, 1000, 7, /*wake=*/false);
  net.ScheduleTimer(1, 9'000'000, 3, /*wake=*/false);  // Past the idle time.
  net.ScheduleTimer(2, 700, 9);
  for (int i = 0; i < 6; ++i) {
    net.Send(i % kRing, (i + 1) % kRing, Hop(3, 64 + 700 * i));
  }
  net.Inject(1, 0, Hop(2, 48));
  net.NotifyDeliveryFailure(0, 3, Hop(1, 16));
  net.RunUntilIdle();
  log << "-- idle at " << net.now() << "\n";

  net.RunUntil(engine.Horizon());
  net.RunUntil(net.now() + 200);
  log << "-- at " << net.now() << "\n";

  // A large message still in flight across a crash of node 3: it arrives
  // after the restore, but the crash epoch has moved on, so it bounces.
  net.Send(0, 3, Hop(0, 20'000));
  net.Send(1, 2, Hop(4, 900));
  net.RunUntil(net.now() + 100);
  net.SetAvailable(3, false);
  net.SetAvailable(3, true);
  net.RunUntilIdle();
  log << "-- idle at " << net.now() << "\n";
  net.RunUntil(10'000'000);
  log << "-- end at " << net.now() << " events " << net.processed_events()
      << "\n";

  const MessageStats& stats = net.stats();
  log << "total " << Counts(stats.total()) << " deliveries "
      << stats.deliveries() << " failures " << stats.delivery_failures()
      << "\n";
  for (int kind : {0, kHopKind, kNoteKind, 93, 150}) {
    log << "kind " << kind << " " << Counts(stats.ForKind(kind)) << "\n";
  }
  log << "range [0,100) " << Counts(stats.ForKindRange(0, 100))
      << " [92,93) " << Counts(stats.ForKindRange(92, 93)) << " [100,600) "
      << Counts(stats.ForKindRange(100, 600)) << "\n";
  for (NodeId node = -1; node <= kRing + 2; ++node) {
    log << "node " << node << " sent " << Counts(stats.SentBy(node))
        << " received " << Counts(stats.ReceivedBy(node)) << "\n";
  }
  log << stats.ToString();
  telemetry::MetricsRegistry registry;
  stats.ExportTo(&registry);
  log << registry.ToJson() << "\n";
  return log.str();
}

constexpr const char* kGolden = R"(0 id=7 kind=91 1->0 deliver
0 id=8 kind=91 0->3 bounce
180 id=1 kind=91 0->1 deliver
180 id=10 kind=91 0->0 deliver
340 id=4 kind=91 3->0 deliver
340 id=5 kind=91 0->1 deliver
456 id=9 kind=91 0->1 deliver
540 id=2 kind=91 1->2 deliver
680 id=12 kind=91 0->1 deliver
700 timer node=2 id=9
831 id=3 kind=91 2->3 deliver
996 id=14 kind=91 1->2 deliver
1000 timer node=0 id=7
1080 id=15 kind=91 2->3 deliver
1260 id=18 kind=91 3->0 deliver
1260 id=20 kind=91 3->0 deliver
1360 id=13 kind=91 1->2 deliver
1366 id=6 kind=91 1->2 deliver
1366 id=6 kind=91 1->2 deliver
1440 id=22 kind=91 0->1 deliver
1440 id=22 kind=91 0->1 deliver
1480 id=17 kind=92 2->0 deliver
1520 id=21 kind=91 0->1 deliver
1700 id=16 kind=91 1->2 deliver
1929 id=19 kind=92 0->2 deliver
2360 id=11 kind=91 1->2 bounce
2720 id=27 kind=91 2->3 deliver
3780 id=26 kind=91 1->2 bounce
3786 id=25 kind=91 2->3 bounce
4154 id=29 kind=91 1->3 deliver
4380 id=23 kind=91 2->3 bounce
4540 id=28 kind=91 1->3 bounce
4540 id=28 kind=91 1->3 bounce
4626 id=24 kind=91 2->3 bounce
5046 id=30 kind=91 2->0 deliver
5400 id=31 kind=91 2->0 deliver
6210 id=32 kind=91 2->0 deliver
-- idle at 6210
-- at 6410
7153 id=34 kind=91 1->2 deliver
7153 id=34 kind=91 1->2 deliver
7693 id=35 kind=91 2->3 deliver
7693 id=36 kind=91 2->3 deliver
7693 id=36 kind=91 2->3 deliver
7873 id=38 kind=91 3->0 deliver
8119 id=37 kind=91 3->0 deliver
8170 id=40 kind=91 0->1 deliver
8299 id=41 kind=91 0->1 deliver
8710 id=42 kind=91 1->2 deliver
8839 id=43 kind=91 1->2 deliver
9873 id=39 kind=91 3->0 bounce
10053 id=44 kind=91 3->1 deliver
10110 id=33 kind=91 0->3 bounce
11810 id=45 kind=91 0->0 deliver
-- idle at 11810
9000000 timer node=1 id=3
9000260 id=46 kind=92 1->3 deliver
-- end at 10000000 events 61
total 44/103012 deliveries 44 failures 10
kind 0 0/0
kind 91 41/98512
kind 92 3/4500
kind 93 0/0
kind 150 0/0
range [0,100) 44/103012 [92,93) 3/4500 [100,600) 0/0
node -1 sent 0/0 received 0/0
node 0 sent 12/50684 received 12/37748
node 1 sent 13/16660 received 10/10832
node 2 sent 12/27676 received 11/18068
node 3 sent 7/7992 received 8/10056
node 4 sent 0/0 received 0/0
node 5 sent 0/0 received 0/0
node 6 sent 0/0 received 0/0
messages=44 bytes=103012 deliveries=44 failures=10
  Hop: 41 msgs, 98512 B
  Note: 3 msgs, 4500 B
{"counters":{"net.node_received.bytes{node=0}":37748,"net.node_received.bytes{node=1}":10832,"net.node_received.bytes{node=2}":18068,"net.node_received.bytes{node=3}":10056,"net.node_received.messages{node=0}":12,"net.node_received.messages{node=1}":10,"net.node_received.messages{node=2}":11,"net.node_received.messages{node=3}":8,"net.node_sent.bytes{node=0}":50684,"net.node_sent.bytes{node=1}":16660,"net.node_sent.bytes{node=2}":27676,"net.node_sent.bytes{node=3}":7992,"net.node_sent.messages{node=0}":12,"net.node_sent.messages{node=1}":13,"net.node_sent.messages{node=2}":12,"net.node_sent.messages{node=3}":7,"net.sent.bytes{kind=Hop}":98512,"net.sent.bytes{kind=Note}":4500,"net.sent.messages{kind=Hop}":41,"net.sent.messages{kind=Note}":3},"gauges":{},"histograms":{}}
)";

TEST(EventOrderTest, SeededChaosScenarioMatchesGolden) {
  const std::string trace = RunScenario();
  EXPECT_EQ(trace, kGolden) << trace;
}

TEST(EventOrderTest, ScenarioCoversEveryPath) {
  const std::string trace = RunScenario();
  EXPECT_NE(trace.find(" deliver\n"), std::string::npos);
  EXPECT_NE(trace.find(" bounce\n"), std::string::npos);
  EXPECT_NE(trace.find(" timer node=0 id=7"), std::string::npos);
  EXPECT_NE(trace.find(" timer node=1 id=3"), std::string::npos);
  // The crash-epoch bounce: the 20 KB message to node 3 comes back.
  EXPECT_NE(trace.find("0->3 bounce\n"), std::string::npos);
}

}  // namespace
}  // namespace lhrs
