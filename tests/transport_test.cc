// SocketTransport tests over real loopback sockets: basic delivery, the
// TCP bulk path, and — the chaos-hardening contract — that transport-level
// loss and duplication injected by the lossy shim are fully absorbed by
// bounded retransmit and receiver-side sequence dedup, so protocol code
// sees each message exactly once (or a delivery failure).

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lhstar/messages.h"
#include "transport/socket_transport.h"
#include "transport/wire.h"

namespace lhrs::transport {
namespace {

std::unique_ptr<OpRequestMsg> MakeRequest(uint64_t op_id, size_t value_size) {
  auto msg = std::make_unique<OpRequestMsg>();
  msg->op = OpType::kInsert;
  msg->op_id = op_id;
  msg->client = 100;
  msg->key = op_id * 7;
  msg->value = BufferView(Bytes(value_size, uint8_t{0xAB}));
  return msg;
}

/// Two transports in one process, ranks 0 and 1, talking over loopback.
/// Node ids: even -> rank 0, odd -> rank 1.
class TransportPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int rank = 0; rank < 2; ++rank) {
      auto& t = transports_[rank];
      t = std::make_unique<SocketTransport>(options_);
      t->set_my_rank(rank);
      t->SetNodeRank([](NodeId id) { return static_cast<int>(id) % 2; });
      t->SetDeliverFn([this, rank](NodeId from, NodeId to,
                                   std::unique_ptr<MessageBody> body) {
        received_[rank].push_back(
            {from, to, static_cast<const OpRequestMsg&>(*body).op_id});
        return accept_;
      });
      t->SetFailFn([this, rank](NodeId from, NodeId to,
                                std::unique_ptr<MessageBody> body) {
        failed_[rank].push_back(
            {from, to,
             body == nullptr
                 ? uint64_t{0}
                 : static_cast<const OpRequestMsg&>(*body).op_id});
      });
      ASSERT_TRUE(t->Open().ok());
    }
    transports_[0]->SetPeer(1, transports_[1]->local());
    transports_[1]->SetPeer(0, transports_[0]->local());
  }

  /// Pumps both transports until `done` or ~deadline_ms of wall clock.
  bool PumpUntil(const std::function<bool()>& done, int deadline_ms = 5000) {
    const uint64_t deadline =
        SocketTransport::MonotonicMicros() +
        static_cast<uint64_t>(deadline_ms) * 1000;
    while (SocketTransport::MonotonicMicros() < deadline) {
      transports_[0]->Pump(1);
      transports_[1]->Pump(1);
      if (done()) return true;
    }
    return done();
  }

  struct Received {
    NodeId from;
    NodeId to;
    uint64_t op_id;
  };

  SocketTransportOptions options_;
  bool accept_ = true;
  std::unique_ptr<SocketTransport> transports_[2];
  std::vector<Received> received_[2];
  std::vector<Received> failed_[2];
};

TEST_F(TransportPairTest, DeliversSmallMessageOverUdp) {
  transports_[0]->Send(2, 3, MakeRequest(1, 64));
  ASSERT_TRUE(PumpUntil([&] { return received_[1].size() == 1; }));
  EXPECT_EQ(received_[1][0].from, 2);
  EXPECT_EQ(received_[1][0].to, 3);
  EXPECT_EQ(received_[1][0].op_id, 1u);
  EXPECT_GE(transports_[0]->stats().udp_datagrams_sent, 1u);
  // Sender quiesces once the ack arrives.
  ASSERT_TRUE(PumpUntil([&] { return transports_[0]->Quiescent(); }));
}

TEST_F(TransportPairTest, LargeMessageTravelsOverTcp) {
  const size_t bulk = options_.udp_payload_limit + 4096;
  transports_[0]->Send(2, 3, MakeRequest(2, bulk));
  ASSERT_TRUE(PumpUntil([&] { return received_[1].size() == 1; }));
  EXPECT_EQ(received_[1][0].op_id, 2u);
  EXPECT_GE(transports_[0]->stats().tcp_frames_sent, 1u);
  EXPECT_EQ(transports_[0]->stats().udp_datagrams_sent, 0u);
  ASSERT_TRUE(PumpUntil([&] { return transports_[0]->Quiescent(); }));
}

TEST_F(TransportPairTest, LoopbackShortcutDeliversLocally) {
  transports_[0]->Send(2, 4, MakeRequest(3, 16));  // Both ids on rank 0.
  ASSERT_EQ(received_[0].size(), 1u);  // Synchronous, no pump needed.
  EXPECT_EQ(received_[0][0].op_id, 3u);
  EXPECT_EQ(transports_[0]->stats().udp_datagrams_sent, 0u);
}

TEST_F(TransportPairTest, RetransmitRecoversFromDroppedDatagrams) {
  // Drop the first two transmissions of every data frame; the third
  // attempt goes through. Acks pass untouched.
  int drops = 0;
  transports_[0]->SetLossShim([&](bool is_ack, uint64_t) {
    LossAction action;
    if (!is_ack && drops < 2) {
      action.drop = true;
      ++drops;
    }
    return action;
  });
  transports_[0]->Send(2, 3, MakeRequest(4, 64));
  ASSERT_TRUE(PumpUntil([&] { return received_[1].size() == 1; }));
  EXPECT_EQ(received_[1][0].op_id, 4u);
  EXPECT_GE(transports_[0]->stats().retransmits, 2u);
  EXPECT_TRUE(failed_[0].empty());
  ASSERT_TRUE(PumpUntil([&] { return transports_[0]->Quiescent(); }));
}

TEST_F(TransportPairTest, ReceiverDedupSuppressesDuplicatedDatagrams) {
  // Every data frame is sent 3 extra times; the receiver must surface the
  // message exactly once and re-ack the duplicates.
  transports_[0]->SetLossShim([&](bool is_ack, uint64_t) {
    LossAction action;
    if (!is_ack) action.duplicates = 3;
    return action;
  });
  transports_[0]->Send(2, 3, MakeRequest(5, 64));
  ASSERT_TRUE(PumpUntil([&] {
    return transports_[1]->stats().dup_suppressed >= 1;
  }));
  EXPECT_EQ(received_[1].size(), 1u);
  ASSERT_TRUE(PumpUntil([&] { return transports_[0]->Quiescent(); }));
  EXPECT_EQ(received_[1].size(), 1u);
}

TEST_F(TransportPairTest, DroppedAcksCauseResendButSingleDelivery) {
  // The receiver's acks all vanish: the sender retransmits until its
  // attempt budget runs out, the receiver dedups every retransmission —
  // exactly-once delivery to protocol code despite at-least-once wire
  // behavior, then a delivery-failure signal for the lost ack.
  transports_[1]->SetLossShim([&](bool is_ack, uint64_t) {
    LossAction action;
    action.drop = is_ack;
    return action;
  });
  transports_[0]->Send(2, 3, MakeRequest(6, 64));
  ASSERT_TRUE(PumpUntil([&] { return !failed_[0].empty(); }, 15000));
  EXPECT_EQ(received_[1].size(), 1u);  // Delivered once despite resends.
  EXPECT_GE(transports_[1]->stats().dup_suppressed,
            options_.max_attempts - 1);
  EXPECT_EQ(failed_[0][0].op_id, 6u);  // Body handed back on failure.
}

TEST_F(TransportPairTest, ExhaustedRetransmitsFailWithBodyReturned) {
  // Total blackout of data frames: after max_attempts the send must fail
  // and hand the original body back for HandleDeliveryFailure.
  transports_[0]->SetLossShim([&](bool is_ack, uint64_t) {
    LossAction action;
    action.drop = !is_ack;
    return action;
  });
  transports_[0]->Send(2, 3, MakeRequest(7, 64));
  ASSERT_TRUE(PumpUntil([&] { return !failed_[0].empty(); }, 15000));
  EXPECT_EQ(failed_[0][0].op_id, 7u);
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(transports_[0]->stats().send_failures, 1u);
  EXPECT_TRUE(transports_[0]->Quiescent());
}

TEST_F(TransportPairTest, UnroutableDestinationFailsImmediately) {
  transports_[0]->SetNodeRank([](NodeId) { return -1; });
  transports_[0]->Send(2, 99, MakeRequest(8, 16));
  ASSERT_EQ(failed_[0].size(), 1u);
  EXPECT_EQ(failed_[0][0].op_id, 8u);
}

TEST_F(TransportPairTest, RejectedDeliveryIsNotAcked) {
  // The receiver's deliver callback refuses (crashed destination): no ack
  // goes out, the sender retransmits and eventually reports failure.
  accept_ = false;
  transports_[0]->Send(2, 3, MakeRequest(9, 64));
  ASSERT_TRUE(PumpUntil([&] { return !failed_[0].empty(); }, 15000));
  EXPECT_EQ(failed_[0][0].op_id, 9u);
  EXPECT_GE(transports_[0]->stats().retransmits,
            options_.max_attempts - 1);
}

TEST_F(TransportPairTest, ManyMessagesUnderLossAllDeliverExactlyOnce) {
  // Deterministic mixed loss: every 3rd data frame dropped once, every
  // 4th duplicated. 50 messages must each arrive exactly once.
  uint64_t counter = 0;
  transports_[0]->SetLossShim([&](bool is_ack, uint64_t) {
    LossAction action;
    if (is_ack) return action;
    ++counter;
    if (counter % 3 == 0) action.drop = true;
    if (counter % 4 == 0) action.duplicates = 1;
    return action;
  });
  for (uint64_t i = 0; i < 50; ++i) {
    transports_[0]->Send(2, 3, MakeRequest(100 + i, 32));
  }
  ASSERT_TRUE(PumpUntil(
      [&] {
        return received_[1].size() >= 50 && transports_[0]->Quiescent();
      },
      15000));
  EXPECT_EQ(received_[1].size(), 50u);
  std::set<uint64_t> ids;
  for (const auto& r : received_[1]) ids.insert(r.op_id);
  EXPECT_EQ(ids.size(), 50u) << "duplicate delivery leaked to protocol";
  EXPECT_TRUE(failed_[0].empty());
}

}  // namespace
}  // namespace lhrs::transport
