// Traffic that reaches a bucket before it holds its records: a split
// target before its record move, a recovery spare before its install.
// Such a bucket must not answer yet. It holds the messages and serves them,
// in arrival order, once its records arrive. A spare that is stood down
// instead answers what it held as a displaced bucket. The last test runs
// the stand-down end to end: a bucket group that loses more columns than
// its k while a spare is being rebuilt must fail the scans and batches
// aimed at the spare, not keep them forever.

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/lhg/lhg_messages.h"
#include "baselines/lhg/lhg_parity_bucket.h"
#include "lh/lh_math.h"
#include "lhrs/lhrs_file.h"
#include "lhrs/messages.h"
#include "lhrs/parity_bucket.h"
#include "lhstar/data_bucket.h"
#include "lhstar/messages.h"
#include "net/network.h"
#include "workload/bulk_load.h"

namespace lhrs {
namespace {

/// Stands in for the clients and the coordinator: logs the kind of every
/// message it receives, in delivery order, and keeps a copy of each one of
/// the kinds `Ms`.
template <class... Ms>
class Recorder : public Node {
 public:
  void HandleMessage(const Message& msg) override {
    kinds.push_back(msg.body->kind());
    (Keep<Ms>(*msg.body), ...);
  }

  template <class M>
  const std::vector<M>& Of() const {
    return std::get<std::vector<M>>(kept_);
  }

  std::vector<int> kinds;

 private:
  template <class M>
  void Keep(const MessageBody& body) {
    if (body.kind() == M::kKind) {
      std::get<std::vector<M>>(kept_).push_back(static_cast<const M&>(body));
    }
  }

  std::tuple<std::vector<Ms>...> kept_;
};

using Probe =
    Recorder<OpReplyMsg, ScanReplyMsg, InsertBatchReplyMsg,
             ClientOpViaCoordinatorMsg, InstallDoneMsg, ColumnReadReplyMsg,
             lhg::InstallAckMsg>;

/// A key that bucket `bucket` holds at `level` in a file of one initial
/// bucket.
Key KeyIn(BucketNo bucket, Level level, Key from = 1) {
  Key key = from;
  while (HashL(key, level, 1) != bucket) ++key;
  return key;
}

/// One bucket under test plus the probe, on a fault-free network.
class HeldTrafficTest : public ::testing::Test {
 protected:
  HeldTrafficTest() {
    probe_ = net_.AddNode(std::make_unique<Probe>());
    ctx_->coordinator = probe_;
    ctx_->allocation.Set(0, probe_);
  }

  Probe& probe() { return *net_.node_as<Probe>(probe_); }

  void Inject(NodeId to, std::unique_ptr<MessageBody> body) {
    net_.Inject(probe_, to, std::move(body));
    net_.RunUntilIdle();
  }

  /// A split target for bucket 1 at level 1, waiting for its records.
  NodeId AddSplitTarget() {
    const NodeId id = net_.AddNode(std::make_unique<DataBucketNode>(
        ctx_, 1, 1, /*pre_initialized=*/false));
    ctx_->allocation.Set(1, id);
    return id;
  }

  std::unique_ptr<OpRequestMsg> Search(uint64_t op_id, Key key) {
    auto op = std::make_unique<OpRequestMsg>();
    op->op = OpType::kSearch;
    op->op_id = op_id;
    op->client = probe_;
    op->intended_bucket = 1;
    op->key = key;
    return op;
  }
  std::unique_ptr<ScanRequestMsg> Scan(uint64_t op_id) {
    auto scan = std::make_unique<ScanRequestMsg>();
    scan->op_id = op_id;
    scan->client = probe_;
    scan->attached_level = 1;
    return scan;
  }
  std::unique_ptr<InsertBatchMsg> Batch(uint64_t op_id, Key key) {
    auto batch = std::make_unique<InsertBatchMsg>();
    batch->op_id = op_id;
    batch->seq = 1;
    batch->client = probe_;
    batch->intended_bucket = 1;
    batch->records.push_back(
        WireRecord{key, 0, BufferView(BytesFromString("b"))});
    return batch;
  }

  Network net_;
  std::shared_ptr<SystemContext> ctx_ = std::make_shared<SystemContext>();
  NodeId probe_ = kInvalidNode;
};

TEST_F(HeldTrafficTest, SplitTargetServesHeldOpScanAndBatchWhenRecordsArrive) {
  const NodeId target = AddSplitTarget();
  const Key moved = KeyIn(1, 1);
  const Key batched = KeyIn(1, 1, moved + 1);
  Inject(target, Search(10, moved));
  Inject(target, Scan(11));
  Inject(target, Batch(12, batched));
  EXPECT_TRUE(probe().kinds.empty()) << "answered before its records";

  auto move = std::make_unique<MoveRecordsMsg>();
  move->bucket = 1;
  move->level = 1;
  move->records.push_back(
      WireRecord{moved, 0, BufferView(BytesFromString("m"))});
  Inject(target, std::move(move));

  ASSERT_EQ(probe().kinds.size(), 4u);
  EXPECT_EQ(probe().kinds[0], LhStarMsg::kSplitDone);
  const auto replies = probe().Of<OpReplyMsg>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].op_id, 10u);
  EXPECT_EQ(replies[0].code, StatusCode::kOk);
  EXPECT_EQ(replies[0].value.ToBytes(), BytesFromString("m"));
  // The scan ran before the batch: it sees the moved record only.
  const auto scans = probe().Of<ScanReplyMsg>();
  ASSERT_EQ(scans.size(), 1u);
  EXPECT_FALSE(scans[0].coverage_failed);
  ASSERT_EQ(scans[0].records.size(), 1u);
  EXPECT_EQ(scans[0].records[0].key, moved);
  const auto batches = probe().Of<InsertBatchReplyMsg>();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].applied, 1u);
  EXPECT_FALSE(batches[0].bounced);
  EXPECT_EQ(net_.node_as<DataBucketNode>(target)->record_count(), 2u);
}

TEST_F(HeldTrafficTest, StoodDownSpareBouncesWhatItHeld) {
  const NodeId spare = AddSplitTarget();
  const Key key = KeyIn(1, 1);
  Inject(spare, Search(20, key));
  Inject(spare, Scan(21));
  Inject(spare, Batch(22, key));
  EXPECT_TRUE(probe().kinds.empty());

  auto stand_down = std::make_unique<SelfCheckReplyMsg>();
  stand_down->bucket = 1;
  stand_down->still_owner = false;
  Inject(spare, std::move(stand_down));

  const auto ops = probe().Of<ClientOpViaCoordinatorMsg>();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].op_id, 20u);
  EXPECT_EQ(ops[0].key, key);
  const auto scans = probe().Of<ScanReplyMsg>();
  ASSERT_EQ(scans.size(), 1u);
  EXPECT_EQ(scans[0].op_id, 21u);
  EXPECT_TRUE(scans[0].coverage_failed);
  const auto batches = probe().Of<InsertBatchReplyMsg>();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].op_id, 22u);
  EXPECT_TRUE(batches[0].bounced);
  ASSERT_EQ(batches[0].rejected.size(), 1u);
  EXPECT_EQ(batches[0].rejected[0].key, key);
  EXPECT_TRUE(net_.node_as<DataBucketNode>(spare)->decommissioned());
}

// A scan or a batch that reaches a spare after its stand-down is answered
// at once; the spare will never hold records to serve it with.
TEST_F(HeldTrafficTest, StoodDownSpareAnswersLaterScanAndBatch) {
  const NodeId spare = AddSplitTarget();
  auto stand_down = std::make_unique<SelfCheckReplyMsg>();
  stand_down->bucket = 1;
  stand_down->still_owner = false;
  Inject(spare, std::move(stand_down));

  Inject(spare, Scan(31));
  Inject(spare, Batch(32, KeyIn(1, 1)));
  const auto scans = probe().Of<ScanReplyMsg>();
  ASSERT_EQ(scans.size(), 1u);
  EXPECT_TRUE(scans[0].coverage_failed);
  const auto batches = probe().Of<InsertBatchReplyMsg>();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_TRUE(batches[0].bounced);
}

TEST_F(HeldTrafficTest, ParitySpareAppliesHeldDeltasAndReadAfterInstall) {
  auto lhrs_ctx = std::make_shared<LhrsContext>();
  lhrs_ctx->base = ctx_;
  lhrs_ctx->m = 4;
  lhrs_ctx->coders = std::make_shared<CoderCache>(4);
  const NodeId spare = net_.AddNode(std::make_unique<ParityBucketNode>(
      lhrs_ctx, /*group=*/0, /*parity_index=*/0, /*k=*/1,
      /*pre_initialized=*/false));

  auto delta = std::make_unique<ParityDeltaMsg>();
  delta->delta.rank = 1;
  delta->delta.slot = 2;
  delta->delta.key_op = ParityDelta::KeyOp::kSet;
  delta->delta.key = 77;
  delta->delta.new_length = 3;
  delta->delta.delta = BufferView(BytesFromString("abc"));
  Inject(spare, std::move(delta));
  auto read = std::make_unique<ColumnReadRequestMsg>();
  read->task_id = 5;
  Inject(spare, std::move(read));
  EXPECT_TRUE(probe().kinds.empty()) << "answered before its install";

  auto install = std::make_unique<InstallParityColumnMsg>();
  install->task_id = 6;
  install->parity = ParityColumn(4);
  Inject(spare, std::move(install));

  ASSERT_EQ(probe().kinds.size(), 2u);
  const auto done = probe().Of<InstallDoneMsg>();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].task_id, 6u);
  // The read was served after the held delta was applied.
  const auto dumps = probe().Of<ColumnReadReplyMsg>();
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps[0].task_id, 5u);
  const ParityColumn& column = dumps[0].dump->parity;
  ASSERT_EQ(column.size(), 1u);
  EXPECT_EQ(column.ranks[0], 1u);
  EXPECT_EQ(column.keys[column.Cell(0, 2)], Key{77});
  EXPECT_EQ(column.lengths[column.Cell(0, 2)], 3u);
}

TEST_F(HeldTrafficTest, LhgParitySpareAppliesHeldUpdateAfterInstall) {
  const NodeId spare = net_.AddNode(std::make_unique<lhg::LhgParityBucketNode>(
      ctx_, 0, 0, /*pre_initialized=*/false));
  ctx_->allocation.Set(0, spare);
  const lhg::GroupKey gkey{2, 5};

  auto update = std::make_unique<lhg::ParityUpdateMsg>();
  update->gkey = gkey.Packed();
  update->op = lhg::ParityUpdateMsg::Op::kAddMember;
  update->member = 42;
  update->new_length = 2;
  update->delta = BufferView(BytesFromString("xy"));
  update->reply_to = probe_;
  Inject(spare, std::move(update));
  auto* bucket = net_.node_as<lhg::LhgParityBucketNode>(spare);
  EXPECT_TRUE(bucket->DecodedRecords().empty()) << "applied before install";

  auto install = std::make_unique<lhg::InstallParityMsg>();
  install->task_id = 9;
  Inject(spare, std::move(install));

  ASSERT_EQ(probe().Of<lhg::InstallAckMsg>().size(), 1u);
  const auto records = bucket->DecodedRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first, gkey);
  EXPECT_TRUE(records[0].second.HasMember(42));
}

// m=4, k=1, four initial buckets. Data bucket 0 fails, and while its spare
// waits for the rebuild, parity 0 of group 0 fails too: the group has lost
// two columns, one more than k. The coordinator stands the spare down.
// Scans and batches that reach the spare afterwards must fail loudly.
TEST(StandDownTest, LostGroupFailsScansAndBatchesAimedAtTheSpare) {
  LhrsFile::Options opts;
  opts.file.initial_buckets = 4;
  opts.file.bucket_capacity = 1000;
  opts.group_size = 4;
  opts.policy.base_k = 1;
  LhrsFile file(opts);
  Key in_zero = 0;
  for (Key key = 1; key <= 200; ++key) {
    ASSERT_TRUE(
        file.Insert(key, BytesFromString("v" + std::to_string(key))).ok());
    if (file.coordinator().state().Address(key) == 0) in_zero = key;
  }
  ASSERT_NE(in_zero, 0u);

  Network& net = file.network();
  file.CrashDataBucket(0);
  const sdds::OpToken update =
      file.Submit(0, OpType::kUpdate, in_zero, BytesFromString("new"));
  const size_t nodes = net.node_count();
  net.RunUntil([&] { return net.node_count() > nodes; });
  ASSERT_GT(net.node_count(), nodes) << "no spare for bucket 0";
  file.CrashParityBucket(0, 0);
  net.RunUntilIdle();
  auto updated = file.Take(update);
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_TRUE(updated->status.IsDataLoss()) << updated->status;

  // A fresh session: no cached address of the crashed node hides the spare.
  const size_t session = file.AddSession();
  ClientNode& client = file.client(session);
  const uint64_t scan = client.StartScan({}, /*deterministic=*/true);
  net.RunUntilIdle();
  auto scanned = client.TakeScan(scan);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  EXPECT_EQ(scanned->status.code(), StatusCode::kUnavailable)
      << scanned->status;
  const Status session_zero = file.Scan().status();  // The facade's scan.
  EXPECT_EQ(session_zero.code(), StatusCode::kUnavailable) << session_zero;

  std::vector<WireRecord> records;
  for (Key key = 1000; records.size() < 5; ++key) {
    if (file.coordinator().state().Address(key) == 0) {
      records.push_back(WireRecord{key, 0, BufferView(BytesFromString("b"))});
    }
  }
  const sdds::OpToken batch = file.SubmitBatch(session, records);
  net.RunUntilIdle();
  auto batched = file.Take(batch);
  ASSERT_TRUE(batched.ok()) << batched.status();
  EXPECT_EQ(batched->batch_failed, records.size());
  EXPECT_EQ(batched->batch_applied, 0u);
  EXPECT_TRUE(batched->status.IsDataLoss()) << batched->status;

  std::vector<WireRecord> load;
  for (Key key = 2000; load.size() < 40; ++key) {
    load.push_back(WireRecord{key, 0, BufferView(BytesFromString("l"))});
  }
  const workload::BulkLoadReport report = workload::BulkLoad(
      file, load, {.batch_size = 8, .sessions = 2, .window = 2});
  EXPECT_GT(report.failed, 0u);
  EXPECT_EQ(report.applied + report.failed, load.size());
}

}  // namespace
}  // namespace lhrs
