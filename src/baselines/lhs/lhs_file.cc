#include "baselines/lhs/lhs_file.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace lhrs::lhs {

namespace {

constexpr size_t kLengthPrefix = 4;

void PutLength(Bytes& stripe, uint32_t len) {
  for (int i = 0; i < 4; ++i) {
    stripe.push_back(static_cast<uint8_t>(len >> (8 * i)));
  }
}

uint32_t GetLength(const Bytes& stripe) {
  LHRS_CHECK_GE(stripe.size(), kLengthPrefix);
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= uint32_t{stripe[i]} << (8 * i);
  return len;
}

OpOutcome Outcome(Status status, BufferView value = {}) {
  OpOutcome out;
  out.status = std::move(status);
  out.value = std::move(value);
  return out;
}

}  // namespace

std::vector<Bytes> LhsFile::StripeValue(const Bytes& value,
                                        uint32_t stripe_count) {
  const uint32_t len = static_cast<uint32_t>(value.size());
  const size_t chunk = (value.size() + stripe_count - 1) / stripe_count;
  std::vector<Bytes> out(stripe_count + 1);
  Bytes parity_chunk(chunk, 0);
  for (uint32_t s = 0; s < stripe_count; ++s) {
    Bytes& stripe = out[s];
    stripe.reserve(kLengthPrefix + chunk);
    PutLength(stripe, len);
    const size_t begin = std::min<size_t>(s * chunk, value.size());
    const size_t end = std::min<size_t>((s + 1) * chunk, value.size());
    stripe.insert(stripe.end(), value.begin() + begin, value.begin() + end);
    stripe.resize(kLengthPrefix + chunk, 0);
    for (size_t i = 0; i < chunk; ++i) {
      parity_chunk[i] ^= stripe[kLengthPrefix + i];
    }
  }
  Bytes& parity = out[stripe_count];
  parity.reserve(kLengthPrefix + chunk);
  PutLength(parity, len);
  parity.insert(parity.end(), parity_chunk.begin(), parity_chunk.end());
  return out;
}

Bytes LhsFile::AssembleValue(const std::vector<Bytes>& stripes,
                             uint32_t stripe_count) {
  LHRS_CHECK_GE(stripes.size(), stripe_count);
  const uint32_t len = GetLength(stripes[0]);
  Bytes out;
  out.reserve(len);
  for (uint32_t s = 0; s < stripe_count; ++s) {
    out.insert(out.end(), stripes[s].begin() + kLengthPrefix,
               stripes[s].end());
  }
  LHRS_CHECK_GE(out.size(), len);
  out.resize(len);
  return out;
}

Bytes LhsFile::ReconstructStripe(const std::vector<const Bytes*>& present,
                                 std::span<const uint8_t> parity,
                                 uint32_t stripe_count, uint32_t missing) {
  Bytes out(parity.begin(), parity.end());  // Prefix carries the length.
  for (uint32_t s = 0; s < stripe_count; ++s) {
    if (s == missing) continue;
    const Bytes* stripe = present[s];
    LHRS_CHECK(stripe != nullptr);
    LHRS_CHECK_EQ(stripe->size(), out.size());
    for (size_t i = kLengthPrefix; i < out.size(); ++i) {
      out[i] ^= (*stripe)[i];
    }
  }
  return out;
}

LhsFile::LhsFile(Options options)
    : network_(std::make_unique<Network>(options.net)),
      stripe_count_(options.stripe_count) {
  files_.resize(stripe_count_ + 1);
  std::vector<std::shared_ptr<SystemContext>> fleet;
  for (uint32_t f = 0; f <= stripe_count_; ++f) {
    StripeFile& file = files_[f];
    file.ctx = std::make_shared<SystemContext>();
    file.ctx->config = options.file;
    fleet.push_back(file.ctx);
    auto coordinator =
        std::make_unique<LhsCoordinatorNode>(file.ctx, f, stripe_count_);
    file.coordinator = coordinator.get();
    file.ctx->coordinator = network_->AddNode(std::move(coordinator));
    auto ctx = file.ctx;
    file.coordinator->SetBucketFactory(
        [this, ctx](BucketNo bucket, Level level) {
          auto node = std::make_unique<LhsBucketNode>(
              ctx, bucket, level, /*pre_initialized=*/false);
          LhsBucketNode* ptr = node.get();
          const NodeId id = network_->AddNode(std::move(node));
          buckets_.Register(id, ptr);
          return id;
        });
    for (BucketNo b = 0; b < ctx->config.initial_buckets; ++b) {
      auto node = std::make_unique<LhsBucketNode>(ctx, b, /*level=*/0,
                                                  /*pre_initialized=*/true);
      LhsBucketNode* ptr = node.get();
      const NodeId id = network_->AddNode(std::move(node));
      buckets_.Register(id, ptr);
      ctx->allocation.Set(b, id);
    }
  }
  for (auto& file : files_) {
    static_cast<LhsCoordinatorNode*>(file.coordinator)->SetFleet(fleet);
  }
  AddSession();
}

size_t LhsFile::AddSession() {
  const size_t session = files_[0].clients.size();
  for (uint32_t f = 0; f <= stripe_count_; ++f) AddStripeClient(f, session);
  return session;
}

void LhsFile::AddStripeClient(uint32_t file_index, size_t session) {
  StripeFile& file = files_[file_index];
  LHRS_CHECK_EQ(file.clients.size(), session);
  auto client = std::make_unique<ClientNode>(file.ctx, ops_);
  ClientNode* ptr = client.get();
  network_->AddNode(std::move(client));
  file.clients.push_back(ptr);
}

void LhsBucketNode::HandleSubclassMessage(const Message& msg) {
  switch (msg.body->kind()) {
    case LhsMsg::kStripeRead: {
      const auto& req = static_cast<const StripeReadMsg&>(*msg.body);
      auto reply = std::make_unique<StripeReadReplyMsg>();
      reply->task_id = req.task_id;
      reply->level = level();
      if (decommissioned() || req.bucket != bucket_no()) {
        reply->failed = true;
      } else {
        records_.ForEachOrdered([&](Key key, const BufferView& value) {
          reply->records.push_back(WireRecord{key, 0, value});
        });
      }
      Send(msg.from, std::move(reply));
      return;
    }
    case LhsMsg::kStripeInstall: {
      const auto& install = static_cast<const StripeInstallMsg&>(*msg.body);
      LHRS_CHECK_EQ(install.bucket, bucket_no());
      store::BucketStore records;
      for (const auto& rec : install.records) {
        records.InsertShared(rec.key, rec.value);
      }
      InstallRecoveredState(std::move(records), install.level);
      auto ack = std::make_unique<StripeAckMsg>();
      ack->task_id = install.task_id;
      Send(msg.from, std::move(ack));
      return;
    }
    default:
      DataBucketNode::HandleSubclassMessage(msg);
  }
}

bool LhsCoordinatorNode::RecoverBucket(BucketNo bucket) {
  if (recovering_.contains(bucket)) return true;
  if (net()->available(ctx_->allocation.Lookup(bucket))) return true;
  LHRS_CHECK(!fleet_.empty());
  recovering_.insert(bucket);

  RebuildTask task;
  task.id = next_task_id_++;
  task.bucket = bucket;
  task.level = state_.BucketLevel(bucket);
  task.spare = CreateBucketNode(bucket, task.level);
  ctx_->allocation.Set(bucket, task.spare);

  // All k+1 files hold the same keys, so the k sibling dumps XOR to the
  // lost stripe. Each file splits on its own schedule, so a sibling may
  // hold the bucket's keys in its split descendants — or, while this
  // bucket's own split is stalled, in the bucket it has not split yet.
  for (uint32_t f = 0; f <= stripe_count_; ++f) {
    if (f == file_index_) continue;
    const AllocationTable& sibling = fleet_[f]->allocation;
    for (BucketNo x : ReplicaBucketsFor(bucket, sibling.size())) {
      auto read = std::make_unique<StripeReadMsg>();
      read->task_id = task.id;
      read->bucket = x;
      ++task.awaiting;
      Send(sibling.Lookup(x), std::move(read));
    }
  }
  tasks_.emplace(task.id, std::move(task));
  return true;
}

void LhsCoordinatorNode::HandleClientOpFallback(
    const ClientOpViaCoordinatorMsg& op) {
  MaybeResetClientImage(op);
  const BucketNo a = state_.Address(op.key);
  if (lost_buckets_.contains(a)) {
    FailClientOp(op, StatusCode::kDataLoss,
                 "two stripe columns lost: beyond LH*s 1-availability");
    return;
  }
  if (recovering_.contains(a) ||
      !net()->available(ctx_->allocation.Lookup(a))) {
    RecoverBucket(a);
    ParkOp(op);  // Served right after the rebuild.
    return;
  }
  DeliverViaState(op);
}

void LhsCoordinatorNode::MarkLost(RebuildTask& task) {
  const BucketNo bucket = task.bucket;
  lost_buckets_.insert(bucket);
  recovering_.erase(bucket);
  // The spare bounces its queued ops back here, where they fail loudly.
  LoseBucket(bucket, /*stand_down=*/true,
             "two stripe columns lost: beyond LH*s 1-availability");
  tasks_.erase(task.id);
  MaybeStartSplit();
}

void LhsCoordinatorNode::HandleSubclassDeliveryFailure(const Message& msg) {
  if (msg.body->kind() == LhsMsg::kStripeRead) {
    // A sibling stripe bucket is down too: second column failure.
    const auto& req = static_cast<const StripeReadMsg&>(*msg.body);
    auto it = tasks_.find(req.task_id);
    if (it != tasks_.end()) MarkLost(it->second);
    return;
  }
  CoordinatorNode::HandleSubclassDeliveryFailure(msg);
}

void LhsCoordinatorNode::OnOpDeliveryFailure(
    const ClientOpViaCoordinatorMsg& op) {
  HandleClientOpFallback(op);
}

void LhsCoordinatorNode::HandleSubclassMessage(const Message& msg) {
  switch (msg.body->kind()) {
    case LhsMsg::kStripeReadReply: {
      const auto& reply = static_cast<const StripeReadReplyMsg&>(*msg.body);
      auto it = tasks_.find(reply.task_id);
      if (it == tasks_.end()) return;
      RebuildTask& task = it->second;
      if (reply.failed) {
        MarkLost(task);
        return;
      }
      for (const auto& rec : reply.records) {
        if (!BelongsInRebuild(task.bucket, rec.key)) continue;
        auto [acc, fresh] = task.accumulator.try_emplace(rec.key, rec.value);
        if (fresh) continue;
        // XOR the chunk parts; the 4-byte length prefix is identical in
        // every stripe and must not be XORed away. MutableData detaches
        // the accumulator from the first reply's shared buffer before the
        // in-place fold. XorBuffer rides the runtime-dispatched kernel
        // layer (gf/kernels.h), so the baseline's striping folds get the
        // same SIMD tier as the LH*RS parity path.
        LHRS_CHECK_EQ(acc->second.size(), rec.value.size());
        uint8_t* dst = acc->second.MutableData();
        XorBuffer(dst + kLengthPrefix, rec.value.data() + kLengthPrefix,
                  rec.value.size() - kLengthPrefix);
      }
      LHRS_CHECK_GT(task.awaiting, 0u);
      if (--task.awaiting > 0) return;
      auto install = std::make_unique<StripeInstallMsg>();
      install->task_id = task.id;
      install->bucket = task.bucket;
      install->level = task.level;
      for (auto& [key, stripe] : task.accumulator) {
        install->records.push_back(WireRecord{key, 0, stripe});
      }
      Send(task.spare, std::move(install));
      return;
    }
    case LhsMsg::kStripeAck: {
      const auto& ack = static_cast<const StripeAckMsg&>(*msg.body);
      auto it = tasks_.find(ack.task_id);
      if (it == tasks_.end()) return;
      const BucketNo bucket = it->second.bucket;
      tasks_.erase(it);
      recovering_.erase(bucket);
      ++recoveries_completed_;
      ReleaseBuckets({bucket});
      return;
    }
    default:
      CoordinatorNode::HandleSubclassMessage(msg);
  }
}

void LhsFile::StartSubOp(uint32_t file_index, size_t session,
                         sdds::OpToken token, OpType op, Key key,
                         BufferView value) {
  files_[file_index].clients[session]->StartOp(op, key, std::move(value),
                                               token);
}

sdds::OpToken LhsFile::Submit(size_t session, OpType op, Key key,
                              Bytes value) {
  LHRS_CHECK_LT(session, session_count());
  const sdds::OpToken token =
      ops_.Open(sdds::OpKind::kLogical, network_->now()).token;
  const size_t slot = sdds::OpTable::SlotOf(token);
  if (logical_.size() <= slot) logical_.resize(slot + 1);
  LogicalOp& lop = logical_[slot];
  lop.session = session;
  lop.op = op;
  lop.key = key;
  lop.missing = stripe_count_;
  if (op == OpType::kInsert || op == OpType::kUpdate) {
    lop.stripes = StripeValue(value, stripe_count_);
  } else if (op == OpType::kSearch) {
    lop.stripes.resize(stripe_count_);
    lop.have.assign(stripe_count_, false);
  }
  // The stripe-0 sub-op starts immediately; each completion chains the
  // next stripe file, reproducing the synchronous loops' message schedule.
  BufferView first;
  if (op == OpType::kInsert || op == OpType::kUpdate) {
    first = BufferView(lop.stripes[0]);
  }
  StartSubOp(0, session, token, op, key, std::move(first));
  return token;
}

void LhsFile::OnOpComplete(sdds::OpToken sub) {
  const sdds::OpToken token = ops_.Find(sub)->parent;
  if (token == 0) {  // A logical op, or direct client use.
    SddsFile::OnOpComplete(sub);
    return;
  }
  Result<OpOutcome> res = ops_.Take(sub);
  LHRS_CHECK(res.ok());
  LogicalOp& lop = logical_[sdds::OpTable::SlotOf(token)];
  if (lop.op == OpType::kSearch) {
    AdvanceSearch(token, lop, std::move(*res));
  } else {
    AdvanceWrite(token, lop, std::move(*res));
  }
}

void LhsFile::AdvanceWrite(sdds::OpToken token, LogicalOp& lop,
                           OpOutcome sub) {
  // k + 1 writes, one per stripe site (the LH*s write cost), fail-fast.
  if (lop.op == OpType::kInsert && lop.next > 0 &&
      sub.status.code() == StatusCode::kAlreadyExists) {
    // Stripe 0 took the key, so it is new: this stripe holds a torn copy
    // that a rebuild XORed from the stripes already written while the
    // insert was parked on the dead bucket. Overwrite it.
    StartSubOp(lop.next, lop.session, token, OpType::kUpdate, lop.key,
               BufferView(lop.stripes[lop.next]));
    return;
  }
  if (!sub.status.ok()) {
    FinishOp(token, std::move(sub));
    return;
  }
  ++lop.next;
  if (lop.next <= stripe_count_) {
    BufferView value;
    if (lop.op != OpType::kDelete) value = BufferView(lop.stripes[lop.next]);
    StartSubOp(lop.next, lop.session, token, lop.op, lop.key,
               std::move(value));
    return;
  }
  FinishOp(token, Outcome(Status::OK()));
}

void LhsFile::AdvanceSearch(sdds::OpToken token, LogicalOp& lop,
                            OpOutcome sub) {
  if (lop.parity_fetch) {
    // Degraded read: reconstruct the missing stripe from parity.
    if (!sub.status.ok()) {
      FinishOp(token, Outcome(std::move(sub.status)));
      return;
    }
    std::vector<const Bytes*> present(stripe_count_, nullptr);
    for (uint32_t s = 0; s < stripe_count_; ++s) {
      if (lop.have[s]) present[s] = &lop.stripes[s];
    }
    lop.stripes[lop.missing] =
        ReconstructStripe(present, sub.value, stripe_count_, lop.missing);
    Bytes assembled = AssembleValue(lop.stripes, stripe_count_);
    FinishOp(token, Outcome(Status::OK(), BufferView(assembled)));
    return;
  }
  // Gathering the k data stripes (k messages — the striping read penalty).
  const uint32_t s = lop.next;
  if (sub.status.ok()) {
    lop.stripes[s] = sub.value.ToBytes();
    lop.have[s] = true;
  } else if (sub.status.IsNotFound()) {
    // Key absent everywhere: identical split schedules mean no stripe file
    // holds it, so the remaining fetches are skipped.
    FinishOp(token, Outcome(std::move(sub.status)));
    return;
  } else if (lop.missing == stripe_count_) {
    lop.missing = s;  // First unavailable stripe: parity can cover it.
  } else {
    FinishOp(token,
             Outcome(Status::DataLoss("two stripes unavailable: beyond "
                                      "LH*s 1-availability")));
    return;
  }
  ++lop.next;
  if (lop.next < stripe_count_) {
    StartSubOp(lop.next, lop.session, token, OpType::kSearch, lop.key, {});
    return;
  }
  if (lop.missing == stripe_count_) {
    Bytes assembled = AssembleValue(lop.stripes, stripe_count_);
    FinishOp(token, Outcome(Status::OK(), BufferView(assembled)));
    return;
  }
  lop.parity_fetch = true;
  StartSubOp(stripe_count_, lop.session, token, OpType::kSearch, lop.key,
             {});
}

void LhsFile::FinishOp(sdds::OpToken token, OpOutcome outcome) {
  // Drop the logical op's stripes now; its outcome waits in the token's
  // slot.
  logical_[sdds::OpTable::SlotOf(token)] = LogicalOp{};
  ops_.Complete(*ops_.Find(token), std::move(outcome));
}

NodeId LhsFile::CrashStripeBucketOf(uint32_t stripe, Key key) {
  const StripeFile& file = files_.at(stripe);
  const BucketNo a = file.coordinator->state().Address(key);
  const NodeId node = file.ctx->allocation.Lookup(a);
  network_->SetAvailable(node, false);
  return node;
}

StorageStats LhsFile::GetStorageStats() const {
  StorageStats stats;
  for (uint32_t f = 0; f <= stripe_count_; ++f) {
    const StripeFile& file = files_[f];
    const BucketNo count = file.coordinator->state().bucket_count();
    for (BucketNo b = 0; b < count; ++b) {
      const DataBucketNode* bucket =
          buckets_.At(file.ctx->allocation.Lookup(b));
      if (f < stripe_count_) {
        stats.record_count += bucket->record_count();
        stats.data_bytes += bucket->StorageBytes();
        ++stats.data_buckets;
      } else {
        stats.parity_bytes += bucket->StorageBytes();
        ++stats.parity_buckets;
      }
    }
  }
  // record_count counts stripes; report whole records.
  stats.record_count /= stripe_count_;
  stats.load_factor = 0.0;
  return stats;
}

}  // namespace lhrs::lhs
