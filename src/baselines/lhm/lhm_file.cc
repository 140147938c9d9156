#include "baselines/lhm/lhm_file.h"

#include <utility>

#include "common/logging.h"

namespace lhrs::lhm {

void LhmBucketNode::HandleSubclassMessage(const Message& msg) {
  switch (msg.body->kind()) {
    case LhmMsg::kMirrorRead: {
      const auto& req = static_cast<const MirrorReadMsg&>(*msg.body);
      LHRS_CHECK_EQ(req.bucket, bucket_no());
      auto reply = std::make_unique<MirrorReadReplyMsg>();
      reply->task_id = req.task_id;
      reply->level = level();
      records_.ForEachOrdered([&](Key key, const BufferView& value) {
        reply->records.push_back(WireRecord{key, 0, value});
      });
      Send(msg.from, std::move(reply));
      return;
    }
    case LhmMsg::kMirrorInstall: {
      const auto& install = static_cast<const MirrorInstallMsg&>(*msg.body);
      LHRS_CHECK_EQ(install.bucket, bucket_no());
      store::BucketStore records;
      for (const auto& rec : install.records) {
        records.InsertShared(rec.key, rec.value);
      }
      InstallRecoveredState(std::move(records), install.level);
      auto ack = std::make_unique<MirrorAckMsg>();
      ack->task_id = install.task_id;
      Send(msg.from, std::move(ack));
      return;
    }
    default:
      DataBucketNode::HandleSubclassMessage(msg);
  }
}

bool LhmCoordinatorNode::RecoverBucket(BucketNo bucket) {
  if (recovering_.contains(bucket)) return true;
  if (net()->available(ctx_->allocation.Lookup(bucket))) return true;
  LHRS_CHECK(sibling_ != nullptr);
  recovering_.insert(bucket);

  CopyTask task;
  task.id = next_task_id_++;
  task.bucket = bucket;
  task.level = state_.BucketLevel(bucket);
  task.spare = CreateBucketNode(bucket, task.level);
  ctx_->allocation.Set(bucket, task.spare);

  // The replicas split independently, so the bucket's keys sit in the
  // same-numbered sibling bucket or any of its split descendants.
  for (BucketNo x :
       ReplicaBucketsFor(bucket, sibling_->state().bucket_count())) {
    auto read = std::make_unique<MirrorReadMsg>();
    read->task_id = task.id;
    read->bucket = x;
    ++task.awaiting;
    Send(sibling_ctx_->allocation.Lookup(x), std::move(read));
  }
  LHRS_CHECK_GT(task.awaiting, 0u);
  tasks_.emplace(task.id, std::move(task));
  return true;
}

void LhmCoordinatorNode::ServeFromSibling(
    const ClientOpViaCoordinatorMsg& op) {
  const BucketNo a = sibling_->state().Address(op.key);
  auto req = std::make_unique<OpRequestMsg>();
  req->op = op.op;
  req->op_id = op.op_id;
  req->client = op.client;
  req->intended_bucket = a;
  req->key = op.key;
  req->value = op.value;
  req->hops = 0;  // No IAM: the reply must not distort the client's image.
  Send(sibling_ctx_->allocation.Lookup(a), std::move(req));
}

void LhmCoordinatorNode::HandleClientOpFallback(
    const ClientOpViaCoordinatorMsg& op) {
  const BucketNo a = state_.Address(op.key);
  if (recovering_.contains(a)) {
    if (op.op == OpType::kSearch) {
      ServeFromSibling(op);
    } else {
      ParkOp(op);
    }
    return;
  }
  if (!net()->available(ctx_->allocation.Lookup(a))) {
    RecoverBucket(a);
    if (op.op == OpType::kSearch) {
      ServeFromSibling(op);
    } else {
      ParkOp(op);
    }
    return;
  }
  DeliverViaState(op);
}

void LhmCoordinatorNode::OnOpDeliveryFailure(
    const ClientOpViaCoordinatorMsg& op) {
  HandleClientOpFallback(op);
}

void LhmCoordinatorNode::HandleSubclassMessage(const Message& msg) {
  switch (msg.body->kind()) {
    case LhmMsg::kMirrorReadReply: {
      const auto& reply = static_cast<const MirrorReadReplyMsg&>(*msg.body);
      auto it = tasks_.find(reply.task_id);
      if (it == tasks_.end()) return;
      CopyTask& task = it->second;
      for (const auto& rec : reply.records) {
        if (BelongsInRebuild(task.bucket, rec.key)) {
          task.records.push_back(rec);
        }
      }
      LHRS_CHECK_GT(task.awaiting, 0u);
      if (--task.awaiting > 0) return;
      auto install = std::make_unique<MirrorInstallMsg>();
      install->task_id = task.id;
      install->bucket = task.bucket;
      install->level = task.level;
      install->records = std::move(task.records);
      Send(task.spare, std::move(install));
      return;
    }
    case LhmMsg::kMirrorAck: {
      const auto& ack = static_cast<const MirrorAckMsg&>(*msg.body);
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

// --- Facade ------------------------------------------------------------------

LhmFile::LhmFile(Options options)
    : network_(std::make_unique<Network>(options.net)) {
  for (int f = 0; f < 2; ++f) {
    replicas_[f].ctx = std::make_shared<SystemContext>();
    replicas_[f].ctx->config = options.file;
    auto coordinator =
        std::make_unique<LhmCoordinatorNode>(replicas_[f].ctx);
    coordinators_[f] = coordinator.get();
    replicas_[f].ctx->coordinator = network_->AddNode(std::move(coordinator));
    auto ctx = replicas_[f].ctx;
    coordinators_[f]->SetBucketFactory(
        [this, ctx](BucketNo bucket, Level level) {
          auto node = std::make_unique<LhmBucketNode>(
              ctx, bucket, level, /*pre_initialized=*/false);
          LhmBucketNode* ptr = node.get();
          const NodeId id = network_->AddNode(std::move(node));
          buckets_.Register(id, ptr);
          return id;
        });
    for (BucketNo b = 0; b < ctx->config.initial_buckets; ++b) {
      auto node = std::make_unique<LhmBucketNode>(ctx, b, /*level=*/0,
                                                  /*pre_initialized=*/true);
      LhmBucketNode* ptr = node.get();
      const NodeId id = network_->AddNode(std::move(node));
      buckets_.Register(id, ptr);
      ctx->allocation.Set(b, id);
    }
    AddReplicaClient(f);
  }
  coordinators_[0]->SetSibling(coordinators_[1], replicas_[1].ctx);
  coordinators_[1]->SetSibling(coordinators_[0], replicas_[0].ctx);
}

void LhmFile::AddReplicaClient(size_t replica) {
  auto client = std::make_unique<ClientNode>(replicas_[replica].ctx, ops_);
  ClientNode* ptr = client.get();
  network_->AddNode(std::move(client));
  replicas_[replica].clients.push_back(ptr);
}

size_t LhmFile::AddSession() {
  const size_t session = replicas_[0].clients.size();
  for (int f = 0; f < 2; ++f) AddReplicaClient(f);
  return session;
}

sdds::OpToken LhmFile::Submit(size_t session, OpType op, Key key,
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
  lop.value = BufferView(std::move(value));
  // The primary sub-op starts immediately; writes chain the mirror sub-op
  // from the primary's completion callback.
  replicas_[0].clients[session]->StartOp(op, key, lop.value, token);
  return token;
}

void LhmFile::OnOpComplete(sdds::OpToken sub) {
  const sdds::OpToken token = ops_.Find(sub)->parent;
  if (token == 0) {  // A logical op, or direct client use.
    SddsFile::OnOpComplete(sub);
    return;
  }
  Result<OpOutcome> res = ops_.Take(sub);
  LHRS_CHECK(res.ok());
  LogicalOp& lop = logical_[sdds::OpTable::SlotOf(token)];
  if (lop.op == OpType::kSearch) {
    // Searches touch the primary replica only.
    FinishOp(token, std::move(*res));
    return;
  }
  if (!lop.have_primary) {
    // Mirroring: the mirror write always runs, whatever the primary said
    // (the original synchronous semantics).
    lop.have_primary = true;
    lop.primary = std::move(*res);
    replicas_[1].clients[lop.session]->StartOp(lop.op, lop.key, lop.value,
                                               token);
    return;
  }
  OpOutcome combined = std::move(lop.primary);
  if (combined.status.ok()) combined.status = std::move(res->status);
  FinishOp(token, std::move(combined));
}

void LhmFile::FinishOp(sdds::OpToken token, OpOutcome outcome) {
  // Drop the logical op's payload now; its outcome waits in the token's
  // slot.
  logical_[sdds::OpTable::SlotOf(token)] = LogicalOp{};
  ops_.Complete(*ops_.Find(token), std::move(outcome));
}

NodeId LhmFile::CrashPrimaryBucket(BucketNo b) {
  const NodeId node = replicas_[0].ctx->allocation.Lookup(b);
  network_->SetAvailable(node, false);
  return node;
}

void LhmFile::RecoverPrimaryBucket(BucketNo b) {
  coordinators_[0]->RecoverBucket(b);
  network_->RunUntilIdle();
}

StorageStats LhmFile::GetStorageStats() const {
  StorageStats stats;
  for (int f = 0; f < 2; ++f) {
    const BucketNo count = coordinators_[f]->state().bucket_count();
    for (BucketNo b = 0; b < count; ++b) {
      const DataBucketNode* bucket =
          buckets_.At(replicas_[f].ctx->allocation.Lookup(b));
      if (f == 0) {
        stats.record_count += bucket->record_count();
        stats.data_bytes += bucket->StorageBytes();
        ++stats.data_buckets;
      } else {
        stats.parity_bytes += bucket->StorageBytes();
        ++stats.parity_buckets;
      }
    }
  }
  stats.load_factor = static_cast<double>(stats.record_count) /
                      (static_cast<double>(stats.data_buckets) *
                       replicas_[0].ctx->config.bucket_capacity);
  return stats;
}

Status LhmFile::VerifyMirrorInvariant() const {
  std::map<Key, BufferView> contents[2];
  for (int f = 0; f < 2; ++f) {
    const BucketNo count = coordinators_[f]->state().bucket_count();
    for (BucketNo b = 0; b < count; ++b) {
      const DataBucketNode* bucket =
          buckets_.At(replicas_[f].ctx->allocation.Lookup(b));
      bucket->records().ForEachOrdered([&](Key key, const BufferView& value) {
        contents[f][key] = value;
      });
    }
  }
  if (contents[0] != contents[1]) {
    return Status::Internal("replicas diverged");
  }
  return Status::OK();
}

}  // namespace lhrs::lhm
