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

void LhmCoordinatorNode::RecoverBucket(BucketNo bucket) {
  if (recovering_.contains(bucket)) return;
  if (net()->available(ctx_->allocation.Lookup(bucket))) return;
  LHRS_CHECK(sibling_ != nullptr);
  recovering_.insert(bucket);

  CopyTask task;
  task.id = next_task_id_++;
  task.bucket = bucket;
  task.level = state_.BucketLevel(bucket);
  task.spare = CreateBucketNode(bucket, task.level);
  ctx_->allocation.Set(bucket, task.spare);

  // Mirror addressing: the replicas split independently, so our bucket's
  // keys can sit in the same-numbered sibling bucket or any of its split
  // descendants. A key of our bucket satisfies k = bucket (mod 2^j N)
  // where j is our bucket's level; every sibling bucket x with
  // x = bucket (mod 2^j N) holds only such keys (levels never decrease),
  // so reading exactly those buckets yields the full set with no filter.
  // When this recovery resumes a stalled split (the victim died between
  // the order and its execution), the bucket must be rebuilt with the
  // records of the whole *pre-split* congruence class — the retried split
  // partitions them afterwards. The per-record filter below keeps only
  // what belongs (harmlessly a no-op in the ordinary case).
  Level congruence_level = task.level;
  if (pending_split_orders_.contains(bucket) ||
      orphaned_moves_.contains(bucket)) {
    LHRS_CHECK_GT(congruence_level, 0u);
    --congruence_level;
  }
  const BucketNo stride =
      BucketNo{ctx_->config.initial_buckets} << congruence_level;
  const BucketNo sibling_extent = sibling_->state().bucket_count();
  for (BucketNo x = bucket % stride; x < sibling_extent; x += stride) {
    auto read = std::make_unique<MirrorReadMsg>();
    read->task_id = task.id;
    read->bucket = x;
    ++task.awaiting;
    Send(sibling_ctx_->allocation.Lookup(x), std::move(read));
  }
  LHRS_CHECK_GT(task.awaiting, 0u);
  tasks_.emplace(task.id, std::move(task));
}

void LhmCoordinatorNode::OnSplitOrderDeliveryFailure(
    const SplitOrderMsg& order, NodeId victim_node) {
  (void)victim_node;
  const BucketNo victim =
      order.new_bucket -
      (BucketNo{ctx_->config.initial_buckets} << (order.new_level - 1));
  pending_split_orders_[victim] = order;
  RecoverBucket(victim);
}

void LhmCoordinatorNode::OnOrphanedMoveRecords(const MoveRecordsMsg& move) {
  // The split target died with the movers in flight; its content rebuilds
  // entirely from the sibling replica (congruence read), so the in-flight
  // copy is redundant.
  orphaned_moves_.insert(move.bucket);
  RecoverBucket(move.bucket);
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
      parked_[a].push_back(op);
    }
    return;
  }
  if (!net()->available(ctx_->allocation.Lookup(a))) {
    RecoverBucket(a);
    if (op.op == OpType::kSearch) {
      ServeFromSibling(op);
    } else {
      parked_[a].push_back(op);
    }
    return;
  }
  DeliverViaState(op);
}

void LhmCoordinatorNode::OnOpDeliveryFailure(const OpRequestMsg& req) {
  ClientOpViaCoordinatorMsg op;
  op.op = req.op;
  op.op_id = req.op_id;
  op.client = req.client;
  op.intended_bucket = req.intended_bucket;
  op.key = req.key;
  op.value = req.value;
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
        // Keep only the records that belong in the bucket being rebuilt
        // (the pre-split congruence read may over-fetch; for a pending
        // split the movers re-partition when the split retries, so they
        // DO belong here at the pre-split level — hence filter at the
        // level the bucket will actually serve next, which is the
        // pre-split one when a split order is pending).
        const Level filter_level =
            pending_split_orders_.contains(task.bucket) ? task.level - 1
                                                        : task.level;
        if (HashL(rec.key, filter_level, ctx_->config.initial_buckets) !=
            task.bucket % (BucketNo{ctx_->config.initial_buckets}
                           << filter_level)) {
          continue;
        }
        task.records.push_back(rec);
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
      auto parked = parked_.find(bucket);
      if (parked != parked_.end()) {
        std::vector<ClientOpViaCoordinatorMsg> ops =
            std::move(parked->second);
        parked_.erase(parked);
        for (const auto& op : ops) DeliverViaState(op);
      }
      if (auto pending = pending_split_orders_.find(bucket);
          pending != pending_split_orders_.end()) {
        Send(ctx_->allocation.Lookup(bucket),
             std::make_unique<SplitOrderMsg>(pending->second));
        pending_split_orders_.erase(pending);
      }
      if (orphaned_moves_.erase(bucket) > 0) {
        // The split's content arrived via the sibling copy; release the
        // latch the lost SplitDone would have cleared.
        AbortRestructure();
      }
      MaybeStartSplit();
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
    AddReplicaClient(f, 0);
  }
  coordinators_[0]->SetSibling(coordinators_[1], replicas_[1].ctx);
  coordinators_[1]->SetSibling(coordinators_[0], replicas_[0].ctx);
}

ClientNode* LhmFile::AddReplicaClient(size_t replica, size_t session) {
  auto client = std::make_unique<ClientNode>(replicas_[replica].ctx);
  ClientNode* ptr = client.get();
  network_->AddNode(std::move(client));
  replicas_[replica].clients.push_back(ptr);
  replicas_[replica].subops.emplace_back();
  ptr->SetOnOpComplete([this, replica, session](uint64_t op_id) {
    OnSubOpComplete(replica, session, op_id);
  });
  return ptr;
}

size_t LhmFile::AddSession() {
  const size_t session = replicas_[0].clients.size();
  for (int f = 0; f < 2; ++f) AddReplicaClient(f, session);
  return session;
}

void LhmFile::StartSubOp(size_t replica, size_t session,
                         sdds::OpToken token, OpType op, Key key,
                         BufferView value) {
  ClientNode& c = *replicas_[replica].clients[session];
  const uint64_t op_id = c.StartOp(op, key, std::move(value));
  replicas_[replica].subops[session][op_id] = token;
}

sdds::OpToken LhmFile::Submit(size_t session, OpType op, Key key,
                              Bytes value) {
  LHRS_CHECK_LT(session, session_count());
  const sdds::OpToken token = NextToken();
  LogicalOp lop;
  lop.session = session;
  lop.op = op;
  lop.key = key;
  lop.value = BufferView(std::move(value));
  // The primary sub-op starts immediately; writes chain the mirror sub-op
  // from the primary's completion callback.
  StartSubOp(0, session, token, op, key, lop.value);
  inflight_.emplace(token, std::move(lop));
  return token;
}

void LhmFile::OnSubOpComplete(size_t replica, size_t session,
                              uint64_t op_id) {
  auto& sub = replicas_[replica].subops[session];
  auto it = sub.find(op_id);
  if (it == sub.end()) return;  // Direct client use outside the facade.
  const sdds::OpToken token = it->second;
  sub.erase(it);
  Result<OpOutcome> res =
      replicas_[replica].clients[session]->TakeResult(op_id);
  LHRS_CHECK(res.ok());
  auto lit = inflight_.find(token);
  LHRS_CHECK(lit != inflight_.end());
  LogicalOp& lop = lit->second;
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
    StartSubOp(1, lop.session, token, lop.op, lop.key, lop.value);
    return;
  }
  OpOutcome combined = std::move(lop.primary);
  if (combined.status.ok()) combined.status = std::move(res->status);
  FinishOp(token, std::move(combined));
}

void LhmFile::FinishOp(sdds::OpToken token, OpOutcome outcome) {
  inflight_.erase(token);
  done_[token] = std::move(outcome);
  NotifyComplete(token);
}

Result<OpOutcome> LhmFile::Take(sdds::OpToken token) {
  auto it = done_.find(token);
  if (it == done_.end()) {
    return Status::Internal("operation not finished");
  }
  OpOutcome out = std::move(it->second);
  done_.erase(it);
  return out;
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
