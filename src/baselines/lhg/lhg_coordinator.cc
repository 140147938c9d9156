#include "baselines/lhg/lhg_coordinator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "net/network.h"

namespace lhrs::lhg {

LhgCoordinatorNode::LhgCoordinatorNode(std::shared_ptr<SystemContext> f1_ctx,
                                       std::shared_ptr<SystemContext> f2_ctx,
                                       uint32_t group_size)
    : CoordinatorNode(std::move(f1_ctx)),
      f2_ctx_(std::move(f2_ctx)),
      group_size_(group_size) {}

BucketNo LhgCoordinatorNode::F2BucketCount() const {
  LHRS_CHECK(f2_coordinator_ != nullptr);
  return f2_coordinator_->state().bucket_count();
}

void LhgCoordinatorNode::HandleUnavailableReport(
    const UnavailableReportMsg& report) {
  if (!auto_recover_) return;
  if (report.is_parity) {
    if (!f2_ctx_->allocation.Knows(report.bucket)) return;
    if (recovering_parity_.contains(report.bucket)) return;
    if (net()->available(f2_ctx_->allocation.Lookup(report.bucket))) return;
    StartParityRecovery(report.bucket);
  } else {
    if (!ctx_->allocation.Knows(report.bucket)) return;
    if (ctx_->allocation.Lookup(report.bucket) != report.node) return;
    if (recovering_data_.contains(report.bucket)) return;
    if (net()->available(report.node)) return;  // Stale report.
    StartDataRecovery(report.bucket);
  }
}

void LhgCoordinatorNode::RecoverDataBucket(BucketNo bucket) {
  if (!recovering_data_.contains(bucket)) StartDataRecovery(bucket);
}

void LhgCoordinatorNode::RecoverParityBucket(BucketNo f2_bucket) {
  if (!recovering_parity_.contains(f2_bucket)) {
    StartParityRecovery(f2_bucket);
  }
}

void LhgCoordinatorNode::HandleClientOpFallback(
    const ClientOpViaCoordinatorMsg& op) {
  if (op.client == id()) {
    // A bounced internal search: its target bucket stood down after an
    // aborted recovery — the search cannot be satisfied.
    FailInternalSearch(op.op_id);
    return;
  }
  MaybeResetClientImage(op);
  const BucketNo a = state_.Address(op.key);
  if (lost_buckets_.contains(a)) {
    FailClientOp(op, StatusCode::kDataLoss,
                 "multiple bucket failures exceed LH*g 1-availability");
    return;
  }
  if (recovering_data_.contains(a)) {
    if (op.op == OpType::kSearch) {
      StartDegradedRead(op);
    } else {
      ParkOp(op);
    }
    return;
  }
  if (!net()->available(ctx_->allocation.Lookup(a))) {
    if (auto_recover_) StartDataRecovery(a);
    if (op.op == OpType::kSearch) {
      StartDegradedRead(op);
    } else if (recovering_data_.contains(a)) {
      ParkOp(op);
    } else {
      FailClientOp(op, StatusCode::kUnavailable,
                   "bucket unavailable and automatic recovery is off");
    }
    return;
  }
  DeliverViaState(op);
}

void LhgCoordinatorNode::OnOpDeliveryFailure(
    const ClientOpViaCoordinatorMsg& op) {
  if (op.client == id()) {
    // An internal recovery/degraded-mode search hit another dead bucket:
    // multiple failures, which 1-available LH*g cannot mask.
    FailInternalSearch(op.op_id);
    return;
  }
  const BucketNo a = op.intended_bucket;
  if (auto_recover_) StartDataRecovery(a);
  if (lost_buckets_.contains(a)) {
    FailClientOp(op, StatusCode::kDataLoss,
                 "multiple bucket failures exceed LH*g 1-availability");
    return;
  }
  if (op.op == OpType::kSearch) {
    StartDegradedRead(op);
  } else if (recovering_data_.contains(a)) {
    ParkOp(op);
  } else {
    FailClientOp(op, StatusCode::kUnavailable,
                 "bucket unavailable and automatic recovery is off");
  }
}

void LhgCoordinatorNode::FailInternalSearch(uint64_t op_id) {
  auto it = internal_searches_.find(op_id);
  if (it == internal_searches_.end()) return;
  const InternalSearch search = it->second;
  internal_searches_.erase(it);
  if (search.degraded) {
    auto task = degraded_.find(search.task_id);
    if (task != degraded_.end()) {
      FailClientOp(task->second.op, StatusCode::kDataLoss,
                   "multiple bucket failures exceed LH*g 1-availability");
      degraded_.erase(task);
    }
  } else {
    auto task = data_tasks_.find(search.task_id);
    if (task != data_tasks_.end()) {
      LHRS_LOG(Warning)
          << "LH*g bucket recovery aborted: second failure in flight";
      const BucketNo bucket = task->second.bucket;
      data_tasks_.erase(task);
      MarkBucketLost(bucket);
    }
  }
}

void LhgCoordinatorNode::MarkBucketLost(BucketNo bucket) {
  if (!lost_buckets_.insert(bucket).second) return;
  recovering_data_.erase(bucket);
  // The spare bounces its queued ops back here, where the lost-bucket check
  // fails them loudly.
  LoseBucket(bucket, /*stand_down=*/true,
             "multiple bucket failures exceed LH*g 1-availability");
  MaybeStartSplit();
}

void LhgCoordinatorNode::IssueInternalSearch(uint64_t task_id, bool degraded,
                                             Key key) {
  const uint64_t op_id = next_internal_op_++;
  internal_searches_[op_id] = InternalSearch{task_id, degraded, key};
  const BucketNo target = state_.Address(key);
  auto req = std::make_unique<OpRequestMsg>();
  req->op = OpType::kSearch;
  req->op_id = op_id;
  req->client = id();
  req->intended_bucket = target;
  req->key = key;
  Send(ctx_->allocation.Lookup(target), std::move(req));
}

// --- (A4) primary bucket recovery ------------------------------------------

void LhgCoordinatorNode::StartDataRecovery(BucketNo bucket) {
  if (recovering_data_.contains(bucket) || lost_buckets_.contains(bucket)) {
    return;
  }
  // Idempotence: never re-recover a live bucket (a second spare would
  // split-brain against the first).
  if (net()->available(ctx_->allocation.Lookup(bucket))) return;
  recovering_data_.insert(bucket);
  LHRS_LOG(Debug) << "lhg: A4 recovery of data bucket " << bucket;

  DataRecoveryTask task;
  task.id = next_task_id_++;
  task.bucket = bucket;
  if (const SplitOrderMsg* order = StalledSplitOrder(bucket)) {
    task.also_bucket = order->new_bucket;
  }
  task.level = state_.BucketLevel(bucket);
  task.spare = CreateBucketNode(bucket, task.level);
  ctx_->allocation.Set(bucket, task.spare);

  // Step 1: scan Q1 of F2 with deterministic termination — multicast to
  // every parity bucket, all of which reply.
  const BucketNo m2 = F2BucketCount();
  task.awaiting_replies = m2;
  std::vector<std::pair<NodeId, std::unique_ptr<MessageBody>>> batch;
  for (BucketNo b = 0; b < m2; ++b) {
    auto req = std::make_unique<CollectForDataMsg>();
    req->task_id = task.id;
    req->bucket = bucket;
    req->file_level = state_.i;
    req->group_size = group_size_;
    req->initial_buckets = ctx_->config.initial_buckets;
    batch.emplace_back(f2_ctx_->allocation.Lookup(b), std::move(req));
  }
  const uint64_t id = task.id;
  data_tasks_.emplace(id, std::move(task));
  net()->Multicast(this->id(), std::move(batch));
}

void LhgCoordinatorNode::MaybeResolveDataTask(DataRecoveryTask& task) {
  if (task.awaiting_replies > 0 || task.installing) return;
  if (task.target_member.empty()) {
    // First time here: classify parity records and issue sibling reads.
    for (const auto& [gkey, record] : task.parity) {
      Key target = 0;
      bool has_target = false;
      for (Key c : record.members) {
        const BucketNo a = state_.Address(c);
        if (a == task.bucket || a == task.also_bucket) {
          LHRS_CHECK(!has_target) << "two group members in one bucket";
          target = c;
          has_target = true;
        }
      }
      if (!has_target) continue;  // All members moved elsewhere.
      task.target_member[gkey] = target;
      for (Key c : record.members) {
        if (c == target) continue;
        ++task.awaiting_searches;
        IssueInternalSearch(task.id, /*degraded=*/false, c);
      }
    }
  }
  if (task.awaiting_searches == 0) InstallDataTask(task);
}

void LhgCoordinatorNode::InstallDataTask(DataRecoveryTask& task) {
  task.installing = true;
  auto install = std::make_unique<InstallDataMsg>();
  install->task_id = task.id;
  install->bucket = task.bucket;
  install->level = task.level;
  // Counter recovery: the highest r among the group's relevant parity
  // records (conservative upper bound on the failed bucket's counter; a
  // skipped r value is merely an unused group, never a collision).
  uint32_t counter = 0;
  for (const auto& [gkey, record] : task.parity) {
    const GroupKey gk = GroupKey::Unpack(gkey);
    if (gk.g == task.bucket / group_size_) {
      counter = std::max(counter, gk.r);
    }
  }
  install->counter = counter;
  for (const auto& [gkey, target] : task.target_member) {
    const ParityRecordG& record = task.parity.at(gkey);
    // value(target) = parity XOR all other member values (zero-padded).
    Bytes value = record.parity;
    for (const auto& [member, member_value] : task.member_values[gkey]) {
      XorAssignPadded(value, member_value);
    }
    const int idx = record.FindMember(target);
    LHRS_CHECK_GE(idx, 0);
    const uint32_t len = record.lengths[idx];
    LHRS_CHECK_LE(len, value.size());
    for (size_t p = len; p < value.size(); ++p) {
      LHRS_CHECK_EQ(value[p], 0) << "LH*g reconstruction non-zero padding";
    }
    value.resize(len);
    install->records.push_back(TaggedRecord{gkey, target, std::move(value)});
  }
  Send(task.spare, std::move(install));
}

// --- (A5) parity bucket recovery --------------------------------------------

void LhgCoordinatorNode::StartParityRecovery(BucketNo f2_bucket) {
  if (recovering_parity_.contains(f2_bucket)) return;
  if (net()->available(f2_ctx_->allocation.Lookup(f2_bucket))) return;
  recovering_parity_.insert(f2_bucket);
  LHRS_CHECK(parity_factory_);
  LHRS_LOG(Debug) << "lhg: A5 recovery of parity bucket " << f2_bucket
                  << " (f2 state i=" << f2_coordinator_->state().i
                  << " n=" << f2_coordinator_->state().n << ")";

  ParityRecoveryTask task;
  task.id = next_task_id_++;
  task.f2_bucket = f2_bucket;
  if (const SplitOrderMsg* order =
          f2_coordinator_->StalledSplitOrder(f2_bucket)) {
    task.also_bucket = order->new_bucket;
  }
  task.level = f2_coordinator_->state().BucketLevel(f2_bucket);
  task.spare = parity_factory_(f2_bucket, task.level);
  f2_ctx_->allocation.Set(f2_bucket, task.spare);

  // Step 1: scan Q2 of F1 — every data bucket reports the records whose
  // parity record lives in the failed F2 bucket.
  const BucketNo m1 = state_.bucket_count();
  task.awaiting_replies = m1;
  std::vector<std::pair<NodeId, std::unique_ptr<MessageBody>>> batch;
  for (BucketNo b = 0; b < m1; ++b) {
    auto req = std::make_unique<CollectForParityMsg>();
    req->task_id = task.id;
    req->parity_bucket = f2_bucket;
    req->also_bucket = task.also_bucket;
    req->i2 = f2_coordinator_->state().i;
    req->n2 = f2_coordinator_->state().n;
    req->f2_initial_buckets = f2_ctx_->config.initial_buckets;
    batch.emplace_back(ctx_->allocation.Lookup(b), std::move(req));
  }
  const uint64_t id = task.id;
  parity_tasks_.emplace(id, std::move(task));
  net()->Multicast(this->id(), std::move(batch));
}

void LhgCoordinatorNode::InstallParityTask(ParityRecoveryTask& task) {
  task.installing = true;
  auto install = std::make_unique<InstallParityMsg>();
  install->task_id = task.id;
  install->bucket = task.f2_bucket;
  install->level = task.level;
  for (const auto& [gkey, record] : task.built) {
    install->records.push_back(
        SerializedParityRecord{gkey, record.Serialize()});
  }
  Send(task.spare, std::move(install));
}

// --- (A7) record recovery ----------------------------------------------------

void LhgCoordinatorNode::StartDegradedRead(
    const ClientOpViaCoordinatorMsg& op) {
  DegradedTask task;
  task.id = next_task_id_++;
  task.op = op;
  // Scan Q3 of F2 for the parity record containing op.key — LH*g must scan
  // because the group key of the lost record is unknown; this is the
  // O(M/k) cost LH*RS's known parity locations eliminate.
  const BucketNo m2 = F2BucketCount();
  task.awaiting_finds = m2;
  std::vector<std::pair<NodeId, std::unique_ptr<MessageBody>>> batch;
  for (BucketNo b = 0; b < m2; ++b) {
    auto req = std::make_unique<FindParityMsg>();
    req->task_id = task.id;
    req->key = op.key;
    batch.emplace_back(f2_ctx_->allocation.Lookup(b), std::move(req));
  }
  const uint64_t id = task.id;
  degraded_.emplace(id, std::move(task));
  net()->Multicast(this->id(), std::move(batch));
}

void LhgCoordinatorNode::FinishDegradedRead(DegradedTask& task) {
  // value(target) = parity XOR all other member values, trimmed.
  Bytes value = task.record.parity;
  for (const auto& [member, member_value] : task.member_values) {
    XorAssignPadded(value, member_value);
  }
  const int idx = task.record.FindMember(task.op.key);
  LHRS_CHECK_GE(idx, 0);
  const uint32_t len = task.record.lengths[idx];
  LHRS_CHECK_LE(len, value.size());
  value.resize(len);

  auto reply = std::make_unique<OpReplyMsg>();
  reply->op_id = task.op.op_id;
  reply->code = StatusCode::kOk;
  reply->value = std::move(value);
  Send(task.op.client, std::move(reply));
  ++degraded_reads_served_;
  degraded_.erase(task.id);
}

void LhgCoordinatorNode::FinishRecovery(BucketNo bucket) {
  recovering_data_.erase(bucket);
  ++recoveries_completed_;
  ReleaseBuckets({bucket});
}

bool LhgCoordinatorNode::RecoverBucket(BucketNo bucket) {
  // A split target lost with its movers rebuilds them too: their record
  // groups' parity is intact (LH*g splits never touch parity).
  StartDataRecovery(bucket);
  return true;
}

bool LhgParityCoordinatorNode::RecoverBucket(BucketNo bucket) {
  LHRS_CHECK(main_ != nullptr);
  main_->RecoverParityBucket(bucket);
  return true;
}

// --- Message plumbing --------------------------------------------------------

void LhgCoordinatorNode::HandleSubclassMessage(const Message& msg) {
  switch (msg.body->kind()) {
    case LhgMsg::kCollectForDataReply: {
      const auto& reply =
          static_cast<const CollectForDataReplyMsg&>(*msg.body);
      auto it = data_tasks_.find(reply.task_id);
      if (it == data_tasks_.end()) return;
      DataRecoveryTask& task = it->second;
      for (const auto& r : reply.records) {
        task.parity.emplace(r.gkey, ParityRecordG::Deserialize(r.data));
      }
      LHRS_CHECK_GT(task.awaiting_replies, 0u);
      --task.awaiting_replies;
      MaybeResolveDataTask(task);
      return;
    }
    case LhgMsg::kCollectForParityReply: {
      const auto& reply =
          static_cast<const CollectForParityReplyMsg&>(*msg.body);
      auto it = parity_tasks_.find(reply.task_id);
      if (it == parity_tasks_.end()) return;
      ParityRecoveryTask& task = it->second;
      for (const auto& rec : reply.records) {
        auto [built, unused] = task.built.try_emplace(rec.gkey);
        built->second.AddMember(rec.key,
                                static_cast<uint32_t>(rec.value.size()));
        XorAssignPadded(built->second.parity, rec.value);
      }
      LHRS_CHECK_GT(task.awaiting_replies, 0u);
      --task.awaiting_replies;
      if (task.awaiting_replies == 0) InstallParityTask(task);
      return;
    }
    case LhgMsg::kInstallAck: {
      const auto& ack = static_cast<const InstallAckMsg&>(*msg.body);
      if (auto it = data_tasks_.find(ack.task_id); it != data_tasks_.end()) {
        const BucketNo bucket = it->second.bucket;
        data_tasks_.erase(it);
        FinishRecovery(bucket);
        return;
      }
      if (auto it = parity_tasks_.find(ack.task_id);
          it != parity_tasks_.end()) {
        const BucketNo f2_bucket = it->second.f2_bucket;
        recovering_parity_.erase(f2_bucket);
        ++recoveries_completed_;
        parity_tasks_.erase(it);
        // Resumes a stalled F2 split on the recovered victim, or completes
        // one whose movers were rebuilt straight from F1.
        f2_coordinator_->ReleaseBuckets({f2_bucket});
        MaybeStartSplit();
        return;
      }
      return;
    }
    case LhgMsg::kFindParityReply: {
      const auto& reply = static_cast<const FindParityReplyMsg&>(*msg.body);
      auto it = degraded_.find(reply.task_id);
      if (it == degraded_.end()) return;
      DegradedTask& task = it->second;
      LHRS_CHECK_GT(task.awaiting_finds, 0u);
      --task.awaiting_finds;
      if (reply.found && !task.found) {
        task.found = true;
        task.record = ParityRecordG::Deserialize(reply.record);
        // Key searches for the other group members (A7 step 4).
        for (Key c : task.record.members) {
          if (c == task.op.key) continue;
          ++task.awaiting_searches;
          IssueInternalSearch(task.id, /*degraded=*/true, c);
        }
        if (task.awaiting_searches == 0) FinishDegradedRead(task);
        return;
      }
      if (task.awaiting_finds == 0 && !task.found) {
        // Scan unsuccessful: the key never existed (A7 step 2).
        FailClientOp(task.op, StatusCode::kNotFound, "no such key");
        degraded_.erase(task.id);
      }
      return;
    }
    case LhgMsg::kParityUpdate: {
      // A data bucket escalated a parity update whose target did not
      // answer (stale image or genuine failure). Re-deliver by the
      // authoritative F2 state; if the correct bucket is (being)
      // rebuilt, drop the delta — the A5 rebuild scans F1, which already
      // contains this change's data side.
      const auto& update = static_cast<const ParityUpdateMsg&>(*msg.body);
      const BucketNo target = f2_coordinator_->state().Address(update.gkey);
      if (recovering_parity_.contains(target)) return;
      const NodeId node = f2_ctx_->allocation.Lookup(target);
      if (!net()->available(node)) {
        if (auto_recover_) StartParityRecovery(target);
        return;  // The rebuild covers this change.
      }
      auto fwd = std::make_unique<ParityUpdateMsg>(update);
      fwd->intended_bucket = target;
      fwd->hops = update.hops + 1;  // The parity bucket IAMs the sender.
      Send(node, std::move(fwd));
      return;
    }
    case LhStarMsg::kOpReply: {
      // Internal search result.
      const auto& reply = static_cast<const OpReplyMsg&>(*msg.body);
      auto it = internal_searches_.find(reply.op_id);
      if (it == internal_searches_.end()) return;
      const InternalSearch search = it->second;
      internal_searches_.erase(it);
      LHRS_CHECK(reply.code == StatusCode::kOk)
          << "group member vanished during recovery: "
          << StatusCodeName(reply.code);
      if (search.degraded) {
        auto task = degraded_.find(search.task_id);
        if (task == degraded_.end()) return;
        task->second.member_values[search.key] = reply.value;
        LHRS_CHECK_GT(task->second.awaiting_searches, 0u);
        if (--task->second.awaiting_searches == 0) {
          FinishDegradedRead(task->second);
        }
      } else {
        auto task = data_tasks_.find(search.task_id);
        if (task == data_tasks_.end()) return;
        DataRecoveryTask& t = task->second;
        for (auto& [gkey, target] : t.target_member) {
          const ParityRecordG& record = t.parity.at(gkey);
          if (record.HasMember(search.key) && search.key != target) {
            t.member_values[gkey][search.key] = reply.value;
          }
        }
        LHRS_CHECK_GT(t.awaiting_searches, 0u);
        if (--t.awaiting_searches == 0) InstallDataTask(t);
      }
      return;
    }
    default:
      CoordinatorNode::HandleSubclassMessage(msg);
  }
}

void LhgCoordinatorNode::HandleSubclassDeliveryFailure(const Message& msg) {
  switch (msg.body->kind()) {
    case LhgMsg::kCollectForData: {
      // An F2 bucket is also down: a scan with deterministic termination
      // terminates abnormally on unavailability (section 2.7), so the
      // bucket cannot be rebuilt. Losing it fails its parked ops loudly.
      const auto& req = static_cast<const CollectForDataMsg&>(*msg.body);
      auto task = data_tasks_.find(req.task_id);
      if (task == data_tasks_.end()) return;
      LHRS_LOG(Warning) << "LH*g bucket recovery aborted: parity bucket "
                           "down during recovery scan";
      const BucketNo bucket = task->second.bucket;
      data_tasks_.erase(task);
      MarkBucketLost(bucket);
      return;
    }
    case LhgMsg::kFindParity: {
      // The same abnormal termination, for a degraded read's scan.
      const auto& req = static_cast<const FindParityMsg&>(*msg.body);
      auto task = degraded_.find(req.task_id);
      if (task == degraded_.end()) return;
      FailClientOp(task->second.op, StatusCode::kDataLoss,
                   "multiple bucket failures exceed LH*g 1-availability");
      degraded_.erase(task);
      return;
    }
    case LhgMsg::kCollectForParity:
    case LhgMsg::kInstallParity:
    case LhgMsg::kInstallData:
      LHRS_LOG(Warning) << "LH*g: node died mid-recovery; task stalls";
      return;
    default:
      CoordinatorNode::HandleSubclassDeliveryFailure(msg);
  }
}

}  // namespace lhrs::lhg
