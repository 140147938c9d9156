#include "lhstar/data_bucket.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
#include "net/network.h"
#include "telemetry/metrics.h"

namespace lhrs {

DataBucketNode::DataBucketNode(std::shared_ptr<SystemContext> ctx,
                               BucketNo bucket_no, Level level,
                               bool pre_initialized)
    : ctx_(std::move(ctx)),
      bucket_no_(bucket_no),
      level_(level),
      initialized_(pre_initialized) {}

size_t DataBucketNode::StorageBytes() const {
  return records_.size() * sizeof(Key) + records_.payload_bytes();
}

void DataBucketNode::HandleMessage(const Message& msg) {
  const int k = msg.body->kind();
  if ((k == LhStarMsg::kSplitOrder || k == LhStarMsg::kMoveRecords ||
       k == LhStarMsg::kMergeOut || k == LhStarMsg::kMergeRecords ||
       k == LhStarMsg::kInsertBatch) &&
      network()->fault_injection_active() && dedup_.SeenBefore(msg.id)) {
    return;  // Duplicated restructuring/batch message (not idempotent).
  }
  if (!initialized_ && !decommissioned_ && NeedsRecords(k)) {
    // Mid-split or mid-recovery: the records are still on their way, and
    // answering now would miss them (models the parent serving until
    // handover).
    held_.Hold(msg);
    return;
  }
  Dispatch(msg);
}

bool DataBucketNode::NeedsRecords(int kind) const {
  return kind == LhStarMsg::kOpRequest || kind == LhStarMsg::kScanRequest ||
         kind == LhStarMsg::kInsertBatch;
}

void DataBucketNode::ReplayHeld() {
  held_.Replay([this](const Message& msg) { Dispatch(msg); });
}

void DataBucketNode::Dispatch(const Message& msg) {
  switch (msg.body->kind()) {
    case LhStarMsg::kOpRequest:
      HandleOpRequest(msg);
      return;
    case LhStarMsg::kInsertBatch:
      HandleInsertBatch(static_cast<const InsertBatchMsg&>(*msg.body));
      return;
    case LhStarMsg::kSplitOrder:
      HandleSplitOrder(static_cast<const SplitOrderMsg&>(*msg.body));
      return;
    case LhStarMsg::kMoveRecords:
      HandleMoveRecords(static_cast<const MoveRecordsMsg&>(*msg.body));
      return;
    case LhStarMsg::kMergeOut:
      HandleMergeOut(static_cast<const MergeOutMsg&>(*msg.body));
      return;
    case LhStarMsg::kMergeRecords:
      HandleMergeRecords(static_cast<const MergeRecordsMsg&>(*msg.body));
      return;
    case LhStarMsg::kScanRequest:
      HandleScanRequest(static_cast<const ScanRequestMsg&>(*msg.body));
      return;
    case LhStarMsg::kSurveyRequest: {
      const auto& req = static_cast<const SurveyRequestMsg&>(*msg.body);
      auto reply = std::make_unique<SurveyReplyMsg>();
      reply->survey_id = req.survey_id;
      reply->role = SurveyReplyMsg::Role::kDataBucket;
      reply->decommissioned = decommissioned_;
      reply->bucket = bucket_no_;
      reply->level = level_;
      reply->record_count = records_.size();
      Send(msg.from, std::move(reply));
      return;
    }
    case LhStarMsg::kStateScanRequest: {
      const auto& req = static_cast<const StateScanRequestMsg&>(*msg.body);
      auto reply = std::make_unique<StateScanReplyMsg>();
      reply->op_id = req.op_id;
      reply->bucket = bucket_no_;
      reply->level = level_;
      Send(msg.from, std::move(reply));
      return;
    }
    case LhStarMsg::kSelfCheckReply: {
      const auto& reply = static_cast<const SelfCheckReplyMsg&>(*msg.body);
      if (!reply.still_owner && !decommissioned_) {
        decommissioned_ = true;
        records_.Clear();
        // Traffic held for an installation that will never come is
        // answered as any displaced bucket answers it.
        ReplayHeld();
        OnDecommissioned();
      }
      return;
    }
    default:
      HandleSubclassMessage(msg);
      return;
  }
}

void DataBucketNode::HandleSubclassMessage(const Message& msg) {
  LHRS_LOG(Fatal) << role() << " bucket " << bucket_no_
                  << ": unhandled message kind " << msg.body->kind();
}

void DataBucketNode::HandleSubclassDeliveryFailure(const Message& msg) {
  (void)msg;
}

void DataBucketNode::HandleOpRequest(const Message& msg) {
  const auto& req = static_cast<const OpRequestMsg&>(*msg.body);

  // Section 2.8: a spare, or a server reused for another bucket, matches
  // the intended bucket number against what it carries and bounces
  // mismatches to the coordinator.
  if (decommissioned_ || req.intended_bucket != bucket_no_) {
    BounceToCoordinator(req);
    return;
  }

  // Algorithm (A2): verify the address, forward at most twice.
  const BucketNo target =
      ForwardAddress(bucket_no_, level_, req.key, ctx_->config.initial_buckets);
  if (target != bucket_no_) {
    if (!ctx_->allocation.Knows(target)) {
      // Cluster mode: this server's allocation replica has not caught up
      // with the split that created `target` yet. The coordinator always
      // has the authoritative address.
      BounceToCoordinator(req);
      return;
    }
    auto fwd = std::make_unique<OpRequestMsg>(req);
    fwd->intended_bucket = target;
    fwd->hops = req.hops + 1;
    LHRS_CHECK_LE(fwd->hops, 3) << "A2 forwarding chain too long";
    Send(ctx_->allocation.Lookup(target), std::move(fwd));
    return;
  }

  ExecuteLocalOp(req);
}

void DataBucketNode::HandleInsertBatch(const InsertBatchMsg& batch) {
  auto reply = std::make_unique<InsertBatchReplyMsg>();
  reply->op_id = batch.op_id;
  reply->seq = batch.seq;
  reply->bucket = bucket_no_;
  reply->level = level_;

  if (decommissioned_ || batch.intended_bucket != bucket_no_) {
    // Displaced bucket / spare (section 2.8): this server cannot judge the
    // records; hand the whole sub-batch back for coordinator routing.
    reply->bounced = true;
    reply->rejected = batch.records;
    Send(batch.client, std::move(reply));
    return;
  }

  RecordOpTelemetry();
  OnBatchCommitBegin();
  for (const WireRecord& rec : batch.records) {
    const BucketNo target = ForwardAddress(bucket_no_, level_, rec.key,
                                           ctx_->config.initial_buckets);
    if (target != bucket_no_) {
      // Addressed under a stale image: goes back with the IAM instead of
      // fanning out into per-record forwards.
      reply->rejected.push_back(rec);
      continue;
    }
    if (!records_.InsertShared(rec.key, rec.value)) {
      ++reply->exists;
      continue;
    }
    ++ctx_->total_records;
    ++reply->applied;
    OnInsertCommitted(rec.key, *records_.Find(rec.key));
  }
  OnBatchCommitEnd();

  Send(batch.client, std::move(reply));
  // One overflow report per sub-batch (vs one per record): the split
  // amortization half of the bulk-load path.
  ReportOverflowIfNeeded();
}

void DataBucketNode::RecordOpTelemetry() {
  if (network() == nullptr || network()->telemetry() == nullptr) return;
  if (ops_counter_ == nullptr) {
    telemetry::MetricsRegistry& m = network()->telemetry()->metrics();
    const std::string bucket = std::to_string(bucket_no_);
    ops_counter_ =
        &m.GetCounter(telemetry::Labeled("bucket.ops", "bucket", bucket));
    queue_depth_histogram_ = &m.GetHistogram(
        telemetry::Labeled("bucket.queue_depth", "bucket", bucket));
  }
  ops_counter_->Add();
  queue_depth_histogram_->Record(network()->PendingTo(id()));
}

void DataBucketNode::ExecuteLocalOp(const OpRequestMsg& req) {
  RecordOpTelemetry();
  switch (req.op) {
    case OpType::kInsert: {
      // The request's view is adopted as the stored payload: the bytes
      // ingested at the client flow into the store without another copy.
      if (!records_.InsertShared(req.key, req.value)) {
        ReplyToClient(req, StatusCode::kAlreadyExists, "duplicate key", {});
        return;
      }
      ++ctx_->total_records;
      OnInsertCommitted(req.key, *records_.Find(req.key));
      ReplyToClient(req, StatusCode::kOk, {}, {});
      ReportOverflowIfNeeded();
      return;
    }
    case OpType::kSearch: {
      const BufferView* value = records_.Find(req.key);
      if (value == nullptr) {
        ReplyToClient(req, StatusCode::kNotFound, "no such key", {});
      } else {
        ReplyToClient(req, StatusCode::kOk, {}, *value);
      }
      return;
    }
    case OpType::kUpdate: {
      const BufferView* found = records_.Find(req.key);
      if (found == nullptr) {
        ReplyToClient(req, StatusCode::kNotFound, "no such key", {});
        return;
      }
      const BufferView old_value = *found;  // Shares; survives the Put.
      records_.Put(req.key, req.value);
      OnUpdateCommitted(req.key, old_value, req.value);
      ReplyToClient(req, StatusCode::kOk, {}, {});
      return;
    }
    case OpType::kDelete: {
      const BufferView* found = records_.Find(req.key);
      if (found == nullptr) {
        ReplyToClient(req, StatusCode::kNotFound, "no such key", {});
        return;
      }
      // The hook runs before the erase, so a layer can still resolve the
      // record's slot (the LH*RS rank).
      OnDeleteCommitted(req.key, *found);
      records_.Erase(req.key);
      if (ctx_->total_records > 0) --ctx_->total_records;
      ReplyToClient(req, StatusCode::kOk, {}, {});
      if (ctx_->config.enable_merge &&
          records_.size() * 4 < ctx_->config.bucket_capacity) {
        auto report = std::make_unique<UnderflowReportMsg>();
        report->bucket = bucket_no_;
        report->record_count = records_.size();
        Send(ctx_->coordinator, std::move(report));
      }
      return;
    }
  }
}

void DataBucketNode::ReplyToClient(const OpRequestMsg& req, StatusCode code,
                                   std::string error, BufferView value) {
  auto reply = std::make_unique<OpReplyMsg>();
  reply->op_id = req.op_id;
  reply->code = code;
  reply->error = std::move(error);
  reply->value = std::move(value);
  if (req.hops > 0) {
    // The correct server receiving a forwarded request issues an IAM.
    reply->iam = IamInfo{bucket_no_, level_};
  }
  Send(req.client, std::move(reply));
}

void DataBucketNode::BounceToCoordinator(const OpRequestMsg& req) {
  auto bounce = std::make_unique<ClientOpViaCoordinatorMsg>();
  bounce->op = req.op;
  bounce->op_id = req.op_id;
  bounce->client = req.client;
  bounce->intended_bucket = req.intended_bucket;
  bounce->key = req.key;
  bounce->value = req.value;
  Send(ctx_->coordinator, std::move(bounce));
}

void DataBucketNode::ReportOverflowIfNeeded() {
  if (records_.size() <= ctx_->config.bucket_capacity) return;
  auto report = std::make_unique<OverflowReportMsg>();
  report->bucket = bucket_no_;
  report->record_count = records_.size();
  Send(ctx_->coordinator, std::move(report));
}

void DataBucketNode::HandleSplitOrder(const SplitOrderMsg& order) {
  // A split retried after this bucket was recovered arrives with the
  // bucket already at the post-split level (the recovery installed the
  // level implied by the advanced file state).
  LHRS_CHECK(order.new_level == level_ + 1 || order.new_level == level_);
  level_ = order.new_level;

  // One walk over the slots picks the movers; only they are sorted, into
  // the ascending key order the move message ships in.
  std::vector<WireRecord> moved;
  records_.ForEachSlot([&](size_t, uint64_t key, const BufferView& value) {
    if (HashL(key, level_, ctx_->config.initial_buckets) != bucket_no_) {
      // The wire record shares the stored segment bytes; the erase below
      // only tombstones the payload, the view keeps it alive.
      moved.push_back(WireRecord{key, 0, value});
    }
  });
  std::sort(moved.begin(), moved.end(),
            [](const WireRecord& a, const WireRecord& b) {
              return a.key < b.key;
            });
  // The hook runs before the erase (slots still resolvable).
  OnRecordsMovedOut(moved);
  for (const auto& rec : moved) records_.Erase(rec.key);

  auto move = std::make_unique<MoveRecordsMsg>();
  move->bucket = order.new_bucket;
  move->level = order.new_level;
  move->records = std::move(moved);
  Send(order.new_node, std::move(move));
}

void DataBucketNode::HandleMoveRecords(const MoveRecordsMsg& move) {
  LHRS_CHECK_EQ(move.bucket, bucket_no_);
  LHRS_CHECK_EQ(move.level, level_);
  std::vector<WireRecord> fresh;
  fresh.reserve(move.records.size());
  for (const auto& rec : move.records) {
    // Zero-copy adoption: the store shares the wire message's payload
    // buffer until the next compaction localizes it.
    if (!records_.InsertShared(rec.key, rec.value)) {
      // Chaos duplication (of the move itself, or of its orphan-relay via
      // the coordinator) redelivers records we already hold; applying them
      // twice would corrupt parity.
      LHRS_CHECK(network()->fault_injection_active())
          << "duplicate key in split move";
      continue;
    }
    fresh.push_back(rec);
  }
  if (fresh.empty() && initialized_ && !move.records.empty()) {
    return;  // Pure redelivery: everything already applied and acked.
  }
  OnRecordsMovedIn(fresh);
  initialized_ = true;

  auto done = std::make_unique<SplitDoneMsg>();
  done->bucket = bucket_no_;
  Send(ctx_->coordinator, std::move(done));

  ReplayHeld();
}

void DataBucketNode::HandleMergeOut(const MergeOutMsg& order) {
  // Inverse of a split: every resident record returns to the parent. The
  // same moved-out hook fires, so availability layers retire the records
  // from their groups exactly as they would for a split.
  std::vector<WireRecord> moved;
  moved.reserve(records_.size());
  records_.ForEachOrdered([&](uint64_t key, const BufferView& value) {
    moved.push_back(WireRecord{key, 0, value});
  });
  OnRecordsMovedOut(moved);
  records_.Clear();

  auto merge = std::make_unique<MergeRecordsMsg>();
  merge->parent_bucket = order.parent_bucket;
  merge->parent_new_level = order.parent_new_level;
  merge->records = std::move(moved);
  Send(order.parent_node, std::move(merge));

  // This server stands down; stale clients that still address the removed
  // bucket bounce off it to the coordinator (which resets their images).
  decommissioned_ = true;
  OnDecommissioned();
}

void DataBucketNode::HandleMergeRecords(const MergeRecordsMsg& merge) {
  LHRS_CHECK_EQ(merge.parent_bucket, bucket_no_);
  // Tolerate a parent recovered (to the post-merge level) between the
  // merge order and the record delivery.
  LHRS_CHECK(merge.parent_new_level + 1 == level_ ||
             merge.parent_new_level == level_);
  level_ = merge.parent_new_level;
  for (const auto& rec : merge.records) {
    LHRS_CHECK(records_.InsertShared(rec.key, rec.value))
        << "duplicate key in merge";
  }
  OnRecordsMovedIn(merge.records);

  auto done = std::make_unique<MergeDoneMsg>();
  done->bucket = bucket_no_;
  Send(ctx_->coordinator, std::move(done));
}

void DataBucketNode::HandleScanRequest(const ScanRequestMsg& scan) {
  if (!initialized_) {
    // A spare stood down before its records arrived: it can never cover
    // its bucket. (A merged-away bucket is initialized and answers below.)
    FailScanCoverage(scan);
    return;
  }
  // Exactly-once coverage: forward one copy to each child this bucket
  // created at a level above the sender's presumed one.
  for (Level l = scan.attached_level + 1; l <= level_; ++l) {
    const BucketNo child =
        bucket_no_ +
        (static_cast<BucketNo>(ctx_->config.initial_buckets) << (l - 1));
    // Cluster mode: a stale allocation replica cannot route the copy; the
    // client's deterministic-coverage check reports the gap.
    if (!ctx_->allocation.Knows(child)) continue;
    auto fwd = std::make_unique<ScanRequestMsg>(scan);
    fwd->attached_level = l;
    Send(ctx_->allocation.Lookup(child), std::move(fwd));
  }

  std::vector<WireRecord> matches;
  records_.ForEachOrdered([&](uint64_t key, const BufferView& value) {
    if (scan.predicate.Matches(key, value)) {
      matches.push_back(WireRecord{key, 0, value});
    }
  });
  if (scan.deterministic || !matches.empty()) {
    auto reply = std::make_unique<ScanReplyMsg>();
    reply->op_id = scan.op_id;
    reply->bucket = bucket_no_;
    reply->level = level_;
    reply->records = std::move(matches);
    Send(scan.client, std::move(reply));
  }
}

void DataBucketNode::FailScanCoverage(const ScanRequestMsg& scan) {
  auto reply = std::make_unique<ScanReplyMsg>();
  reply->op_id = scan.op_id;
  reply->bucket = bucket_no_;
  reply->level = level_;
  reply->coverage_failed = true;
  Send(scan.client, std::move(reply));
}

void DataBucketNode::HandleDeliveryFailure(const Message& msg) {
  switch (msg.body->kind()) {
    case LhStarMsg::kOpRequest: {
      // A forward hop failed: report the failure and hand the op to the
      // coordinator (section 2.8).
      const auto& req = static_cast<const OpRequestMsg&>(*msg.body);
      auto report = std::make_unique<UnavailableReportMsg>();
      report->node = msg.to;
      report->bucket = req.intended_bucket;
      Send(ctx_->coordinator, std::move(report));
      BounceToCoordinator(req);
      return;
    }
    case LhStarMsg::kMoveRecords: {
      // The new bucket died mid-split. The moved records exist only in
      // this message now (their parity was already retired), so hand them
      // to the coordinator for safekeeping and recovery.
      const auto& move = static_cast<const MoveRecordsMsg&>(*msg.body);
      auto report = std::make_unique<UnavailableReportMsg>();
      report->node = msg.to;
      report->bucket = move.bucket;
      Send(ctx_->coordinator, std::move(report));
      Send(ctx_->coordinator, std::make_unique<MoveRecordsMsg>(move));
      return;
    }
    case LhStarMsg::kMergeRecords: {
      // The merge parent died; same safekeeping as for kMoveRecords.
      const auto& merge = static_cast<const MergeRecordsMsg&>(*msg.body);
      auto report = std::make_unique<UnavailableReportMsg>();
      report->node = msg.to;
      report->bucket = merge.parent_bucket;
      Send(ctx_->coordinator, std::move(report));
      Send(ctx_->coordinator, std::make_unique<MergeRecordsMsg>(merge));
      return;
    }
    case LhStarMsg::kInsertBatchReply: {
      // A lossy network ate the reply; resend a bounded number of times so
      // the client's batch can complete (it dedups by sub-batch seq).
      if (network()->fault_injection_active()) {
        Resend<InsertBatchReplyMsg>(msg);
      }
      return;
    }
    case LhStarMsg::kScanRequest: {
      // Coverage forwarding hit a dead bucket: the deterministic scan
      // cannot terminate normally; tell the client.
      FailScanCoverage(static_cast<const ScanRequestMsg&>(*msg.body));
      return;
    }
    default:
      HandleSubclassDeliveryFailure(msg);
      return;
  }
}

void DataBucketNode::SelfCheck() {
  auto req = std::make_unique<SelfCheckRequestMsg>();
  req->bucket = bucket_no_;
  Send(ctx_->coordinator, std::move(req));
}

void DataBucketNode::InstallRecoveredState(store::BucketStore records,
                                           Level level) {
  records_ = std::move(records);
  level_ = level;
  initialized_ = true;
  ReplayHeld();
}

void DataBucketNode::OnInsertCommitted(Key, const BufferView&) {}
void DataBucketNode::OnUpdateCommitted(Key, const BufferView&,
                                       const BufferView&) {}
void DataBucketNode::OnDeleteCommitted(Key, const BufferView&) {}
void DataBucketNode::OnRecordsMovedOut(std::vector<WireRecord>&) {}
void DataBucketNode::OnRecordsMovedIn(const std::vector<WireRecord>&) {}
void DataBucketNode::OnDecommissioned() {}
void DataBucketNode::OnBatchCommitBegin() {}
void DataBucketNode::OnBatchCommitEnd() {}

}  // namespace lhrs
