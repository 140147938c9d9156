#include "lhstar/client.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "net/network.h"
#include "telemetry/metrics.h"

namespace lhrs {

ClientNode::ClientNode(std::shared_ptr<SystemContext> ctx, sdds::OpTable& ops)
    : ctx_(std::move(ctx)), ops_(ops) {
  image_.initial_buckets = ctx_->config.initial_buckets;
}

NodeId ClientNode::ResolveNode(BucketNo bucket) {
  if (bucket < cached_nodes_.size() &&
      cached_nodes_[bucket] != kInvalidNode) {
    return cached_nodes_[bucket];
  }
  // Cluster mode: this client's allocation replica may lag the
  // coordinator's table right after a split or recovery. An unknown
  // bucket is not an error — the caller routes via the coordinator.
  if (!ctx_->allocation.Knows(bucket)) return kInvalidNode;
  const NodeId node = ctx_->allocation.Lookup(bucket);
  if (bucket >= cached_nodes_.size()) {
    cached_nodes_.resize(bucket + 1, kInvalidNode);
  }
  cached_nodes_[bucket] = node;
  return node;
}

uint64_t ClientNode::StartOp(OpType op, Key key, BufferView value,
                             sdds::OpToken parent) {
  OpSlot& pending = ops_.Open(sdds::OpKind::kKeyOp, network()->now(), parent);
  pending.op = op;
  pending.key = key;
  pending.value = std::move(value);
  pending.attempts = 1;
  SendDirect(pending);
  if (retry_.enabled) ArmOpTimer(pending);
  return pending.token;
}

ClientNode::OpSlot* ClientNode::Pending(uint64_t op_id, sdds::OpKind kind) {
  OpSlot* slot = ops_.Find(op_id);
  if (slot == nullptr || slot->kind != kind || slot->done) return nullptr;
  return slot;
}

void ClientNode::SetRetryPolicy(ClientRetryPolicy policy) {
  retry_ = policy;
  retry_rng_.emplace(policy.seed);
}

void ClientNode::SendDirect(OpSlot& op) {
  // Re-derive the address each attempt: an IAM that arrived since the
  // first send may have advanced the image.
  const BucketNo a = image_.Address(op.key);
  op.sent_to_bucket = a;
  auto req = std::make_unique<OpRequestMsg>();
  req->op = op.op;
  req->op_id = op.token;
  req->client = id();
  req->intended_bucket = a;
  req->key = op.key;
  req->value = op.value;
  const NodeId node = ResolveNode(a);
  if (node == kInvalidNode) {
    // The image points at a bucket this process has not learned the
    // address of yet (stale allocation replica): let the coordinator
    // place the operation.
    SendViaCoordinator(op);
    return;
  }
  Send(node, std::move(req));
}

void ClientNode::SendViaCoordinator(const OpSlot& op) {
  auto bounce = std::make_unique<ClientOpViaCoordinatorMsg>();
  bounce->op = op.op;
  bounce->op_id = op.token;
  bounce->client = id();
  bounce->intended_bucket = op.sent_to_bucket;
  bounce->key = op.key;
  bounce->value = op.value;
  Send(ctx_->coordinator, std::move(bounce));
}

SimTime ClientNode::Backoff(uint32_t attempt) {
  if (attempt <= 1) return 0;
  SimTime backoff = retry_.base_backoff_us;
  for (uint32_t i = 2; i < attempt && backoff < retry_.max_backoff_us; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, retry_.max_backoff_us);
  if (retry_.jitter > 0 && retry_rng_.has_value()) {
    const auto spread = static_cast<SimTime>(
        static_cast<double>(backoff) * retry_.jitter);
    if (spread > 0) {
      backoff = backoff - spread + retry_rng_->Uniform(2 * spread + 1);
    }
  }
  return backoff;
}

void ClientNode::ArmOpTimer(OpSlot& op) {
  const SimTime delay = retry_.request_timeout_us + Backoff(op.attempts + 1);
  op.deadline = network()->now() + delay;
  ScheduleTimer(delay, op.token);
}

void ClientNode::HandleTimer(uint64_t timer_id) {
  if (!retry_.enabled) return;
  OpSlot* op = Pending(timer_id, sdds::OpKind::kKeyOp);
  if (op == nullptr) return;  // Completed; timer is stale.
  // A bounce-triggered resend moved the deadline past this (uncancellable)
  // timer: the newer timer owns the attempt.
  if (network()->now() < op->deadline) return;
  RetryOp(*op);
}

void ClientNode::RetryOp(OpSlot& op) {
  if (op.attempts >= retry_.max_total_attempts) {
    OpOutcome outcome;
    outcome.status = Status::Unavailable("retries exhausted after " +
                                         std::to_string(op.attempts) +
                                         " attempts");
    CompleteOp(op, std::move(outcome));
    return;
  }
  ++op.attempts;
  CountRetry();
  if (op.attempts <= retry_.max_direct_attempts) {
    SendDirect(op);
  } else {
    ++escalations_;
    if (escalations_counter_ != nullptr) escalations_counter_->Add();
    SendViaCoordinator(op);
  }
  ArmOpTimer(op);
}

void ClientNode::CountRetry() {
  ResolveCounters();
  ++retries_;
  if (retries_counter_ != nullptr) retries_counter_->Add();
}

void ClientNode::CountDuplicate() {
  ResolveCounters();
  ++duplicates_suppressed_;
  if (duplicates_counter_ != nullptr) duplicates_counter_->Add();
}

void ClientNode::ResolveCounters() {
  if (retries_counter_ != nullptr || network() == nullptr ||
      network()->telemetry() == nullptr) {
    return;
  }
  telemetry::MetricsRegistry& m = network()->telemetry()->metrics();
  retries_counter_ = &m.GetCounter("client.retries");
  escalations_counter_ = &m.GetCounter("client.escalations");
  duplicates_counter_ = &m.GetCounter("client.duplicates_suppressed");
}

uint64_t ClientNode::StartInsertBatch(std::vector<WireRecord> records) {
  LHRS_CHECK(!records.empty()) << "empty insert batch";
  OpSlot& batch = ops_.Open(sdds::OpKind::kBatch, network()->now());
  batch.batch_total = records.size();
  batch.outstanding_children = 0;

  // Group per target bucket under the image (algorithm A1 per record);
  // map order makes the sub-batch sequence deterministic.
  std::map<BucketNo, std::vector<WireRecord>> groups;
  for (WireRecord& rec : records) {
    groups[image_.Address(rec.key)].push_back(std::move(rec));
  }
  for (auto& [bucket, group] : groups) {
    SendSubBatch(batch, bucket, std::move(group), /*attempt=*/1);
  }
  return batch.token;
}

void ClientNode::SendSubBatch(OpSlot& batch, BucketNo bucket,
                              std::vector<WireRecord> records,
                              uint32_t attempt) {
  const NodeId node = ResolveNode(bucket);
  if (node == kInvalidNode) {
    // Stale allocation replica: the coordinator places these per record.
    for (const WireRecord& rec : records) {
      SendBatchChildViaCoordinator(batch, rec);
    }
    return;
  }
  const uint64_t seq = next_batch_seq_++;
  auto msg = std::make_unique<InsertBatchMsg>();
  msg->op_id = batch.token;
  msg->seq = seq;
  msg->client = id();
  msg->intended_bucket = bucket;
  msg->attempt = attempt;
  msg->records = records;  // The pending copy shares the payload views.
  batch.outstanding[seq] = sdds::SubBatch{std::move(records), attempt};
  Send(node, std::move(msg));
}

void ClientNode::SendBatchChildViaCoordinator(OpSlot& batch,
                                              const WireRecord& rec) {
  const OpSlot& child =
      ops_.Open(sdds::OpKind::kBatchChild, network()->now(), batch.token);
  ++batch.outstanding_children;
  auto bounce = std::make_unique<ClientOpViaCoordinatorMsg>();
  bounce->op = OpType::kInsert;
  bounce->op_id = child.token;
  bounce->client = id();
  bounce->intended_bucket = image_.Address(rec.key);
  bounce->key = rec.key;
  bounce->value = rec.value;
  Send(ctx_->coordinator, std::move(bounce));
}

void ClientNode::HandleInsertBatchReply(const InsertBatchReplyMsg& reply) {
  OpSlot* batch_slot = Pending(reply.op_id, sdds::OpKind::kBatch);
  if (batch_slot == nullptr) {
    CountDuplicate();
    return;
  }
  OpSlot& batch = *batch_slot;
  auto oit = batch.outstanding.find(reply.seq);
  if (oit == batch.outstanding.end()) {
    CountDuplicate();  // Resent reply for a sub-batch already settled.
    return;
  }
  sdds::SubBatch sub = std::move(oit->second);
  batch.outstanding.erase(oit);

  if (reply.bounced) {
    // Displaced bucket / spare: coordinator routing, per record.
    for (const WireRecord& rec : sub.records) {
      SendBatchChildViaCoordinator(batch, rec);
    }
    MaybeCompleteBatch(batch);
    return;
  }

  batch.outcome.batch_applied += reply.applied;
  batch.outcome.batch_exists += reply.exists;
  if (!reply.rejected.empty()) {
    // The server's (bucket, level) is the IAM: adjust and re-group. The
    // LH* image-convergence argument guarantees a rejected record never
    // lands on the same wrong bucket twice, but merges can move the file
    // under the client, so re-grouping is bounded and then handed over.
    ++iam_count_;
    image_.Adjust(reply.bucket, reply.level);
    if (sub.attempt < 4) {
      std::map<BucketNo, std::vector<WireRecord>> groups;
      for (const WireRecord& rec : reply.rejected) {
        groups[image_.Address(rec.key)].push_back(rec);
      }
      for (auto& [bucket, group] : groups) {
        SendSubBatch(batch, bucket, std::move(group), sub.attempt + 1);
      }
    } else {
      for (const WireRecord& rec : reply.rejected) {
        SendBatchChildViaCoordinator(batch, rec);
      }
    }
  }
  MaybeCompleteBatch(batch);
}

void ClientNode::HandleBatchChildReply(OpSlot& child,
                                       const OpReplyMsg& reply) {
  OpSlot* batch = Pending(child.parent, sdds::OpKind::kBatch);
  ops_.Free(child);
  if (batch == nullptr) return;
  if (reply.iam.has_value()) {
    image_.Adjust(reply.iam->bucket, reply.iam->level);
  }
  if (reply.code == StatusCode::kOk) {
    ++batch->outcome.batch_applied;
  } else if (reply.code == StatusCode::kAlreadyExists) {
    // An earlier attempt (a sub-batch applied just before its server
    // crashed) landed this record.
    ++batch->outcome.batch_exists;
  } else {
    ++batch->outcome.batch_failed;
  }
  if (batch->outstanding_children > 0) --batch->outstanding_children;
  MaybeCompleteBatch(*batch);
}

void ClientNode::MaybeCompleteBatch(OpSlot& batch) {
  if (!batch.outstanding.empty() || batch.outstanding_children > 0) return;
  OpOutcome& out = batch.outcome;
  const size_t settled = out.batch_applied + out.batch_exists + out.batch_failed;
  if (settled < batch.batch_total) {
    // Records lost without a failure signal would be a protocol bug; a
    // completed batch always accounts for every record.
    out.batch_failed += static_cast<uint32_t>(batch.batch_total - settled);
  }
  out.status = out.batch_failed == 0
                   ? Status::OK()
                   : Status::Internal(std::to_string(out.batch_failed) +
                                      " batch records failed");
  CompleteOp(batch, std::move(out));
}

uint64_t ClientNode::StartScan(ScanPredicate predicate, bool deterministic) {
  OpSlot& scan = ops_.Open(sdds::OpKind::kScan, network()->now());
  scan.deterministic = deterministic;
  const uint64_t op_id = scan.token;

  // One copy to every bucket of the client's image, each tagged with the
  // level the image presumes for it; server-side forwarding covers buckets
  // the image does not know (exactly once).
  const BucketNo extent = image_.presumed_bucket_count();
  FileState presumed{image_.i, image_.n, image_.initial_buckets};
  std::vector<std::pair<NodeId, std::unique_ptr<MessageBody>>> batch;
  batch.reserve(extent);
  for (BucketNo a = 0; a < extent; ++a) {
    // Cluster mode: buckets the local allocation replica cannot place yet
    // are skipped; the deterministic-coverage check reports the gap.
    if (!ctx_->allocation.Knows(a)) continue;
    auto req = std::make_unique<ScanRequestMsg>();
    req->op_id = op_id;
    req->client = id();
    req->attached_level = presumed.BucketLevel(a);
    req->predicate = predicate;
    req->deterministic = deterministic;
    // Scans resolve through the authoritative allocation (the multicast
    // group membership); key-addressed ops use the cache.
    batch.emplace_back(ctx_->allocation.Lookup(a), std::move(req));
  }
  if (network()->config().multicast_available) {
    network()->Multicast(id(), std::move(batch));
  } else {
    // No hardware multicast: the client sends one true unicast per bucket
    // (section 2.1's fallback), each paying full per-message cost.
    for (auto& [to, body] : batch) Send(to, std::move(body));
  }
  return op_id;
}

Result<OpOutcome> ClientNode::TakeScan(uint64_t op_id) {
  if (OpSlot* scan = Pending(op_id, sdds::OpKind::kScan)) {
    if (scan->deterministic) return Status::Internal("scan did not terminate");
    OpOutcome outcome;
    outcome.status = Status::OK();
    outcome.scan_records = std::move(scan->outcome.scan_records);
    CompleteOp(*scan, std::move(outcome));
  }
  return ops_.Take(op_id);
}

void ClientNode::CompleteOp(OpSlot& op, OpOutcome outcome) {
  RecordOpLatency(op);
  // Last: the listener may re-enter StartOp / TakeResult.
  ops_.Complete(op, std::move(outcome));
}

void ClientNode::RecordOpLatency(const OpSlot& op) {
  if (network() == nullptr || network()->telemetry() == nullptr) return;
  // Key-addressed ops by OpType, then scans and batches.
  const size_t slot = op.kind == sdds::OpKind::kKeyOp
                          ? static_cast<size_t>(op.op)
                          : (op.kind == sdds::OpKind::kScan ? 4 : 5);
  if (latency_histograms_[slot] == nullptr) {
    static constexpr const char* kLabels[6] = {"insert", "search", "update",
                                               "delete", "scan", "batch"};
    telemetry::MetricsRegistry& m = network()->telemetry()->metrics();
    latency_histograms_[slot] = &m.GetHistogram(
        telemetry::Labeled("op_latency_us", "op", kLabels[slot]));
  }
  latency_histograms_[slot]->Record(network()->now() - op.start_us);
}

void ClientNode::HandleMessage(const Message& msg) {
  switch (msg.body->kind()) {
    case LhStarMsg::kInsertBatchReply:
      HandleInsertBatchReply(
          static_cast<const InsertBatchReplyMsg&>(*msg.body));
      return;
    case LhStarMsg::kOpReply: {
      const auto& reply = static_cast<const OpReplyMsg&>(*msg.body);
      if (OpSlot* child = Pending(reply.op_id, sdds::OpKind::kBatchChild)) {
        HandleBatchChildReply(*child, reply);
        return;
      }
      OpSlot* op = Pending(reply.op_id, sdds::OpKind::kKeyOp);
      if (op == nullptr) {
        CountDuplicate();  // Late duplicate (chaos or a retry).
        return;
      }
      StatusCode code = reply.code;
      if (retry_.enabled && op->attempts > 1) {
        // At-least-once semantics: if an earlier attempt landed, its
        // effect shows up as a constraint error on the retry — fold it
        // back into success.
        if (op->op == OpType::kInsert && code == StatusCode::kAlreadyExists) {
          code = StatusCode::kOk;
        }
        if (op->op == OpType::kDelete && code == StatusCode::kNotFound) {
          code = StatusCode::kOk;
        }
      }
      OpOutcome outcome;
      outcome.status = code == StatusCode::kOk ? Status::OK()
                                               : Status(code, reply.error);
      outcome.value = reply.value;
      if (reply.iam.has_value()) {
        // Algorithm (A3) plus address-cache refresh.
        ++iam_count_;
        ++forwarded_ops_;
        outcome.was_forwarded = true;
        image_.Adjust(reply.iam->bucket, reply.iam->level);
        if (reply.iam->bucket >= cached_nodes_.size()) {
          cached_nodes_.resize(reply.iam->bucket + 1, kInvalidNode);
        }
        cached_nodes_[reply.iam->bucket] = msg.from;
      }
      CompleteOp(*op, std::move(outcome));
      return;
    }
    case LhStarMsg::kSurveyRequest: {
      const auto& req = static_cast<const SurveyRequestMsg&>(*msg.body);
      auto reply = std::make_unique<SurveyReplyMsg>();
      reply->survey_id = req.survey_id;
      reply->role = SurveyReplyMsg::Role::kOther;
      Send(msg.from, std::move(reply));
      return;
    }
    case LhStarMsg::kImageReset: {
      const auto& reset = static_cast<const ImageResetMsg&>(*msg.body);
      image_.i = reset.i;
      image_.n = reset.n;
      // Cached physical addresses beyond the new extent are stale.
      if (cached_nodes_.size() > image_.presumed_bucket_count()) {
        cached_nodes_.resize(image_.presumed_bucket_count());
      }
      return;
    }
    case LhStarMsg::kScanReply: {
      const auto& reply = static_cast<const ScanReplyMsg&>(*msg.body);
      OpSlot* scan_slot = Pending(reply.op_id, sdds::OpKind::kScan);
      if (scan_slot == nullptr) return;
      OpSlot& scan = *scan_slot;
      if (reply.coverage_failed) {
        OpOutcome outcome;
        outcome.status =
            Status::Unavailable("scan could not reach every bucket");
        CompleteOp(scan, std::move(outcome));
        return;
      }
      if (scan.replied.contains(reply.bucket)) {
        CountDuplicate();  // A duplicated reply must not double records.
        return;
      }
      scan.replied[reply.bucket] = reply.level;
      std::vector<WireRecord>& records = scan.outcome.scan_records;
      for (const auto& rec : reply.records) records.push_back(rec);
      if (!scan.deterministic) return;  // Completed via time-out upstream.
      if (ScanCoverageComplete(scan)) {
        OpOutcome outcome;
        outcome.status = Status::OK();
        outcome.scan_records = std::move(records);
        CompleteOp(scan, std::move(outcome));
      }
      return;
    }
    default:
      LHRS_LOG(Fatal) << "client: unhandled message kind "
                      << msg.body->kind();
  }
}

bool ClientNode::ScanCoverageComplete(const OpSlot& scan) const {
  // Deterministic termination (section 2.1): with i = min(j_m) and
  // n = min{m : j_m = i}, the file has M = n + 2^i * N buckets; terminate
  // when every bucket 0..M-1 has replied.
  if (scan.replied.empty()) return false;
  Level min_level = ~Level{0};
  for (const auto& [bucket, level] : scan.replied) {
    min_level = std::min(min_level, level);
  }
  BucketNo n = 0;
  bool found = false;
  for (const auto& [bucket, level] : scan.replied) {
    if (level == min_level) {
      n = bucket;
      found = true;
      break;  // std::map iterates in bucket order: first hit is min.
    }
  }
  LHRS_CHECK(found);
  const BucketNo expected =
      n + (static_cast<BucketNo>(image_.initial_buckets) << min_level);
  if (scan.replied.size() < expected) return false;
  for (BucketNo b = 0; b < expected; ++b) {
    if (!scan.replied.contains(b)) return false;
  }
  return true;
}

void ClientNode::HandleDeliveryFailure(const Message& msg) {
  switch (msg.body->kind()) {
    case LhStarMsg::kOpRequest: {
      // Section 2.4/2.8: the server did not answer; notify the
      // coordinator, which completes the operation (recovering first when
      // the file has an availability layer).
      const auto& req = static_cast<const OpRequestMsg&>(*msg.body);
      OpSlot* op = Pending(req.op_id, sdds::OpKind::kKeyOp);
      if (op == nullptr) return;
      // Evict the stale cache entry; the next attempt re-resolves.
      if (req.intended_bucket < cached_nodes_.size()) {
        cached_nodes_[req.intended_bucket] = kInvalidNode;
      }
      auto report = std::make_unique<UnavailableReportMsg>();
      report->node = msg.to;
      report->bucket = req.intended_bucket;
      Send(ctx_->coordinator, std::move(report));

      if (retry_.enabled) {
        // The bounce is a definite loss signal: retry immediately rather
        // than waiting out the attempt timer (RetryOp re-arms the
        // deadline, superseding it).
        RetryOp(*op);
        return;
      }
      SendViaCoordinator(*op);
      return;
    }
    case LhStarMsg::kInsertBatch: {
      // The whole sub-batch bounced (server crashed / unreachable):
      // report it and fall back to per-record delivery via the
      // coordinator, which recovers the bucket first when the scheme can.
      const auto& batch_msg = static_cast<const InsertBatchMsg&>(*msg.body);
      OpSlot* batch_slot = Pending(batch_msg.op_id, sdds::OpKind::kBatch);
      if (batch_slot == nullptr) return;
      OpSlot& batch = *batch_slot;
      auto oit = batch.outstanding.find(batch_msg.seq);
      if (oit == batch.outstanding.end()) return;  // Already settled.
      sdds::SubBatch sub = std::move(oit->second);
      batch.outstanding.erase(oit);
      if (batch_msg.intended_bucket < cached_nodes_.size()) {
        cached_nodes_[batch_msg.intended_bucket] = kInvalidNode;
      }
      auto report = std::make_unique<UnavailableReportMsg>();
      report->node = msg.to;
      report->bucket = batch_msg.intended_bucket;
      Send(ctx_->coordinator, std::move(report));
      for (const WireRecord& rec : sub.records) {
        SendBatchChildViaCoordinator(batch, rec);
      }
      MaybeCompleteBatch(batch);
      return;
    }
    case LhStarMsg::kScanRequest: {
      // A scan with deterministic termination blocks on an unavailable
      // bucket; surface that as kUnavailable.
      const auto& req = static_cast<const ScanRequestMsg&>(*msg.body);
      OpSlot* scan = Pending(req.op_id, sdds::OpKind::kScan);
      if (scan == nullptr) return;
      OpOutcome outcome;
      outcome.status =
          Status::Unavailable("scan could not reach every bucket");
      CompleteOp(*scan, std::move(outcome));
      return;
    }
    default:
      return;
  }
}

}  // namespace lhrs
