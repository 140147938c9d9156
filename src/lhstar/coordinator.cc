#include "lhstar/coordinator.h"

#include <utility>

#include "common/logging.h"
#include "net/network.h"

namespace lhrs {

CoordinatorNode::CoordinatorNode(std::shared_ptr<SystemContext> ctx)
    : ctx_(std::move(ctx)) {
  state_.initial_buckets = ctx_->config.initial_buckets;
}

void CoordinatorNode::HandleMessage(const Message& msg) {
  switch (msg.body->kind()) {
    case LhStarMsg::kOverflowReport: {
      const auto& report = static_cast<const OverflowReportMsg&>(*msg.body);
      if (ctx_->config.use_load_control) {
        const double capacity_total =
            static_cast<double>(ctx_->config.bucket_capacity) *
            state_.bucket_count();
        const double load = static_cast<double>(ctx_->total_records) /
                            capacity_total;
        if (load <= ctx_->config.split_load_threshold) return;
      }
      if (ctx_->config.dedup_overflow_reports &&
          !overflow_reported_.insert(report.bucket).second) {
        return;  // This bucket already has a split queued for it.
      }
      ++pending_splits_;
      MaybeStartSplit();
      return;
    }
    case LhStarMsg::kSplitDone: {
      restructure_in_progress_ = false;
      // Still-overflowing buckets re-report on their next insert.
      overflow_reported_.clear();
      if (auto* t = net()->telemetry()) {
        t->metrics().GetCounter("split.completed").Add();
        t->metrics()
            .GetHistogram("split_latency_us")
            .Record(net()->now() - split_started_us_);
        t->tracer().Record({net()->now(),
                            telemetry::TraceEventType::kSplitEnd, id(), -1,
                            -1, -1, 0});
      }
      MaybeStartSplit();
      MaybeStartMerge();
      return;
    }
    case LhStarMsg::kMergeDone: {
      restructure_in_progress_ = false;
      MaybeStartSplit();
      MaybeStartMerge();
      return;
    }
    case LhStarMsg::kUnderflowReport: {
      if (!ctx_->config.enable_merge) return;
      merge_requested_ = true;
      MaybeStartMerge();
      return;
    }
    case LhStarMsg::kMoveRecords:
      OnOrphanedMoveRecords(static_cast<const MoveRecordsMsg&>(*msg.body));
      return;
    case LhStarMsg::kMergeRecords:
      OnOrphanedMergeRecords(
          static_cast<const MergeRecordsMsg&>(*msg.body));
      return;
    case LhStarMsg::kClientOpViaCoordinator: {
      HandleClientOpFallback(
          static_cast<const ClientOpViaCoordinatorMsg&>(*msg.body));
      return;
    }
    case LhStarMsg::kUnavailableReport: {
      HandleUnavailableReport(
          static_cast<const UnavailableReportMsg&>(*msg.body));
      return;
    }
    case LhStarMsg::kSelfCheckRequest: {
      const auto& req = static_cast<const SelfCheckRequestMsg&>(*msg.body);
      auto reply = std::make_unique<SelfCheckReplyMsg>();
      reply->bucket = req.bucket;
      const bool known = ctx_->allocation.Knows(req.bucket);
      reply->still_owner =
          known && ctx_->allocation.Lookup(req.bucket) == msg.from;
      reply->replacement = known ? ctx_->allocation.Lookup(req.bucket)
                                 : kInvalidNode;
      Send(msg.from, std::move(reply));
      return;
    }
    default:
      HandleSubclassMessage(msg);
      return;
  }
}

void CoordinatorNode::HandleSubclassMessage(const Message& msg) {
  LHRS_LOG(Fatal) << "coordinator: unhandled message kind "
                  << msg.body->kind();
}

void CoordinatorNode::HandleSubclassDeliveryFailure(const Message& msg) {
  (void)msg;
}

void CoordinatorNode::MaybeStartSplit() {
  while (!restructure_in_progress_ && pending_splits_ > 0 && CanSplitNow()) {
    --pending_splits_;
    StartSplit();
  }
}

void CoordinatorNode::MaybeStartMerge() {
  if (!merge_requested_ || restructure_in_progress_ || !CanSplitNow()) {
    return;
  }
  merge_requested_ = false;
  // Merge only while the file is above its initial size and under-loaded.
  if (state_.bucket_count() <= ctx_->config.initial_buckets) return;
  const double capacity_total =
      static_cast<double>(ctx_->config.bucket_capacity) *
      (state_.bucket_count() - 1);
  const double load =
      static_cast<double>(ctx_->total_records) / capacity_total;
  if (load >= ctx_->config.merge_load_threshold) return;

  // Reverse the last split: state (i, n) steps back, the last bucket
  // returns into its parent (the new split-pointer position).
  if (state_.n > 0) {
    --state_.n;
  } else {
    --state_.i;
    state_.n = (BucketNo{ctx_->config.initial_buckets} << state_.i) - 1;
  }
  const BucketNo parent = state_.n;
  const BucketNo removed = state_.bucket_count();  // Old M - 1.
  const Level parent_new_level = state_.BucketLevel(parent);

  auto order = std::make_unique<MergeOutMsg>();
  order->parent_bucket = parent;
  order->parent_node = ctx_->allocation.Lookup(parent);
  order->parent_new_level = parent_new_level;
  Send(ctx_->allocation.Lookup(removed), std::move(order));

  restructure_in_progress_ = true;
  ++merges_performed_;
  // Keep shrinking while under-loaded: re-evaluate after MergeDone.
  merge_requested_ = true;
}

NodeId CoordinatorNode::CreateBucketNode(BucketNo bucket, Level level) {
  LHRS_CHECK(bucket_factory_) << "coordinator has no bucket factory";
  return bucket_factory_(bucket, level);
}

void CoordinatorNode::StartSplit() {
  const BucketNo victim = state_.n;
  const Level new_level = state_.i + 1;
  const BucketNo new_bucket = state_.AdvanceSplit();

  const NodeId new_node = CreateBucketNode(new_bucket, new_level);
  ctx_->allocation.Set(new_bucket, new_node);
  OnBucketCreated(new_bucket, new_node, new_level);

  LHRS_LOG(Debug) << role() << ": split bucket " << victim << " -> "
                  << new_bucket << " (level " << new_level << ")";
  auto order = std::make_unique<SplitOrderMsg>();
  order->new_bucket = new_bucket;
  order->new_node = new_node;
  order->new_level = new_level;
  Send(ctx_->allocation.Lookup(victim), std::move(order));

  restructure_in_progress_ = true;
  ++splits_performed_;
  if (auto* t = net()->telemetry()) {
    t->metrics().GetCounter("split.started").Add();
    split_started_us_ = net()->now();
    t->tracer().Record({net()->now(), telemetry::TraceEventType::kSplitBegin,
                        id(), new_node, -1, -1,
                        static_cast<int64_t>(new_bucket)});
  }
}

void CoordinatorNode::OnBucketCreated(BucketNo, NodeId, Level) {}

void CoordinatorNode::DeliverViaState(const ClientOpViaCoordinatorMsg& op) {
  const BucketNo a = state_.Address(op.key);
  auto req = std::make_unique<OpRequestMsg>();
  req->op = op.op;
  req->op_id = op.op_id;
  req->client = op.client;
  req->intended_bucket = a;
  req->key = op.key;
  req->value = op.value;
  req->hops = 1;  // Forces an IAM so the client's image and cache converge.
  Send(ctx_->allocation.Lookup(a), std::move(req));
}

void CoordinatorNode::FailClientOp(const ClientOpViaCoordinatorMsg& op,
                                   StatusCode code, std::string error) {
  auto reply = std::make_unique<OpReplyMsg>();
  reply->op_id = op.op_id;
  reply->code = code;
  reply->error = std::move(error);
  Send(op.client, std::move(reply));
}

void CoordinatorNode::HandleClientOpFallback(
    const ClientOpViaCoordinatorMsg& op) {
  MaybeResetClientImage(op);
  DeliverViaState(op);
}

void CoordinatorNode::MaybeResetClientImage(
    const ClientOpViaCoordinatorMsg& op) {
  // After a merge, a client image can be AHEAD of the file; IAMs only
  // advance images, so send the authoritative state explicitly.
  if (op.intended_bucket < state_.bucket_count()) return;
  auto reset = std::make_unique<ImageResetMsg>();
  reset->i = state_.i;
  reset->n = state_.n;
  Send(op.client, std::move(reset));
}

void CoordinatorNode::HandleUnavailableReport(const UnavailableReportMsg&) {
  // Plain LH* has no recovery machinery; reports are informational.
}

void CoordinatorNode::OnOpDeliveryFailure(
    const ClientOpViaCoordinatorMsg& op) {
  FailClientOp(op, StatusCode::kUnavailable,
               "bucket unavailable and file has no availability layer");
}

bool CoordinatorNode::RecoverBucket(BucketNo) { return false; }

void CoordinatorNode::OnSplitOrderDeliveryFailure(const SplitOrderMsg& order) {
  const BucketNo victim =
      order.new_bucket -
      (BucketNo{ctx_->config.initial_buckets} << (order.new_level - 1));
  stalled_split_orders_[victim] = order;
  if (RecoverBucket(victim)) return;
  stalled_split_orders_.erase(victim);
  LHRS_LOG(Warning) << "split victim unreachable; split abandoned "
                       "(no availability layer)";
  restructure_in_progress_ = false;
}

void CoordinatorNode::OnOrphanedMoveRecords(const MoveRecordsMsg& move) {
  rebuilt_moves_.insert(move.bucket);
  if (RecoverBucket(move.bucket)) return;
  rebuilt_moves_.erase(move.bucket);
  LHRS_LOG(Warning) << "split target for bucket " << move.bucket
                    << " lost with " << move.records.size()
                    << " records in flight (no availability layer)";
  restructure_in_progress_ = false;
}

void CoordinatorNode::OnOrphanedMergeRecords(const MergeRecordsMsg& merge) {
  LHRS_LOG(Warning) << "merge parent " << merge.parent_bucket
                    << " lost with " << merge.records.size()
                    << " records in flight (no availability layer)";
  restructure_in_progress_ = false;
}

// --- Unavailable buckets -----------------------------------------------------

void CoordinatorNode::ParkOp(const ClientOpViaCoordinatorMsg& op) {
  parked_[state_.Address(op.key)].push_back(op);
}

const SplitOrderMsg* CoordinatorNode::StalledSplitOrder(
    BucketNo victim) const {
  auto it = stalled_split_orders_.find(victim);
  return it == stalled_split_orders_.end() ? nullptr : &it->second;
}

void CoordinatorNode::ReleaseBuckets(const std::vector<BucketNo>& buckets) {
  for (BucketNo b : buckets) {
    auto parked = parked_.find(b);
    if (parked == parked_.end()) continue;
    const std::vector<ClientOpViaCoordinatorMsg> ops =
        std::move(parked->second);
    parked_.erase(parked);
    for (const auto& op : ops) DeliverViaState(op);
  }
  for (BucketNo b : buckets) {
    const NodeId node = ctx_->allocation.Lookup(b);
    if (auto it = stalled_split_orders_.find(b);
        it != stalled_split_orders_.end()) {
      Send(node, std::make_unique<SplitOrderMsg>(it->second));
      stalled_split_orders_.erase(it);
    }
    if (auto it = stalled_moves_.find(b); it != stalled_moves_.end()) {
      Send(node, std::make_unique<MoveRecordsMsg>(it->second));
      stalled_moves_.erase(it);
    }
    if (auto it = stalled_merges_.find(b); it != stalled_merges_.end()) {
      Send(node, std::make_unique<MergeRecordsMsg>(it->second));
      stalled_merges_.erase(it);
    }
    // The lost movers were rebuilt into the bucket, so the split is done;
    // release the latch its lost SplitDone would have cleared.
    if (rebuilt_moves_.erase(b) > 0) AbortRestructure();
  }
  MaybeStartSplit();
}

void CoordinatorNode::LoseBucket(BucketNo bucket, bool stand_down,
                                 const std::string& error) {
  if (stand_down) {
    auto reply = std::make_unique<SelfCheckReplyMsg>();
    reply->bucket = bucket;
    reply->still_owner = false;
    Send(ctx_->allocation.Lookup(bucket), std::move(reply));
  }
  if (auto parked = parked_.find(bucket); parked != parked_.end()) {
    for (const auto& op : parked->second) {
      FailClientOp(op, StatusCode::kDataLoss, error);
    }
    parked_.erase(parked);
  }
  // A restructuring step stalled here can never resume; abandon it so the
  // file keeps operating elsewhere.
  if (stalled_split_orders_.erase(bucket) + stalled_moves_.erase(bucket) +
          stalled_merges_.erase(bucket) + rebuilt_moves_.erase(bucket) >
      0) {
    AbortRestructure();
  }
}

std::vector<BucketNo> CoordinatorNode::ReplicaBucketsFor(
    BucketNo bucket, BucketNo replica_extent) const {
  Level level = state_.BucketLevel(bucket);
  if (stalled_split_orders_.contains(bucket) ||
      rebuilt_moves_.contains(bucket)) {
    LHRS_CHECK_GT(level, 0u);
    --level;
  }
  // Levels never decrease, so every replica bucket x = bucket (mod 2^j N)
  // holds only keys of the class, and together they hold all of them.
  const BucketNo stride = BucketNo{ctx_->config.initial_buckets} << level;
  std::vector<BucketNo> out;
  for (BucketNo x = bucket % stride; x < replica_extent; x += stride) {
    out.push_back(x);
  }
  return out;
}

bool CoordinatorNode::BelongsInRebuild(BucketNo bucket, Key key) const {
  Level level = state_.BucketLevel(bucket);
  if (stalled_split_orders_.contains(bucket)) --level;
  const uint32_t n = ctx_->config.initial_buckets;
  return HashL(key, level, n) == bucket % (BucketNo{n} << level);
}

void CoordinatorNode::HandleDeliveryFailure(const Message& msg) {
  switch (msg.body->kind()) {
    case LhStarMsg::kOpRequest: {
      const auto& req = static_cast<const OpRequestMsg&>(*msg.body);
      ClientOpViaCoordinatorMsg op;
      op.op = req.op;
      op.op_id = req.op_id;
      op.client = req.client;
      op.intended_bucket = req.intended_bucket;
      op.key = req.key;
      op.value = req.value;
      OnOpDeliveryFailure(op);
      return;
    }
    case LhStarMsg::kSplitOrder:
      OnSplitOrderDeliveryFailure(
          static_cast<const SplitOrderMsg&>(*msg.body));
      return;
    case LhStarMsg::kMergeOut: {
      // The merge victim is down: undo the state reversal (the merge never
      // happened) and let the availability layer recover the victim.
      state_.AdvanceSplit();
      restructure_in_progress_ = false;
      --merges_performed_;
      HandleSubclassDeliveryFailure(msg);
      return;
    }
    default:
      HandleSubclassDeliveryFailure(msg);
      return;
  }
}

}  // namespace lhrs
