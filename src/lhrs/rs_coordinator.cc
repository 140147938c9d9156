#include "lhrs/rs_coordinator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "net/network.h"

namespace lhrs {

RsCoordinatorNode::RsCoordinatorNode(std::shared_ptr<LhrsContext> lhrs_ctx)
    : CoordinatorNode(lhrs_ctx->base), lhrs_ctx_(std::move(lhrs_ctx)) {}

const RsCoordinatorNode::GroupInfo& RsCoordinatorNode::group_info(
    uint32_t g) const {
  LHRS_CHECK_LT(g, groups_.size());
  return groups_[g];
}

uint32_t RsCoordinatorNode::ExistingSlots(uint32_t g) const {
  const uint32_t m = lhrs_ctx_->m;
  const BucketNo total = state_.bucket_count();
  const BucketNo first = g * m;
  LHRS_CHECK_LT(first, total);
  return std::min<BucketNo>(m, total - first);
}

bool RsCoordinatorNode::NodeUp(NodeId node) const {
  return net()->available(node);
}

void RsCoordinatorNode::EnsureGroup(uint32_t g) {
  LHRS_CHECK(parity_factory_) << "coordinator has no parity factory";
  while (groups_.size() <= g) {
    const uint32_t new_group = static_cast<uint32_t>(groups_.size());
    GroupInfo info;
    info.k = lhrs_ctx_->policy.KForFileSize(state_.bucket_count());
    info.parity_nodes.reserve(info.k);
    for (uint32_t j = 0; j < info.k; ++j) {
      info.parity_nodes.push_back(
          parity_factory_(new_group, j, info.k, /*spare=*/false));
    }
    groups_.push_back(std::move(info));
  }
}

void RsCoordinatorNode::InitializeGroups() {
  const uint32_t last_group =
      GroupOf(state_.bucket_count() - 1, lhrs_ctx_->m);
  EnsureGroup(last_group);
  for (uint32_t g = 0; g <= last_group; ++g) SendGroupConfig(g);
}

void RsCoordinatorNode::SendGroupConfig(uint32_t g) {
  const GroupInfo& info = groups_[g];
  const uint32_t existing = ExistingSlots(g);
  for (uint32_t slot = 0; slot < existing; ++slot) {
    const BucketNo b = g * lhrs_ctx_->m + slot;
    auto cfg = std::make_unique<GroupConfigMsg>();
    cfg->group = g;
    cfg->k = info.k;
    cfg->parity_nodes = info.parity_nodes;
    Send(ctx_->allocation.Lookup(b), std::move(cfg));
  }
}

void RsCoordinatorNode::OnBucketCreated(BucketNo bucket, NodeId node,
                                        Level level) {
  (void)level;
  const uint32_t g = GroupOf(bucket, lhrs_ctx_->m);
  EnsureGroup(g);
  const GroupInfo& info = groups_[g];
  auto cfg = std::make_unique<GroupConfigMsg>();
  cfg->group = g;
  cfg->k = info.k;
  cfg->parity_nodes = info.parity_nodes;
  Send(node, std::move(cfg));
}

// --- Failure detection -------------------------------------------------

void RsCoordinatorNode::HandleUnavailableReport(
    const UnavailableReportMsg& report) {
  // With automatic recovery off, failure handling is operator-driven
  // (NotifyUnavailable); third-party reports are informational only.
  if (!lhrs_ctx_->auto_recover) return;
  // Ignore stale reports (node already replaced) and duplicates (already
  // recovering); otherwise verify with a liveness probe before committing
  // to a recovery.
  if (report.is_parity) {
    if (report.group >= groups_.size()) return;
    const GroupInfo& info = groups_[report.group];
    if (report.parity_index >= info.k) return;
    if (info.parity_nodes[report.parity_index] != report.node) return;
    if (recovering_parity_.contains({report.group, report.parity_index})) {
      return;
    }
  } else {
    if (!ctx_->allocation.Knows(report.bucket)) return;
    if (ctx_->allocation.Lookup(report.bucket) != report.node) return;
    if (recovering_data_.contains(report.bucket)) return;
  }
  const uint64_t probe_id = next_probe_id_++;
  probes_[probe_id] = report.node;
  auto ping = std::make_unique<PingRequestMsg>();
  ping->probe_id = probe_id;
  Send(report.node, std::move(ping));
}

void RsCoordinatorNode::NotifyUnavailable(NodeId node) {
  std::set<uint32_t> affected;
  for (BucketNo b = 0; b < state_.bucket_count(); ++b) {
    if (ctx_->allocation.Knows(b) && ctx_->allocation.Lookup(b) == node) {
      affected.insert(GroupOf(b, lhrs_ctx_->m));
    }
  }
  for (uint32_t g = 0; g < groups_.size(); ++g) {
    for (NodeId p : groups_[g].parity_nodes) {
      if (p == node) affected.insert(g);
    }
  }
  for (uint32_t g : affected) RecoverGroup(g);
}

void RsCoordinatorNode::RecoverGroup(uint32_t g) { StartRecovery(g); }

// --- Recovery orchestration ---------------------------------------------

void RsCoordinatorNode::StartRecovery(uint32_t g) {
  EnsureGroup(g);
  GroupInfo& info = groups_[g];
  if (info.lost) return;
  // A merge-driven shrink can retire every data bucket of a tail group;
  // the group lingers in groups_ but holds nothing to repair.
  if (static_cast<BucketNo>(g) * lhrs_ctx_->m >= state_.bucket_count()) {
    return;
  }

  const uint32_t m = lhrs_ctx_->m;
  const uint32_t existing = ExistingSlots(g);

  // Classify columns.
  std::vector<uint32_t> missing;
  std::vector<uint32_t> alive_data;    // columns (slots).
  std::vector<uint32_t> alive_parity;  // parity indexes.
  for (uint32_t slot = 0; slot < existing; ++slot) {
    const BucketNo b = g * m + slot;
    const NodeId node =
        ctx_->allocation.Knows(b) ? ctx_->allocation.Lookup(b) : kInvalidNode;
    if (recovering_data_.contains(b) || node == kInvalidNode ||
        !NodeUp(node)) {
      missing.push_back(slot);
    } else {
      alive_data.push_back(slot);
    }
  }
  for (uint32_t j = 0; j < info.k; ++j) {
    const NodeId node = info.parity_nodes[j];
    if (recovering_parity_.contains({g, j}) || node == kInvalidNode ||
        !NodeUp(node)) {
      missing.push_back(m + j);
    } else {
      alive_parity.push_back(j);
    }
  }
  if (missing.empty()) return;
  // Already handled by an identical in-flight task? Don't restart it.
  if (auto it = group_task_.find(g); it != group_task_.end()) {
    if (tasks_.at(it->second).missing_columns == missing) return;
  }

  bool missing_has_data = false;
  bool missing_has_parity = false;
  for (uint32_t col : missing) {
    (col < m ? missing_has_data : missing_has_parity) = true;
  }

  // The group's code plans the repair: which survivors to read, and
  // whether decode may start before every reply. A failed plan means the
  // surviving columns cannot determine the lost ones.
  const parity::ParityCode& code = lhrs_ctx_->coders->ForK(info.k);
  parity::RepairContext repair_ctx;
  repair_ctx.existing_slots = existing;
  repair_ctx.alive_data = alive_data;
  repair_ctx.alive_parity = alive_parity;
  repair_ctx.missing = missing;
  auto plan = code.PlanRepair(repair_ctx);
  if (!plan.ok()) {
    MarkGroupLost(g);
    return;
  }

  // Abort any in-flight task for this group (its survivor set is stale).
  if (auto it = group_task_.find(g); it != group_task_.end()) {
    TraceTaskAborted(tasks_.at(it->second));
    tasks_.erase(it->second);
    group_task_.erase(it);
  }

  RecoveryTask task;
  task.id = next_task_id_++;
  task.group = g;
  task.missing_columns = missing;

  // Allocate (or reuse) a spare per missing column and repoint the
  // directory at it; uninitialised spares queue traffic until installed.
  for (uint32_t col : missing) {
    if (col < m) {
      const BucketNo b = g * m + col;
      const Level level = state_.BucketLevel(b);
      NodeId spare =
          ctx_->allocation.Knows(b) ? ctx_->allocation.Lookup(b)
                                    : kInvalidNode;
      if (!recovering_data_.contains(b) || spare == kInvalidNode ||
          !NodeUp(spare)) {
        spare = CreateBucketNode(b, level);
        ctx_->allocation.Set(b, spare);
      }
      recovering_data_.insert(b);
      task.spares[col] = spare;
      task.data_levels[col] = level;
    } else {
      const uint32_t j = col - m;
      NodeId spare = info.parity_nodes[j];
      if (!recovering_parity_.contains({g, j}) || spare == kInvalidNode ||
          !NodeUp(spare)) {
        spare = parity_factory_(g, j, info.k, /*spare=*/true);
        info.parity_nodes[j] = spare;
      }
      recovering_parity_.insert({g, j});
      task.spares[col] = spare;
    }
  }
  // New parity locations must reach the group's data buckets — including
  // the data spares, which SendGroupConfig covers because the allocation
  // table already points at them.
  SendGroupConfig(g);

  // Issue the planned reads. Early decode (progressive) only applies when
  // no parity column is missing: re-encoding one needs the full data row,
  // i.e. every planned data read.
  task.progressive = plan->progressive && !missing_has_parity;
  if (task.progressive) {
    std::vector<uint32_t> wanted_data;
    for (uint32_t col : missing) {
      if (col < m) wanted_data.push_back(col);
    }
    std::vector<uint32_t> known_zero;
    for (uint32_t slot = existing; slot < m; ++slot) {
      known_zero.push_back(slot);
    }
    task.rank_tracker = code.NewProgressiveDecoder(wanted_data, known_zero);
  }
  for (uint32_t col : plan->read_columns) {
    auto read = std::make_unique<ColumnReadRequestMsg>();
    read->task_id = task.id;
    read->group = g;
    task.awaiting_reads.insert(col);
    Send(col < m ? ctx_->allocation.Lookup(g * m + col)
                 : info.parity_nodes[col - m],
         std::move(read));
  }

  group_task_[g] = task.id;
  const uint64_t id = task.id;
  tasks_.emplace(id, std::move(task));
  // A group with no reads to await (all survivors are known-zero slots)
  // cannot happen: missing data requires a parity read, and missing parity
  // with no alive data means existing == 0, impossible.
  LHRS_CHECK(!tasks_.at(id).awaiting_reads.empty());

  if (auto* t = net()->telemetry()) {
    const uint64_t now = net()->now();
    RecoveryTask& tk = tasks_.at(id);
    // The plan phase (classify, allocate spares, push config) runs
    // synchronously inside this call, so it begins and ends at `now`; the
    // read phase opens immediately after.
    tk.started_us = now;
    tk.read_started_us = now;
    t->metrics().GetCounter("recovery.started").Add();
    const auto g32 = static_cast<int32_t>(g);
    const int32_t self = this->id();  // Local `id` shadows Node::id().
    auto& tracer = t->tracer();
    tracer.Record({now, telemetry::TraceEventType::kRecoveryBegin, self, -1,
                   -1, g32, static_cast<int64_t>(id)});
    using P = telemetry::RecoveryPhase;
    tracer.Record({now, telemetry::TraceEventType::kRecoveryPhaseBegin,
                   self, -1, -1, g32, static_cast<int64_t>(P::kPlan)});
    tracer.Record({now, telemetry::TraceEventType::kRecoveryPhaseEnd, self,
                   -1, -1, g32, static_cast<int64_t>(P::kPlan)});
    tracer.Record({now, telemetry::TraceEventType::kRecoveryPhaseBegin,
                   self, -1, -1, g32, static_cast<int64_t>(P::kRead)});
  }
}

void RsCoordinatorNode::AbortTaskIfActive(uint64_t task_id, uint32_t g) {
  auto it = group_task_.find(g);
  if (it == group_task_.end() || it->second != task_id) return;
  TraceTaskAborted(tasks_.at(task_id));
  tasks_.erase(task_id);
  group_task_.erase(it);
}

void RsCoordinatorNode::TraceTaskAborted(const RecoveryTask& task) {
  auto* t = net()->telemetry();
  if (t == nullptr || task.started_us == 0) return;
  const uint64_t now = net()->now();
  const auto g32 = static_cast<int32_t>(task.group);
  // The read phase is open until every dump arrived; afterwards the
  // decode+install phase is.
  const auto phase = task.awaiting_reads.empty()
                         ? telemetry::RecoveryPhase::kDecodeInstall
                         : telemetry::RecoveryPhase::kRead;
  t->tracer().Record({now, telemetry::TraceEventType::kRecoveryPhaseEnd,
                      id(), -1, -1, g32, static_cast<int64_t>(phase)});
  t->tracer().Record({now, telemetry::TraceEventType::kRecoveryEnd, id(),
                      -1, -1, g32, /*detail=*/1});
  t->metrics().GetCounter("recovery.aborted").Add();
}

void RsCoordinatorNode::MarkGroupLost(uint32_t g) {
  GroupInfo& info = groups_[g];
  if (info.lost) return;
  info.lost = true;
  ++groups_lost_;
  if (auto* t = net()->telemetry()) {
    t->metrics().GetCounter("recovery.groups_lost").Add();
  }
  LHRS_LOG(Warning) << "bucket group " << g
                    << " lost: more failures than availability level k="
                    << info.k;
  if (auto it = group_task_.find(g); it != group_task_.end()) {
    TraceTaskAborted(tasks_.at(it->second));
    tasks_.erase(it->second);
    group_task_.erase(it);
  }
  for (uint32_t slot = 0; slot < ExistingSlots(g); ++slot) {
    const BucketNo b = g * lhrs_ctx_->m + slot;
    LoseBucket(b, /*stand_down=*/recovering_data_.contains(b),
               "bucket group lost more columns than its availability "
               "level tolerates");
  }
  std::vector<uint64_t> doomed;
  for (auto& [id, task] : degraded_) {
    if (task.group == g) doomed.push_back(id);
  }
  for (uint64_t id : doomed) {
    FailDegradedRead(degraded_.at(id),
                     Status::DataLoss("bucket group lost"));
  }
  MaybeStartSplit();
}

void RsCoordinatorNode::OnColumnRead(const ColumnReadReplyMsg& reply,
                                     NodeId from) {
  (void)from;
  LHRS_CHECK(reply.dump != nullptr);
  const uint32_t column = reply.dump->column;
  if (auto scrub = scrubs_.find(reply.task_id); scrub != scrubs_.end()) {
    ScrubTask& task = scrub->second;
    if (!task.awaiting_reads.erase(column)) return;
    task.dumps.push_back(reply.dump);
    if (task.awaiting_reads.empty()) FinishScrub(task);
    return;
  }
  auto it = tasks_.find(reply.task_id);
  if (it == tasks_.end()) return;  // Stale task.
  RecoveryTask& task = it->second;
  if (!task.awaiting_reads.erase(column)) return;
  if (auto* t = net()->telemetry()) {
    t->metrics()
        .GetCounter("recovery.repair_bytes_moved")
        .Add(reply.ByteSize());
  }
  // Adopt the reply's body: it is immutable and shared with any duplicate
  // of this reply still in flight, so no record is copied.
  task.dumps.push_back(reply.dump);
  const bool got_parity = reply.dump->is_parity(lhrs_ctx_->m);
  if (task.rank_tracker != nullptr) {
    task.rank_tracker->AddColumn(column, BufferView());
    task.have_parity_dump |= got_parity;
    // Progressive decode: reconstruction starts on the earliest reply set
    // whose column identities determine the missing data (the key/length
    // directory additionally needs one parity dump). Outstanding reads
    // keep draining into the ignore path above.
    if (!task.awaiting_reads.empty() && task.have_parity_dump &&
        task.rank_tracker->Ready()) {
      if (auto* t = net()->telemetry()) {
        t->metrics()
            .GetCounter("recovery.progressive_early_decodes")
            .Add();
      }
      task.awaiting_reads.clear();
    }
  }
  if (task.awaiting_reads.empty()) TryDecodeAndInstall(task);
}

void RsCoordinatorNode::TryDecodeAndInstall(RecoveryTask& task) {
  if (auto* t = net()->telemetry()) {
    // All survivor dumps are in: the read phase closes and decode+install
    // opens. If the decode below fails, MarkGroupLost closes the open
    // phase via TraceTaskAborted.
    const uint64_t now = net()->now();
    const auto g32 = static_cast<int32_t>(task.group);
    task.install_started_us = now;
    t->metrics()
        .GetHistogram("recovery_phase_read_us")
        .Record(now - task.read_started_us);
    using P = telemetry::RecoveryPhase;
    t->tracer().Record({now, telemetry::TraceEventType::kRecoveryPhaseEnd,
                        id(), -1, -1, g32,
                        static_cast<int64_t>(P::kRead)});
    t->tracer().Record({now, telemetry::TraceEventType::kRecoveryPhaseBegin,
                        id(), -1, -1, g32,
                        static_cast<int64_t>(P::kDecodeInstall)});
  }
  const GroupInfo& info = groups_[task.group];
  ReconstructionRequest req;
  req.m = lhrs_ctx_->m;
  req.coder = &lhrs_ctx_->coders->ForK(info.k);
  req.existing_slots = ExistingSlots(task.group);
  req.survivors = std::move(task.dumps);
  req.missing_columns = task.missing_columns;
  req.progressive = task.progressive;

  auto result = ReconstructColumns(req);
  if (!result.ok()) {
    LHRS_LOG(Warning) << "reconstruction of group " << task.group
                      << " failed: " << result.status();
    MarkGroupLost(task.group);
    return;
  }

  for (auto& col : *result) {
    const NodeId spare = task.spares.at(col.column);
    if (col.column < lhrs_ctx_->m) {
      auto install = std::make_unique<InstallDataColumnMsg>();
      install->task_id = task.id;
      install->bucket = task.group * lhrs_ctx_->m + col.column;
      install->level = task.data_levels.at(col.column);
      install->records = std::move(col.records);
      task.awaiting_installs.insert(col.column);
      Send(spare, std::move(install));
    } else {
      auto install = std::make_unique<InstallParityColumnMsg>();
      install->task_id = task.id;
      install->group = task.group;
      install->parity_index = col.column - lhrs_ctx_->m;
      install->parity = std::move(col.parity);
      task.awaiting_installs.insert(col.column);
      Send(spare, std::move(install));
    }
  }
  LHRS_CHECK(!task.awaiting_installs.empty());
}

void RsCoordinatorNode::OnInstallDone(const InstallDoneMsg& done) {
  auto it = tasks_.find(done.task_id);
  if (it == tasks_.end()) return;
  RecoveryTask& task = it->second;
  if (!task.awaiting_installs.erase(done.column)) return;
  ++columns_recovered_;
  if (task.awaiting_installs.empty() && task.awaiting_reads.empty()) {
    FinishTask(task);
  }
}

void RsCoordinatorNode::FinishTask(RecoveryTask& task) {
  const uint32_t m = lhrs_ctx_->m;
  std::vector<BucketNo> recovered_buckets;
  for (uint32_t col : task.missing_columns) {
    if (col < m) {
      const BucketNo b = task.group * m + col;
      recovering_data_.erase(b);
      recovered_buckets.push_back(b);
    } else {
      recovering_parity_.erase({task.group, col - m});
    }
  }
  ++recoveries_completed_;
  const uint32_t g = task.group;
  if (auto* t = net()->telemetry()) {
    const uint64_t now = net()->now();
    const auto g32 = static_cast<int32_t>(g);
    t->metrics().GetCounter("recovery.completed").Add();
    t->metrics()
        .GetHistogram("recovery_phase_decode_install_us")
        .Record(now - task.install_started_us);
    t->metrics()
        .GetHistogram("recovery_latency_us")
        .Record(now - task.started_us);
    t->tracer().Record({now, telemetry::TraceEventType::kRecoveryPhaseEnd,
                        id(), -1, -1, g32,
                        static_cast<int64_t>(
                            telemetry::RecoveryPhase::kDecodeInstall)});
    t->tracer().Record({now, telemetry::TraceEventType::kRecoveryEnd, id(),
                        -1, -1, g32, /*detail=*/0});
  }
  group_task_.erase(g);
  tasks_.erase(task.id);  // `task` is dead after this line.
  ReleaseBuckets(recovered_buckets);
}

bool RsCoordinatorNode::RecoverBucket(BucketNo bucket) {
  StartRecovery(GroupOf(bucket, lhrs_ctx_->m));
  return true;
}

void RsCoordinatorNode::OnOrphanedMoveRecords(const MoveRecordsMsg& move) {
  // Under fault injection the move may simply have been *dropped* with the
  // target alive and waiting uninitialized; recovery would find nothing
  // missing and the records would stay parked forever. Relay directly
  // instead (the target's duplicate filter makes this safe).
  if (net()->fault_injection_active() &&
      ctx_->allocation.Knows(move.bucket)) {
    const NodeId target = ctx_->allocation.Lookup(move.bucket);
    if (NodeUp(target)) {
      Send(target, std::make_unique<MoveRecordsMsg>(move));
      return;
    }
  }
  // The split target died holding no state; the moved records live only in
  // this message. Recover the (empty) target, then deliver the move.
  StallMove(move);
  if (!IsRecoveringData(move.bucket)) {
    StartRecovery(GroupOf(move.bucket, lhrs_ctx_->m));
  }
}

void RsCoordinatorNode::OnOrphanedMergeRecords(const MergeRecordsMsg& merge) {
  // Same dropped-not-dead relay as OnOrphanedMoveRecords.
  if (net()->fault_injection_active() &&
      ctx_->allocation.Knows(merge.parent_bucket)) {
    const NodeId parent = ctx_->allocation.Lookup(merge.parent_bucket);
    if (NodeUp(parent)) {
      Send(parent, std::make_unique<MergeRecordsMsg>(merge));
      return;
    }
  }
  StallMerge(merge);
  if (!IsRecoveringData(merge.parent_bucket)) {
    StartRecovery(GroupOf(merge.parent_bucket, lhrs_ctx_->m));
  }
}

// --- Coordinator soft-state recovery -----------------------------------------

void RsCoordinatorNode::WipeSoftStateAndResurvey() {
  // Total soft-state loss: the restarted coordinator process knows only
  // its configuration (N, m, b, policy) and the set of machine addresses.
  state_ = FileState{};
  state_.initial_buckets = ctx_->config.initial_buckets;
  ctx_->allocation.Clear();
  groups_.clear();
  tasks_.clear();
  group_task_.clear();
  recovering_data_.clear();
  recovering_parity_.clear();
  degraded_.clear();
  scrubs_.clear();
  ClearParkedOps();
  probes_.clear();
  survey_rebuilt_ = false;

  SurveyState survey;
  survey.id = next_survey_id_++;
  const size_t nodes = net()->node_count();
  std::vector<std::pair<NodeId, std::unique_ptr<MessageBody>>> batch;
  for (NodeId n = 0; n < static_cast<NodeId>(nodes); ++n) {
    if (n == id()) continue;
    auto req = std::make_unique<SurveyRequestMsg>();
    req->survey_id = survey.id;
    batch.emplace_back(n, std::move(req));
    ++survey.awaiting;
  }
  const uint64_t sid = survey.id;
  surveys_.emplace(sid, std::move(survey));
  net()->Multicast(id(), std::move(batch));
}

void RsCoordinatorNode::FinishSurvey(SurveyState& survey) {
  // Allocation table + (A6) file state from the data-bucket replies.
  Level min_level = ~Level{0};
  BucketNo max_bucket = 0;
  bool any_data = false;
  for (const auto& [node, reply] : survey.replies) {
    if (reply.role != SurveyReplyMsg::Role::kDataBucket ||
        reply.decommissioned) {
      continue;
    }
    any_data = true;
    ctx_->allocation.Set(reply.bucket, node);
    min_level = std::min(min_level, reply.level);
    max_bucket = std::max(max_bucket, reply.bucket);
    ctx_->total_records += reply.record_count;
  }
  LHRS_CHECK(any_data) << "survey found no data buckets";
  // Parity directory.
  uint32_t max_group = 0;
  for (const auto& [node, reply] : survey.replies) {
    if (reply.role == SurveyReplyMsg::Role::kParityBucket) {
      max_group = std::max(max_group, reply.group);
    }
  }
  groups_.assign(max_group + 1, GroupInfo{});
  for (const auto& [node, reply] : survey.replies) {
    if (reply.role != SurveyReplyMsg::Role::kParityBucket) continue;
    GroupInfo& info = groups_[reply.group];
    if (info.k == 0) {
      info.k = reply.k;
      info.parity_nodes.assign(reply.k, kInvalidNode);
    }
    LHRS_CHECK_EQ(info.k, reply.k) << "inconsistent k in group survey";
    // Keep the newest registration (a stale decommissioned twin may also
    // answer; parity buckets are never decommissioned, but recovered ones
    // leave their dead predecessors silent, so collisions cannot happen).
    info.parity_nodes[reply.parity_index] = node;
  }
  // Groups whose every parity bucket stayed silent: availability level is
  // unknowable from the survey; fall back to the policy (exact for
  // fixed-k files) and let recovery rebuild the columns from the data.
  for (GroupInfo& info : groups_) {
    if (info.k == 0) {
      info.k = lhrs_ctx_->policy.KForFileSize(max_bucket + 1);
      info.parity_nodes.assign(info.k, kInvalidNode);
    }
  }
  // (A6) closed form. The survey needs the highest bucket's server alive
  // to pin M; cross-check against the parity directory extent.
  FileState rebuilt;
  rebuilt.initial_buckets = ctx_->config.initial_buckets;
  rebuilt.i = min_level;
  const BucketNo boundary =
      BucketNo{ctx_->config.initial_buckets} << min_level;
  BucketNo total = max_bucket + 1;
  LHRS_CHECK_GE(total, boundary)
      << "survey replies inconsistent with LH* (is the last bucket down?)";
  rebuilt.n = total - boundary;
  state_ = rebuilt;

  survey_rebuilt_ = true;
  surveys_.erase(survey.id);

  // Heal the holes: recover buckets/parity columns whose servers stayed
  // silent, through the ordinary machinery.
  if (lhrs_ctx_->auto_recover) {
    for (uint32_t g = 0; g < groups_.size(); ++g) StartRecovery(g);
  }
}

// --- Parity scrubbing --------------------------------------------------------

void RsCoordinatorNode::StartScrub(uint32_t g, bool repair) {
  EnsureGroup(g);
  const GroupInfo& info = groups_[g];
  if (info.lost) return;
  // Tail groups emptied by merges have no columns to scrub.
  if (static_cast<BucketNo>(g) * lhrs_ctx_->m >= state_.bucket_count()) {
    return;
  }
  const uint32_t m = lhrs_ctx_->m;

  ScrubTask task;
  task.id = next_task_id_++;
  task.group = g;
  task.repair = repair;
  for (uint32_t slot = 0; slot < ExistingSlots(g); ++slot) {
    const BucketNo b = g * m + slot;
    LHRS_CHECK(NodeUp(ctx_->allocation.Lookup(b)))
        << "scrub requires every column up";
    auto read = std::make_unique<ColumnReadRequestMsg>();
    read->task_id = task.id;
    read->group = g;
    task.awaiting_reads.insert(slot);
    Send(ctx_->allocation.Lookup(b), std::move(read));
  }
  for (uint32_t j = 0; j < info.k; ++j) {
    LHRS_CHECK(NodeUp(info.parity_nodes[j]))
        << "scrub requires every column up";
    auto read = std::make_unique<ColumnReadRequestMsg>();
    read->task_id = task.id;
    read->group = g;
    task.awaiting_reads.insert(m + j);
    Send(info.parity_nodes[j], std::move(read));
  }
  const uint64_t id = task.id;
  scrubs_.emplace(id, std::move(task));
}

void RsCoordinatorNode::FinishScrub(ScrubTask& task) {
  const uint32_t m = lhrs_ctx_->m;
  const GroupInfo& info = groups_[task.group];
  const parity::ParityCode& coder = lhrs_ctx_->coders->ForK(info.k);

  auto equal_mod_padding = [](std::span<const uint8_t> a,
                              std::span<const uint8_t> b) {
    const size_t n = std::min(a.size(), b.size());
    if (!std::equal(a.begin(), a.begin() + n, b.begin())) return false;
    std::span<const uint8_t> longer = a.size() >= b.size() ? a : b;
    for (size_t i = n; i < longer.size(); ++i) {
      if (longer[i] != 0) return false;
    }
    return true;
  };

  // The data columns are the ground truth: every rank a data column holds
  // is a record group each parity column must hold, with the members'
  // keys and lengths and the parity their values encode to. A parity row
  // at a rank no data column holds is a mismatch too.
  const Collation table(m, info.k, task.dumps);
  std::set<uint32_t> bad_columns;
  uint64_t record_groups = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    bool has_data = false;
    for (uint32_t slot = 0; slot < m; ++slot) {
      has_data = has_data || table.Record(slot, i) != nullptr;
    }
    if (has_data) ++record_groups;
    for (uint32_t j = 0; j < info.k; ++j) {
      const uint32_t col = m + j;
      const uint32_t row = table.RowAt(col, i);
      if (row == Collation::kNone && !has_data) continue;
      bool ok = row != Collation::kNone && has_data;
      if (ok) {
        const ParityColumn& p = table.Parity(col);
        for (uint32_t slot = 0; slot < m && ok; ++slot) {
          const RankedRecord* rec = table.Record(slot, i);
          const std::optional<Key>& key = p.keys[p.Cell(row, slot)];
          ok = rec == nullptr ? !key.has_value()
                              : key == rec->key && p.lengths[p.Cell(row, slot)] ==
                                                       rec->value.size();
        }
        if (ok) {
          Bytes expected;
          for (uint32_t slot = 0; slot < m; ++slot) {
            const RankedRecord* rec = table.Record(slot, i);
            if (rec != nullptr) coder.ApplyDelta(slot, rec->value, j, &expected);
          }
          ok = equal_mod_padding(expected, p.parity[row]);
        }
      }
      if (!ok) {
        ++scrub_report_.mismatched_parity_records;
        bad_columns.insert(col);
      }
    }
  }
  ++scrub_report_.groups_scrubbed;
  scrub_report_.record_groups_checked += record_groups;

  if (task.repair && !bad_columns.empty()) {
    // Re-encode the bad columns from the (authoritative) data columns.
    ReconstructionRequest req;
    req.m = m;
    req.coder = &coder;
    req.existing_slots = ExistingSlots(task.group);
    for (const SharedDump& dump : task.dumps) {
      if (!dump->is_parity(m)) req.survivors.push_back(dump);
    }
    req.missing_columns.assign(bad_columns.begin(), bad_columns.end());
    auto result = ReconstructColumns(req);
    LHRS_CHECK(result.ok()) << result.status();
    for (auto& col : *result) {
      auto install = std::make_unique<InstallParityColumnMsg>();
      install->task_id = task.id;
      install->group = task.group;
      install->parity_index = col.column - m;
      install->parity = std::move(col.parity);
      Send(info.parity_nodes[col.column - m], std::move(install));
      ++scrub_report_.parity_columns_repaired;
    }
  }
  scrubs_.erase(task.id);
}

// --- Client ops in degraded mode ------------------------------------------

void RsCoordinatorNode::HandleClientOpFallback(
    const ClientOpViaCoordinatorMsg& op) {
  MaybeResetClientImage(op);
  const BucketNo a = state_.Address(op.key);
  const uint32_t g = GroupOf(a, lhrs_ctx_->m);
  if (g < groups_.size() && groups_[g].lost) {
    FailClientOp(op, StatusCode::kDataLoss, "bucket group lost");
    return;
  }
  if (IsRecoveringData(a)) {
    if (op.op == OpType::kSearch) {
      StartDegradedRead(op);
    } else {
      ParkOp(op);
    }
    return;
  }
  const NodeId node = ctx_->allocation.Lookup(a);
  if (!NodeUp(node)) {
    OnDataBucketUnreachable(a, &op);
    return;
  }
  DeliverViaState(op);
}

void RsCoordinatorNode::OnDataBucketUnreachable(
    BucketNo bucket, const ClientOpViaCoordinatorMsg* op) {
  const uint32_t g = GroupOf(bucket, lhrs_ctx_->m);
  if (lhrs_ctx_->auto_recover) StartRecovery(g);
  if (g < groups_.size() && groups_[g].lost) {
    if (op != nullptr) {
      FailClientOp(*op, StatusCode::kDataLoss, "bucket group lost");
    }
    return;
  }
  if (op == nullptr) return;
  if (op->op == OpType::kSearch) {
    // Record recovery serves the read in degraded mode, long before the
    // full bucket recovery completes (paper section 2.6).
    StartDegradedRead(*op);
  } else if (IsRecoveringData(bucket)) {
    ParkOp(*op);  // Completed right after the bucket is rebuilt.
  } else {
    FailClientOp(*op, StatusCode::kUnavailable,
                 "bucket unavailable and automatic recovery is off");
  }
}

void RsCoordinatorNode::OnOpDeliveryFailure(
    const ClientOpViaCoordinatorMsg& op) {
  OnDataBucketUnreachable(op.intended_bucket, &op);
}

void RsCoordinatorNode::StartDegradedRead(
    const ClientOpViaCoordinatorMsg& op) {
  const BucketNo a = state_.Address(op.key);
  const uint32_t g = GroupOf(a, lhrs_ctx_->m);
  EnsureGroup(g);
  const GroupInfo& info = groups_[g];

  // Find a live parity bucket to resolve key -> record group. Unlike the
  // LH*g baseline, no scan is needed: the group's parity buckets are known.
  // Ask in the code's preference order for the target slot — for a locally
  // repairable code that is the slot's own local parity, whose payload then
  // double-duties as a decode column.
  const uint32_t target_slot = SlotOf(a, lhrs_ctx_->m);
  const parity::ParityCode& code = lhrs_ctx_->coders->ForK(info.k);
  uint32_t j = info.k;
  for (uint32_t cand : code.ParityPreference(target_slot)) {
    if (!recovering_parity_.contains({g, cand}) &&
        NodeUp(info.parity_nodes[cand])) {
      j = cand;
      break;
    }
  }
  if (j == info.k) {
    if (IsRecoveringData(a)) {
      ParkOp(op);  // Parity is being rebuilt; the op completes afterwards.
    } else {
      FailClientOp(op, StatusCode::kUnavailable,
                   "no parity bucket available for record recovery");
    }
    return;
  }

  DegradedReadTask task;
  task.id = next_task_id_++;
  task.op = op;
  task.started_us = net()->now();
  task.group = g;
  task.target_slot = target_slot;
  task.used_parity.insert(j);
  const uint64_t id = task.id;
  degraded_.emplace(id, std::move(task));

  auto find = std::make_unique<FindRankRequestMsg>();
  find->task_id = id;
  find->key = op.key;
  find->slot = target_slot;
  Send(info.parity_nodes[j], std::move(find));
}

void RsCoordinatorNode::OnFindRankReply(const FindRankReplyMsg& reply) {
  auto it = degraded_.find(reply.task_id);
  if (it == degraded_.end()) return;
  DegradedReadTask& task = it->second;
  if (!reply.found) {
    // No parity record holds the key: the search is (correctly)
    // unsuccessful even though the bucket is down.
    FailDegradedRead(task, Status::NotFound("no such key"));
    return;
  }
  task.have_meta = true;
  task.meta = reply.record;
  if (auto* t = net()->telemetry()) {
    t->metrics()
        .GetCounter("degraded_read.bytes_moved")
        .Add(reply.record.parity.size());
  }
  task.columns[lhrs_ctx_->m + reply.parity_index] = reply.record.parity;
  ContinueDegradedRead(task);
}

void RsCoordinatorNode::AppendKnownZeroSlots(
    const DegradedReadTask& task, std::vector<uint32_t>* out) const {
  const uint32_t existing = ExistingSlots(task.group);
  for (uint32_t slot = 0; slot < existing; ++slot) {
    if (slot != task.target_slot && !task.meta.keys[slot].has_value() &&
        !task.columns.contains(slot)) {
      out->push_back(slot);
    }
  }
  for (uint32_t slot = existing; slot < lhrs_ctx_->m; ++slot) {
    out->push_back(slot);
  }
}

RsCoordinatorNode::ReadSet RsCoordinatorNode::PlanReadSet(
    const parity::ParityCode& code, const ReadSetKey& key) {
  const uint32_t m = code.m();
  // A rank tracker over column identities answers "do the columns in hand
  // (or in flight) determine the target slot?". Known-zero columns come
  // free. Columns that do not raise the rank are never considered.
  auto tracker = code.NewProgressiveDecoder({key.target_slot}, {});
  for (uint32_t col : key.have) tracker->AddColumn(col, BufferView());
  std::vector<uint32_t> candidates;
  for (uint32_t col : key.eligible) {
    if (col >= m || tracker->Ready()) break;
    if (tracker->AddColumn(col, BufferView())) candidates.push_back(col);
  }
  for (uint32_t j : code.ParityPreference(key.target_slot)) {
    if (tracker->Ready()) break;
    if (!std::binary_search(key.eligible.begin(), key.eligible.end(),
                            m + j)) {
      continue;
    }
    if (tracker->AddColumn(m + j, BufferView())) candidates.push_back(m + j);
  }
  ReadSet out;
  out.ready = tracker->Ready();
  if (!out.ready) return out;

  // Prune, least-preferred first: a candidate whose remaining peers still
  // determine the target is never read. An MDS code keeps every
  // rank-raising column (its read set is already minimal), but an LRC
  // drops the siblings outside the target's local group.
  std::vector<bool> dropped(candidates.size(), false);
  for (size_t i = candidates.size(); i-- > 0;) {
    std::vector<uint32_t> cols = key.have;
    for (size_t j = 0; j < candidates.size(); ++j) {
      if (!dropped[j] && j != i) cols.push_back(candidates[j]);
    }
    if (code.CanDecodeFrom(cols, {key.target_slot})) dropped[i] = true;
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!dropped[i]) out.reads.push_back(candidates[i]);
  }
  return out;
}

void RsCoordinatorNode::ContinueDegradedRead(DegradedReadTask& task) {
  const uint32_t m = lhrs_ctx_->m;
  const uint32_t g = task.group;
  const GroupInfo& info = groups_[g];
  const uint32_t existing = ExistingSlots(g);

  // The memo key: the columns in hand, in flight or known zero, and the
  // columns that may still be read — alive member siblings that are not
  // being rebuilt, and live parity columns not yet used.
  ReadSetKey key{info.k, task.target_slot, {}, {}};
  AppendKnownZeroSlots(task, &key.have);
  for (const auto& [col, payload] : task.columns) key.have.push_back(col);
  for (uint32_t col : task.awaiting) key.have.push_back(col);
  std::sort(key.have.begin(), key.have.end());
  for (uint32_t slot = 0; slot < existing; ++slot) {
    if (slot == task.target_slot) continue;
    if (!task.meta.keys[slot].has_value()) continue;
    if (task.columns.contains(slot) || task.awaiting.contains(slot)) {
      continue;
    }
    const BucketNo b = g * m + slot;
    if (IsRecoveringData(b) || !NodeUp(ctx_->allocation.Lookup(b))) continue;
    key.eligible.push_back(slot);
  }
  for (uint32_t j = 0; j < info.k; ++j) {
    if (task.used_parity.contains(j)) continue;
    if (recovering_parity_.contains({g, j}) ||
        !NodeUp(info.parity_nodes[j])) {
      continue;
    }
    key.eligible.push_back(m + j);
  }

  auto it = read_set_memo_.find(key);
  if (it != read_set_memo_.end()) {
    ++degraded_memo_hits_;
  } else {
    ReadSet read_set = PlanReadSet(lhrs_ctx_->coders->ForK(info.k), key);
    if (read_set_memo_.size() >= kDegradedMemoEntries) read_set_memo_.clear();
    it = read_set_memo_.emplace(std::move(key), std::move(read_set)).first;
  }
  const ReadSet& read_set = it->second;
  if (!read_set.ready) {
    FailDegradedRead(task,
                     Status::DataLoss("not enough live columns to "
                                      "reconstruct the record"));
    return;
  }

  for (uint32_t column : read_set.reads) {
    if (column < m) {
      auto read = std::make_unique<RecordReadRequestMsg>();
      read->task_id = task.id;
      read->rank = task.meta.rank;
      read->column = column;
      task.awaiting.insert(column);
      Send(ctx_->allocation.Lookup(g * m + column), std::move(read));
    } else {
      auto read = std::make_unique<ParityRecordRequestMsg>();
      read->task_id = task.id;
      read->rank = task.meta.rank;
      read->column = column;
      task.awaiting.insert(column);
      task.used_parity.insert(column - m);
      Send(info.parity_nodes[column - m], std::move(read));
    }
  }
  MaybeFinishDegradedRead(task);
}

void RsCoordinatorNode::OnDegradedColumn(uint64_t task_id, uint32_t column,
                                         bool found,
                                         const BufferView& payload) {
  auto it = degraded_.find(task_id);
  if (it == degraded_.end()) return;
  DegradedReadTask& task = it->second;
  if (!task.awaiting.erase(column)) return;
  if (auto* t = net()->telemetry()) {
    t->metrics().GetCounter("degraded_read.bytes_moved").Add(payload.size());
  }
  // A sibling data bucket must hold the record its parity metadata lists;
  // an absent parity record means a zero column (no members at this rank
  // from that parity bucket's perspective cannot happen here, but zero is
  // the correct algebraic value regardless).
  if (column < lhrs_ctx_->m) {
    LHRS_CHECK(found) << "sibling bucket lost a record its group parity "
                         "still lists (column "
                      << column << ")";
  }
  task.columns[column] = payload;
  MaybeFinishDegradedRead(task);
}

void RsCoordinatorNode::MaybeFinishDegradedRead(DegradedReadTask& task) {
  if (!task.have_meta || !task.awaiting.empty()) return;
  const GroupInfo& info = groups_[task.group];

  // The plan depends only on which columns are available (in hand or
  // known zero), so one plan serves every record with this pattern.
  PlanKey key{info.k, task.target_slot, {}};
  for (const auto& [col, payload] : task.columns) key.available.push_back(col);
  AppendKnownZeroSlots(task, &key.available);
  std::sort(key.available.begin(), key.available.end());
  auto it = plan_memo_.find(key);
  if (it != plan_memo_.end()) {
    ++degraded_memo_hits_;
  } else {
    auto plan = lhrs_ctx_->coders->ForK(info.k).PlanDecode(
        key.available, {task.target_slot});
    if (!plan.ok()) {
      FailDegradedRead(task, plan.status());
      return;
    }
    if (plan_memo_.size() >= kDegradedMemoEntries) plan_memo_.clear();
    it = plan_memo_.emplace(std::move(key), std::move(plan).value()).first;
  }
  const parity::DecodePlan& plan = *it->second;
  // Known-zero inputs have no payload: nullptr is a zero column.
  std::vector<const BufferView*> payloads;
  payloads.reserve(plan.inputs().size());
  for (uint32_t col : plan.inputs()) {
    auto c = task.columns.find(col);
    payloads.push_back(c == task.columns.end() ? nullptr : &c->second);
  }
  Bytes value = std::move(plan.Decode(payloads)[0]);
  const uint32_t len = task.meta.lengths[task.target_slot];
  LHRS_CHECK_LE(len, value.size());
  value.resize(len);

  auto reply = std::make_unique<OpReplyMsg>();
  reply->op_id = task.op.op_id;
  reply->code = StatusCode::kOk;
  reply->value = std::move(value);
  Send(task.op.client, std::move(reply));
  ++degraded_reads_served_;
  if (auto* t = net()->telemetry()) {
    t->metrics().GetCounter("degraded_read.served").Add();
    t->metrics()
        .GetHistogram("degraded_read_latency_us")
        .Record(net()->now() - task.started_us);
  }
  degraded_.erase(task.id);
}

void RsCoordinatorNode::FailDegradedRead(DegradedReadTask& task,
                                         Status status) {
  FailClientOp(task.op, status.code(), status.message());
  degraded_.erase(task.id);
}

// --- File-state recovery (A6) ---------------------------------------------

void RsCoordinatorNode::StartFileStateRecovery() {
  state_scan_active_ = true;
  state_scan_replies_.clear();
  std::vector<std::pair<NodeId, std::unique_ptr<MessageBody>>> batch;
  for (BucketNo b = 0; b < state_.bucket_count(); ++b) {
    auto req = std::make_unique<StateScanRequestMsg>();
    req->op_id = 0;
    batch.emplace_back(ctx_->allocation.Lookup(b), std::move(req));
  }
  net()->Multicast(id(), std::move(batch));
}

Result<FileState> RsCoordinatorNode::FinishFileStateRecovery() {
  if (!state_scan_active_) {
    return Status::Internal("no state scan in progress");
  }
  state_scan_active_ = false;
  if (state_scan_replies_.empty()) {
    return Status::Unavailable("no buckets answered the state scan");
  }
  // Algorithm (A6), in the closed form implied by (E1): with
  // i = min(j_m) and M = largest replying bucket + 1,  n = M - 2^i * N.
  Level i = ~Level{0};
  BucketNo largest = 0;
  for (const auto& [bucket, level] : state_scan_replies_) {
    i = std::min(i, level);
    largest = std::max(largest, bucket);
  }
  const uint32_t n_initial = ctx_->config.initial_buckets;
  const BucketNo boundary = static_cast<BucketNo>(n_initial) << i;
  const BucketNo total = largest + 1;
  if (total < boundary) {
    return Status::Internal("state scan replies inconsistent with LH*");
  }
  FileState recovered;
  recovered.initial_buckets = n_initial;
  recovered.i = i;
  recovered.n = total - boundary;
  return recovered;
}

// --- Message plumbing -------------------------------------------------------

void RsCoordinatorNode::HandleSubclassMessage(const Message& msg) {
  switch (msg.body->kind()) {
    case LhrsMsg::kColumnReadReply:
      OnColumnRead(static_cast<const ColumnReadReplyMsg&>(*msg.body),
                   msg.from);
      return;
    case LhrsMsg::kInstallDone:
      OnInstallDone(static_cast<const InstallDoneMsg&>(*msg.body));
      return;
    case LhrsMsg::kFindRankReply:
      OnFindRankReply(static_cast<const FindRankReplyMsg&>(*msg.body));
      return;
    case LhrsMsg::kRecordReadReply: {
      const auto& reply = static_cast<const RecordReadReplyMsg&>(*msg.body);
      OnDegradedColumn(reply.task_id, reply.column, reply.found,
                       reply.record.value);
      return;
    }
    case LhrsMsg::kParityRecordReply: {
      const auto& reply =
          static_cast<const ParityRecordReplyMsg&>(*msg.body);
      OnDegradedColumn(reply.task_id, reply.column, reply.found,
                       reply.record.parity);
      return;
    }
    case LhrsMsg::kPongReply: {
      const auto& pong = static_cast<const PongReplyMsg&>(*msg.body);
      probes_.erase(pong.probe_id);  // Alive: the report was stale.
      return;
    }
    case LhStarMsg::kSurveyReply: {
      const auto& reply = static_cast<const SurveyReplyMsg&>(*msg.body);
      auto it = surveys_.find(reply.survey_id);
      if (it == surveys_.end()) return;
      it->second.replies.emplace_back(msg.from, reply);
      LHRS_CHECK_GT(it->second.awaiting, 0u);
      if (--it->second.awaiting == 0) FinishSurvey(it->second);
      return;
    }
    case LhStarMsg::kStateScanReply: {
      const auto& reply = static_cast<const StateScanReplyMsg&>(*msg.body);
      if (state_scan_active_) {
        state_scan_replies_[reply.bucket] = reply.level;
      }
      return;
    }
    default:
      CoordinatorNode::HandleSubclassMessage(msg);
  }
}

void RsCoordinatorNode::HandleSubclassDeliveryFailure(const Message& msg) {
  switch (msg.body->kind()) {
    case LhrsMsg::kPingRequest: {
      // Probe confirmed the failure: recover everything that node carried.
      const auto& ping = static_cast<const PingRequestMsg&>(*msg.body);
      probes_.erase(ping.probe_id);
      NotifyUnavailable(msg.to);
      return;
    }
    case LhrsMsg::kColumnReadRequest: {
      // A survivor died mid-recovery (or, under fault injection, the read
      // was dropped with the survivor alive): abort the broken task and
      // re-plan with the remaining columns.
      const auto& req = static_cast<const ColumnReadRequestMsg&>(*msg.body);
      // A progressive task that already decoded does not care about its
      // surplus outstanding reads bouncing — it is in the install phase.
      if (auto it = tasks_.find(req.task_id);
          it != tasks_.end() && it->second.awaiting_reads.empty()) {
        return;
      }
      AbortTaskIfActive(req.task_id, req.group);
      StartRecovery(req.group);
      return;
    }
    case LhrsMsg::kInstallDataColumn: {
      const auto& install =
          static_cast<const InstallDataColumnMsg&>(*msg.body);
      const uint32_t g = GroupOf(install.bucket, lhrs_ctx_->m);
      AbortTaskIfActive(install.task_id, g);
      StartRecovery(g);
      return;
    }
    case LhrsMsg::kInstallParityColumn: {
      const auto& install =
          static_cast<const InstallParityColumnMsg&>(*msg.body);
      AbortTaskIfActive(install.task_id, install.group);
      StartRecovery(install.group);
      return;
    }
    case LhrsMsg::kFindRankRequest: {
      // The parity bucket we asked died; retry from scratch with another.
      const auto& req = static_cast<const FindRankRequestMsg&>(*msg.body);
      auto it = degraded_.find(req.task_id);
      if (it == degraded_.end()) return;
      ClientOpViaCoordinatorMsg op = it->second.op;
      degraded_.erase(it);
      if (lhrs_ctx_->auto_recover) StartRecovery(GroupOf(
          state_.Address(op.key), lhrs_ctx_->m));
      StartDegradedRead(op);
      return;
    }
    case LhrsMsg::kRecordReadRequest: {
      // A sibling died mid-read: substitute one more parity column.
      const auto& req = static_cast<const RecordReadRequestMsg&>(*msg.body);
      auto it = degraded_.find(req.task_id);
      if (it == degraded_.end()) return;
      DegradedReadTask& task = it->second;
      task.awaiting.erase(req.column);
      if (lhrs_ctx_->auto_recover) StartRecovery(task.group);
      ContinueDegradedRead(task);
      return;
    }
    case LhrsMsg::kParityRecordRequest: {
      const auto& req =
          static_cast<const ParityRecordRequestMsg&>(*msg.body);
      auto it = degraded_.find(req.task_id);
      if (it == degraded_.end()) return;
      DegradedReadTask& task = it->second;
      task.awaiting.erase(req.column);
      task.used_parity.erase(req.column - lhrs_ctx_->m);
      if (lhrs_ctx_->auto_recover) StartRecovery(task.group);
      ContinueDegradedRead(task);
      return;
    }
    case LhStarMsg::kStateScanRequest:
      return;  // Dead buckets simply do not answer the state scan.
    case LhStarMsg::kSurveyRequest: {
      const auto& req = static_cast<const SurveyRequestMsg&>(*msg.body);
      auto it = surveys_.find(req.survey_id);
      if (it == surveys_.end()) return;
      LHRS_CHECK_GT(it->second.awaiting, 0u);
      if (--it->second.awaiting == 0) FinishSurvey(it->second);
      return;
    }
    case LhrsMsg::kGroupConfig: {
      // A split target without its group configuration parks incoming
      // records forever — under fault injection a bounce can mean a
      // *dropped* message, so re-send a bounded number of times before
      // treating it as a node death.
      if (network()->fault_injection_active() &&
          Resend<GroupConfigMsg>(msg)) {
        return;
      }
      NotifyUnavailable(msg.to);
      return;
    }
    case LhStarMsg::kSplitOrder: {
      // The target died; its group recovery will rebuild it consistently.
      NotifyUnavailable(msg.to);
      return;
    }
    case LhStarMsg::kMoveRecords:
      // Our own relay of orphaned records bounced; re-enter the orphan
      // path, which relays again (live target) or parks and recovers.
      OnOrphanedMoveRecords(static_cast<const MoveRecordsMsg&>(*msg.body));
      return;
    case LhStarMsg::kMergeRecords:
      OnOrphanedMergeRecords(
          static_cast<const MergeRecordsMsg&>(*msg.body));
      return;
    default:
      CoordinatorNode::HandleSubclassDeliveryFailure(msg);
  }
}

}  // namespace lhrs
