#include "lhrs/parity_bucket.h"

#include <utility>

#include "common/logging.h"
#include "net/network.h"

namespace lhrs {

ParityBucketNode::ParityBucketNode(std::shared_ptr<LhrsContext> ctx,
                                   uint32_t group, uint32_t parity_index,
                                   uint32_t k, bool pre_initialized)
    : ctx_(std::move(ctx)),
      group_(group),
      parity_index_(parity_index),
      k_(k),
      initialized_(pre_initialized),
      m_(ctx_->m) {
  LHRS_CHECK_LT(parity_index_, k_);
}

size_t ParityBucketNode::StorageBytes() const {
  // Per parity record: m member slots of key + length, plus the parity.
  size_t n = live_ranks_ * m_ * 12;
  for (const BufferView& parity : parity_) n += parity.size();
  return n;
}

std::optional<size_t> ParityBucketNode::RowOf(Rank rank) const {
  if (rank == 0 || rank > member_count_.size() ||
      member_count_[rank - 1] == 0) {
    return std::nullopt;
  }
  return rank - 1;
}

std::vector<Rank> ParityBucketNode::ParityRanks() const {
  std::vector<Rank> ranks;
  ranks.reserve(live_ranks_);
  for (size_t row = 0; row < member_count_.size(); ++row) {
    if (member_count_[row] != 0) ranks.push_back(static_cast<Rank>(row + 1));
  }
  return ranks;
}

std::optional<ParityRecord> ParityBucketNode::FindParityRecord(
    Rank rank) const {
  const std::optional<size_t> row = RowOf(rank);
  if (!row.has_value()) return std::nullopt;
  return Materialize(*row);
}

bool ParityBucketNode::FlipParityByteForTest(Rank rank, size_t offset,
                                             uint8_t mask) {
  const std::optional<size_t> row = RowOf(rank);
  if (!row.has_value() || offset >= parity_[*row].size()) return false;
  parity_[*row].MutableData()[offset] ^= mask;
  return true;
}

bool ParityBucketNode::SetLengthForTest(Rank rank, uint32_t slot,
                                        uint32_t length) {
  const std::optional<size_t> row = RowOf(rank);
  if (!row.has_value() || slot >= m_) return false;
  lengths_[Cell(*row, slot)] = length;
  return true;
}

bool ParityBucketNode::SetKeyForTest(Rank rank, uint32_t slot, Key key) {
  const std::optional<size_t> row = RowOf(rank);
  if (!row.has_value() || slot >= m_ || !HasMember(Cell(*row, slot))) {
    return false;
  }
  const size_t cell = Cell(*row, slot);
  // The index reads keys from keys_: unlink the old key before it goes.
  if (key_index_.Find(keys_[cell], CellKey()) == cell) {
    key_index_.Erase(keys_[cell], CellKey());
  }
  keys_[cell] = key;
  return true;
}

void ParityBucketNode::GrowTo(Rank rank) {
  if (rank <= member_count_.size()) return;
  member_count_.resize(rank, 0);
  parity_.resize(rank);
  keys_.resize(size_t{rank} * m_, 0);
  lengths_.resize(size_t{rank} * m_, 0);
  members_bits_.resize((size_t{rank} * m_ + 63) / 64, 0);
}

void ParityBucketNode::AddMember(size_t row, uint32_t slot, Key key) {
  const size_t cell = Cell(row, slot);
  keys_[cell] = key;
  members_bits_[cell / 64] |= uint64_t{1} << (cell % 64);
  if (member_count_[row]++ == 0) ++live_ranks_;
  key_index_.Put(key, static_cast<uint32_t>(cell), CellKey());
}

void ParityBucketNode::DropRow(size_t row) {
  parity_[row] = BufferView{};
  for (uint32_t slot = 0; slot < m_; ++slot) lengths_[Cell(row, slot)] = 0;
  --live_ranks_;
}

ParityRecord ParityBucketNode::Materialize(size_t row) const {
  ParityRecord rec;
  rec.keys.resize(m_);
  rec.lengths.resize(m_);
  for (uint32_t slot = 0; slot < m_; ++slot) {
    const size_t cell = Cell(row, slot);
    if (HasMember(cell)) rec.keys[slot] = keys_[cell];
    rec.lengths[slot] = lengths_[cell];
  }
  rec.parity = parity_[row];
  return rec;
}

void ParityBucketNode::HandleMessage(const Message& msg) {
  const int kind = msg.body->kind();
  if ((kind == LhrsMsg::kParityDelta || kind == LhrsMsg::kParityDeltaBatch) &&
      network()->fault_injection_active() && dedup_.SeenBefore(msg.id)) {
    return;  // Duplicated delivery: applying the delta twice would corrupt.
  }
  if (!initialized_ && msg.body->kind() != LhrsMsg::kInstallParityColumn &&
      msg.body->kind() != LhrsMsg::kPingRequest &&
      msg.body->kind() != LhStarMsg::kSurveyRequest) {
    held_.Hold(msg);
    return;
  }
  Dispatch(msg);
}

void ParityBucketNode::HandleDeliveryFailure(const Message& msg) {
  // Recovery-protocol replies to the coordinator. A drop (fault injection;
  // the coordinator itself does not crash) would wedge the recovery task,
  // so re-send a bounded number of times. Everything else stays ignored:
  // degraded-read replies are re-driven by client retries.
  if (!network()->fault_injection_active()) return;
  switch (msg.body->kind()) {
    case LhrsMsg::kColumnReadReply:
      Resend<ColumnReadReplyMsg>(msg);
      return;
    case LhrsMsg::kInstallDone:
      Resend<InstallDoneMsg>(msg);
      return;
    default:
      return;
  }
}

void ParityBucketNode::RecordUpdateRound(size_t deltas) {
  auto* t = network()->telemetry();
  if (t == nullptr) return;
  t->metrics().GetCounter("parity.update_rounds").Add();
  t->metrics().GetCounter("parity.deltas_applied").Add(deltas);
  if (t->trace_messages()) {
    t->tracer().Record({network()->now(),
                        telemetry::TraceEventType::kParityUpdateRound, id(),
                        -1, -1, static_cast<int32_t>(group_),
                        static_cast<int64_t>(deltas)});
  }
}

void ParityBucketNode::Dispatch(const Message& msg) {
  switch (msg.body->kind()) {
    case LhrsMsg::kParityDelta: {
      const auto& m = static_cast<const ParityDeltaMsg&>(*msg.body);
      LHRS_CHECK_EQ(m.group, group_);
      ApplyDelta(m.delta);
      RecordUpdateRound(1);
      return;
    }
    case LhrsMsg::kParityDeltaBatch: {
      const auto& m = static_cast<const ParityDeltaBatchMsg&>(*msg.body);
      LHRS_CHECK_EQ(m.group, group_);
      for (const auto& d : m.deltas) ApplyDelta(d);
      RecordUpdateRound(m.deltas.size());
      return;
    }
    case LhrsMsg::kFindRankRequest: {
      const auto& req = static_cast<const FindRankRequestMsg&>(*msg.body);
      auto reply = std::make_unique<FindRankReplyMsg>();
      reply->task_id = req.task_id;
      reply->parity_index = parity_index_;
      const uint32_t indexed = key_index_.Find(req.key, CellKey());
      if (indexed != store::KeyIndex::kNone && req.slot < m_) {
        const size_t row = indexed / m_;
        const size_t cell = Cell(row, req.slot);
        // The key must sit at the requested slot: keys are unique file-wide
        // and the slot is derived from the key's correct bucket.
        if (HasMember(cell) && keys_[cell] == req.key) {
          reply->found = true;
          reply->record = ToWire(row);
        }
      }
      Send(msg.from, std::move(reply));
      return;
    }
    case LhrsMsg::kParityRecordRequest: {
      const auto& req =
          static_cast<const ParityRecordRequestMsg&>(*msg.body);
      auto reply = std::make_unique<ParityRecordReplyMsg>();
      reply->task_id = req.task_id;
      reply->column = ctx_->m + parity_index_;
      if (const std::optional<size_t> row = RowOf(req.rank)) {
        reply->found = true;
        reply->record = ToWire(*row);
      }
      Send(msg.from, std::move(reply));
      return;
    }
    case LhrsMsg::kColumnReadRequest: {
      const auto& req = static_cast<const ColumnReadRequestMsg&>(*msg.body);
      LHRS_CHECK_EQ(req.group, group_);
      auto dump = std::make_shared<ColumnDump>();
      dump->column = ctx_->m + parity_index_;
      dump->parity = Column();
      auto reply = std::make_unique<ColumnReadReplyMsg>();
      reply->task_id = req.task_id;
      reply->dump = std::move(dump);
      Send(msg.from, std::move(reply));
      return;
    }
    case LhrsMsg::kInstallParityColumn: {
      const auto& install =
          static_cast<const InstallParityColumnMsg&>(*msg.body);
      if (install.task_id == installed_task_) return;
      installed_task_ = install.task_id;
      InstallColumn(install);
      auto done = std::make_unique<InstallDoneMsg>();
      done->task_id = install.task_id;
      done->column = ctx_->m + parity_index_;
      Send(msg.from, std::move(done));
      held_.Replay([this](const Message& m) { Dispatch(m); });
      return;
    }
    case LhStarMsg::kSurveyRequest: {
      const auto& req = static_cast<const SurveyRequestMsg&>(*msg.body);
      auto reply = std::make_unique<SurveyReplyMsg>();
      reply->survey_id = req.survey_id;
      reply->role = SurveyReplyMsg::Role::kParityBucket;
      reply->group = group_;
      reply->parity_index = parity_index_;
      reply->k = k_;
      Send(msg.from, std::move(reply));
      return;
    }
    case LhrsMsg::kPingRequest: {
      const auto& req = static_cast<const PingRequestMsg&>(*msg.body);
      auto pong = std::make_unique<PongReplyMsg>();
      pong->probe_id = req.probe_id;
      Send(msg.from, std::move(pong));
      return;
    }
    default:
      LHRS_LOG(Fatal) << "parity bucket: unhandled message kind "
                      << msg.body->kind();
  }
}

void ParityBucketNode::ApplyDelta(const ParityDelta& delta) {
  if (TryApplyDelta(delta)) {
    DrainPendingDeltas(delta.rank, delta.slot);
    return;
  }
  // The delta this op depends on has not arrived yet. Chaos reordering is
  // one cause; the other is plain concurrency: delivery latency scales with
  // message size, so a small kSet for a just-freed rank (insert reusing the
  // rank a split mover released) can overtake the bulk kClear batch that
  // frees it, even on the same sender->receiver path. Buffer the delta;
  // applying the predecessor drains it in arrival order.
  pending_deltas_[{delta.rank, delta.slot}].push_back(delta);
  if (auto* t = network()->telemetry(); t != nullptr) {
    t->metrics().GetCounter("parity.deltas_buffered").Add();
  }
}

bool ParityBucketNode::TryApplyDelta(const ParityDelta& delta) {
  LHRS_CHECK_LT(delta.slot, m_);
  LHRS_CHECK_GE(delta.rank, 1u);
  const size_t row = delta.rank - 1;
  const size_t cell = Cell(row, delta.slot);
  const bool has_member = row < member_count_.size() && HasMember(cell);

  // Precondition check before touching any state: kSet may not overwrite a
  // different live key, kNone needs a registered member, and kClear must
  // name the key it removes. The key match matters under real-transport
  // reordering: ranks are reused smallest-first, so a retransmit-delayed
  // clear(old key) can arrive after set(new key) for the same (rank, slot)
  // — applied blindly it would remove the new member and let the buffered
  // old set resurrect a deleted key in the parity metadata.
  switch (delta.key_op) {
    case ParityDelta::KeyOp::kSet:
      if (has_member && keys_[cell] != delta.key) return false;
      break;
    case ParityDelta::KeyOp::kNone:
      if (!has_member) return false;
      break;
    case ParityDelta::KeyOp::kClear:
      if (!has_member || keys_[cell] != delta.key) return false;
      break;
  }

  GrowTo(delta.rank);
  BufferView& parity = parity_[row];
  const parity::ParityCode& coder = ctx_->coders->ForK(k_);
  coder.ApplyDelta(delta.slot, delta.delta, parity_index_, &parity);

  switch (delta.key_op) {
    case ParityDelta::KeyOp::kNone:
      lengths_[cell] = delta.new_length;
      break;
    case ParityDelta::KeyOp::kSet:
      if (!has_member) AddMember(row, delta.slot, delta.key);
      lengths_[cell] = delta.new_length;
      break;
    case ParityDelta::KeyOp::kClear:
      key_index_.Erase(keys_[cell], CellKey());
      members_bits_[cell / 64] &= ~(uint64_t{1} << (cell % 64));
      lengths_[cell] = 0;
      if (--member_count_[row] == 0) {
        // The last member left: the parity of an empty group must be zero
        // — a cheap, powerful integrity check of the whole delta pipeline.
        LHRS_CHECK(AllZero(parity))
            << "non-zero parity for empty record group (g=" << group_
            << ", r=" << delta.rank << ")";
        DropRow(row);
      }
      break;
  }
  return true;
}

void ParityBucketNode::DrainPendingDeltas(Rank rank, uint32_t slot) {
  auto it = pending_deltas_.find({rank, slot});
  if (it == pending_deltas_.end()) return;
  // Each successful apply can unblock the next buffered op (a scrambled
  // set/clear/set chain resolves one alternation at a time), so keep
  // sweeping the arrival-ordered list until a pass makes no progress.
  bool progress = true;
  while (progress && !it->second.empty()) {
    progress = false;
    for (size_t i = 0; i < it->second.size(); ++i) {
      if (TryApplyDelta(it->second[i])) {
        it->second.erase(it->second.begin() + static_cast<long>(i));
        progress = true;
        break;
      }
    }
  }
  if (it->second.empty()) pending_deltas_.erase(it);
}

WireParityRecord ParityBucketNode::ToWire(size_t row) const {
  ParityRecord rec = Materialize(row);
  return {static_cast<Rank>(row + 1), std::move(rec.keys),
          std::move(rec.lengths), std::move(rec.parity)};
}

ParityColumn ParityBucketNode::Column() const {
  ParityColumn column(m_);
  column.reserve(live_ranks_);
  for (size_t row = 0; row < member_count_.size(); ++row) {
    if (member_count_[row] == 0) continue;
    column.ranks.push_back(static_cast<Rank>(row + 1));
    for (uint32_t slot = 0; slot < m_; ++slot) {
      const size_t cell = Cell(row, slot);
      column.keys.push_back(HasMember(cell) ? std::optional<Key>(keys_[cell])
                                            : std::nullopt);
    }
    const uint32_t* lengths = lengths_.data() + Cell(row, 0);
    column.lengths.insert(column.lengths.end(), lengths, lengths + m_);
    column.parity.push_back(parity_[row]);
  }
  return column;
}

void ParityBucketNode::InstallColumn(const InstallParityColumnMsg& install) {
  LHRS_CHECK_EQ(install.group, group_);
  LHRS_CHECK_EQ(install.parity_index, parity_index_);
  const ParityColumn& column = install.parity;
  if (column.size() != 0) LHRS_CHECK_EQ(column.m, m_);
  keys_.clear();
  lengths_.clear();
  members_bits_.clear();
  member_count_.clear();
  parity_.clear();
  live_ranks_ = 0;
  key_index_.Clear();
  pending_deltas_.clear();  // An install supersedes anything buffered.
  for (size_t r = 0; r < column.size(); ++r) {
    const Rank rank = column.ranks[r];
    LHRS_CHECK_GE(rank, 1u);
    LHRS_CHECK(RowOf(rank) == std::nullopt)
        << "parity rank " << rank << " installed twice";
    GrowTo(rank);
    const size_t row = rank - 1;
    for (uint32_t slot = 0; slot < m_; ++slot) {
      const std::optional<Key>& key = column.keys[column.Cell(r, slot)];
      if (key.has_value()) AddMember(row, slot, *key);
      lengths_[Cell(row, slot)] = column.lengths[column.Cell(r, slot)];
    }
    LHRS_CHECK_GT(member_count_[row], 0u)
        << "parity rank " << rank << " installed without members";
    parity_[row] = column.parity[r];
  }
  initialized_ = true;
}

}  // namespace lhrs
