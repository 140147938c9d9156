#include "lhrs/rs_data_bucket.h"

#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "net/network.h"

namespace lhrs {

RsDataBucketNode::RsDataBucketNode(std::shared_ptr<LhrsContext> lhrs_ctx,
                                   BucketNo bucket_no, Level level,
                                   bool pre_initialized)
    : DataBucketNode(lhrs_ctx->base, bucket_no, level, pre_initialized),
      lhrs_ctx_(std::move(lhrs_ctx)) {
  records_.set_reuse_slots(lhrs_ctx_->reuse_ranks);
}

Rank RsDataBucketNode::RankOf(Key key) const {
  const std::optional<size_t> slot = records_.SlotOf(key);
  LHRS_CHECK(slot.has_value()) << "no rank for key " << key;
  return static_cast<Rank>(*slot + 1);
}

std::vector<RankedRecord> RsDataBucketNode::RankedRecords() const {
  std::vector<RankedRecord> out;
  out.reserve(records_.size());
  records_.ForEachSlot([&](size_t slot, Key key, const BufferView& value) {
    out.push_back(RankedRecord{static_cast<Rank>(slot + 1), key, value});
  });
  return out;
}

void RsDataBucketNode::ParkDelta(ParityDelta delta) {
  // Only possible on a lossy transport (or under fault injection): the
  // coordinator's GroupConfig was dropped or reordered behind a record
  // move or a forwarded client op. The delta waits; the (retransmitted)
  // GroupConfig flushes it. Ranks were already bound, so ordering per
  // record group is preserved.
  LHRS_CHECK(network()->fault_injection_active())
      << "bucket " << bucket_no()
      << " mutated before its group configuration";
  pending_deltas_.push_back(std::move(delta));
}

void RsDataBucketNode::SendDelta(ParityDelta delta) {
  if (batching_deltas_) {
    // Group commit (bulk load): coalesced into one batch message per
    // parity bucket at OnBatchCommitEnd.
    batch_deltas_.push_back(std::move(delta));
    return;
  }
  if (!has_group_config()) {
    ParkDelta(std::move(delta));
    return;
  }
  for (size_t i = 0; i < parity_nodes_.size(); ++i) {
    auto msg = std::make_unique<ParityDeltaMsg>();
    msg->group = group();
    msg->delta = i + 1 == parity_nodes_.size() ? std::move(delta) : delta;
    Send(parity_nodes_[i], std::move(msg));
  }
}

void RsDataBucketNode::OnInsertCommitted(Key key, const BufferView& value) {
  ParityDelta d;
  d.rank = RankOf(key);
  d.slot = slot();
  d.key_op = ParityDelta::KeyOp::kSet;
  d.key = key;
  d.new_length = static_cast<uint32_t>(value.size());
  d.delta = value;
  SendDelta(std::move(d));
}

void RsDataBucketNode::OnUpdateCommitted(Key key,
                                         const BufferView& old_value,
                                         const BufferView& new_value) {
  // Delta = old XOR new, zero-padded to the longer of the two — built once
  // in one pass; the k parity buckets then share the same delta buffer.
  BufferView delta = MakeXorDelta(old_value, new_value);
  ParityDelta d;
  d.rank = RankOf(key);
  d.slot = slot();
  d.key_op = ParityDelta::KeyOp::kSet;  // Refreshes the stored length.
  d.key = key;
  d.new_length = static_cast<uint32_t>(new_value.size());
  d.delta = std::move(delta);
  SendDelta(std::move(d));
}

void RsDataBucketNode::OnDeleteCommitted(Key key,
                                         const BufferView& old_value) {
  ParityDelta d;
  d.rank = RankOf(key);  // Freed by the store's erase right after.
  d.slot = slot();
  d.key_op = ParityDelta::KeyOp::kClear;
  d.key = key;  // The parity bucket refuses to clear any other key.
  d.delta = old_value;  // Folding the value out zeroes its contribution.
  SendDelta(std::move(d));
}

void RsDataBucketNode::OnRecordsMovedOut(std::vector<WireRecord>& moved) {
  if (moved.empty()) return;
  // One bulk message per parity bucket: every mover leaves its record
  // group (it will join a group of the new bucket's bucket group).
  std::vector<ParityDelta> deltas;
  deltas.reserve(moved.size());
  for (const auto& rec : moved) {
    ParityDelta d;
    d.rank = RankOf(rec.key);  // Freed when the mover is erased.
    d.slot = slot();
    d.key_op = ParityDelta::KeyOp::kClear;
    d.key = rec.key;
    d.delta = rec.value;
    deltas.push_back(std::move(d));
  }
  SendDeltaBatch(std::move(deltas));
}

void RsDataBucketNode::OnRecordsMovedIn(const std::vector<WireRecord>& moved) {
  if (moved.empty()) return;
  std::vector<ParityDelta> deltas;
  deltas.reserve(moved.size());
  for (const auto& rec : moved) {
    ParityDelta d;
    d.rank = RankOf(rec.key);
    d.slot = slot();
    d.key_op = ParityDelta::KeyOp::kSet;
    d.key = rec.key;
    d.new_length = static_cast<uint32_t>(rec.value.size());
    d.delta = rec.value;
    deltas.push_back(std::move(d));
  }
  SendDeltaBatch(std::move(deltas));
}

void RsDataBucketNode::OnBatchCommitBegin() {
  batching_deltas_ = true;
  batch_deltas_.clear();
}

void RsDataBucketNode::OnBatchCommitEnd() {
  batching_deltas_ = false;
  if (batch_deltas_.empty()) return;
  SendDeltaBatch(std::move(batch_deltas_));
  batch_deltas_.clear();  // Defined-empty after the move.
}

void RsDataBucketNode::SendDeltaBatch(std::vector<ParityDelta> deltas) {
  if (!has_group_config()) {
    for (ParityDelta& d : deltas) ParkDelta(std::move(d));
    return;
  }
  for (size_t i = 0; i < parity_nodes_.size(); ++i) {
    auto msg = std::make_unique<ParityDeltaBatchMsg>();
    msg->group = group();
    msg->deltas = i + 1 == parity_nodes_.size() ? std::move(deltas) : deltas;
    Send(parity_nodes_[i], std::move(msg));
  }
}

void RsDataBucketNode::HandleSubclassMessage(const Message& msg) {
  switch (msg.body->kind()) {
    case LhrsMsg::kGroupConfig: {
      const auto& cfg = static_cast<const GroupConfigMsg&>(*msg.body);
      LHRS_CHECK_EQ(cfg.group, group());
      parity_nodes_ = cfg.parity_nodes;
      k_ = cfg.k;
      if (!pending_deltas_.empty()) {
        SendDeltaBatch(std::move(pending_deltas_));
        pending_deltas_.clear();
      }
      return;
    }
    case LhrsMsg::kColumnReadRequest: {
      const auto& req = static_cast<const ColumnReadRequestMsg&>(*msg.body);
      LHRS_CHECK_EQ(req.group, group());
      auto dump = std::make_shared<ColumnDump>();
      dump->column = slot();
      dump->level = level();
      // Views into the store's segments, in rank order: the whole column
      // dump ships without copying a single payload byte.
      dump->records = RankedRecords();
      auto reply = std::make_unique<ColumnReadReplyMsg>();
      reply->task_id = req.task_id;
      reply->dump = std::move(dump);
      Send(msg.from, std::move(reply));
      return;
    }
    case LhrsMsg::kRecordReadRequest: {
      const auto& req = static_cast<const RecordReadRequestMsg&>(*msg.body);
      auto reply = std::make_unique<RecordReadReplyMsg>();
      reply->task_id = req.task_id;
      reply->column = slot();
      const store::BucketStore::Entry* rec =
          req.rank == 0 ? nullptr : records_.At(req.rank - 1);
      if (rec != nullptr) {
        reply->found = true;
        reply->record = RankedRecord{req.rank, rec->key, rec->value};
      }
      Send(msg.from, std::move(reply));
      return;
    }
    case LhrsMsg::kInstallDataColumn: {
      const auto& install =
          static_cast<const InstallDataColumnMsg&>(*msg.body);
      if (install.task_id == installed_task_) return;
      installed_task_ = install.task_id;
      InstallDataColumn(install);
      auto done = std::make_unique<InstallDoneMsg>();
      done->task_id = install.task_id;
      done->column = slot();
      Send(msg.from, std::move(done));
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
      DataBucketNode::HandleSubclassMessage(msg);
  }
}

void RsDataBucketNode::HandleSubclassDeliveryFailure(const Message& msg) {
  switch (msg.body->kind()) {
    case LhrsMsg::kColumnReadReply:
    case LhrsMsg::kInstallDone:
      // Recovery-protocol replies to the coordinator. A drop (fault
      // injection; the coordinator itself does not crash) would wedge the
      // recovery task, so re-send a bounded number of times.
      if (!network()->fault_injection_active()) return;
      if (msg.body->kind() == LhrsMsg::kColumnReadReply) {
        Resend<ColumnReadReplyMsg>(msg);
      } else {
        Resend<InstallDoneMsg>(msg);
      }
      return;
    case LhrsMsg::kParityDelta:
    case LhrsMsg::kParityDeltaBatch: {
      // Under fault injection a bounce can mean a *dropped* message, not a
      // dead parity bucket — and the coordinator's ping verification would
      // find the bucket alive and dismiss our report, leaving its column
      // silently stale. Re-send a bounded number of times first.
      if (network()->fault_injection_active() &&
          (msg.body->kind() == LhrsMsg::kParityDelta
               ? Resend<ParityDeltaMsg>(msg)
               : Resend<ParityDeltaBatchMsg>(msg))) {
        return;
      }
      // A parity bucket of our group is down: report it so the coordinator
      // recovers it. The delta itself is not lost information — the parity
      // column is rebuilt from the data columns, which include this change.
      auto report = std::make_unique<UnavailableReportMsg>();
      report->node = msg.to;
      report->is_parity = true;
      report->group = group();
      for (uint32_t j = 0; j < parity_nodes_.size(); ++j) {
        if (parity_nodes_[j] == msg.to) report->parity_index = j;
      }
      Send(ctx().coordinator, std::move(report));
      return;
    }
    default:
      DataBucketNode::HandleSubclassDeliveryFailure(msg);
  }
}

void RsDataBucketNode::InstallDataColumn(const InstallDataColumnMsg& install) {
  LHRS_CHECK_EQ(install.bucket, bucket_no());
  store::BucketStore records;
  records.set_reuse_slots(lhrs_ctx_->reuse_ranks);
  records.Reserve(install.records.size());
  for (const auto& rec : install.records) {
    // Adopt the install message's views — the reconstructed column lands
    // without a per-record copy. The rank fixes the slot; the gaps below
    // the highest rank become the free ranks.
    LHRS_CHECK(rec.rank >= 1 && records.InsertAt(rec.rank - 1, rec.key,
                                                 rec.value))
        << "rank " << rec.rank << " (key " << rec.key << ") already bound";
  }
  InstallRecoveredState(std::move(records), install.level);
}

}  // namespace lhrs
