#include "baselines/lhg/lhg_parity_bucket.h"

#include <utility>

#include "common/logging.h"
#include "net/network.h"

namespace lhrs::lhg {

LhgParityBucketNode::LhgParityBucketNode(
    std::shared_ptr<SystemContext> f2_ctx, BucketNo bucket_no, Level level,
    bool pre_initialized)
    : DataBucketNode(std::move(f2_ctx), bucket_no, level, pre_initialized) {}

std::vector<std::pair<GroupKey, ParityRecordG>>
LhgParityBucketNode::DecodedRecords() const {
  std::vector<std::pair<GroupKey, ParityRecordG>> out;
  out.reserve(records_.size());
  records_.ForEachOrdered([&](Key key, const BufferView& value) {
    out.emplace_back(GroupKey::Unpack(key), ParityRecordG::Deserialize(value));
  });
  return out;
}

bool LhgParityBucketNode::NeedsRecords(int kind) const {
  return kind == LhgMsg::kParityUpdate || kind == LhgMsg::kCollectForData ||
         kind == LhgMsg::kFindParity || DataBucketNode::NeedsRecords(kind);
}

void LhgParityBucketNode::HandleSubclassMessage(const Message& msg) {
  switch (msg.body->kind()) {
    case LhgMsg::kParityUpdate:
      ApplyParityUpdate(static_cast<const ParityUpdateMsg&>(*msg.body));
      return;
    case LhgMsg::kCollectForData:
      HandleCollectForData(static_cast<const CollectForDataMsg&>(*msg.body),
                           msg.from);
      return;
    case LhgMsg::kFindParity:
      HandleFindParity(static_cast<const FindParityMsg&>(*msg.body),
                       msg.from);
      return;
    case LhgMsg::kInstallParity:
      HandleInstall(static_cast<const InstallParityMsg&>(*msg.body),
                    msg.from);
      return;
    default:
      DataBucketNode::HandleSubclassMessage(msg);
  }
}

void LhgParityBucketNode::ApplyParityUpdate(const ParityUpdateMsg& update) {
  // The F1 data bucket addressed us via its possibly-stale image of F2:
  // verify with (A2) on the packed group key and forward if wrong.
  const BucketNo target = ForwardAddress(bucket_no(), level(), update.gkey,
                                         ctx().config.initial_buckets);
  if (target != bucket_no()) {
    auto fwd = std::make_unique<ParityUpdateMsg>(update);
    fwd->intended_bucket = target;
    fwd->hops = update.hops + 1;
    LHRS_CHECK_LE(fwd->hops, 3);
    Send(ctx().allocation.Lookup(target), std::move(fwd));
    return;
  }

  const BufferView* existing = records_.Find(update.gkey);
  ParityRecordG record;
  if (existing != nullptr) record = ParityRecordG::Deserialize(*existing);

  switch (update.op) {
    case ParityUpdateMsg::Op::kAddMember:
      record.AddMember(update.member, update.new_length);
      break;
    case ParityUpdateMsg::Op::kRemoveMember:
      record.RemoveMember(update.member);
      break;
    case ParityUpdateMsg::Op::kValueUpdate:
      record.SetLength(update.member, update.new_length);
      break;
  }
  XorAssignPadded(record.parity, update.delta);

  if (record.members.empty()) {
    // Empty group: its parity must have cancelled to zero.
    LHRS_CHECK(AllZero(record.parity))
        << "non-zero parity for empty LH*g record group";
    if (existing != nullptr) records_.Erase(update.gkey);
  } else {
    const bool fresh = (existing == nullptr);
    records_.Put(update.gkey, record.Serialize());
    if (fresh) ReportOverflowIfNeeded();
  }

  if (update.hops > 0) {
    // IAM to the F1 bucket acting as F2 client.
    auto iam = std::make_unique<ParityIamMsg>();
    iam->bucket = bucket_no();
    iam->level = level();
    Send(update.reply_to, std::move(iam));
  }
}

void LhgParityBucketNode::HandleCollectForData(const CollectForDataMsg& req,
                                               NodeId from) {
  auto reply = std::make_unique<CollectForDataReplyMsg>();
  reply->task_id = req.task_id;
  reply->from_bucket = bucket_no();
  records_.ForEachOrdered([&](Key gkey, const BufferView& serialized) {
    // No group-number filter here: splits move records *out of* their
    // origin group's buckets, so the failed bucket holds records with
    // foreign group numbers. (The g = m/k filter in A4's step 2 serves
    // only the insert-counter recovery, applied coordinator-side.)
    const ParityRecordG record = ParityRecordG::Deserialize(serialized);
    // Relevant iff some member's address chain passes through the failed
    // bucket: exists l <= i+1 with h_l(c) = bucket (A4 steps 2-3).
    bool relevant = false;
    for (Key c : record.members) {
      for (Level l = 0; l <= req.file_level + 1 && !relevant; ++l) {
        relevant = HashL(c, l, req.initial_buckets) == req.bucket;
      }
      if (relevant) break;
    }
    if (relevant) {
      reply->records.push_back(SerializedParityRecord{gkey, serialized});
    }
  });
  Send(from, std::move(reply));
}

void LhgParityBucketNode::HandleFindParity(const FindParityMsg& req,
                                           NodeId from) {
  auto reply = std::make_unique<FindParityReplyMsg>();
  reply->task_id = req.task_id;
  reply->from_bucket = bucket_no();
  records_.ForEachOrdered([&](Key gkey, const BufferView& serialized) {
    if (reply->found) return;
    const ParityRecordG record = ParityRecordG::Deserialize(serialized);
    if (record.HasMember(req.key)) {
      reply->found = true;
      reply->gkey = gkey;
      reply->record = serialized;
    }
  });
  Send(from, std::move(reply));
}

void LhgParityBucketNode::HandleInstall(const InstallParityMsg& install,
                                        NodeId from) {
  LHRS_CHECK_EQ(install.bucket, bucket_no());
  store::BucketStore records;
  for (const auto& r : install.records) records.Put(r.gkey, r.data);
  InstallRecoveredState(std::move(records), install.level);
  auto ack = std::make_unique<InstallAckMsg>();
  ack->task_id = install.task_id;
  Send(from, std::move(ack));
}

}  // namespace lhrs::lhg
