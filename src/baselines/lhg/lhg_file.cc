#include "baselines/lhg/lhg_file.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"

namespace lhrs::lhg {

namespace {

LhStarFile::Options ToBaseOptions(const LhgFile::Options& options) {
  LhStarFile::Options base;
  base.file = options.file;
  // Per the paper, F1 starts with k buckets (one full bucket group).
  if (base.file.initial_buckets == 1) {
    base.file.initial_buckets = options.group_size;
  }
  base.net = options.net;
  return base;
}

}  // namespace

LhgFile::LhgFile(Options options)
    : LhStarFile(ToBaseOptions(options), DeferInit{}),
      group_size_(options.group_size) {
  const bool g1 = options.reassign_group_keys_on_split;

  f2_ctx_ = std::make_shared<SystemContext>();
  f2_ctx_->config = ctx_->config;
  f2_ctx_->config.initial_buckets = 1;
  if (options.parity_bucket_capacity != 0) {
    f2_ctx_->config.bucket_capacity = options.parity_bucket_capacity;
  }

  // F1 coordinator (with all recovery logic) and F2 split coordinator;
  // per the paper they are one logical coordinator, so the F1 side reads
  // the F2 state directly.
  auto lhg_coordinator = std::make_unique<LhgCoordinatorNode>(
      ctx_, f2_ctx_, group_size_);
  lhg_coordinator_ = lhg_coordinator.get();
  coordinator_ = lhg_coordinator_;
  ctx_->coordinator = network_->AddNode(std::move(lhg_coordinator));

  auto f2_coordinator = std::make_unique<LhgParityCoordinatorNode>(f2_ctx_);
  f2_coordinator->SetMainCoordinator(lhg_coordinator_);
  f2_coordinator_ = f2_coordinator.get();
  f2_ctx_->coordinator = network_->AddNode(std::move(f2_coordinator));
  lhg_coordinator_->SetParityCoordinator(f2_coordinator_);

  lhg_coordinator_->SetBucketFactory([this, g1](BucketNo bucket,
                                                Level level) {
    auto node = std::make_unique<LhgDataBucketNode>(
        ctx_, f2_ctx_, group_size_, bucket, level, /*pre_initialized=*/false,
        g1);
    LhgDataBucketNode* ptr = node.get();
    const NodeId id = network_->AddNode(std::move(node));
    RegisterDataBucket(id, ptr);
    return id;
  });
  auto parity_factory = [this](BucketNo bucket, Level level) {
    auto node = std::make_unique<LhgParityBucketNode>(
        f2_ctx_, bucket, level, /*pre_initialized=*/false);
    LhgParityBucketNode* ptr = node.get();
    const NodeId id = network_->AddNode(std::move(node));
    parity_nodes_.Register(id, ptr);
    return id;
  };
  f2_coordinator_->SetBucketFactory(parity_factory);
  lhg_coordinator_->SetParityFactory(parity_factory);

  for (BucketNo b = 0; b < ctx_->config.initial_buckets; ++b) {
    auto node = std::make_unique<LhgDataBucketNode>(
        ctx_, f2_ctx_, group_size_, b, /*level=*/0, /*pre_initialized=*/true,
        g1);
    LhgDataBucketNode* ptr = node.get();
    const NodeId id = network_->AddNode(std::move(node));
    RegisterDataBucket(id, ptr);
    ctx_->allocation.Set(b, id);
  }
  auto parity0 = std::make_unique<LhgParityBucketNode>(
      f2_ctx_, /*bucket_no=*/0, /*level=*/0, /*pre_initialized=*/true);
  LhgParityBucketNode* parity0_ptr = parity0.get();
  const NodeId parity0_id = network_->AddNode(std::move(parity0));
  parity_nodes_.Register(parity0_id, parity0_ptr);
  f2_ctx_->allocation.Set(0, parity0_id);

  AddClient();
}

NodeId LhgFile::CrashDataBucket(BucketNo b) {
  const NodeId node = ctx_->allocation.Lookup(b);
  network_->SetAvailable(node, false);
  return node;
}

NodeId LhgFile::CrashParityBucket(BucketNo f2_bucket) {
  const NodeId node = f2_ctx_->allocation.Lookup(f2_bucket);
  network_->SetAvailable(node, false);
  return node;
}

void LhgFile::RecoverDataBucket(BucketNo b) {
  lhg_coordinator_->RecoverDataBucket(b);
  network_->RunUntilIdle();
}

void LhgFile::RecoverParityBucket(BucketNo f2_bucket) {
  lhg_coordinator_->RecoverParityBucket(f2_bucket);
  network_->RunUntilIdle();
}

LhgDataBucketNode* LhgFile::lhg_bucket(BucketNo b) const {
  // Every data bucket of an LH*g file is an LhgDataBucketNode, so the
  // registered base pointer downcasts statically.
  DataBucketNode* node = data_node(ctx_->allocation.Lookup(b));
  LHRS_CHECK(node != nullptr) << "bucket " << b << " not registered";
  return static_cast<LhgDataBucketNode*>(node);
}

LhgParityBucketNode* LhgFile::parity_bucket(BucketNo f2_bucket) const {
  return parity_nodes_.At(f2_ctx_->allocation.Lookup(f2_bucket));
}

StorageStats LhgFile::GetStorageStats() const {
  StorageStats stats = LhStarFile::GetStorageStats();
  const BucketNo m2 = f2_coordinator_->state().bucket_count();
  for (BucketNo b = 0; b < m2; ++b) {
    stats.parity_bytes += parity_bucket(b)->StorageBytes();
    ++stats.parity_buckets;
  }
  return stats;
}

Status LhgFile::VerifyParityInvariants() const {
  // Ground truth from F1: record groups by packed group key.
  std::map<uint64_t, ParityRecordG> expected;
  for (BucketNo b = 0; b < bucket_count(); ++b) {
    const LhgDataBucketNode* bucket = lhg_bucket(b);
    Status status = Status::OK();
    bucket->records().ForEachOrdered([&](Key key, const BufferView& value) {
      const uint64_t gkey = bucket->group_key_of(key).Packed();
      auto [it, unused] = expected.try_emplace(gkey);
      if (it->second.HasMember(key)) {
        status = Status::Internal("duplicate member in record group");
        return;
      }
      it->second.AddMember(key, static_cast<uint32_t>(value.size()));
      XorAssignPadded(it->second.parity, value);
    });
    if (!status.ok()) return status;
  }
  // Compare with F2 contents.
  std::map<uint64_t, ParityRecordG> actual;
  const BucketNo m2 = f2_coordinator_->state().bucket_count();
  for (BucketNo b = 0; b < m2; ++b) {
    for (auto& [gk, record] : parity_bucket(b)->DecodedRecords()) {
      if (!actual.emplace(gk.Packed(), std::move(record)).second) {
        return Status::Internal("parity record duplicated across F2");
      }
    }
  }
  if (expected.size() != actual.size()) {
    return Status::Internal(
        "record-group count mismatch: F1 implies " +
        std::to_string(expected.size()) + ", F2 holds " +
        std::to_string(actual.size()));
  }
  for (const auto& [gkey, exp] : expected) {
    auto it = actual.find(gkey);
    if (it == actual.end()) {
      return Status::Internal("missing parity record for group " +
                              std::to_string(gkey));
    }
    const ParityRecordG& act = it->second;
    std::vector<Key> exp_members = exp.members;
    std::vector<Key> act_members = act.members;
    std::sort(exp_members.begin(), exp_members.end());
    std::sort(act_members.begin(), act_members.end());
    if (exp_members != act_members) {
      return Status::Internal("member mismatch for group " +
                              std::to_string(gkey));
    }
    for (size_t i = 0; i < exp.members.size(); ++i) {
      const int j = act.FindMember(exp.members[i]);
      if (j < 0 || act.lengths[j] != exp.lengths[i]) {
        return Status::Internal("length mismatch for group " +
                                std::to_string(gkey));
      }
    }
    const size_t n = std::max(exp.parity.size(), act.parity.size());
    if (PadTo(exp.parity, n) != PadTo(act.parity, n)) {
      return Status::Internal("parity bytes mismatch for group " +
                              std::to_string(gkey));
    }
  }
  // Proposition 1: no record group exceeds k members, and all members sit
  // in distinct buckets.
  for (const auto& [gkey, exp] : expected) {
    if (exp.members.size() > group_size_) {
      return Status::Internal("record group exceeds k members");
    }
    std::set<BucketNo> buckets;
    const FileState& state = coordinator_->state();
    for (Key c : exp.members) {
      if (!buckets.insert(state.Address(c)).second) {
        return Status::Internal(
            "two members of one record group share a bucket");
      }
    }
  }
  return Status::OK();
}

}  // namespace lhrs::lhg
