#include "lhrs/lhrs_file.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "common/logging.h"

namespace lhrs {

namespace {

LhStarFile::Options ToBaseOptions(const LhrsFile::Options& options) {
  LhStarFile::Options base;
  base.file = options.file;
  base.net = options.net;
  return base;
}

/// Compares two byte strings modulo trailing zero padding.
bool EqualModuloPadding(std::span<const uint8_t> a,
                        std::span<const uint8_t> b) {
  const size_t n = std::min(a.size(), b.size());
  if (!std::equal(a.begin(), a.begin() + n, b.begin())) return false;
  std::span<const uint8_t> longer = a.size() >= b.size() ? a : b;
  for (size_t i = n; i < longer.size(); ++i) {
    if (longer[i] != 0) return false;
  }
  return true;
}

}  // namespace

LhrsFile::LhrsFile(Options options)
    : LhStarFile(ToBaseOptions(options), DeferInit{}) {
  lhrs_ctx_ = std::make_shared<LhrsContext>();
  lhrs_ctx_->base = ctx_;
  lhrs_ctx_->m = options.group_size;
  lhrs_ctx_->coders = std::make_shared<CoderCache>(
      options.group_size, options.field, options.code);
  lhrs_ctx_->policy = options.policy;
  lhrs_ctx_->auto_recover = options.auto_recover;
  lhrs_ctx_->reuse_ranks = options.reuse_ranks;

  auto coordinator = std::make_unique<RsCoordinatorNode>(lhrs_ctx_);
  rs_coordinator_ = coordinator.get();
  coordinator_ = rs_coordinator_;
  ctx_->coordinator = network_->AddNode(std::move(coordinator));

  rs_coordinator_->SetBucketFactory([this](BucketNo bucket, Level level) {
    auto node = std::make_unique<RsDataBucketNode>(
        lhrs_ctx_, bucket, level, /*pre_initialized=*/false);
    RsDataBucketNode* ptr = node.get();
    const NodeId id = network_->AddNode(std::move(node));
    RegisterDataBucket(id, ptr);
    return id;
  });
  rs_coordinator_->SetParityFactory(
      [this](uint32_t group, uint32_t parity_index, uint32_t k, bool spare) {
        auto node = std::make_unique<ParityBucketNode>(
            lhrs_ctx_, group, parity_index, k, /*pre_initialized=*/!spare);
        ParityBucketNode* ptr = node.get();
        const NodeId id = network_->AddNode(std::move(node));
        parity_nodes_.Register(id, ptr);
        return id;
      });

  for (BucketNo b = 0; b < ctx_->config.initial_buckets; ++b) {
    auto node = std::make_unique<RsDataBucketNode>(lhrs_ctx_, b, /*level=*/0,
                                                   /*pre_initialized=*/true);
    RsDataBucketNode* ptr = node.get();
    const NodeId id = network_->AddNode(std::move(node));
    RegisterDataBucket(id, ptr);
    ctx_->allocation.Set(b, id);
  }
  rs_coordinator_->InitializeGroups();
  AddClient();
  network_->RunUntilIdle();  // Deliver the initial group configurations.
}

NodeId LhrsFile::CrashDataBucket(BucketNo b) {
  const NodeId node = ctx_->allocation.Lookup(b);
  network_->SetAvailable(node, false);
  return node;
}

NodeId LhrsFile::CrashParityBucket(uint32_t g, uint32_t parity_index) {
  const NodeId node = rs_coordinator_->group_info(g).parity_nodes.at(
      parity_index);
  network_->SetAvailable(node, false);
  return node;
}

void LhrsFile::RestoreNode(NodeId node) {
  network_->SetAvailable(node, true);
  // Self-detected recovery (section 2.5.4): the node checks with the
  // coordinator whether it still carries its bucket.
  if (DataBucketNode* bucket = data_node(node)) {
    bucket->SelfCheck();
    network_->RunUntilIdle();
  }
}

chaos::ChaosEngine::GroupResolver LhrsFile::ChaosGroupResolver() {
  return [this](uint32_t g) {
    std::vector<NodeId> members;
    if (g >= rs_coordinator_->group_count()) return members;
    const uint32_t m = lhrs_ctx_->m;
    const BucketNo bucket_count = coordinator_->state().bucket_count();
    for (uint32_t j = 0; j < m; ++j) {
      const BucketNo b = g * m + j;
      if (b >= bucket_count) break;
      members.push_back(ctx_->allocation.Lookup(b));
    }
    for (NodeId p : rs_coordinator_->group_info(g).parity_nodes) {
      members.push_back(p);
    }
    return members;
  };
}

void LhrsFile::DetectAndRecover(NodeId node) {
  rs_coordinator_->NotifyUnavailable(node);
  network_->RunUntilIdle();
}

void LhrsFile::RecoverAll() {
  for (uint32_t g = 0; g < rs_coordinator_->group_count(); ++g) {
    rs_coordinator_->RecoverGroup(g);
  }
  network_->RunUntilIdle();
}

RsCoordinatorNode::ScrubReport LhrsFile::Scrub(bool repair) {
  rs_coordinator_->ResetScrubReport();
  for (uint32_t g = 0; g < rs_coordinator_->group_count(); ++g) {
    rs_coordinator_->StartScrub(g, repair);
    network_->RunUntilIdle();
  }
  return rs_coordinator_->scrub_report();
}

Status LhrsFile::SimulateCoordinatorRestart() {
  rs_coordinator_->WipeSoftStateAndResurvey();
  network_->RunUntilIdle();
  if (!rs_coordinator_->survey_rebuilt()) {
    return Status::Internal("survey did not complete");
  }
  return Status::OK();
}

Result<FileState> LhrsFile::RecoverFileState() {
  rs_coordinator_->StartFileStateRecovery();
  network_->RunUntilIdle();
  return rs_coordinator_->FinishFileStateRecovery();
}

RsDataBucketNode* LhrsFile::rs_bucket(BucketNo b) const {
  // Every data bucket of an LH*RS file is an RsDataBucketNode, so the
  // registered base pointer downcasts statically.
  DataBucketNode* node = data_node(ctx_->allocation.Lookup(b));
  LHRS_CHECK(node != nullptr) << "bucket " << b << " not registered";
  return static_cast<RsDataBucketNode*>(node);
}

ParityBucketNode* LhrsFile::parity_bucket(uint32_t g,
                                          uint32_t parity_index) const {
  return parity_nodes_.At(
      rs_coordinator_->group_info(g).parity_nodes.at(parity_index));
}

StorageStats LhrsFile::GetStorageStats() const {
  StorageStats stats = LhStarFile::GetStorageStats();
  for (uint32_t g = 0; g < rs_coordinator_->group_count(); ++g) {
    const auto& info = rs_coordinator_->group_info(g);
    for (uint32_t j = 0; j < info.k; ++j) {
      stats.parity_bytes += parity_bucket(g, j)->StorageBytes();
      ++stats.parity_buckets;
    }
  }
  return stats;
}

Status LhrsFile::VerifyParityInvariants() const {
  const uint32_t m = lhrs_ctx_->m;
  const BucketNo total = bucket_count();
  for (uint32_t g = 0; g < rs_coordinator_->group_count(); ++g) {
    const auto& info = rs_coordinator_->group_info(g);
    if (info.lost) continue;
    const uint32_t existing =
        std::min<BucketNo>(m, total - std::min<BucketNo>(total, g * m));
    // Gather ground truth: per rank, the member values by slot.
    struct Truth {
      std::vector<std::optional<Key>> keys;
      std::vector<uint32_t> lengths;
      std::vector<BufferView> values;
      explicit Truth(uint32_t m)
          : keys(m), lengths(m, 0), values(m) {}
    };
    std::map<Rank, Truth> truth;
    for (uint32_t slot = 0; slot < existing; ++slot) {
      const BucketNo b = g * m + slot;
      if (!network_->available(ctx_->allocation.Lookup(b))) {
        return Status::Internal("cannot verify: data bucket " +
                                std::to_string(b) + " is down");
      }
      for (const auto& rec : rs_bucket(b)->RankedRecords()) {
        auto [it, unused] = truth.try_emplace(rec.rank, Truth(m));
        Truth& t = it->second;
        t.keys[slot] = rec.key;
        t.lengths[slot] = static_cast<uint32_t>(rec.value.size());
        t.values[slot] = rec.value;
      }
    }
    const parity::ParityCode& coder = lhrs_ctx_->coders->ForK(info.k);
    for (uint32_t j = 0; j < info.k; ++j) {
      const ParityBucketNode* parity = parity_bucket(g, j);
      // Every ground-truth rank must have a parity record, and vice versa.
      const size_t parity_records = parity->ParityRanks().size();
      if (parity_records != truth.size()) {
        return Status::Internal(
            "group " + std::to_string(g) + " parity " + std::to_string(j) +
            ": " + std::to_string(parity_records) + " parity records vs " +
            std::to_string(truth.size()) + " record groups");
      }
      for (const auto& [rank, t] : truth) {
        const std::optional<ParityRecord> found =
            parity->FindParityRecord(rank);
        if (!found.has_value()) {
          return Status::Internal("group " + std::to_string(g) +
                                  ": missing parity record for rank " +
                                  std::to_string(rank));
        }
        const ParityRecord& pr = *found;
        for (uint32_t slot = 0; slot < m; ++slot) {
          if (pr.keys[slot] != t.keys[slot]) {
            return Status::Internal(
                "group " + std::to_string(g) + " rank " +
                std::to_string(rank) + ": key mismatch at slot " +
                std::to_string(slot));
          }
          if (t.keys[slot].has_value() && pr.lengths[slot] != t.lengths[slot]) {
            return Status::Internal(
                "group " + std::to_string(g) + " rank " +
                std::to_string(rank) + ": length mismatch at slot " +
                std::to_string(slot));
          }
        }
        Bytes expected;
        for (uint32_t slot = 0; slot < m; ++slot) {
          if (!t.keys[slot].has_value()) continue;
          coder.ApplyDelta(slot, t.values[slot], j, &expected);
        }
        if (!EqualModuloPadding(expected, pr.parity)) {
          return Status::Internal(
              "group " + std::to_string(g) + " parity " + std::to_string(j) +
              " rank " + std::to_string(rank) + ": parity bytes mismatch");
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace lhrs
