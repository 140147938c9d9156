#include "lhstar/lhstar_file.h"

#include <utility>

#include "common/logging.h"

namespace lhrs {

LhStarFile::LhStarFile(Options options, DeferInit)
    : options_(std::move(options)),
      network_(std::make_unique<Network>(options_.net)),
      ctx_(std::make_shared<SystemContext>()) {
  ctx_->config = options_.file;
}

LhStarFile::LhStarFile(Options options)
    : LhStarFile(std::move(options), DeferInit{}) {
  auto coordinator = std::make_unique<CoordinatorNode>(ctx_);
  coordinator_ = coordinator.get();
  ctx_->coordinator = network_->AddNode(std::move(coordinator));

  coordinator_->SetBucketFactory([this](BucketNo bucket, Level level) {
    auto node = std::make_unique<DataBucketNode>(ctx_, bucket, level,
                                                 /*pre_initialized=*/false);
    DataBucketNode* ptr = node.get();
    const NodeId id = network_->AddNode(std::move(node));
    RegisterDataBucket(id, ptr);
    return id;
  });

  for (BucketNo b = 0; b < ctx_->config.initial_buckets; ++b) {
    auto node = std::make_unique<DataBucketNode>(ctx_, b, /*level=*/0,
                                                 /*pre_initialized=*/true);
    DataBucketNode* ptr = node.get();
    const NodeId id = network_->AddNode(std::move(node));
    RegisterDataBucket(id, ptr);
    ctx_->allocation.Set(b, id);
  }

  AddClient();
}

size_t LhStarFile::AddClient() {
  auto client = std::make_unique<ClientNode>(ctx_, ops_);
  ClientNode* ptr = client.get();
  network_->AddNode(std::move(client));
  clients_.push_back(ptr);
  return clients_.size() - 1;
}

ClientNode& LhStarFile::client(size_t index) {
  LHRS_CHECK_LT(index, clients_.size());
  return *clients_[index];
}

sdds::OpToken LhStarFile::Submit(size_t session, OpType op, Key key,
                                 Bytes value) {
  return client(session).StartOp(op, key, std::move(value));
}

sdds::OpToken LhStarFile::SubmitBatch(size_t session,
                                      std::vector<WireRecord> records) {
  return client(session).StartInsertBatch(std::move(records));
}

Status LhStarFile::InsertVia(size_t client_index, Key key, Bytes value) {
  LHRS_ASSIGN_OR_RETURN(OpOutcome out,
                        RunSync(client_index, OpType::kInsert, key,
                                std::move(value)));
  return out.status;
}

Result<Bytes> LhStarFile::SearchVia(size_t client_index, Key key) {
  LHRS_ASSIGN_OR_RETURN(OpOutcome out,
                        RunSync(client_index, OpType::kSearch, key, {}));
  if (!out.status.ok()) return out.status;
  return out.value.ToBytes();
}

Result<std::vector<WireRecord>> LhStarFile::Scan(ScanPredicate predicate,
                                                 bool deterministic) {
  ClientNode& c = client(0);
  const uint64_t op_id = c.StartScan(std::move(predicate), deterministic);
  // Probabilistic termination: the simulation going idle is the time-out
  // after the last received record.
  network_->RunUntilIdle();
  LHRS_ASSIGN_OR_RETURN(OpOutcome out, c.TakeScan(op_id));
  if (!out.status.ok()) return out.status;
  return std::move(out.scan_records);
}

DataBucketNode* LhStarFile::bucket(BucketNo b) const {
  return data_nodes_.At(ctx_->allocation.Lookup(b));
}

chaos::ChaosEngine& LhStarFile::AttachChaos(chaos::FaultPlan plan) {
  chaos_.reset();  // Detach first: the engine registers a network hook.
  chaos_ = std::make_unique<chaos::ChaosEngine>(
      network_.get(), std::move(plan), ChaosGroupResolver(),
      ChaosRestoreHook());
  return *chaos_;
}

void LhStarFile::DetachChaos() { chaos_.reset(); }

void LhStarFile::PlayOutChaos() {
  if (chaos_ == nullptr) return;
  network_->RunUntil(chaos_->Horizon());
  network_->RunUntilIdle();
}

chaos::ChaosEngine::RestoreHook LhStarFile::ChaosRestoreHook() {
  // Must not pump the event loop: it runs inside event processing. The
  // self-check messages play out in the surrounding run.
  return [this](NodeId node) {
    network_->SetAvailable(node, true);
    if (DataBucketNode* bucket = data_node(node)) {
      bucket->SelfCheck();
    }
  };
}

StorageStats LhStarFile::GetStorageStats() const {
  StorageStats stats;
  stats.data_buckets = bucket_count();
  for (BucketNo b = 0; b < stats.data_buckets; ++b) {
    const DataBucketNode* node = bucket(b);
    stats.record_count += node->record_count();
    stats.data_bytes += node->StorageBytes();
  }
  stats.load_factor =
      static_cast<double>(stats.record_count) /
      (static_cast<double>(stats.data_buckets) * ctx_->config.bucket_capacity);
  return stats;
}

}  // namespace lhrs
