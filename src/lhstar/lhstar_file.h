#ifndef LHRS_LHSTAR_LHSTAR_FILE_H_
#define LHRS_LHSTAR_LHSTAR_FILE_H_

#include <memory>
#include <vector>

#include "chaos/chaos.h"
#include "common/bytes.h"
#include "common/result.h"
#include "lhstar/client.h"
#include "lhstar/coordinator.h"
#include "lhstar/data_bucket.h"
#include "lhstar/system.h"
#include "net/network.h"
#include "sdds/facade.h"

namespace lhrs {

/// A plain LH* file on a simulated multicomputer: the substrate and the
/// zero-availability comparison point of every experiment.
///
/// Owns the network, coordinator, server and client nodes. Implements the
/// scheme-agnostic SddsFile facade: the inherited synchronous calls run
/// each operation to quiescence; Submit/Poll/Take expose the asynchronous
/// protocol directly for pipelined drivers. A session maps 1:1 onto an
/// autonomous ClientNode.
class LhStarFile : public sdds::SddsFile {
 public:
  struct Options {
    FileConfig file;
    NetworkConfig net;
  };

  explicit LhStarFile(Options options);

  Result<std::vector<WireRecord>> Scan(ScanPredicate predicate = {},
                                       bool deterministic = true) override;

  // --- SddsFile async interface -------------------------------------------
  size_t AddSession() override { return AddClient(); }
  size_t session_count() const override { return clients_.size(); }
  sdds::OpToken Submit(size_t session, OpType op, Key key,
                       Bytes value) override;

  /// Submits one bulk-load batch on `session` (see
  /// ClientNode::StartInsertBatch): the records travel as one message per
  /// target bucket and the availability layers group-commit their parity
  /// deltas per sub-batch. Completes like any other token; the outcome's
  /// batch_* fields carry the per-record tallies. `records` must be
  /// non-empty.
  sdds::OpToken SubmitBatch(size_t session, std::vector<WireRecord> records);

  // --- Multi-client access ------------------------------------------------
  /// Adds another autonomous client; returns its index.
  size_t AddClient();
  ClientNode& client(size_t index = 0);

  Status InsertVia(size_t client_index, Key key, Bytes value);
  Result<Bytes> SearchVia(size_t client_index, Key key);

  // --- Introspection ------------------------------------------------------
  Network& network() override { return *network_; }
  const Network& network() const { return *network_; }
  CoordinatorNode& coordinator() { return *coordinator_; }
  SystemContext& context() { return *ctx_; }
  BucketNo bucket_count() const { return coordinator_->state().bucket_count(); }
  DataBucketNode* bucket(BucketNo b) const;

  StorageStats GetStorageStats() const override;

  // --- Chaos / fault injection --------------------------------------------
  /// Arms a scripted fault scenario against this file's network: message
  /// faults apply from now on, scheduled faults fire at their offsets from
  /// now. Replaces any previously attached engine. The file stays attached
  /// until DetachChaos (faults keep applying across operations).
  chaos::ChaosEngine& AttachChaos(chaos::FaultPlan plan);
  void DetachChaos();
  bool chaos_attached() const { return chaos_ != nullptr; }
  chaos::ChaosEngine* chaos() { return chaos_.get(); }

  /// Runs the simulation until the attached plan's last scheduled fault
  /// has fired and the system is idle again (workload-independent tail of
  /// a drill: restores, late recoveries).
  void PlayOutChaos();

 protected:
  /// Chaos hooks a subclass can specialise: how to map a bucket group to
  /// node ids (plain LH* has no parity groups — no resolver) and how to
  /// restore a crashed node (default: mark available + self-check so a
  /// replaced bucket stands down).
  virtual chaos::ChaosEngine::GroupResolver ChaosGroupResolver() {
    return nullptr;
  }
  virtual chaos::ChaosEngine::RestoreHook ChaosRestoreHook();

  /// Subclass constructor hook: builds the network/context but defers node
  /// creation to the subclass (which installs its own coordinator and
  /// factory).
  struct DeferInit {};
  LhStarFile(Options options, DeferInit);

  /// Every data-bucket creation point (initial buckets, split factories —
  /// base and subclass alike) registers the typed pointer here, replacing
  /// per-call dynamic_cast lookups on hot paths.
  void RegisterDataBucket(NodeId id, DataBucketNode* node) {
    data_nodes_.Register(id, node);
  }
  /// The registered data bucket at `id`, or nullptr for other roles.
  DataBucketNode* data_node(NodeId id) const { return data_nodes_.Find(id); }

  Options options_;
  std::unique_ptr<Network> network_;
  std::shared_ptr<SystemContext> ctx_;
  CoordinatorNode* coordinator_ = nullptr;  // Owned by network_.
  std::vector<ClientNode*> clients_;        // Owned by network_.
  /// Declared after network_ so it detaches before the network dies.
  std::unique_ptr<chaos::ChaosEngine> chaos_;

 private:
  sdds::NodeIndex<DataBucketNode> data_nodes_;
};

}  // namespace lhrs

#endif  // LHRS_LHSTAR_LHSTAR_FILE_H_
