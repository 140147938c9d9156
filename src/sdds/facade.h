#ifndef LHRS_SDDS_FACADE_H_
#define LHRS_SDDS_FACADE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "lhstar/messages.h"
#include "net/network.h"
#include "sdds/op_table.h"

namespace lhrs {

/// Aggregate storage statistics of a simulated file (any scheme).
struct StorageStats {
  size_t record_count = 0;
  size_t data_bytes = 0;        ///< Primary record payloads incl. keys.
  size_t parity_bytes = 0;      ///< Availability overhead (0 for plain LH*).
  size_t data_buckets = 0;
  size_t parity_buckets = 0;
  double load_factor = 0.0;     ///< records / (buckets * capacity).

  /// parity_bytes / data_bytes — the paper's storage-overhead metric.
  double ParityOverhead() const {
    return data_bytes == 0 ? 0.0
                           : static_cast<double>(parity_bytes) / data_bytes;
  }
};

namespace sdds {

/// Scheme-agnostic facade over one simulated SDDS file. Implemented by all
/// five schemes (LH*, LH*RS, LH*g, LH*m, LH*s), so drivers — workload
/// generators, benches, examples — are written once.
///
/// Two execution models share this interface:
///
///  - Synchronous (closed-loop): Insert/Search/Update/Delete submit one
///    operation on session 0 and run the simulation to idle — the seed's
///    original semantics, byte-identical message traces included.
///  - Asynchronous (open-loop): Submit() starts an operation and returns a
///    token without touching the event loop. The driver steps the network
///    (Network::Step / RunUntil) and learns about completions by Poll()ing
///    or through the completion listener, which fires inside event
///    processing the moment the logical operation finishes. Many sessions
///    each keep several operations in flight — the SDDS scalability claim
///    this repo exists to measure.
///
/// A *session* is the unit of client-side concurrency: one autonomous
/// client image (for composite schemes: one client per component file).
/// Operations within a session share that image and its address cache.
///
/// The file owns one OpTable, shared by all its clients: a token is the
/// client op id of the operation (for composite schemes, of the logical
/// operation), and its outcome waits in the token's slot until Take.
/// Tokens are unique per file while their slot's generation does not wrap
/// (see OpToken); 0 is never a valid token.
class SddsFile {
 public:
  SddsFile() {
    ops_.SetCompletionListener([this](OpToken token) { OnOpComplete(token); });
  }
  virtual ~SddsFile() = default;
  SddsFile(const SddsFile&) = delete;
  SddsFile& operator=(const SddsFile&) = delete;

  // --- Synchronous operations (session 0, drain to idle) ------------------
  Status Insert(Key key, Bytes value);
  Result<Bytes> Search(Key key);
  Status Update(Key key, Bytes value);
  Status Delete(Key key);

  /// Parallel scan. Schemes without a scan protocol (LH*m, LH*s) return
  /// kInvalidArgument.
  virtual Result<std::vector<WireRecord>> Scan(ScanPredicate predicate = {},
                                               bool deterministic = true);

  // --- Sessions ------------------------------------------------------------
  /// Adds another session; returns its index. Session 0 always exists.
  virtual size_t AddSession() = 0;
  virtual size_t session_count() const = 0;

  // --- Asynchronous operations ---------------------------------------------
  /// Starts `op` on `session` and returns its token. Sends the first
  /// message(s) immediately; completion needs the event loop to run.
  /// `value` applies to insert/update.
  virtual OpToken Submit(size_t session, OpType op, Key key, Bytes value) = 0;

  /// True once the operation completed (result not yet taken).
  bool Poll(OpToken token) const { return ops_.Poll(token); }

  /// Returns and removes the outcome of a completed operation; kInternal
  /// if the token is unknown or the operation is still in flight.
  Result<OpOutcome> Take(OpToken token) { return ops_.Take(token); }

  /// The simulated network this file runs on (drivers step it directly).
  virtual Network& network() = 0;

  virtual StorageStats GetStorageStats() const = 0;

  /// Identifier of the availability code this file runs with — "none" for
  /// schemes without parity; LH*RS reports its parity::CodeSpec spelling
  /// ("rs", "lrc2", "rs+prog", ...). Drivers label reports with it without
  /// knowing the scheme.
  virtual std::string code_name() const { return "none"; }

  /// Installs (or with nullptr removes) the completion listener: called
  /// with the token as the last action of every logical-op completion
  /// (scans and ops started on a client directly included), inside event
  /// processing. The listener may Submit() new operations and may Take()
  /// the completed one. One listener per file (the session layer owns it
  /// while attached).
  void SetCompletionListener(std::function<void(OpToken)> listener) {
    listener_ = std::move(listener);
  }

 protected:
  /// Shared closed-loop orchestration all five schemes used to duplicate:
  /// submit on `session`, drain the simulation, collect the outcome.
  Result<OpOutcome> RunSync(size_t session, OpType op, Key key, Bytes value);

  /// Called as every op of the file completes, its outcome in its slot:
  /// notifies the listener. Composite schemes override it to advance the
  /// logical op a sub-op is a step of instead.
  virtual void OnOpComplete(OpToken token) {
    if (listener_) listener_(token);
  }

  /// The file's operations. A base member, so it outlives the nodes (and
  /// the clients among them) that the implementations own.
  OpTable ops_;

 private:
  std::function<void(OpToken)> listener_;
};

/// NodeId-indexed registry of typed node pointers. Facades register each
/// node of a given role at creation time and later recover the typed
/// pointer with a plain array lookup — replacing the per-call dynamic_cast
/// of Network::node_as on hot paths. Find() returns nullptr for ids that
/// were never registered (nodes of another role).
template <typename T>
class NodeIndex {
 public:
  void Register(NodeId id, T* node) {
    LHRS_CHECK(id >= 0);
    if (static_cast<size_t>(id) >= index_.size()) {
      index_.resize(static_cast<size_t>(id) + 1, nullptr);
    }
    index_[static_cast<size_t>(id)] = node;
  }

  T* Find(NodeId id) const {
    if (id < 0 || static_cast<size_t>(id) >= index_.size()) return nullptr;
    return index_[static_cast<size_t>(id)];
  }

  /// Find() that CHECK-fails on a miss (callers that know the role).
  T* At(NodeId id) const {
    T* node = Find(id);
    LHRS_CHECK(node != nullptr) << "node " << id << " has unexpected role";
    return node;
  }

 private:
  std::vector<T*> index_;
};

}  // namespace sdds
}  // namespace lhrs

#endif  // LHRS_SDDS_FACADE_H_
