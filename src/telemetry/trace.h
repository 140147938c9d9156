#ifndef LHRS_TELEMETRY_TRACE_H_
#define LHRS_TELEMETRY_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace lhrs::telemetry {

/// Event taxonomy of the simulated system. One enumerator per observable
/// structural event; message-level events (send/deliver/failure and parity
/// update rounds) can be disabled independently because their volume
/// dominates long runs (see TelemetryConfig::trace_messages).
enum class TraceEventType : uint8_t {
  kSend = 0,             ///< Message enqueued (node=from, peer=to).
  kDeliver,              ///< Message handed to its destination (node=to).
  kDeliveryFailure,      ///< Timeout bounced to the sender (node=from).
  kCrash,                ///< Node marked unavailable.
  kRestore,              ///< Node marked available again.
  kSplitBegin,           ///< Coordinator launched a bucket split.
  kSplitEnd,             ///< SplitDone received.
  kRecoveryBegin,        ///< Group-recovery task created (group, detail=task).
  kRecoveryPhaseBegin,   ///< Recovery phase started (detail=RecoveryPhase).
  kRecoveryPhaseEnd,     ///< Recovery phase finished.
  kRecoveryEnd,          ///< Task finished (detail: 0 ok, 1 aborted/lost).
  kParityUpdateRound,    ///< Parity bucket applied a delta round
                         ///< (detail = deltas in the round).
  kFaultInjected,        ///< Chaos engine acted on a message or node
                         ///< (detail = chaos::FaultKind; node/peer =
                         ///< from/to, kind = message kind when applicable).
};

const char* TraceEventTypeName(TraceEventType type);

/// Phases of a bucket-group recovery task, traced via
/// kRecoveryPhaseBegin/End with the phase in `detail`.
enum class RecoveryPhase : uint8_t {
  kPlan = 0,           ///< Classify columns, allocate spares, push config.
  kRead = 1,           ///< Collect surviving column dumps.
  kDecodeInstall = 2,  ///< RS decode + install reconstructed columns.
};

const char* RecoveryPhaseName(RecoveryPhase phase);

/// One structured simulator event. Fixed-size and trivially copyable so the
/// tracer ring never allocates per event. Field use per type:
///   kSend/kDeliver/kDeliveryFailure: node, peer, kind, detail = bytes.
///   kCrash/kRestore:                 node.
///   kSplitBegin/kSplitEnd:           node = coordinator, peer = new server,
///                                    detail = new bucket number.
///   kRecovery*:                      node = coordinator, group,
///                                    detail = task id / phase / status.
///   kParityUpdateRound:              node = parity bucket, group,
///                                    detail = deltas applied.
struct TraceEvent {
  uint64_t time_us = 0;  ///< SimTime stamp.
  TraceEventType type = TraceEventType::kSend;
  int32_t node = -1;
  int32_t peer = -1;
  int32_t kind = -1;   ///< Message kind, when applicable.
  int32_t group = -1;  ///< Bucket group, when applicable.
  int64_t detail = 0;  ///< Type-specific payload (see above).
};

/// Bounded ring buffer of TraceEvents. When full, the oldest event is
/// overwritten and `dropped()` counts the loss; recording is O(1) and never
/// allocates after construction.
class Tracer {
 public:
  explicit Tracer(size_t capacity = 16384);

  void Record(const TraceEvent& event);

  size_t capacity() const { return ring_.size(); }
  size_t size() const { return size_; }
  uint64_t dropped() const { return dropped_; }
  void Clear();

  /// Retained events, oldest first.
  std::vector<TraceEvent> Events() const;

  /// JSON array of typed event objects (full fidelity, machine-readable).
  std::string ToJson() const;

  /// Chrome about://tracing (trace-event format) JSON object. Structural
  /// begin/end pairs map to "B"/"E" slices — recovery events on one track
  /// per bucket group, splits on the coordinator's track — and everything
  /// else to instant events on the acting node's track.
  std::string ToChromeTrace() const;

 private:
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;  ///< Next write position.
  size_t size_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace lhrs::telemetry

#endif  // LHRS_TELEMETRY_TRACE_H_
