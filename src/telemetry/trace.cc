#include "telemetry/trace.h"

#include <algorithm>

#include "telemetry/json.h"

namespace lhrs::telemetry {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kSend:
      return "send";
    case TraceEventType::kDeliver:
      return "deliver";
    case TraceEventType::kDeliveryFailure:
      return "delivery_failure";
    case TraceEventType::kCrash:
      return "crash";
    case TraceEventType::kRestore:
      return "restore";
    case TraceEventType::kSplitBegin:
      return "split_begin";
    case TraceEventType::kSplitEnd:
      return "split_end";
    case TraceEventType::kRecoveryBegin:
      return "recovery_begin";
    case TraceEventType::kRecoveryPhaseBegin:
      return "recovery_phase_begin";
    case TraceEventType::kRecoveryPhaseEnd:
      return "recovery_phase_end";
    case TraceEventType::kRecoveryEnd:
      return "recovery_end";
    case TraceEventType::kParityUpdateRound:
      return "parity_update_round";
    case TraceEventType::kFaultInjected:
      return "fault_injected";
  }
  return "unknown";
}

const char* RecoveryPhaseName(RecoveryPhase phase) {
  switch (phase) {
    case RecoveryPhase::kPlan:
      return "plan";
    case RecoveryPhase::kRead:
      return "read";
    case RecoveryPhase::kDecodeInstall:
      return "decode_install";
  }
  return "unknown";
}

Tracer::Tracer(size_t capacity) : ring_(std::max<size_t>(capacity, 1)) {}

void Tracer::Record(const TraceEvent& event) {
  if (size_ == ring_.size()) {
    ++dropped_;  // Oldest overwritten.
  } else {
    ++size_;
  }
  ring_[head_] = event;
  head_ = (head_ + 1) % ring_.size();
}

void Tracer::Clear() {
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  const size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

namespace {

void AppendCommonFields(std::string* out, const TraceEvent& ev) {
  *out += "{\"ts\":" + std::to_string(ev.time_us);
  *out += ",\"type\":";
  AppendJsonString(out, TraceEventTypeName(ev.type));
  if (ev.node >= 0) *out += ",\"node\":" + std::to_string(ev.node);
  if (ev.peer >= 0) *out += ",\"peer\":" + std::to_string(ev.peer);
  if (ev.kind >= 0) *out += ",\"kind\":" + std::to_string(ev.kind);
  if (ev.group >= 0) *out += ",\"group\":" + std::to_string(ev.group);
}

bool IsPhaseEvent(TraceEventType t) {
  return t == TraceEventType::kRecoveryPhaseBegin ||
         t == TraceEventType::kRecoveryPhaseEnd;
}

}  // namespace

std::string Tracer::ToJson() const {
  std::string out = "[";
  bool first = true;
  for (const TraceEvent& ev : Events()) {
    if (!first) out += ",";
    first = false;
    AppendCommonFields(&out, ev);
    if (IsPhaseEvent(ev.type)) {
      out += ",\"phase\":";
      AppendJsonString(
          &out, RecoveryPhaseName(static_cast<RecoveryPhase>(ev.detail)));
    } else {
      out += ",\"detail\":" + std::to_string(ev.detail);
    }
    out += "}";
  }
  out += "]";
  return out;
}

std::string Tracer::ToChromeTrace() const {
  // trace-event format: https://docs.google.com/document/d/1CvAClvFfyA5R-
  // PhYUmn5OOQtYMH4h6I0nSsKchNAySU — one process, node id (or a per-group
  // recovery track at 100000+g) as the thread id.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const TraceEvent& ev, const char* ph, std::string name,
                  int64_t tid) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, name);
    out += ",\"ph\":\"";
    out += ph;
    out += "\",\"ts\":" + std::to_string(ev.time_us);
    out += ",\"pid\":1,\"tid\":" + std::to_string(tid);
    if (ph[0] == 'i') out += ",\"s\":\"g\"";
    out += ",\"args\":{";
    out += "\"node\":" + std::to_string(ev.node);
    if (ev.peer >= 0) out += ",\"peer\":" + std::to_string(ev.peer);
    if (ev.kind >= 0) out += ",\"kind\":" + std::to_string(ev.kind);
    if (ev.group >= 0) out += ",\"group\":" + std::to_string(ev.group);
    out += ",\"detail\":" + std::to_string(ev.detail);
    out += "}}";
  };

  for (const TraceEvent& ev : Events()) {
    const int64_t group_tid = 100000 + ev.group;
    switch (ev.type) {
      case TraceEventType::kSplitBegin:
        emit(ev, "B", "split", ev.node);
        break;
      case TraceEventType::kSplitEnd:
        emit(ev, "E", "split", ev.node);
        break;
      case TraceEventType::kRecoveryBegin:
        emit(ev, "B", "recovery g" + std::to_string(ev.group), group_tid);
        break;
      case TraceEventType::kRecoveryEnd:
        emit(ev, "E", "recovery g" + std::to_string(ev.group), group_tid);
        break;
      case TraceEventType::kRecoveryPhaseBegin:
        emit(ev, "B",
             RecoveryPhaseName(static_cast<RecoveryPhase>(ev.detail)),
             group_tid);
        break;
      case TraceEventType::kRecoveryPhaseEnd:
        emit(ev, "E",
             RecoveryPhaseName(static_cast<RecoveryPhase>(ev.detail)),
             group_tid);
        break;
      default:
        emit(ev, "i", TraceEventTypeName(ev.type), ev.node);
        break;
    }
  }
  out += "]}";
  return out;
}

}  // namespace lhrs::telemetry
