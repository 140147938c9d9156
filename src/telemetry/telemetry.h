#ifndef LHRS_TELEMETRY_TELEMETRY_H_
#define LHRS_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace lhrs::telemetry {

struct TelemetryConfig {
  /// Ring capacity of the event tracer; the oldest events are dropped (and
  /// counted) beyond this.
  size_t trace_capacity = 16384;
  /// Trace per-message events (send/deliver/failure, parity update
  /// rounds). They dominate long runs; structural events (crash, restore,
  /// split, recovery) are always traced.
  bool trace_messages = true;
};

/// One observability domain: a metrics registry plus an event tracer,
/// stamped from a caller-supplied clock (the simulator's SimTime). The
/// instrumented layers hold a `Telemetry*` that is null when telemetry is
/// off, so the disabled hot path is a single pointer test — no allocation,
/// no lookup, no virtual call.
class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config = {})
      : config_(config), tracer_(config.trace_capacity) {}
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  const TelemetryConfig& config() const { return config_; }
  bool trace_messages() const { return config_.trace_messages; }

  /// Current instrumented time (simulated microseconds). Wired by the
  /// component that owns the clock (Network::EnableTelemetry).
  uint64_t now() const { return clock_ ? clock_() : 0; }
  void set_clock(std::function<uint64_t()> clock) {
    clock_ = std::move(clock);
  }

 private:
  TelemetryConfig config_;
  MetricsRegistry metrics_;
  Tracer tracer_;
  std::function<uint64_t()> clock_;
};

}  // namespace lhrs::telemetry

#endif  // LHRS_TELEMETRY_TELEMETRY_H_
