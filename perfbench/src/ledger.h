#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

// Host-time ledger: self-time spans around calls into the library's
// layers, plus the small statistics helpers the report needs.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The spans the traced run records. Each wraps one kind of call from the
/// benchmark into the library (see README.md for the layer map).
enum class Span : uint8_t {
  kWorkloadNext,   ///< Producing the next op (WorkloadGenerator::Next).
  kSddsSubmit,     ///< SddsFile::Submit / SessionPool::Submit.
  kSddsSession,    ///< Driver bookkeeping in the completion handler.
  kSddsTake,       ///< Poll + Take of a synchronous op.
  kNetStep,        ///< Network::Step: dispatch, handler and sends.
  kLhrsNotify,     ///< RsCoordinatorNode::NotifyUnavailable (repair plan).
  kCount,
};

/// Self-time accumulator with a scope stack: a span's self time is its
/// duration minus the spans nested inside it, so the slots add up to the
/// time covered by top-level spans.
class Ledger {
 public:
  struct Slot {
    uint64_t self_ns = 0;
    uint64_t calls = 0;
  };

  void Begin(Span span) {
    stack_[depth_++] = Frame{span, NowNs(), 0};
  }

  /// Closes the innermost span and returns its total (not self) duration.
  uint64_t End() {
    const Frame f = stack_[--depth_];
    const uint64_t total = NowNs() - f.start_ns;
    Slot& slot = slots_[static_cast<size_t>(f.span)];
    slot.self_ns += total - f.child_ns;
    ++slot.calls;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += total;
    return total;
  }

  const Slot& slot(Span span) const {
    return slots_[static_cast<size_t>(span)];
  }

  uint64_t TotalSelfNs() const {
    uint64_t sum = 0;
    for (const Slot& s : slots_) sum += s.self_ns;
    return sum;
  }

 private:
  struct Frame {
    Span span = Span::kCount;
    uint64_t start_ns = 0;
    uint64_t child_ns = 0;
  };
  std::array<Slot, static_cast<size_t>(Span::kCount)> slots_{};
  std::array<Frame, 16> stack_{};
  size_t depth_ = 0;
};

/// RAII span that is a no-op without a ledger (the untraced run).
class Scoped {
 public:
  Scoped(Ledger* ledger, Span span) : ledger_(ledger) {
    if (ledger_ != nullptr) ledger_->Begin(span);
  }
  ~Scoped() {
    if (ledger_ != nullptr) ledger_->End();
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Ledger* ledger_;
};

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
template <typename T>
double Percentile(std::vector<T> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      p / 100.0 * static_cast<double>(values.size() - 1) + 0.5);
  const size_t idx = std::min(rank, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return static_cast<double>(values[idx]);
}

template <typename T>
double Median(std::vector<T> values) {
  return Percentile(std::move(values), 50.0);
}

template <typename T>
double Mean(const std::vector<T>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const T& v : values) sum += static_cast<double>(v);
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
