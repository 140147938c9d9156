#ifndef LHRS_PARITY_RS_CODE_H_
#define LHRS_PARITY_RS_CODE_H_

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "parity/linear_decode.h"
#include "parity/parity_code.h"
#include "rs/coder.h"

namespace lhrs::parity {

/// The paper's generalized Reed-Solomon code behind the ParityCode
/// interface. Encode and delta maintenance delegate to rs::GroupCoder, and
/// decode plans come from its decode matrix, so behavior is identical to
/// the pre-interface code path (the refactor oracle).
template <GaloisField F>
class RsCodeT final : public ParityCode {
 public:
  RsCodeT(uint32_t m, uint32_t k, CodeSpec spec)
      : impl_(m, k), spec_(spec) {}

  uint32_t m() const override { return static_cast<uint32_t>(impl_.m()); }
  uint32_t k() const override { return static_cast<uint32_t>(impl_.k()); }
  const CodeSpec& spec() const override { return spec_; }

  void ApplyDelta(size_t slot, std::span<const uint8_t> delta,
                  size_t parity_index, Bytes* parity) const override {
    impl_.ApplyDelta(slot, delta, parity_index, parity);
  }

  void ApplyDelta(size_t slot, std::span<const uint8_t> delta,
                  size_t parity_index, BufferView* parity) const override {
    impl_.ApplyDelta(slot, delta, parity_index, parity);
  }

  std::vector<Bytes> Encode(
      std::span<const Bytes* const> data) const override {
    return impl_.Encode(data);
  }

  /// One inversion of the m x m decode matrix; the plan's rows are the
  /// inverse's columns for the wanted slots.
  Result<std::unique_ptr<const DecodePlan>> PlanDecode(
      const std::vector<uint32_t>& columns,
      const std::vector<uint32_t>& wanted_data) const override {
    auto system = impl_.DecodeMatrix(columns);
    if (!system.ok()) return system.status();
    const auto& [use, inv] = *system;
    std::vector<uint32_t> inputs;
    inputs.reserve(use.size());
    for (size_t pos : use) inputs.push_back(columns[pos]);
    std::vector<typename F::Symbol> coeffs;
    coeffs.reserve(wanted_data.size() * use.size());
    for (uint32_t want : wanted_data) {
      LHRS_CHECK_LT(want, m()) << "only data columns can be requested";
      for (size_t t = 0; t < use.size(); ++t) {
        coeffs.push_back(inv.At(t, want));
      }
    }
    return std::unique_ptr<const DecodePlan>(std::make_unique<DecodePlanT<F>>(
        std::move(inputs), wanted_data, std::move(coeffs)));
  }

  bool CanDecodeFrom(
      const std::vector<uint32_t>& columns,
      const std::vector<uint32_t>& wanted_data) const override {
    // MDS: any m distinct columns determine the whole group. A wanted
    // column already in hand is trivially determined.
    if (columns.size() >= impl_.m()) return true;
    return std::all_of(
        wanted_data.begin(), wanted_data.end(), [&](uint32_t w) {
          return std::find(columns.begin(), columns.end(), w) !=
                 columns.end();
        });
  }

  std::vector<uint32_t> ParityPreference(uint32_t data_slot) const override {
    (void)data_slot;  // Any parity column serves any slot equally.
    std::vector<uint32_t> order(impl_.k());
    std::iota(order.begin(), order.end(), 0);
    return order;
  }

  Result<RepairPlan> PlanRepair(const RepairContext& ctx) const override {
    const uint32_t m = this->m();
    const uint32_t zero_slots = m - ctx.existing_slots;
    bool missing_has_data = false;
    for (uint32_t col : ctx.missing) missing_has_data |= (col < m);

    // Feasibility (MDS bound + key metadata: rebuilding data needs at
    // least one parity survivor, which holds the group's key directory).
    if (ctx.alive_data.size() + zero_slots + ctx.alive_parity.size() < m ||
        (missing_has_data && ctx.alive_parity.empty())) {
      return Status::DataLoss(
          "group unrecoverable: fewer than m columns survive");
    }

    RepairPlan plan;
    plan.progressive = spec_.progressive && missing_has_data;
    // Read set: every alive data column (missing parity re-encodes from
    // the full data row), plus enough parity columns for the decode — at
    // least one when data is missing, for the key metadata. Progressive
    // mode reads every alive parity column instead, trading messages for
    // the chance to decode on the earliest sufficient subset.
    for (uint32_t slot : ctx.alive_data) plan.read_columns.push_back(slot);
    size_t parity_reads =
        m > zero_slots + ctx.alive_data.size()
            ? m - zero_slots - ctx.alive_data.size()
            : 0;
    if (missing_has_data && parity_reads == 0) parity_reads = 1;
    if (plan.progressive) parity_reads = ctx.alive_parity.size();
    LHRS_CHECK_LE(parity_reads, ctx.alive_parity.size());
    for (size_t i = 0; i < parity_reads; ++i) {
      plan.read_columns.push_back(m + ctx.alive_parity[i]);
    }
    return plan;
  }

  std::unique_ptr<ProgressiveDecoder> NewProgressiveDecoder(
      std::vector<uint32_t> wanted_data,
      std::vector<uint32_t> known_zero_data) const override {
    return std::make_unique<ProgressiveDecoderT<F>>(
        &impl_.parity_matrix(), m(), k(), std::move(wanted_data),
        std::move(known_zero_data));
  }

  size_t PaddedLength(size_t n) const override {
    return impl_.PaddedLength(n);
  }

 private:
  GroupCoder<F> impl_;
  CodeSpec spec_;
};

}  // namespace lhrs::parity

#endif  // LHRS_PARITY_RS_CODE_H_
