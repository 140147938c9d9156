#ifndef LHRS_PARITY_RS_CODE_H_
#define LHRS_PARITY_RS_CODE_H_

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "parity/linear_code.h"
#include "parity/linear_decode.h"
#include "parity/parity_code.h"

namespace lhrs::parity {

/// The paper's generalized Reed-Solomon code: the Cauchy-derived parity
/// matrix of parity/generator.h, whose first column is all ones (parity 0 is
/// the XOR bucket). The code is MDS, so any m of the m + k columns
/// reconstruct the group, and a decode plan is one m x m inversion.
template <GaloisField F>
class RsCodeT final : public LinearCodeT<F> {
 public:
  /// `parity_matrix` must be MDS (BuildParityMatrix).
  RsCodeT(Matrix<F> parity_matrix, CodeSpec spec)
      : LinearCodeT<F>(std::move(parity_matrix), spec) {}

  /// Picks exactly m of `columns` (data columns first — their identity
  /// rows keep the matrix mostly trivial) and inverts their generator
  /// submatrix; the plan's rows are the inverse's columns for the wanted
  /// slots. Cheaper per plan than the incremental solver at the group
  /// sizes LH*RS runs; degraded reads plan once per erasure pattern.
  Result<std::unique_ptr<const DecodePlan>> PlanDecode(
      const std::vector<uint32_t>& columns,
      const std::vector<uint32_t>& wanted_data) const override {
    const uint32_t m = this->m();
    if (columns.size() < m) {
      return Status::DataLoss(
          "unrecoverable record group: " + std::to_string(columns.size()) +
          " of " + std::to_string(m) + " required columns available");
    }
    std::vector<uint32_t> inputs;
    inputs.reserve(m);
    for (uint32_t col : columns) {
      if (col < m && inputs.size() < m) inputs.push_back(col);
    }
    for (uint32_t col : columns) {
      if (col >= m && inputs.size() < m) inputs.push_back(col);
    }
    LHRS_CHECK_EQ(inputs.size(), m);

    // Codeword relation: value(col) = sum_i d_i * G[i][col] with
    // G = [I | P]. Stack the m inputs into A (m x m):
    // A[i][t] = G[i][inputs[t]]; then d = values * A^{-1}.
    Matrix<F> a(m, m);
    for (uint32_t t = 0; t < m; ++t) {
      const uint32_t col = inputs[t];
      for (uint32_t i = 0; i < m; ++i) {
        a.Set(i, t,
              col < m ? (i == col ? 1 : 0)
                      : this->parity_matrix().At(i, col - m));
      }
    }
    auto inv = a.Inverted();
    if (!inv.ok()) {
      return Status::Internal("decode matrix singular — MDS violation: " +
                              inv.status().message());
    }
    std::vector<typename F::Symbol> coeffs;
    coeffs.reserve(wanted_data.size() * m);
    for (uint32_t want : wanted_data) {
      LHRS_CHECK_LT(want, m) << "only data columns can be requested";
      for (uint32_t t = 0; t < m; ++t) coeffs.push_back(inv->At(t, want));
    }
    return std::unique_ptr<const DecodePlan>(std::make_unique<DecodePlanT<F>>(
        std::move(inputs), wanted_data, std::move(coeffs)));
  }

  bool CanDecodeFrom(
      const std::vector<uint32_t>& columns,
      const std::vector<uint32_t>& wanted_data) const override {
    // MDS: any m distinct columns determine the whole group. A wanted
    // column already in hand is trivially determined.
    if (columns.size() >= this->m()) return true;
    return std::all_of(
        wanted_data.begin(), wanted_data.end(), [&](uint32_t w) {
          return std::find(columns.begin(), columns.end(), w) !=
                 columns.end();
        });
  }

  std::vector<uint32_t> ParityPreference(uint32_t data_slot) const override {
    (void)data_slot;  // Any parity column serves any slot equally.
    std::vector<uint32_t> order(this->k());
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
    plan.progressive = this->spec().progressive && missing_has_data;
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
};

}  // namespace lhrs::parity

#endif  // LHRS_PARITY_RS_CODE_H_
