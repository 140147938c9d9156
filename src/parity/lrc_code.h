#ifndef LHRS_PARITY_LRC_CODE_H_
#define LHRS_PARITY_LRC_CODE_H_

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "parity/generator.h"
#include "parity/linear_code.h"
#include "parity/linear_decode.h"
#include "parity/parity_code.h"

namespace lhrs::parity {

/// Locally repairable code with (r,t)-availability flavour: the m data
/// slots split into L = ceil(m/r) disjoint local groups of size r; parity
/// column l < L is the plain XOR of local group l, and the remaining
/// k - L columns are global parities taken from the Cauchy-derived RS
/// parity matrix (skipping its all-ones column, which is linearly
/// dependent on the sum of the local columns).
///
/// A single lost data bucket repairs from its r-1 local siblings plus the
/// local parity — r columns moved instead of the RS code's m — while the
/// global columns keep multi-failure patterns recoverable. The code is NOT
/// MDS, so every decode path goes through a rank-aware solver.
template <GaloisField F>
Result<Matrix<F>> BuildLrcParityMatrix(uint32_t m, uint32_t k, uint32_t r) {
  if (r == 0 || r > m) {
    return Status::InvalidArgument("LRC locality must be in [1, m]");
  }
  const uint32_t locals = (m + r - 1) / r;
  if (k < locals) {
    return Status::InvalidArgument(
        "LRC needs at least one parity column per local group: k=" +
        std::to_string(k) + " < " + std::to_string(locals) + " groups");
  }
  const uint32_t globals = k - locals;
  Matrix<F> p(m, k);
  for (uint32_t i = 0; i < m; ++i) {
    for (uint32_t l = 0; l < locals; ++l) {
      p.Set(i, l, i / r == l ? 1 : 0);
    }
  }
  if (globals > 0) {
    // Columns 1..globals of the RS matrix: every square submatrix of the
    // normalized Cauchy matrix is nonsingular, and skipping the all-ones
    // column 0 keeps the globals independent of the local-column sum.
    auto rs = BuildParityMatrix<F>(m, globals + 1);
    if (!rs.ok()) return rs.status();
    for (uint32_t i = 0; i < m; ++i) {
      for (uint32_t t = 0; t < globals; ++t) {
        p.Set(i, locals + t, rs->At(i, t + 1));
      }
    }
  }
  return p;
}

template <GaloisField F>
class LrcCodeT final : public LinearCodeT<F> {
 public:
  /// `parity_matrix` comes from BuildLrcParityMatrix with spec.locality.
  LrcCodeT(Matrix<F> parity_matrix, CodeSpec spec)
      : LinearCodeT<F>(std::move(parity_matrix), spec),
        locals_((this->m() + spec.locality - 1) / spec.locality) {}

  uint32_t locality() const { return this->spec().locality; }

  /// Absorbs the columns into a solver (data first, so survivor values
  /// are preferred over parity recombination) and plans the wanted ones.
  Result<std::unique_ptr<const DecodePlan>> PlanDecode(
      const std::vector<uint32_t>& columns,
      const std::vector<uint32_t>& wanted_data) const override {
    const uint32_t m = this->m();
    IncrementalSolver<F> solver(&this->parity_matrix());
    for (uint32_t col : columns) {
      if (col < m) solver.AddColumn(col);
    }
    for (uint32_t col : columns) {
      if (col >= m) solver.AddColumn(col);
    }
    for (uint32_t col : wanted_data) {
      LHRS_CHECK_LT(col, m) << "only data columns can be requested";
      if (!solver.Solved(col)) {
        return Status::DataLoss(
            "unrecoverable record group: available columns do not "
            "determine data column " + std::to_string(col));
      }
    }
    return solver.Plan(wanted_data);
  }

  bool CanDecodeFrom(
      const std::vector<uint32_t>& columns,
      const std::vector<uint32_t>& wanted_data) const override {
    IncrementalSolver<F> solver(&this->parity_matrix());
    for (uint32_t col : columns) solver.AddColumn(col);
    return std::all_of(wanted_data.begin(), wanted_data.end(),
                       [&](uint32_t w) { return solver.Solved(w); });
  }

  std::vector<uint32_t> ParityPreference(uint32_t data_slot) const override {
    std::vector<uint32_t> order;
    order.reserve(this->k());
    const uint32_t local = data_slot / locality();
    order.push_back(local);  // The slot's own local parity first,
    for (uint32_t j = locals_; j < this->k(); ++j) {  // globals,
      order.push_back(j);
    }
    for (uint32_t j = 0; j < locals_; ++j) {  // then the other locals.
      if (j != local) order.push_back(j);
    }
    return order;
  }

  Result<RepairPlan> PlanRepair(const RepairContext& ctx) const override {
    const uint32_t m = this->m();
    RepairPlan plan;

    std::vector<uint32_t> missing_data;
    bool missing_has_parity = false;
    for (uint32_t col : ctx.missing) {
      if (col < m) {
        missing_data.push_back(col);
      } else {
        missing_has_parity = true;
      }
    }

    // Local fast path: a single lost data column, its whole local group
    // (sibling slots + local parity) alive — read just those r columns.
    if (!missing_has_parity && missing_data.size() == 1) {
      const uint32_t slot = missing_data[0];
      const uint32_t local = slot / locality();
      std::vector<uint32_t> reads;
      bool local_ok =
          std::find(ctx.alive_parity.begin(), ctx.alive_parity.end(),
                    local) != ctx.alive_parity.end();
      for (uint32_t s = local * locality();
           local_ok && s < std::min(m, (local + 1) * locality()); ++s) {
        if (s == slot) continue;
        if (s >= ctx.existing_slots) continue;  // Known-zero sibling.
        local_ok = std::find(ctx.alive_data.begin(), ctx.alive_data.end(),
                             s) != ctx.alive_data.end();
        if (local_ok) reads.push_back(s);
      }
      if (local_ok) {
        plan.read_columns = std::move(reads);
        plan.read_columns.push_back(m + local);
        plan.progressive = this->spec().progressive;
        return plan;
      }
    }

    // General path: every alive data column (missing parity re-encodes
    // from the full data row), plus parity columns — in the preference
    // order of the first missing data slot — until the missing data
    // columns are determined.
    std::vector<uint32_t> have;
    for (uint32_t slot : ctx.alive_data) {
      plan.read_columns.push_back(slot);
      have.push_back(slot);
    }
    for (uint32_t s = ctx.existing_slots; s < m; ++s) have.push_back(s);

    std::vector<uint32_t> parity_order =
        missing_data.empty() ? ParityPreference(0)
                             : ParityPreference(missing_data[0]);
    std::set<uint32_t> alive_parity(ctx.alive_parity.begin(),
                                    ctx.alive_parity.end());
    // Data rebuilds need a parity survivor regardless of rank: it holds
    // the group's key/length directory.
    size_t parity_needed = missing_data.empty() ? 0 : 1;
    for (uint32_t j : parity_order) {
      if (!alive_parity.contains(j)) continue;
      const bool rank_done = CanDecodeFrom(have, missing_data);
      if (rank_done && parity_needed == 0) break;
      plan.read_columns.push_back(m + j);
      have.push_back(m + j);
      if (parity_needed > 0) --parity_needed;
    }
    if (parity_needed > 0 || !CanDecodeFrom(have, missing_data)) {
      return Status::DataLoss(
          "group unrecoverable under LRC: surviving columns do not "
          "determine the lost ones");
    }
    plan.progressive = this->spec().progressive && !missing_data.empty();
    return plan;
  }

 private:
  uint32_t locals_;
};

}  // namespace lhrs::parity

#endif  // LHRS_PARITY_LRC_CODE_H_
