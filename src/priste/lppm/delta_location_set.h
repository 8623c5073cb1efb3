#ifndef PRISTE_LPPM_DELTA_LOCATION_SET_H_
#define PRISTE_LPPM_DELTA_LOCATION_SET_H_

#include <memory>
#include <string>
#include <vector>

#include "priste/common/status.h"
#include "priste/geo/grid.h"
#include "priste/geo/region.h"
#include "priste/lppm/lppm.h"

namespace priste::lppm {

/// Constructs the δ-location set ΔX of Xiao & Xiong (CCS'15): the minimum
/// number of cells, taken in decreasing prior-probability order, whose prior
/// mass is at least 1 − δ. Requires `prior` to be a probability vector and
/// δ ∈ [0, 1).
StatusOr<geo::Region> DeltaLocationSet(const linalg::Vector& prior, double delta);

/// The paper's Case Study 2 mechanism: an α-Planar-Laplace mechanism whose
/// output domain is restricted to a δ-location set ΔX_t (Algorithm 3, line 4,
/// "α-PLM within ΔX_t"). For each true cell i the output distribution is the
/// planar-Laplace kernel e^{−α·d(surrogate(i), o)} over o ∈ ΔX only,
/// renormalized; a true cell outside ΔX is first mapped to its nearest in-set
/// surrogate, following [9]'s surrogate treatment of "impossible" locations.
///
/// The restriction changes every timestamp (ΔX_t follows the Markov-predicted
/// prior p⁻_t) and Algorithm 3 tries several budgets per timestamp, each of
/// which reads one row (Perturb) and one column (Column). Entries are
/// therefore computed on demand: a rung costs O(w·h + |ΔX|²) — a kernel
/// table over cell offsets plus two normalizers per member — and Perturb and
/// Column cost O(m) each. The surrogates are computed once per ΔX and shared
/// by WithAlpha. The full m×m matrix is built only when emission() is
/// called. Every consumer evaluates the same entry formula, so Row(i),
/// Column(o) and emission() agree bit for bit.
class DeltaRestrictedPlanarLaplace : public Lppm {
 public:
  /// Requires a finite `alpha` >= 0 and a non-empty `location_set` over the
  /// grid's cells; both are checked before any other work.
  DeltaRestrictedPlanarLaplace(const geo::Grid& grid, double alpha,
                               geo::Region location_set);

  size_t num_states() const override { return restriction_->grid.num_cells(); }

  /// The full emission matrix, built on the first call (thread-safe) and
  /// kept for the lifetime of this instance and its copies.
  const hmm::EmissionMatrix& emission() const override;

  /// Samples from Row(true_cell): the same draws as sampling
  /// emission().OutputDistribution(true_cell).
  int Perturb(int true_cell, Rng& rng) const override;

  std::string name() const override;

  /// The output distribution of `true_cell`, equal to
  /// emission().OutputDistribution(true_cell) without building the matrix.
  linalg::Vector Row(int true_cell) const;

  /// The emission column p̃_o, equal to emission().EmissionColumn(output)
  /// without building the matrix.
  linalg::Vector Column(int output) const;

  double alpha() const { return alpha_; }
  const geo::Region& location_set() const { return restriction_->set; }

  /// Same restriction with a different PLM budget (Algorithm 3's halving).
  /// Shares the surrogates; recomputes only the budget-dependent tables.
  DeltaRestrictedPlanarLaplace WithAlpha(double alpha) const {
    return DeltaRestrictedPlanarLaplace(restriction_, alpha);
  }

 private:
  /// The budget-independent part: ΔX and each cell's surrogate.
  struct Restriction {
    geo::Grid grid;
    geo::Region set;
    std::vector<int> members;  // ΔX, ascending
    std::vector<int> anchor;   // per cell: itself in ΔX, else its surrogate
    std::vector<int> col;      // per cell
    std::vector<int> row;      // per cell
  };
  /// The two row normalizers of a surrogate's row, applied in sequence:
  /// the kernel-weight sum, then the floating-point sum of the normalized
  /// row (the renormalization EmissionMatrix::Create performs).
  struct RowSums {
    double weight = 0.0;
    double normalized = 0.0;
  };
  struct LazyEmission;

  DeltaRestrictedPlanarLaplace(std::shared_ptr<const Restriction> restriction,
                               double alpha);

  /// Checks a finite budget >= 0 before any other work; returns it.
  static double ValidateAlpha(double alpha);
  /// Checks the set against the grid, then computes the surrogates.
  static std::shared_ptr<const Restriction> MakeRestriction(const geo::Grid& grid,
                                                            geo::Region set);
  std::vector<double> KernelTable() const;
  std::vector<RowSums> SurrogateRowSums() const;

  /// e^{−α·d(a, o)} for surrogate `a` and output `o`.
  double Kernel(int a, int o) const;
  /// E(i, o) for an output o ∈ ΔX, from i's surrogate `a`.
  double Entry(int a, int o) const;

  double alpha_;
  std::shared_ptr<const Restriction> restriction_;
  std::vector<double> kernel_;  // indexed |Δrow|·width + |Δcol|
  std::vector<RowSums> sums_;   // indexed by surrogate cell
  std::shared_ptr<LazyEmission> lazy_;
};

}  // namespace priste::lppm

#endif  // PRISTE_LPPM_DELTA_LOCATION_SET_H_
