#include "priste/lppm/delta_location_set.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <numeric>

#include "priste/common/check.h"
#include "priste/common/strings.h"

namespace priste::lppm {

StatusOr<geo::Region> DeltaLocationSet(const linalg::Vector& prior, double delta) {
  if (delta < 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in [0, 1)");
  }
  if (prior.empty()) return Status::InvalidArgument("empty prior");
  if (!prior.AllInRange(0.0, 1.0) || std::fabs(prior.Sum() - 1.0) > 1e-6) {
    return Status::InvalidArgument("prior is not a probability vector");
  }

  std::vector<size_t> order(prior.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&prior](size_t a, size_t b) { return prior[a] > prior[b]; });

  geo::Region set(prior.size());
  double mass = 0.0;
  for (size_t idx : order) {
    set.Add(static_cast<int>(idx));
    mass += prior[idx];
    if (mass >= 1.0 - delta - 1e-12) break;
  }
  return set;
}

namespace {

// The first member, in ascending order, at the minimum CellDistanceKm from
// `cell`. `centers` holds every cell's CenterOf, so each distance is the one
// CellDistanceKm computes, without re-deriving the centers per pair.
int NearestInSet(const std::vector<geo::PointKm>& centers,
                 const std::vector<int>& members, int cell) {
  double best = std::numeric_limits<double>::infinity();
  int best_cell = members.front();
  for (int candidate : members) {
    const double d = geo::Distance(centers[static_cast<size_t>(cell)],
                                   centers[static_cast<size_t>(candidate)]);
    if (d < best) {
      best = d;
      best_cell = candidate;
    }
  }
  return best_cell;
}

}  // namespace

struct DeltaRestrictedPlanarLaplace::LazyEmission {
  std::once_flag once;
  std::unique_ptr<const hmm::EmissionMatrix> matrix;
};

double DeltaRestrictedPlanarLaplace::ValidateAlpha(double alpha) {
  PRISTE_CHECK_MSG(alpha >= 0.0, "restricted planar Laplace budget must be >= 0");
  PRISTE_CHECK_MSG(std::isfinite(alpha),
                   "restricted planar Laplace budget must be finite");
  return alpha;
}

std::shared_ptr<const DeltaRestrictedPlanarLaplace::Restriction>
DeltaRestrictedPlanarLaplace::MakeRestriction(const geo::Grid& grid, geo::Region set) {
  PRISTE_CHECK_MSG(set.num_states() == grid.num_cells(),
                   "delta-location set must cover the grid's cells");
  auto r = std::make_shared<Restriction>(
      Restriction{grid, std::move(set), {}, {}, {}, {}});
  r->members = r->set.States();
  PRISTE_CHECK_MSG(!r->members.empty(), "delta-location set must be non-empty");

  const size_t m = grid.num_cells();
  std::vector<geo::PointKm> centers(m);
  for (size_t i = 0; i < m; ++i) centers[i] = grid.CenterOf(static_cast<int>(i));
  r->anchor.resize(m);
  r->col.resize(m);
  r->row.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const int cell = static_cast<int>(i);
    r->anchor[i] =
        r->set.Contains(cell) ? cell : NearestInSet(centers, r->members, cell);
    r->col[i] = grid.ColOf(cell);
    r->row[i] = grid.RowOf(cell);
  }
  return r;
}

std::vector<double> DeltaRestrictedPlanarLaplace::KernelTable() const {
  // One weight per cell offset. Cell (c, r) lies at offset (c, r) from cell
  // 0, so the table is indexed like the grid. Its distance equals
  // CellDistanceKm of every pair with that offset whenever the distance
  // depends on the offset alone (e.g. a 1 km grid). α = 0 gives e^{−0} = 1
  // exactly: the uniform-over-ΔX anchor.
  const geo::Grid& grid = restriction_->grid;
  std::vector<double> kernel(grid.num_cells());
  for (size_t cell = 0; cell < kernel.size(); ++cell) {
    kernel[cell] = std::exp(-alpha_ * grid.CellDistanceKm(0, static_cast<int>(cell)));
  }
  return kernel;
}

double DeltaRestrictedPlanarLaplace::Kernel(int a, int o) const {
  const Restriction& r = *restriction_;
  const auto ua = static_cast<size_t>(a);
  const auto uo = static_cast<size_t>(o);
  const int dc = std::abs(r.col[ua] - r.col[uo]);
  const int dr = std::abs(r.row[ua] - r.row[uo]);
  return kernel_[static_cast<size_t>(dr * r.grid.width() + dc)];
}

double DeltaRestrictedPlanarLaplace::Entry(int a, int o) const {
  const RowSums& sums = sums_[static_cast<size_t>(a)];
  return (Kernel(a, o) / sums.weight) / sums.normalized;
}

std::vector<DeltaRestrictedPlanarLaplace::RowSums>
DeltaRestrictedPlanarLaplace::SurrogateRowSums() const {
  // Every surrogate is a member, and rows sharing a surrogate are equal, so
  // the |ΔX| member rows carry all the normalizers. Each row's sums run in
  // ascending output order, as a dense row sum would (the zeros outside ΔX
  // add nothing). The outputs are the outer loop, so the running sums of
  // different rows are independent, and for one output o the weights
  // K(i, o) of a grid row i are a contiguous run of the kernel table read
  // outward from o's column. The sweep covers all m rows; only the member
  // rows are kept.
  const Restriction& r = *restriction_;
  const int width = r.grid.width();
  const auto sweep = [&](int o, auto&& add) {
    const int co = r.col[static_cast<size_t>(o)];
    const int ro = r.row[static_cast<size_t>(o)];
    for (int row = 0; row < r.grid.height(); ++row) {
      const double* k =
          kernel_.data() + static_cast<size_t>(std::abs(row - ro) * width);
      const auto base = static_cast<size_t>(row * width);
      for (int c = 0; c < co; ++c) add(base + static_cast<size_t>(c), k[co - c]);
      for (int c = co; c < width; ++c) add(base + static_cast<size_t>(c), k[c - co]);
    }
  };
  const size_t m = num_states();
  std::vector<double> weight(m, 0.0);
  std::vector<double> normalized(m, 0.0);
  for (int o : r.members) sweep(o, [&](size_t i, double w) { weight[i] += w; });
  for (int o : r.members) {
    sweep(o, [&](size_t i, double w) { normalized[i] += w / weight[i]; });
  }

  std::vector<RowSums> sums(m);
  for (int a : r.members) {
    const auto i = static_cast<size_t>(a);
    // EmissionMatrix::Create's row check, at its default tolerance.
    PRISTE_CHECK_MSG(std::fabs(normalized[i] - 1.0) <= 1e-6,
                     "restricted emission invalid");
    sums[i] = RowSums{weight[i], normalized[i]};
  }
  return sums;
}

DeltaRestrictedPlanarLaplace::DeltaRestrictedPlanarLaplace(const geo::Grid& grid,
                                                           double alpha,
                                                           geo::Region location_set)
    : alpha_(ValidateAlpha(alpha)),
      restriction_(MakeRestriction(grid, std::move(location_set))),
      kernel_(KernelTable()),
      sums_(SurrogateRowSums()),
      lazy_(std::make_shared<LazyEmission>()) {}

DeltaRestrictedPlanarLaplace::DeltaRestrictedPlanarLaplace(
    std::shared_ptr<const Restriction> restriction, double alpha)
    : alpha_(ValidateAlpha(alpha)),
      restriction_(std::move(restriction)),
      kernel_(KernelTable()),
      sums_(SurrogateRowSums()),
      lazy_(std::make_shared<LazyEmission>()) {}

const hmm::EmissionMatrix& DeltaRestrictedPlanarLaplace::emission() const {
  std::call_once(lazy_->once, [this] {
    // Entries before the second normalizer, which Create applies itself.
    const size_t m = num_states();
    linalg::Matrix e(m, m);
    for (size_t i = 0; i < m; ++i) {
      const int a = restriction_->anchor[i];
      const double weight = sums_[static_cast<size_t>(a)].weight;
      for (int o : restriction_->members) {
        e(i, static_cast<size_t>(o)) = Kernel(a, o) / weight;
      }
    }
    auto result = hmm::EmissionMatrix::Create(std::move(e));
    PRISTE_CHECK_MSG(result.ok(), "restricted emission invalid");
    lazy_->matrix =
        std::make_unique<const hmm::EmissionMatrix>(std::move(result).value());
  });
  return *lazy_->matrix;
}

int DeltaRestrictedPlanarLaplace::Perturb(int true_cell, Rng& rng) const {
  return rng.SampleDiscrete(Row(true_cell).as_std());
}

linalg::Vector DeltaRestrictedPlanarLaplace::Row(int true_cell) const {
  PRISTE_CHECK(true_cell >= 0 && static_cast<size_t>(true_cell) < num_states());
  const int a = restriction_->anchor[static_cast<size_t>(true_cell)];
  linalg::Vector row(num_states());
  for (int o : restriction_->members) row[static_cast<size_t>(o)] = Entry(a, o);
  return row;
}

linalg::Vector DeltaRestrictedPlanarLaplace::Column(int output) const {
  PRISTE_CHECK(output >= 0 && static_cast<size_t>(output) < num_states());
  linalg::Vector column(num_states());
  if (!restriction_->set.Contains(output)) return column;
  for (size_t i = 0; i < column.size(); ++i) {
    column[i] = Entry(restriction_->anchor[i], output);
  }
  return column;
}

std::string DeltaRestrictedPlanarLaplace::name() const {
  return StrFormat("%s-PLM within |dX|=%zu", FormatDouble(alpha_).c_str(),
                   restriction_->members.size());
}

}  // namespace priste::lppm
