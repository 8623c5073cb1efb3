#include "priste/core/release_step.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "priste/common/check.h"
#include "priste/common/metrics.h"
#include "priste/common/thread_annotations.h"
#include "priste/common/strings.h"
#include "priste/common/timer.h"
#include "priste/linalg/kernels.h"

namespace priste::core {
namespace {

// Process-wide mirrors of the per-context diagnostics counters, so one CLI
// run (or a whole experiment sweep) can be read off `--metrics` without
// plumbing RunResult diagnostics through every driver. Registered once;
// Increment is a relaxed atomic add.
struct ReleaseMetrics {
  Counter& dense_prefix_checks =
      MetricsRegistry::Global().GetCounter("release.dense_prefix_checks");
  Counter& cached_checks =
      MetricsRegistry::Global().GetCounter("release.cached_checks");
  Counter& cold_checks =
      MetricsRegistry::Global().GetCounter("release.cold_checks");
  Histogram& check_seconds =
      MetricsRegistry::Global().GetHistogram("release.check_seconds");

  static ReleaseMetrics& Get() {
    static ReleaseMetrics* metrics = new ReleaseMetrics();
    return *metrics;
  }
};

}  // namespace

ReleaseStepContext::ReleaseStepContext(
    std::vector<const LiftedEventModel*> models, const QpSolver* solver,
    bool normalize_emissions, ReleaseStepOptions options)
    : solver_(solver),
      normalize_emissions_(normalize_emissions),
      options_(options) {
  PRISTE_CHECK(solver_ != nullptr);
  PRISTE_CHECK_MSG(!models.empty(), "release-step context needs >= 1 model");
  // PRISTE_MAX_CACHE_SUPPORT overrides the sparse-row budget (0 = force the
  // cold chain everywhere — the CI cold-path matrix). Strictly parsed;
  // garbage warns and keeps the configured knob (not ReadIntEnv: its
  // warning names the fallback value, which here is "keep", not a number).
  if (const char* env = std::getenv("PRISTE_MAX_CACHE_SUPPORT");
      env != nullptr && *env != '\0') {
    int parsed = 0;
    if (ParseInt32(env, &parsed)) {
      options_.max_cache_support = static_cast<size_t>(parsed);
    } else {
      std::fprintf(stderr,
                   "priste: ignoring invalid PRISTE_MAX_CACHE_SUPPORT=\"%s\" "
                   "(want an integer >= 0); keeping max_cache_support=%zu\n",
                   env, options_.max_cache_support);
    }
  }
  engines_.reserve(models.size());
  const size_t m = models.front()->num_states();
  for (const LiftedEventModel* model : models) {
    PRISTE_CHECK(model != nullptr);
    PRISTE_CHECK(model->num_states() == m);
    engines_.emplace_back(model, normalize_emissions);
  }
}

double ReleaseStepContext::CandidateScale(const ColumnView& column) const {
  if (!normalize_emissions_) return 1.0;
  const double scale = column.MaxAbs();
  PRISTE_CHECK_MSG(scale > 0.0, "emission column is all-zero");
  return 1.0 / scale;
}

namespace {

linalg::Vector DensifyColumn(const linalg::Vector* dense,
                             const linalg::SparseVector* sparse) {
  return dense != nullptr ? *dense : sparse->ToDense();
}

}  // namespace

void ReleaseStepContext::EnsureStepRows(ModelEngine& engine, bool need_masked) {
  PRISTE_CHECK(t_ >= 1);
  const size_t lifted = engine.model->lifted_size();
  if (!engine.step_rows_ready) {
    if (engine.step_rows.rows() != support_.size() ||
        engine.step_rows.cols() != lifted) {
      engine.step_rows.Reset(support_.size(), lifted);
    }
    for (size_t i = 0; i < support_.size(); ++i) {
      engine.model->StepRowSpanInto(engine.rows.Row(i), t_,
                                    engine.step_rows.Row(i));
    }
    engine.step_rows_ready = true;
  }
  if (need_masked && !engine.step_rows_masked_ready) {
    PRISTE_CHECK_MSG(!engine.rows_masked.empty(),
                     "masked prefix rows requested before the event ended");
    if (engine.step_rows_masked.rows() != support_.size() ||
        engine.step_rows_masked.cols() != lifted) {
      engine.step_rows_masked.Reset(support_.size(), lifted);
    }
    for (size_t i = 0; i < support_.size(); ++i) {
      engine.model->StepRowSpanInto(engine.rows_masked.Row(i), t_,
                                    engine.step_rows_masked.Row(i));
    }
    engine.step_rows_masked_ready = true;
  }
}

PRISTE_HOT_PATH TheoremVectors ReleaseStepContext::CachedVectors(
    ModelEngine& engine, const ColumnView& column) {
  const LiftedEventModel& model = *engine.model;
  const size_t m = model.num_states();
  const int t = t_ + 1;
  const int end = model.event_end();
  const bool during = t <= end;
  EnsureStepRows(engine, !during);
  const double s_c = CandidateScale(column);

  TheoremVectors out;
  out.t = t;
  out.a_bar = model.PriorContraction();
  out.b_bar = linalg::Vector(m);
  out.c_bar = linalg::Vector(m);
  const linalg::Vector* seed = during ? &model.SuffixTrue(t) : nullptr;
  const size_t lifted = model.lifted_size();
  const size_t k = lifted / m;

  if (column.dense != nullptr) {
    // Fused replicate-and-dot: the candidate is treated as replicated across
    // the k event blocks without materializing the replication, and during
    // the window ONE pass over each row yields both the suffix-seeded b̄ sum
    // and the all-ones c̄ sum (Eq. 18). Past the window the accepting-masked
    // family carries b̄, the unmasked family c̄ (Eqs. 19/20). Rows live in
    // contiguous 64-byte-aligned RowBlock storage, so the kernels stream one
    // flat buffer.
    const double* cand = column.dense->data();
    for (size_t i = 0; i < support_.size(); ++i) {
      double bsum;
      double csum;
      if (during) {
        linalg::kernels::ReplicateDotPair(engine.step_rows.Row(i), k, m, cand,
                                          seed->data(), &bsum, &csum);
      } else {
        bsum = linalg::kernels::ReplicateDot(engine.step_rows_masked.Row(i), k,
                                             m, cand);
        csum = linalg::kernels::ReplicateDot(engine.step_rows.Row(i), k, m,
                                             cand);
      }
      const double w = support_scale_[i] * s_c;
      out.b_bar[support_[i]] = w * bsum;
      out.c_bar[support_[i]] = w * csum;
    }
    return out;
  }

  // Sparse candidate: stage the block-expanded gather list (and the
  // seed-fused values for b̄ during the window) ONCE per candidate in the
  // arena, then each support row is a single GatherDot — the seed gather
  // amortizes over the whole row family instead of re-running per row.
  const std::vector<size_t>& idx = column.sparse->indices();
  const std::vector<double>& vals = column.sparse->values();
  const size_t nnz = idx.size();
  const size_t total = k * nnz;
  size_t* gidx = static_cast<size_t*>(
      arena_.Allocate(total * sizeof(size_t), alignof(size_t)));
  double* cvals = arena_.AllocateDoubles(total);
  double* bvals = during ? arena_.AllocateDoubles(total) : nullptr;
  for (size_t q = 0; q < k; ++q) {
    const size_t base = q * m;
    for (size_t p = 0; p < nnz; ++p) {
      gidx[q * nnz + p] = base + idx[p];
      cvals[q * nnz + p] = vals[p];
      if (during) bvals[q * nnz + p] = vals[p] * (*seed)[base + idx[p]];
    }
  }
  for (size_t i = 0; i < support_.size(); ++i) {
    double bsum;
    double csum;
    if (during) {
      // Both sums gather the SAME row — one fused walk halves the random
      // row loads relative to two GatherDot calls.
      linalg::kernels::GatherDotPair(bvals, cvals, gidx, total,
                                     engine.step_rows.Row(i), &bsum, &csum);
    } else {
      bsum = linalg::kernels::GatherDot(cvals, gidx, total,
                                        engine.step_rows_masked.Row(i));
      csum = linalg::kernels::GatherDot(cvals, gidx, total,
                                        engine.step_rows.Row(i));
    }
    const double w = support_scale_[i] * s_c;
    out.b_bar[support_[i]] = w * bsum;
    out.c_bar[support_[i]] = w * csum;
  }
  return out;
}

TheoremVectors ReleaseStepContext::VectorsImpl(size_t model_index,
                                               const ColumnView& column,
                                               bool candidate_in_history) {
  PRISTE_CHECK(model_index < engines_.size());
  ModelEngine& engine = engines_[model_index];
  const LiftedEventModel& model = *engine.model;
  const size_t m = model.num_states();
  PRISTE_CHECK(column.size() == m);

  if (UsesCachePath()) {
    if (mode_ == Mode::kDense) {
      ++diagnostics_.dense_prefix_checks;
      ReleaseMetrics::Get().dense_prefix_checks.Increment();
    } else {
      ++diagnostics_.cached_checks;
      ReleaseMetrics::Get().cached_checks.Increment();
    }
    if (t_ >= 1) return CachedVectors(engine, column);
    // t = 1 direct form: the contraction commutes with the candidate's
    // emission product, so b̄ = s_c·p̃ ∘ ā and c̄ = s_c·p̃ ∘ C(1) — no chain.
    if (!engine.ones_contract_ready) {
      engine.ones_contract =
          model.ContractColumn(linalg::Vector::Ones(model.lifted_size()));
      engine.ones_contract_ready = true;
    }
    const double s_c = CandidateScale(column);
    TheoremVectors out;
    out.t = 1;
    out.a_bar = model.PriorContraction();
    out.b_bar = linalg::Vector(m);
    out.c_bar = linalg::Vector(m);
    if (column.sparse != nullptr) {
      const std::vector<size_t>& idx = column.sparse->indices();
      const std::vector<double>& vals = column.sparse->values();
      for (size_t p = 0; p < idx.size(); ++p) {
        const double v = s_c * vals[p];
        out.b_bar[idx[p]] = v * out.a_bar[idx[p]];
        out.c_bar[idx[p]] = v * engine.ones_contract[idx[p]];
      }
    } else {
      for (size_t j = 0; j < m; ++j) {
        const double v = s_c * (*column.dense)[j];
        out.b_bar[j] = v * out.a_bar[j];
        out.c_bar[j] = v * engine.ones_contract[j];
      }
    }
    return out;
  }

  ++diagnostics_.cold_checks;
  ReleaseMetrics::Get().cold_checks.Increment();
  if (candidate_in_history) {
    return engine.quantifier.ComputeVectors(history_);
  }
  history_.push_back(DensifyColumn(column.dense, column.sparse));
  TheoremVectors out = engine.quantifier.ComputeVectors(history_);
  history_.pop_back();
  return out;
}

ReleaseCheckOutcome ReleaseStepContext::CheckImpl(const ColumnView& column,
                                                  double epsilon,
                                                  double qp_threshold_seconds) {
  const Timer check_timer;
  ReleaseCheckOutcome out;
  out.all_satisfied = true;
  out.per_model.reserve(engines_.size());
  // Cold path: densify the candidate once for all models, like the old
  // driver loops did.
  const bool push_once = !UsesCachePath();
  if (push_once) {
    history_.push_back(DensifyColumn(column.dense, column.sparse));
    // Once per fallen-back *check* (not per model): cold because the first
    // column was dense and the dense-prefix scheme declined.
    if (mode_ == Mode::kCold && cold_is_dense_fallback_) {
      ++diagnostics_.dense_fallbacks;
    }
  }
  for (size_t i = 0; i < engines_.size(); ++i) {
    ModelEngine& engine = engines_[i];
    const TheoremVectors vectors = VectorsImpl(i, column, push_once);
    const Deadline deadline = qp_threshold_seconds > 0.0
                                  ? Deadline::After(qp_threshold_seconds)
                                  : Deadline::Infinite();
    const PrivacyCheckResult check = engine.quantifier.CheckArbitraryPrior(
        vectors, epsilon, *solver_, deadline);
    out.per_model.push_back(check);
    if (!check.satisfied) {
      out.all_satisfied = false;
      out.timed_out = check.timed_out;
      break;
    }
  }
  if (push_once) history_.pop_back();
  ReleaseMetrics::Get().check_seconds.Record(check_timer.ElapsedSeconds());
  return out;
}

void ReleaseStepContext::DecideMode(const ColumnView& first_column) {
  const size_t m = engines_.front().model->num_states();
  std::vector<size_t> support;
  std::vector<double> values;
  if (first_column.sparse != nullptr) {
    const std::vector<size_t>& idx = first_column.sparse->indices();
    const std::vector<double>& vals = first_column.sparse->values();
    for (size_t p = 0; p < idx.size(); ++p) {
      if (vals[p] != 0.0) {
        support.push_back(idx[p]);
        values.push_back(vals[p]);
      }
    }
  } else {
    for (size_t j = 0; j < m; ++j) {
      const double v = (*first_column.dense)[j];
      if (v != 0.0) {
        support.push_back(j);
        values.push_back(v);
      }
    }
  }

  // Pinned boundary (inclusive): sparse rows iff
  // 1 ≤ |support| ≤ min(max_cache_support, m − 1); wider supports are
  // "dense" and go to the dense-prefix scheme when its policy engages.
  const bool cache_on = options_.prefix_cache &&
                        options_.max_cache_support > 0 && !support.empty();
  const bool sparse_fit = support.size() <= options_.max_cache_support &&
                          support.size() < m;
  Mode mode = Mode::kCold;
  if (cache_on && sparse_fit) {
    mode = Mode::kCached;
  } else if (cache_on) {
    switch (options_.dense_prefix) {
      case ReleaseStepOptions::DensePrefix::kAlways:
        mode = Mode::kDense;
        break;
      case ReleaseStepOptions::DensePrefix::kAuto:
        // Break-even T ≥ 2m: the m-row extension costs ~2 family sweeps of
        // m rows per commit, the cold chain ~C·t per step with C ≥ 2
        // candidates and average t = T/2.
        if (horizon_hint_ > 0 &&
            static_cast<size_t>(horizon_hint_) >= 2 * m) {
          mode = Mode::kDense;
        }
        break;
      case ReleaseStepOptions::DensePrefix::kOff:
        break;
    }
    if (mode == Mode::kCold) cold_is_dense_fallback_ = true;
  }

  if (mode == Mode::kCold) {
    mode_ = Mode::kCold;
    history_.push_back(DensifyColumn(first_column.dense, first_column.sparse));
    t_ = 1;
    return;
  }

  mode_ = mode;
  const double s_c = CandidateScale(first_column);
  support_ = std::move(support);
  support_scale_.resize(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    support_scale_[i] = s_c * values[i];
  }
  for (ModelEngine& engine : engines_) {
    // r_s^{(1)} = Cᵀ e_s — the contraction adjoint of the support basis
    // vector, which is exactly LiftInitial (the documented adjoint pair).
    const size_t lifted = engine.model->lifted_size();
    engine.rows.Reset(support_.size(), lifted);
    for (size_t i = 0; i < support_.size(); ++i) {
      const linalg::Vector row = engine.model->LiftInitial(
          linalg::Vector::Unit(engine.model->num_states(), support_[i]));
      std::copy(row.data(), row.data() + lifted, engine.rows.Row(i));
    }
  }
  t_ = 1;
  for (ModelEngine& engine : engines_) {
    if (t_ == engine.model->event_end()) BuildMaskedRows(engine);
  }
}

void ReleaseStepContext::BuildMaskedRows(ModelEngine& engine) {
  const linalg::Vector& mask = engine.model->AcceptingMask();
  const size_t lifted = engine.model->lifted_size();
  engine.rows_masked.Reset(support_.size(), lifted);
  for (size_t i = 0; i < support_.size(); ++i) {
    linalg::kernels::HadamardInto(engine.rows.Row(i), mask.data(),
                                  engine.rows_masked.Row(i), lifted);
  }
  engine.step_rows_masked_ready = false;
}

void ReleaseStepContext::CommitImpl(const ColumnView& column) {
  PRISTE_CHECK(column.size() == engines_.front().model->num_states());
  if (mode_ == Mode::kUndecided) {
    DecideMode(column);
    return;
  }
  if (mode_ == Mode::kCold) {
    history_.push_back(DensifyColumn(column.dense, column.sparse));
    ++t_;
    return;
  }

  const double s_c = CandidateScale(column);
  for (ModelEngine& engine : engines_) {
    const bool has_masked = !engine.rows_masked.empty();
    EnsureStepRows(engine, has_masked);
    const size_t lifted = engine.model->lifted_size();
    const auto extend = [&](double* step_row) {
      if (column.sparse != nullptr) {
        engine.model->ApplyEmissionSpanInPlace(*column.sparse, step_row);
      } else {
        engine.model->ApplyEmissionSpanInPlace(*column.dense, step_row);
      }
      if (s_c != 1.0) linalg::kernels::Scale(step_row, s_c, lifted);
      ++diagnostics_.prefix_extensions;
    };
    for (size_t i = 0; i < support_.size(); ++i) {
      extend(engine.step_rows.Row(i));
      if (has_masked) extend(engine.step_rows_masked.Row(i));
    }
    // Every support row was just extended in place inside step_rows, so the
    // commit is an O(1) whole-block swap; the retired `rows` storage becomes
    // the next step's step_rows scratch.
    swap(engine.rows, engine.step_rows);
    if (has_masked) swap(engine.rows_masked, engine.step_rows_masked);
    engine.step_rows_ready = false;
    engine.step_rows_masked_ready = false;
  }
  ++t_;
  for (ModelEngine& engine : engines_) {
    if (engine.rows_masked.empty() && t_ == engine.model->event_end()) {
      BuildMaskedRows(engine);
    }
  }
  // Per-candidate gather staging from the finished step is dead now; recycle
  // the arena footprint for the next accepted timestamp.
  arena_.Reset();
}

ReleaseCheckOutcome ReleaseStepContext::CheckCandidate(
    const linalg::Vector& column, double epsilon, double qp_threshold_seconds) {
  ColumnView view;
  view.dense = &column;
  return CheckImpl(view, epsilon, qp_threshold_seconds);
}

ReleaseCheckOutcome ReleaseStepContext::CheckCandidate(
    const linalg::SparseVector& column, double epsilon,
    double qp_threshold_seconds) {
  ColumnView view;
  view.sparse = &column;
  return CheckImpl(view, epsilon, qp_threshold_seconds);
}

void ReleaseStepContext::Commit(const linalg::Vector& column) {
  ColumnView view;
  view.dense = &column;
  CommitImpl(view);
}

void ReleaseStepContext::Commit(const linalg::SparseVector& column) {
  ColumnView view;
  view.sparse = &column;
  CommitImpl(view);
}

TheoremVectors ReleaseStepContext::CandidateVectors(
    size_t model_index, const linalg::Vector& column) {
  ColumnView view;
  view.dense = &column;
  return VectorsImpl(model_index, view);
}

TheoremVectors ReleaseStepContext::CandidateVectors(
    size_t model_index, const linalg::SparseVector& column) {
  ColumnView view;
  view.sparse = &column;
  return VectorsImpl(model_index, view);
}

}  // namespace priste::core
