#include "core/hierarchy.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "markov/solution_cache.hpp"
#include "obs/obs.hpp"
#include "robust/budget.hpp"
#include "robust/fault_injection.hpp"

namespace relkit::core {

void Hierarchy::set_parameter(const std::string& name, double value) {
  detail::require(!name.empty(), "Hierarchy::set_parameter: empty name");
  parameters_[name] = value;
  invalidate();
}

void Hierarchy::define(const std::string& name, DefinitionFn fn) {
  detail::require(!name.empty(), "Hierarchy::define: empty name");
  detail::require(fn != nullptr, "Hierarchy::define: null function");
  definitions_[name] = std::move(fn);
  invalidate();
}

bool Hierarchy::has(const std::string& name) const {
  return parameters_.count(name) || definitions_.count(name);
}

double Hierarchy::value(const std::string& name) const {
  // Parameters win: they act as fixed-point overrides of definitions.
  if (const auto p = parameters_.find(name); p != parameters_.end()) {
    return p->second;
  }
  if (const auto m = memo_.find(name); m != memo_.end()) {
    return m->second;
  }
  const auto d = definitions_.find(name);
  if (d == definitions_.end()) {
    throw InvalidArgument("Hierarchy::value: unknown quantity '" + name +
                          "'");
  }
  if (in_progress_.count(name)) {
    throw ModelError("Hierarchy::value: cyclic dependency through '" + name +
                     "' — use solve_fixed_point for cyclic systems");
  }
  in_progress_.insert(name);
  double v;
  try {
    v = d->second(*this);
  } catch (...) {
    in_progress_.erase(name);
    throw;
  }
  in_progress_.erase(name);
  memo_[name] = v;
  return v;
}

void Hierarchy::invalidate() const { memo_.clear(); }

FixedPointResult Hierarchy::solve_fixed_point(
    const std::vector<std::pair<std::string, DefinitionFn>>& updates,
    const FixedPointOptions& opts) {
  detail::require(!updates.empty(), "solve_fixed_point: no variables");
  detail::require(opts.damping >= 0.0 && opts.damping < 1.0,
                  "solve_fixed_point: damping in [0,1)");
  for (const auto& [name, fn] : updates) {
    if (!parameters_.count(name)) {
      throw InvalidArgument("solve_fixed_point: variable '" + name +
                            "' must be initialized with set_parameter");
    }
    if (fn == nullptr) {
      throw InvalidArgument("solve_fixed_point: null update for '" + name +
                            "'");
    }
  }

  detail::require(opts.max_damping >= opts.damping &&
                      opts.max_damping < 1.0,
                  "solve_fixed_point: max_damping in [damping, 1)");

  auto& injector = relkit::testing::FaultInjector::instance();
  const auto start = std::chrono::steady_clock::now();
  const std::size_t max_iterations =
      injector.cap("fixed_point.max_iters", opts.max_iterations);
  const robust::Deadline deadline = robust::ambient_deadline();

  obs::Span span("hierarchy.fixed_point");
  span.set("variables", static_cast<std::uint64_t>(updates.size()));
  // Submodel solves repeat across iterations; the SolutionCache deltas show
  // how much of the fixed point was served from memoized results.
  auto& solution_cache = markov::SolutionCache::instance();
  const std::uint64_t cache_hits_before = solution_cache.hits();
  const std::uint64_t cache_misses_before = solution_cache.misses();
  static obs::Counter& iter_counter = obs::counter("hierarchy.fp_iterations");
  static obs::Counter& esc_counter = obs::counter("hierarchy.fp_escalations");

  robust::SolveReport report;
  report.note_attempt("fixed-point");

  auto snapshot = [&] {
    std::vector<double> values;
    values.reserve(updates.size());
    for (const auto& [name, fn] : updates) {
      values.push_back(parameters_.at(name));
    }
    return values;
  };
  auto restore = [&](const std::vector<double>& values) {
    for (std::size_t i = 0; i < updates.size(); ++i) {
      parameters_[updates[i].first] = values[i];
    }
    invalidate();
  };

  double damping = opts.damping;
  // Stall/divergence detector: if the residual has not improved on its best
  // by at least 1% for this many consecutive iterations, the iteration is
  // oscillating or diverging and damping is escalated.
  constexpr std::size_t kStallWindow = 8;
  std::size_t stalled = 0;
  double best_residual = std::numeric_limits<double>::infinity();
  std::vector<double> best_values = snapshot();

  FixedPointResult result;
  result.final_damping = damping;

  auto finish_report = [&](bool converged) {
    report.iterations = result.iterations;
    report.residual = result.residual;
    report.converged = converged;
    report.wall_seconds = robust::seconds_since(start);
    report.note_attempt_result("fixed-point", result.iterations,
                               result.residual, converged);
    span.set("iterations", result.iterations);
    span.set("residual", result.residual);
    span.set("damping", result.final_damping);
    span.set("converged", converged);
    span.set("cache_hits", solution_cache.hits() - cache_hits_before);
    span.set("cache_misses",
             solution_cache.misses() - cache_misses_before);
    robust::record_last_report(report);
  };
  auto fail = [&](const std::string& why) -> robust::ConvergenceError {
    finish_report(false);
    // Hand back the best-seen values both in the exception and in the
    // hierarchy itself, so callers can inspect a consistent state.
    restore(best_values);
    return robust::ConvergenceError("solve_fixed_point: " + why, best_values,
                                    report);
  };
  auto escalate = [&](const char* reason) -> bool {
    if (!opts.adaptive_damping || damping >= opts.max_damping) return false;
    damping = damping == 0.0
                  ? 0.5
                  : std::min(opts.max_damping, 0.5 * (1.0 + damping));
    ++result.damping_escalations;
    esc_counter.add();
    result.final_damping = damping;
    report.note_fallback("fixed-point",
                         "damping=" + std::to_string(damping));
    report.warn(std::string(reason) + " — damping escalated to " +
                std::to_string(damping));
    stalled = 0;
    best_residual = std::numeric_limits<double>::infinity();
    return true;
  };

  for (std::size_t it = 1; it <= max_iterations; ++it) {
    iter_counter.add();
    if (deadline.expired()) {
      report.warn("deadline expired after " + std::to_string(it - 1) +
                  " iterations");
      throw fail("deadline expired (residual " +
                 std::to_string(result.residual) + ")");
    }
    double residual = 0.0;
    bool finite = true;
    // Gauss-Seidel style: each update sees the newest values of the others.
    for (const auto& [name, fn] : updates) {
      const double old_value = parameters_.at(name);
      invalidate();
      const double raw = injector.tap("fixed_point.update", fn(*this));
      const double next = damping * old_value + (1.0 - damping) * raw;
      finite &= std::isfinite(next);
      parameters_[name] = next;
      residual = std::max(residual, std::abs(next - old_value));
    }
    result.iterations = it;
    result.residual = residual;
    report.convergence.record(it, residual);

    if (!finite || !std::isfinite(residual)) {
      // A non-finite iterate poisons every later evaluation: rewind to the
      // best-known point and retry more conservatively.
      restore(best_values);
      if (!escalate("iterate became non-finite")) {
        throw fail("iterate became non-finite at iteration " +
                   std::to_string(it));
      }
      continue;
    }
    if (residual < opts.tol) {
      result.converged = true;
      invalidate();
      finish_report(true);
      result.report = report;
      return result;
    }
    if (residual < 0.99 * best_residual) {
      best_residual = residual;
      best_values = snapshot();
      stalled = 0;
    } else if (++stalled >= kStallWindow) {
      escalate("residual stalled (oscillation or divergence)");
    }
  }
  throw fail("no convergence after " + std::to_string(max_iterations) +
             " iterations (residual " + std::to_string(result.residual) +
             ")");
}

double availability_from_mttf_mttr(double mttf, double mttr) {
  detail::require(mttf > 0.0 && mttr >= 0.0,
                  "availability_from_mttf_mttr: bad arguments");
  return mttf / (mttf + mttr);
}

double downtime_minutes_per_year(double availability) {
  detail::require(availability >= 0.0 && availability <= 1.0,
                  "downtime_minutes_per_year: availability in [0,1]");
  return (1.0 - availability) * 365.25 * 24.0 * 60.0;
}

double nines(double availability) {
  detail::require(availability >= 0.0 && availability < 1.0,
                  "nines: availability in [0,1)");
  return -std::log10(1.0 - availability);
}

}  // namespace relkit::core
