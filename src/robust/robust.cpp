#include "robust/robust.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "robust/budget.hpp"
#include "robust/fault_injection.hpp"

namespace relkit::robust {

namespace {

/// Dense Q reconstructed from its transposed sparse off-diagonal part.
Matrix densify(const SparseMatrix& qt, const std::vector<double>& diag) {
  const std::size_t n = qt.rows();
  Matrix q(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = qt.row_begin(i); k < qt.row_end(i); ++k) {
      q(qt.col(k), i) += qt.value(k);  // qt row i holds column i of Q
    }
    q(i, i) = diag[i];
  }
  return q;
}

/// A candidate pi is accepted when max|pi Q| <= kVerifyTol * max(1, rate
/// scale). Looser than the kernels' tolerances on purpose: this is the "is
/// the answer usable at all" bar, not the convergence target.
constexpr double kVerifyTol = 1e-6;

/// The auto chain tries A/D only when the NCD detector's decomposability
/// parameter is at or below this (and it found >= 2 blocks, each small
/// enough for its dense censored solve).
constexpr double kNcdAutoCoupling = 0.2;

/// Clamps negative entries to 0 and rescales to sum 1. False when no
/// probability mass is left.
bool clamp_normalize(std::vector<double>& v) {
  double total = 0.0;
  for (double& x : v) {
    if (x < 0.0) x = 0.0;
    total += x;
  }
  if (total <= 0.0) return false;
  for (double& x : v) x /= total;
  return true;
}

/// One entry of the fallback chain. The runner evaluates `gate` (empty =
/// always run) only when it reaches the entry, so a gate's own cost (the
/// NCD detector) is paid only after every earlier entry failed. `run`
/// returns a candidate for verification or throws: a ConvergenceError's
/// partial competes for the best-partial slot, a plain NumericalError is a
/// direct method's diagnosis.
struct Attempt {
  std::string label;  ///< attempt name in the report, span and warnings
  const char* probe;  ///< FaultInjector::fail_method name
  /// Names the stage in "deadline expired during <stage>", checked when the
  /// entry fails and another follows; nullptr for GTH, which never checks.
  const char* stage;
  std::function<bool()> gate;
  std::function<SteadyResult()> run;

  Attempt gated(std::function<bool()> g) const {
    Attempt a = *this;
    a.gate = std::move(g);
    return a;
  }
};

// Process default + per-thread override for the solver choice. The
// override slot uses kAuto as "no override", mirroring ambient_deadline's
// "unlimited = empty slot" convention in budget.hpp.
std::atomic<SolverChoice> g_default_solver{SolverChoice::kAuto};
thread_local SolverChoice t_solver_override = SolverChoice::kAuto;

}  // namespace

const char* solver_choice_name(SolverChoice c) {
  switch (c) {
    case SolverChoice::kAuto: return "auto";
    case SolverChoice::kGth: return "gth";
    case SolverChoice::kSor: return "sor";
    case SolverChoice::kBicgstab: return "bicgstab";
    case SolverChoice::kPower: return "power";
    case SolverChoice::kAd: return "ad";
  }
  return "?";
}

bool parse_solver_choice(std::string_view text, SolverChoice& out) {
  if (text == "auto") out = SolverChoice::kAuto;
  else if (text == "gth") out = SolverChoice::kGth;
  else if (text == "sor") out = SolverChoice::kSor;
  else if (text == "bicgstab") out = SolverChoice::kBicgstab;
  else if (text == "power") out = SolverChoice::kPower;
  else if (text == "ad") out = SolverChoice::kAd;
  else return false;
  return true;
}

SolverChoice default_solver() {
  return g_default_solver.load(std::memory_order_relaxed);
}

void set_default_solver(SolverChoice c) {
  g_default_solver.store(c, std::memory_order_relaxed);
}

SolverChoice ambient_solver() {
  return t_solver_override != SolverChoice::kAuto ? t_solver_override
                                                  : default_solver();
}

SolverChoice exchange_solver_override(SolverChoice c) {
  const SolverChoice prev = t_solver_override;
  t_solver_override = c;
  return prev;
}

bool all_finite(const std::vector<double>& v) {
  for (const double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

Uniformized uniformize(const SparseMatrix& qt,
                       const std::vector<double>& diag) {
  const std::size_t n = qt.rows();
  double qmax = 0.0;
  for (const double d : diag) qmax = std::max(qmax, -d);
  const double q = qmax > 0.0 ? qmax * 1.02 : 1.0;
  // Row i of P^T: row i of Q^T over q, then the diagonal.
  CsrAssembler a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a.count(i, qt.row_end(i) - qt.row_begin(i) + 1);
  }
  a.start();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = qt.row_begin(i); k < qt.row_end(i); ++k) {
      a.put(i, qt.col(k), qt.value(k) / q);
    }
    a.put(i, i, 1.0 + diag[i] / q);
  }
  return {a.finish(), q};
}

void repair_distribution(std::vector<double>& v, SolveReport& report,
                         const char* context, double drift_warn) {
  if (!all_finite(v)) {
    report.warn(std::string(context) + ": non-finite entries in result");
    record_last_report(report);
    throw ConvergenceError(
        std::string(context) +
            ": result contains NaN/Inf — refusing to return it silently",
        v, report);
  }
  double negative_mass = 0.0;
  double total = 0.0;
  for (double& x : v) {
    if (x < 0.0) {
      negative_mass -= x;
      x = 0.0;
    }
    total += x;
  }
  if (total <= 0.0) {
    report.warn(std::string(context) + ": probability mass collapsed to 0");
    record_last_report(report);
    throw ConvergenceError(
        std::string(context) + ": probability mass collapsed to 0", v,
        report);
  }
  if (negative_mass > drift_warn) {
    report.warn(std::string(context) + ": clamped negative mass " +
                std::to_string(negative_mass));
  }
  if (std::abs(total - 1.0) > drift_warn) {
    report.warn(std::string(context) + ": renormalized (sum drifted to " +
                std::to_string(total) + ")");
  }
  for (double& x : v) x /= total;
}

SteadyResult robust_steady_state(const SparseMatrix& qt,
                                 const std::vector<double>& diag,
                                 const RobustSteadyOptions& opts) {
  const std::size_t n = qt.rows();
  relkit::detail::require(qt.cols() == n, "robust_steady_state: Q^T must be square");
  relkit::detail::require(diag.size() == n,
                  "robust_steady_state: diag size mismatch");
  relkit::detail::require(n >= 1, "robust_steady_state: empty generator");

  const auto start = std::chrono::steady_clock::now();
  const Deadline deadline = ambient_deadline();
  auto& injector = testing::FaultInjector::instance();
  SolveReport report;

  // One pool lease for the whole chain: every attempt (SOR residuals,
  // power matvecs) and the verification residual share it.
  const parallel::PoolLease lease(opts.jobs);

  // One span for the whole verified solve; each attempt below opens a child
  // span so every fallback edge is visible in the trace with its residual.
  obs::Span solve_span("robust.steady_state");
  solve_span.set("n", n);
  solve_span.set("jobs", static_cast<std::uint64_t>(lease.jobs()));

  if (!qt.all_finite() || !all_finite(diag)) {
    throw NumericalError(
        "robust_steady_state: generator contains non-finite entries "
        "(NaN/Inf) — check the model's rates");
  }

  if (n == 1) {
    report.note_attempt("trivial");
    report.finish("trivial", 0, 0.0, true, start);
    return {{1.0}, 0, 0.0, report};
  }

  const double rate_scale = std::max({1.0, qt.max_abs(), [&] {
                                        double worst = 0.0;
                                        for (const double d : diag) {
                                          worst = std::max(worst,
                                                           std::abs(d));
                                        }
                                        return worst;
                                      }()});
  const double accept_res = kVerifyTol * rate_scale;

  // Best (lowest-residual) candidate across all attempts, for the partial
  // result of a total failure.
  std::vector<double> best;
  double best_res = std::numeric_limits<double>::infinity();
  auto consider = [&](const std::vector<double>& v) {
    if (v.size() != n || !all_finite(v)) return;
    std::vector<double> copy = v;
    if (!clamp_normalize(copy)) return;
    const double res = steady_state_residual(qt, diag, copy, lease.get());
    if (std::isfinite(res) && res < best_res) {
      best = std::move(copy);
      best_res = res;
    }
  };

  // Closes the books on one attempt: per-attempt detail in the report and
  // the same numbers as attributes on the attempt's span.
  auto finish_attempt = [&](obs::Span& span, const std::string& method,
                            std::size_t iterations, double res,
                            bool accepted) {
    report.note_attempt_result(method, iterations, res, accepted);
    span.set("iterations", iterations);
    if (!std::isnan(res)) span.set("residual", res);
    span.set("accepted", accepted);
  };

  // Accepts a candidate if it survives verification; otherwise records why
  // it was rejected and keeps it as a partial-result candidate.
  auto accept = [&](std::vector<double> pi, const std::string& method,
                    std::size_t iterations, obs::Span& span)
      -> std::optional<SteadyResult> {
    report.iterations += iterations;
    if (!all_finite(pi)) {
      report.warn(method + ": produced non-finite entries; rejected");
      finish_attempt(span, method, iterations, std::nan(""), false);
      return std::nullopt;
    }
    if (!clamp_normalize(pi)) {
      report.warn(method + ": probability mass collapsed; rejected");
      finish_attempt(span, method, iterations, std::nan(""), false);
      return std::nullopt;
    }
    const double res = steady_state_residual(qt, diag, pi, lease.get());
    if (!std::isfinite(res) || res > accept_res) {
      report.warn(method + ": residual " + std::to_string(res) +
                  " fails verification (accept <= " +
                  std::to_string(accept_res) + ")");
      finish_attempt(span, method, iterations, res, false);
      consider(pi);
      return std::nullopt;
    }
    finish_attempt(span, method, iterations, res, true);
    report.method = method;
    report.converged = true;
    report.residual = res;
    report.wall_seconds = seconds_since(start);
    solve_span.set("method", method);
    solve_span.set("iterations", report.iterations);
    solve_span.set("residual", res);
    solve_span.set("converged", true);
    record_last_report(report);
    return SteadyResult{std::move(pi), report.iterations, res, report};
  };

  auto total_failure = [&](const std::string& why) -> ConvergenceError {
    report.residual = best_res;
    report.wall_seconds = seconds_since(start);
    solve_span.set("iterations", report.iterations);
    solve_span.set("residual", best_res);
    solve_span.set("converged", false);
    record_last_report(report);
    std::vector<double> partial = best;
    if (partial.empty()) {
      partial.assign(n, 1.0 / static_cast<double>(n));
    }
    std::string message = "robust_steady_state: " + why +
                          " (best residual " + std::to_string(best_res) +
                          ")";
    for (const auto& w : report.warnings) message += "\n  note: " + w;
    return ConvergenceError(message, std::move(partial), report);
  };

  // The runner's one step: the attempt span, the fault probe, verification
  // of the candidate, and the books of a failure. `diagnosis` keeps the
  // last direct-method error (GTH's "chain is reducible").
  std::string prev_method;
  std::string diagnosis;
  auto run_attempt = [&](const Attempt& a) -> std::optional<SteadyResult> {
    obs::Span span("robust.attempt");
    report.note_attempt(a.label);
    span.set("method", a.label);
    if (!prev_method.empty()) {
      report.note_fallback(prev_method, a.label);
      span.set("fallback_from", prev_method);
    }
    prev_method = a.label;
    if (injector.should_fail(a.probe)) {
      report.warn("fault injection: " + a.label + " forced to fail");
      finish_attempt(span, a.label, 0, std::nan(""), false);
      return std::nullopt;
    }
    try {
      SteadyResult r = a.run();
      // An accepted attempt's trajectory is the solve's; a rejected one's
      // is overwritten by the next attempt.
      report.convergence = std::move(r.report.convergence);
      return accept(std::move(r.pi), a.label, r.iterations, span);
    } catch (const ConvergenceError& e) {
      report.iterations += e.report().iterations;
      report.convergence = e.report().convergence;
      report.warn(a.label + ": " + e.what());
      finish_attempt(span, a.label, e.report().iterations,
                     e.report().residual, false);
      consider(e.partial_result());
    } catch (const NumericalError& e) {
      diagnosis = e.what();
      report.warn(a.label + ": " + e.what());
      finish_attempt(span, a.label, 0, std::nan(""), false);
    }
    return std::nullopt;
  };

  // ---- the entries ---------------------------------------------------------
  // Each method's options inherit the chain's jobs; forced power takes its
  // defaults. Dense Q, the uniformized P and the NCD partition are built
  // only when their entry runs.
  const auto inherit = [&](auto o) {
    if (o.jobs == 0) o.jobs = opts.jobs;
    return o;
  };
  const SorOptions sor_opts = inherit(opts.sor);
  const BicgstabOptions bicgstab_opts = inherit(opts.bicgstab);
  const AdOptions ad_opts = inherit(opts.ncd);
  const PowerOptions power_opts = inherit(PowerOptions{});
  // Dense GTH's last-resort limit; the primary gate is dense_threshold.
  const std::size_t dense_limit =
      std::max(opts.dense_threshold, opts.gth_fallback_threshold);
  NcdPartition part;  // written by the A/D gate, read by its run
  const auto detect_ncd = [&] {
    part = detect_ncd_blocks(qt, diag, opts.ncd.coupling_threshold);
  };

  const Attempt gth{"gth", "gth", nullptr, {}, [&] {
    return SteadyResult{gth_steady_state(densify(qt, diag)), n, 0.0, {}};
  }};
  const Attempt sor{"sor", "sor", "sor", {},
                    [&] { return sor_steady_state(qt, diag, sor_opts); }};
  const Attempt ad{"ad", "ad", "ad", {},
                   [&] { return ad_steady_state(qt, diag, part, ad_opts); }};
  const Attempt bicgstab{"bicgstab", "bicgstab", "bicgstab", {}, [&] {
    return bicgstab_steady_state(qt, diag, bicgstab_opts);
  }};
  const Attempt power{"power", "power", "power", {}, [&] {
    return power_steady_state(uniformize(qt, diag).pt.transposed(),
                              power_opts);
  }};

  // ---- the chain -----------------------------------------------------------
  // An absorbing (zero-diagonal) state makes the chain reducible; the
  // iterative methods cannot run (they divide by the diagonal), so only
  // dense GTH gets a chance to produce its informative error.
  bool has_zero_diag = false;
  for (const double d : diag) has_zero_diag |= (d >= 0.0);
  if (has_zero_diag && n > dense_limit) {
    // Too large to densify just to produce GTH's diagnosis.
    throw NumericalError(
        "robust_steady_state: chain has a state with no exit rate "
        "(absorbing => reducible); the stationary distribution is not "
        "unique");
  }

  const SolverChoice choice = opts.solver != SolverChoice::kAuto
                                  ? opts.solver
                                  : ambient_solver();
  std::vector<Attempt> chain;
  std::string why = "all methods failed";
  if (choice != SolverChoice::kAuto) {
    // A forced method is the chain of its one entry, still verified.
    solve_span.set("forced", solver_choice_name(choice));
    if (has_zero_diag && choice != SolverChoice::kGth) {
      throw NumericalError(
          "robust_steady_state: chain has a state with no exit rate "
          "(absorbing => reducible); only --solver gth can diagnose it");
    }
    why = std::string("forced solver '") + solver_choice_name(choice) +
          "' failed";
    switch (choice) {
      case SolverChoice::kGth: chain = {gth}; break;
      case SolverChoice::kSor: chain = {sor}; break;
      case SolverChoice::kBicgstab: chain = {bicgstab}; break;
      case SolverChoice::kPower: chain = {power}; break;
      case SolverChoice::kAd:
        chain = {ad.gated([&] {
          detect_ncd();
          if (part.blocks >= 2) return true;
          report.warn("ad: NCD detector found a single block (coupling "
                      "threshold " +
                      std::to_string(opts.ncd.coupling_threshold) + ")");
          return false;
        })};
        break;
      case SolverChoice::kAuto: break;  // unreachable
    }
  } else if (has_zero_diag) {
    // GTH's diagnosis (usually "chain is reducible") is the failure.
    chain = {gth};
    why = "chain has an absorbing state (reducible)";
  } else {
    chain = {
        gth.gated([&] { return n <= opts.dense_threshold; }),
        sor,
        // A/D only when the detector finds a decomposition: >= 2 blocks,
        // coupling small enough that A/D converges in a few sweeps, and
        // every block small enough for its dense censored solve.
        ad.gated([&] {
          detect_ncd();
          return part.blocks >= 2 && part.coupling <= kNcdAutoCoupling &&
                 part.max_block_size <= dense_limit;
        }),
        bicgstab,
        // Dense GTH as the last resort, unless it already ran first.
        gth.gated(
            [&] { return n > opts.dense_threshold && n <= dense_limit; }),
    };
  }

  // ---- the runner ----------------------------------------------------------
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Attempt& a = chain[i];
    if (a.gate && !a.gate()) continue;
    if (auto r = run_attempt(a)) return std::move(*r);
    if (a.stage != nullptr && i + 1 < chain.size() && deadline.expired()) {
      throw total_failure(std::string("deadline expired during ") + a.stage);
    }
  }
  if (has_zero_diag && choice == SolverChoice::kAuto && !diagnosis.empty()) {
    why = diagnosis;
  }
  throw total_failure(why);
}

}  // namespace relkit::robust
