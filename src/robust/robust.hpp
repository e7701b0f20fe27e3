// Solver resilience layer: verified steady-state solves with automatic
// fallback between methods.
//
// The tutorial's models are routinely stiff (rates spanning many orders of
// magnitude) and near-reducible (clusters coupled by tiny rates) — exactly
// the regime where a single iterative method silently stalls. The fallback
// chain is a list of entries, each a {label, fault probe, gate, run}, walked
// in order by one runner:
//
//   gth (dense, exact)            when n <= dense_threshold
//   sor                           symmetric Gauss-Seidel / SOR sweeps
//   ad                            Courtois/Takahashi aggregation-
//                                 disaggregation, only when the NCD detector
//                                 finds >= 2 blocks with coupling <= 0.2,
//                                 each small enough for its dense solve
//   bicgstab                      ILU0-preconditioned BiCGSTAB + RCM
//   gth (dense, last resort)      when dense_threshold < n <=
//                                 max(dense_threshold, gth_fallback_threshold)
//
// A gate runs only when the runner reaches its entry, so the NCD detector
// or a dense Q cost nothing when an earlier entry wins. The runner owns
// everything the entries share: the attempt span, the fault probe,
// ConvergenceError capture, best-partial tracking, verification and the
// deadline check between entries. A new method is one more entry.
//
// Every candidate result is *verified* (finite, renormalized, residual
// below 1e-6 x rate-scale) before being accepted; a method whose answer
// fails verification is treated as failed, so no solver path can return
// NaN/Inf or a wrong fixed point silently. On total failure a
// ConvergenceError carries the best (lowest-residual) iterate seen plus the
// full SolveReport.
//
// A single method can be forced — per call (RobustSteadyOptions::solver),
// per thread (ScopedSolverChoice, used by relkit_serve's per-request
// "solver" field), or process-wide (set_default_solver, the CLI --solver
// flag). The chain is then that method's entry alone, still verified;
// damped power iteration on the uniformized DTMC is reachable only so.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/krylov.hpp"
#include "common/linsolve.hpp"
#include "common/sparse.hpp"
#include "robust/ncd.hpp"
#include "robust/report.hpp"

namespace relkit::robust {

/// Which stationary solver robust_steady_state runs.
enum class SolverChoice {
  kAuto,      ///< the verified fallback chain (default)
  kGth,       ///< dense GTH only
  kSor,       ///< SOR / symmetric Gauss-Seidel only
  kBicgstab,  ///< preconditioned BiCGSTAB + RCM only
  kPower,     ///< damped power iteration only
  kAd,        ///< NCD aggregation-disaggregation only
};

/// Printable name ("auto", "gth", "sor", "bicgstab", "power", "ad").
const char* solver_choice_name(SolverChoice c);

/// Parses a solver name as printed by solver_choice_name. Returns false
/// (and leaves `out` untouched) on an unknown name.
bool parse_solver_choice(std::string_view text, SolverChoice& out);

/// Process-wide default solver, consulted when an options struct says
/// kAuto and no thread-local override is installed. Set by the CLI
/// --solver flag. Thread-safe.
SolverChoice default_solver();
void set_default_solver(SolverChoice c);

/// The solver the current thread would use for a kAuto solve: the
/// innermost ScopedSolverChoice if one is active, else default_solver().
SolverChoice ambient_solver();

/// Swaps the calling thread's solver override slot (kAuto = no override)
/// and returns the previous value. Prefer ScopedSolverChoice.
SolverChoice exchange_solver_override(SolverChoice c);

/// RAII thread-local solver override, mirroring ScopedDeadline: requests
/// in relkit_serve install one so a per-request solver choice cannot leak
/// into other requests sharing the worker pool.
class ScopedSolverChoice {
 public:
  explicit ScopedSolverChoice(SolverChoice c)
      : prev_(exchange_solver_override(c)) {}
  ~ScopedSolverChoice() { exchange_solver_override(prev_); }
  ScopedSolverChoice(const ScopedSolverChoice&) = delete;
  ScopedSolverChoice& operator=(const ScopedSolverChoice&) = delete;

 private:
  SolverChoice prev_;
};

/// Options for the resilient steady-state solve. markov::SteadyStateOptions
/// is these plus the solution-cache switch.
struct RobustSteadyOptions {
  /// Dense GTH is the *primary* method at or below this size; above it the
  /// chain starts with SOR.
  std::size_t dense_threshold = 512;
  /// Dense GTH is also the *last resort* up to max(dense_threshold, this)
  /// states (O(n^3) beats no answer once the iterative methods failed).
  std::size_t gth_fallback_threshold = 2048;
  SorOptions sor;
  BicgstabOptions bicgstab;  ///< Krylov tier (tolerance, cap, RCM)
  AdOptions ncd;             ///< NCD detection threshold + A/D solve knobs
  /// kAuto consults the thread/process ambient solver (ScopedSolverChoice
  /// / set_default_solver); any other value forces that single method.
  SolverChoice solver = SolverChoice::kAuto;
  /// Parallelism degree passed through to every attempt (SOR residual
  /// evaluation, power-iteration matvec) and to the verification residual.
  /// 0 = parallel::default_jobs(); 1 = force sequential. Every value gives
  /// the same bits.
  unsigned jobs = 0;
};

/// Result of a resilient solve: the distribution, the iterations of every
/// attempt, the verified residual and the full diagnostics.
using RobustResult = SteadyResult;

/// Stationary distribution of an irreducible CTMC given the *transposed*
/// generator (row i of `qt` = column i of Q, off-diagonal entries only) and
/// the diagonal of Q. Runs the verified fallback chain described above.
/// Throws NumericalError if the generator contains non-finite entries and
/// ConvergenceError (best partial + report) if every method fails.
SteadyResult robust_steady_state(const SparseMatrix& qt,
                                 const std::vector<double>& diag,
                                 const RobustSteadyOptions& opts = {});

/// The uniformized DTMC P = I + Q/q of a CTMC, stored transposed (pi P is
/// `pt.multiply(pi)`), with q = 1.02 x the largest exit rate (1 when every
/// state absorbs) so that P's diagonal is strictly positive.
struct Uniformized {
  SparseMatrix pt;
  double q = 1.0;
};

/// The one builder of P, from the form robust_steady_state takes; the power
/// entry of the chain and CTMC uniformization both use it.
Uniformized uniformize(const SparseMatrix& qt, const std::vector<double>& diag);

/// max_i |(pi Q)_i| for a candidate stationary vector (common/linsolve.hpp),
/// the residual every attempt is verified with.
using relkit::steady_state_residual;

/// True when every element of `v` is finite.
bool all_finite(const std::vector<double>& v);

/// Repairs a probability vector in place: clamps tiny negatives to 0 and
/// renormalizes to sum 1, recording a warning in `report` when the drift
/// exceeds `drift_warn`. Throws ConvergenceError (carrying `v` as the
/// partial result and `report`) when the vector is non-finite or has no
/// positive mass — the "no silent NaN" guarantee.
void repair_distribution(std::vector<double>& v, SolveReport& report,
                         const char* context, double drift_warn = 1e-9);

}  // namespace relkit::robust
