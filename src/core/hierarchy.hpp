// Hierarchical model composition and fixed-point iteration — the tutorial's
// "largeness avoidance" layer.
//
// Real systems are modeled as a hierarchy: small state-space models capture
// local dependencies (shared repair, coverage), and their outputs
// (availability, MTTF, failure rates) become parameters of a combinatorial
// model on top — avoiding one monolithic CTMC. When submodels depend on each
// other cyclically (e.g. a software model needs the hardware repair queue
// length, which depends on software load), the import graph is solved by
// fixed-point iteration (successive substitution with optional damping),
// the technique the abstract calls "a scalable alternative that combines
// the strengths of state space and non-state-space methods".
//
// The Hierarchy holds named quantities:
//   * parameters  — plain numbers set by the user;
//   * definitions — computed values; each is an arbitrary function of the
//     hierarchy (typically closing over a RelKit model and reading other
//     quantities via value()).
// value() evaluates the definition DAG with memoization and detects cycles;
// cyclic systems are solved with solve_fixed_point().
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "robust/report.hpp"

namespace relkit::core {

class Hierarchy;

/// A computed quantity: reads other quantities through the hierarchy.
using DefinitionFn = std::function<double(const Hierarchy&)>;

/// Convergence report of solve_fixed_point().
struct FixedPointResult {
  std::size_t iterations = 0;
  double residual = 0.0;  ///< max |x_new - x_old| over iterated variables
  bool converged = false;
  /// Damping actually in effect at the end (adaptive escalation may have
  /// raised it above FixedPointOptions::damping).
  double final_damping = 0.0;
  std::size_t damping_escalations = 0;
  robust::SolveReport report;
};

/// Options for solve_fixed_point().
struct FixedPointOptions {
  double tol = 1e-10;
  std::size_t max_iterations = 1000;
  /// x <- (1-damping) x_new + damping x_old; 0 = plain substitution.
  double damping = 0.0;
  /// When the iteration stalls, oscillates, or produces non-finite values,
  /// escalate damping automatically (0 -> 0.5 -> 0.75 -> ... -> max_damping)
  /// instead of grinding to max_iterations.
  bool adaptive_damping = true;
  double max_damping = 0.9375;
};

class Hierarchy {
 public:
  /// Sets (or overwrites) a plain numeric parameter.
  void set_parameter(const std::string& name, double value);

  /// Registers a computed quantity. Re-registering replaces the definition.
  void define(const std::string& name, DefinitionFn fn);

  /// True if `name` is a parameter or definition.
  bool has(const std::string& name) const;

  /// Evaluates `name`: parameters return their value; definitions are
  /// evaluated with memoization. Throws ModelError on a cyclic dependency
  /// (use solve_fixed_point for cyclic systems) and InvalidArgument on an
  /// unknown name.
  double value(const std::string& name) const;

  /// Invalidates the memo cache (done automatically by set_parameter).
  void invalidate() const;

  /// Solves the cyclic system over `variables`: each variable must be both
  /// a parameter (its current value is the starting guess) and have a
  /// definition registered under "<name>.update" or be listed in `updates`.
  ///
  /// Divergence and oscillation are detected (no residual improvement over
  /// a window) and answered by escalating damping when
  /// opts.adaptive_damping is set. On failure — max_iterations rounds, or
  /// the ambient deadline (robust::ScopedDeadline) expiring between
  /// rounds — throws robust::ConvergenceError whose partial_result() holds
  /// the best-seen variable values in `updates` order.
  ///
  /// Simpler overload: give explicit update functions per variable.
  FixedPointResult solve_fixed_point(
      const std::vector<std::pair<std::string, DefinitionFn>>& updates,
      const FixedPointOptions& opts = {});

 private:
  std::map<std::string, double> parameters_;
  std::map<std::string, DefinitionFn> definitions_;
  mutable std::map<std::string, double> memo_;
  mutable std::set<std::string> in_progress_;
};

// ---- small conversion helpers used throughout availability studies --------

/// Steady-state availability from mean time to failure and repair.
double availability_from_mttf_mttr(double mttf, double mttr);

/// Yearly downtime in minutes implied by an availability.
double downtime_minutes_per_year(double availability);

/// "Number of nines": -log10(1 - availability).
double nines(double availability);

}  // namespace relkit::core
