// Discrete-time Markov chains (DTMC).
//
// Used directly for per-demand / per-cycle models, and internally as the
// embedded chain of semi-Markov processes. Provides stationary analysis
// (GTH below a size threshold, damped power iteration above), n-step
// transient distributions, and absorbing-chain analysis via the fundamental
// matrix N = (I - Q_TT)^{-1}.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/sparse.hpp"

namespace relkit::markov {

/// Result of analyzing a DTMC with absorbing states.
struct DtmcAbsorbingAnalysis {
  /// Expected number of visits to each transient state before absorption.
  std::vector<double> expected_visits;
  /// Expected number of steps until absorption.
  double mean_steps_to_absorption = 0.0;
  /// Probability of absorption into each absorbing state.
  std::vector<double> absorption_probability;
};

/// A finite DTMC with named states.
class Dtmc {
 public:
  /// Adds a state; names must be unique and non-empty.
  std::size_t add_state(std::string name);

  /// Accumulates transition probability from -> to. Row sums must reach
  /// exactly 1 (within 1e-9) by solve time; rows with no transitions are
  /// treated as absorbing (implicit self-loop).
  void add_transition(std::size_t from, std::size_t to, double prob);

  std::size_t state_count() const { return names_.size(); }
  const std::string& state_name(std::size_t s) const;
  std::size_t state_index(const std::string& name) const;

  /// Row sum of explicit outgoing probabilities.
  double row_sum(std::size_t s) const;
  /// True if the state has no explicit outgoing transitions.
  bool is_absorbing(std::size_t s) const;

  /// Stationary distribution of an irreducible aperiodic chain. `jobs`
  /// parallelizes the power-iteration matvec above the dense threshold
  /// (0 = parallel::default_jobs(), 1 = sequential; the same bits either
  /// way).
  std::vector<double> steady_state(std::size_t dense_threshold = 512,
                                   unsigned jobs = 0) const;

  /// Distribution after n steps from pi0. `jobs` as in steady_state().
  std::vector<double> transient(const std::vector<double>& pi0,
                                std::size_t steps, unsigned jobs = 0) const;

  /// Absorbing-chain analysis from pi0 (mass on transient states only).
  DtmcAbsorbingAnalysis absorbing_analysis(
      const std::vector<double>& pi0) const;

  /// Dense transition probability matrix, with implicit self-loops filled
  /// in on absorbing states.
  Matrix dense_matrix() const;

  /// Sparse transition matrix with implicit self-loops on absorbing states.
  SparseMatrix sparse_matrix() const;

  /// Initial distribution concentrated on one state.
  std::vector<double> point_mass(std::size_t s) const;

 private:
  struct Transition {
    std::size_t from, to;
    double prob;
  };
  void validate_rows() const;

  std::vector<std::string> names_;
  std::map<std::string, std::size_t> index_;
  std::vector<Transition> transitions_;
  std::vector<double> row_sums_;
};

}  // namespace relkit::markov
