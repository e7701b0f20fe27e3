// Stochastic reward nets (SRN) — generalized stochastic Petri nets with
// guards, inhibitor arcs, marking-dependent rates, and reward functions.
//
// The tutorial's high-level front end to Markov models: dependencies such as
// shared repair facilities, imperfect coverage, and failover sequencing are
// expressed as a small net, and the tool generates the underlying CTMC by
// reachability analysis. Immediate transitions (zero delay, probabilistic
// weights, priorities) produce *vanishing* markings that are eliminated on
// the fly, so the generated chain contains only tangible markings.
//
// Rewards are functions of the marking; steady-state / transient /
// accumulated expected rewards are delegated to the markov module.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "markov/ctmc.hpp"

namespace relkit::spn {

using PlaceId = std::size_t;
using TransId = std::size_t;
/// Token counts per place, indexed by PlaceId.
using Marking = std::vector<std::uint32_t>;

/// Marking-dependent firing rate of a timed transition.
using RateFn = std::function<double(const Marking&)>;
/// Enabling guard; evaluated after arc conditions.
using GuardFn = std::function<bool(const Marking&)>;
/// Reward rate assigned to a tangible marking.
using RewardFn = std::function<double(const Marking&)>;

/// The CTMC generated from an SRN by reachability analysis.
struct GeneratedChain {
  /// Anonymous states: state k (named "s<k>") is tangible marking k.
  markov::Ctmc ctmc;
  /// Tangible markings; index = CTMC state id.
  std::vector<Marking> markings;
  /// Initial distribution over tangible markings (the initial marking may
  /// be vanishing, spreading mass over several tangibles).
  std::vector<double> initial;
  /// Number of vanishing markings eliminated during generation.
  std::size_t vanishing_count = 0;
};

/// A stochastic reward net.
class Srn {
 public:
  /// Adds a place with an initial token count.
  PlaceId add_place(std::string name, std::uint32_t initial_tokens = 0);

  /// Adds a timed (exponential) transition with a constant rate.
  TransId add_timed(std::string name, double rate);
  /// Adds a timed transition with a marking-dependent rate; the function
  /// must return a rate > 0 for every marking in which the transition is
  /// enabled.
  TransId add_timed(std::string name, RateFn rate);
  /// Adds an immediate transition (fires in zero time). Among enabled
  /// immediates of the highest priority, one is chosen with probability
  /// proportional to its weight.
  TransId add_immediate(std::string name, double weight = 1.0,
                        unsigned priority = 1);

  /// Input arc: transition needs `mult` tokens in `p` and consumes them.
  void add_input_arc(TransId t, PlaceId p, std::uint32_t mult = 1);
  /// Output arc: firing deposits `mult` tokens into `p`.
  void add_output_arc(TransId t, PlaceId p, std::uint32_t mult = 1);
  /// Inhibitor arc: transition is disabled while `p` holds >= `mult` tokens.
  void add_inhibitor_arc(TransId t, PlaceId p, std::uint32_t mult = 1);
  /// Additional enabling guard.
  void set_guard(TransId t, GuardFn guard);

  std::size_t place_count() const { return places_.size(); }
  std::size_t transition_count() const { return transitions_.size(); }
  const std::string& place_name(PlaceId p) const;
  PlaceId place_index(const std::string& name) const;
  const Marking& initial_marking() const { return initial_; }

  /// True if `t` is enabled in `m` (arcs + inhibitors + guard).
  bool enabled(TransId t, const Marking& m) const;
  /// Marking after firing `t` from `m` (caller must check enabled()).
  Marking fire(TransId t, const Marking& m) const;

  /// True for timed (exponential) transitions, false for immediates.
  bool is_timed(TransId t) const;
  /// Firing rate of a timed transition in marking `m`.
  double rate_of(TransId t, const Marking& m) const;
  /// Weight / priority of an immediate transition.
  double weight_of(TransId t) const;
  unsigned priority_of(TransId t) const;
  const std::string& transition_name(TransId t) const;

  /// Generates the tangible-marking CTMC. Tangible markings are numbered
  /// in breadth-first discovery order; the successors of one firing are
  /// discovered in lexicographic marking order. Throws ModelError on an
  /// immediate-transition cycle (vanishing loop), on a timed transition with
  /// non-positive rate in an enabled marking, or when more than `max_states`
  /// tangible markings are reached.
  GeneratedChain generate(std::size_t max_states = 1u << 20) const;

  // ---- measures (each call generates and solves the chain) ----

  /// Steady-state expected reward rate (irreducible nets).
  double steady_state_reward(const RewardFn& reward) const;
  /// Expected instantaneous reward rate at time t.
  double transient_reward(const RewardFn& reward, double t) const;
  /// Expected reward accumulated over [0, t].
  double accumulated_reward(const RewardFn& reward, double t) const;
  /// Steady-state expected token count of a place.
  double expected_tokens(PlaceId p) const;
  /// Steady-state probability that `predicate` holds.
  double probability(const GuardFn& predicate) const;
  /// Mean time until `absorbed` first holds (the predicate must mark an
  /// absorbing set of tangible markings).
  double mean_time_to_absorption(const GuardFn& absorbed) const;

 private:
  class Reachability;  // generate()'s working state (srn.cpp)

  /// Writes the marking after firing `t` from `m` into `next`.
  void fire_into(TransId t, const Marking& m, Marking& next) const;

  struct Transition {
    std::string name;
    bool timed;
    RateFn rate;            // timed
    double weight = 1.0;    // immediate
    unsigned priority = 1;  // immediate
    GuardFn guard;
    std::vector<std::pair<PlaceId, std::uint32_t>> inputs;
    std::vector<std::pair<PlaceId, std::uint32_t>> outputs;
    std::vector<std::pair<PlaceId, std::uint32_t>> inhibitors;
  };

  /// enabled() without the id check, for generate()'s inner loops
  /// (defined in srn.cpp, its only user).
  static inline bool enabled_in(const Transition& tr, const Marking& m);

  std::vector<std::string> places_;
  std::map<std::string, PlaceId> place_index_;
  Marking initial_;
  std::vector<Transition> transitions_;
};

}  // namespace relkit::spn
