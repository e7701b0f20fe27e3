#include "dft/dft.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/quadrature.hpp"

namespace relkit::dft {

NodePtr Node::basic(std::string name) {
  detail::require(!name.empty(), "dft::Node::basic: empty name");
  return NodePtr(new Node(Kind::kBasic, std::move(name), {}, 0, 1.0));
}

NodePtr Node::and_gate(std::vector<NodePtr> children) {
  detail::require_model(!children.empty(), "dft AND gate needs inputs");
  return NodePtr(new Node(Kind::kAnd, {}, std::move(children), 0, 1.0));
}

NodePtr Node::or_gate(std::vector<NodePtr> children) {
  detail::require_model(!children.empty(), "dft OR gate needs inputs");
  return NodePtr(new Node(Kind::kOr, {}, std::move(children), 0, 1.0));
}

NodePtr Node::k_of_n_gate(std::uint32_t k, std::vector<NodePtr> children) {
  detail::require_model(!children.empty() && k >= 1 && k <= children.size(),
                        "dft k-of-n gate: bad shape");
  return NodePtr(new Node(Kind::kKofN, {}, std::move(children), k, 1.0));
}

NodePtr Node::pand_gate(std::string gate_name, std::vector<NodePtr> children) {
  detail::require(!gate_name.empty(), "dft PAND gate: empty name");
  detail::require_model(children.size() >= 2,
                        "dft PAND gate needs >= 2 inputs");
  for (const auto& c : children) {
    detail::require_model(c->kind() == Kind::kBasic,
                          "dft PAND gate inputs must be basic events");
  }
  return NodePtr(
      new Node(Kind::kPand, std::move(gate_name), std::move(children), 0, 1.0));
}

NodePtr Node::spare_gate(std::string gate_name, std::vector<NodePtr> children,
                         double dormancy) {
  detail::require(!gate_name.empty(), "dft SPARE gate: empty name");
  detail::require_model(children.size() >= 2,
                        "dft SPARE gate needs a primary and >= 1 spare");
  detail::require(dormancy >= 0.0 && dormancy <= 1.0,
                  "dft SPARE gate: dormancy in [0,1]");
  for (const auto& c : children) {
    detail::require_model(c->kind() == Kind::kBasic,
                          "dft SPARE gate inputs must be basic events");
  }
  return NodePtr(new Node(Kind::kSpare, std::move(gate_name),
                          std::move(children), 0, dormancy));
}

// ----------------------------------------------------------- CtmcLifetime

CtmcLifetime::CtmcLifetime(markov::Ctmc chain, std::vector<double> initial,
                           std::vector<bool> fired)
    : chain_(std::move(chain)), initial_(std::move(initial)),
      fired_(std::move(fired)) {
  detail::require(initial_.size() == chain_.state_count() &&
                      fired_.size() == chain_.state_count(),
                  "CtmcLifetime: size mismatch");
  bool any = false;
  for (std::size_t s = 0; s < fired_.size(); ++s) {
    if (fired_[s]) {
      detail::require_model(chain_.is_absorbing(s),
                            "CtmcLifetime: firing states must be absorbing");
      any = true;
    }
  }
  detail::require_model(any, "CtmcLifetime: no firing state");

  // Firing probability via absorbing analysis.
  const auto res = chain_.absorbing_analysis(initial_);
  fire_prob_ = 0.0;
  for (std::size_t s = 0; s < fired_.size(); ++s) {
    if (fired_[s]) fire_prob_ += res.absorption_probability[s];
  }
  detail::require_model(fire_prob_ > 1e-15,
                        "CtmcLifetime: event can never fire");

  // Exact first two moments of the time to absorption (into ANY absorbing
  // state): the absorption time is phase-type over the transient block
  // Q_TT, so E[T] = tau 1 and E[T^2] = 2 b 1 where tau Q_TT = -pi0_T and
  // b Q_TT = -tau. Used both for the reported moments and for a tail-guard
  // horizon beyond which cdf(t) == fire_prob_ to double precision — so a
  // probe at t = 1e9 does not trigger an O(q t) uniformization.
  {
    std::vector<std::size_t> tstates, tindex(chain_.state_count(), SIZE_MAX);
    for (std::size_t s = 0; s < chain_.state_count(); ++s) {
      if (!chain_.is_absorbing(s)) {
        tindex[s] = tstates.size();
        tstates.push_back(s);
      }
    }
    const std::size_t m = tstates.size();
    const Matrix q = chain_.dense_generator();
    Matrix qtt(m, m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        qtt(i, j) = q(tstates[i], tstates[j]);
      }
    }
    std::vector<double> rhs(m);
    for (std::size_t i = 0; i < m; ++i) rhs[i] = -initial_[tstates[i]];
    const std::vector<double> tau = lu_solve_transposed(qtt, rhs);
    for (std::size_t i = 0; i < m; ++i) rhs[i] = -tau[i];
    const std::vector<double> b = lu_solve_transposed(qtt, rhs);
    const double m1_abs = sum(tau);
    const double m2_abs = 2.0 * sum(b);
    const double sd_abs = std::sqrt(std::max(0.0, m2_abs - m1_abs * m1_abs));
    horizon_ = m1_abs + 60.0 * sd_abs + 1e-300;

    if (fire_prob_ > 1.0 - 1e-12) {
      mean_ = m1_abs;
      second_ = m2_abs;
    } else {
      mean_ = std::numeric_limits<double>::infinity();
      second_ = std::numeric_limits<double>::infinity();
    }
  }
}

double CtmcLifetime::cdf(double t) const {
  if (t <= 0.0) return 0.0;
  if (t > horizon_) return fire_prob_;
  const auto pi = chain_.transient(initial_, t);
  double p = 0.0;
  for (std::size_t s = 0; s < fired_.size(); ++s) {
    if (fired_[s]) p += pi[s];
  }
  return std::clamp(p, 0.0, 1.0);
}

double CtmcLifetime::pdf(double t) const {
  if (t < 0.0) return 0.0;
  if (t > horizon_) return 0.0;
  // Flow rate into firing states: sum over transient states of
  // pi_s(t) * rate(s -> fired).
  const auto pi = chain_.transient(initial_, t);
  const SparseMatrix q = chain_.sparse_generator();
  double flow = 0.0;
  for (std::size_t s = 0; s < fired_.size(); ++s) {
    if (fired_[s] || pi[s] == 0.0) continue;
    for (std::size_t k = q.row_begin(s); k < q.row_end(s); ++k) {
      if (q.col(k) != s && fired_[q.col(k)]) flow += pi[s] * q.value(k);
    }
  }
  return flow;
}

double CtmcLifetime::mean() const { return mean_; }

double CtmcLifetime::variance() const {
  if (!std::isfinite(mean_)) return std::numeric_limits<double>::infinity();
  return std::max(0.0, second_ - mean_ * mean_);
}

double CtmcLifetime::sample(Rng& rng) const {
  // Token game until absorption; defective paths return +infinity.
  const SparseMatrix q = chain_.sparse_generator();
  // Choose start state.
  double u = rng.uniform();
  std::size_t state = 0;
  for (std::size_t s = 0; s < initial_.size(); ++s) {
    if (u < initial_[s]) {
      state = s;
      break;
    }
    u -= initial_[s];
  }
  double now = 0.0;
  for (int guard = 0; guard < 1000000; ++guard) {
    if (chain_.is_absorbing(state)) {
      return fired_[state] ? now : std::numeric_limits<double>::infinity();
    }
    const double exit = chain_.exit_rate(state);
    now += -std::log(rng.uniform_pos()) / exit;
    double pick = rng.uniform() * exit;
    std::size_t next = state;
    for (std::size_t k = q.row_begin(state); k < q.row_end(state); ++k) {
      if (q.col(k) == state) continue;
      if (pick < q.value(k)) {
        next = q.col(k);
        break;
      }
      pick -= q.value(k);
    }
    state = next;
  }
  throw NumericalError("CtmcLifetime::sample: chain did not absorb");
}

std::string CtmcLifetime::describe() const {
  std::ostringstream os;
  os << "ctmc_lifetime(states=" << chain_.state_count()
     << ", p_fire=" << fire_prob_ << ")";
  return os.str();
}

// ------------------------------------------------------------------- Dft

namespace {

// Builds the PAND module chain: inputs must fail in order 0,1,...,n-1.
// State: how many leading inputs have failed in order, with all later
// inputs still racing; any out-of-order failure moves to a dead state.
DistPtr pand_lifetime(const std::vector<double>& rates) {
  const std::size_t n = rates.size();
  markov::Ctmc c;
  // States 0..n-1: "first s inputs failed in order, rest alive".
  for (std::size_t s = 0; s < n; ++s) {
    c.add_state("ord" + std::to_string(s));
  }
  const auto fired = c.add_state("fired");
  const auto dead = c.add_state("dead");  // out-of-order: never fires
  for (std::size_t s = 0; s < n; ++s) {
    // Next-in-order failure advances.
    c.add_transition(s, s + 1 == n ? fired : s + 1, rates[s]);
    // Any later input failing first kills the order condition.
    double later = 0.0;
    for (std::size_t j = s + 1; j < n; ++j) later += rates[j];
    if (later > 0.0) c.add_transition(s, dead, later);
  }
  std::vector<double> init(c.state_count(), 0.0);
  init[0] = 1.0;
  std::vector<bool> fire(c.state_count(), false);
  fire[fired] = true;
  return std::make_shared<CtmcLifetime>(std::move(c), std::move(init),
                                        std::move(fire));
}

// Builds the SPARE module chain. children rates: [primary, spare1, ...].
// State: (active unit index a in 0..n-1 or none, set of dormant spares
// alive). With ordered activation and identical treatment, track:
//   a  = index of the currently active unit (0 = primary),
//   d  = bitmask of spares still alive and dormant (indices 1..n-1 > a).
// Encoded explicitly through a small map.
DistPtr spare_lifetime(const std::vector<double>& rates, double dormancy) {
  const std::size_t n = rates.size();
  detail::require(n <= 16, "spare gate: too many units");

  struct State {
    std::size_t active;      // n = none (all failed)
    std::uint32_t dormant;   // bitmask over 1..n-1
    bool operator<(const State& o) const {
      return active != o.active ? active < o.active : dormant < o.dormant;
    }
  };
  markov::Ctmc c;
  std::map<State, markov::StateId> ids;
  std::vector<State> todo;
  const auto intern = [&](const State& s) {
    const auto it = ids.find(s);
    if (it != ids.end()) return it->second;
    const auto id = c.add_states(1);  // named "s<id>"
    ids.emplace(s, id);
    todo.push_back(s);
    return id;
  };

  std::uint32_t all_spares = 0;
  for (std::size_t i = 1; i < n; ++i) all_spares |= (1u << i);
  const State start{0, all_spares};
  const auto start_id = intern(start);
  (void)start_id;

  while (!todo.empty()) {
    const State s = todo.back();
    todo.pop_back();
    const auto sid = ids.at(s);
    if (s.active == n) continue;  // fired (absorbing)

    // Active unit fails -> promote the lowest-index dormant spare.
    {
      State next = s;
      std::size_t promote = n;
      for (std::size_t i = 1; i < n; ++i) {
        if (next.dormant & (1u << i)) {
          promote = i;
          break;
        }
      }
      if (promote < n) {
        next.active = promote;
        next.dormant &= ~(1u << promote);
      } else {
        next.active = n;  // no spare left: gate fires
      }
      c.add_transition(sid, intern(next), rates[s.active]);
    }
    // Each dormant spare can fail in dormancy.
    if (dormancy > 0.0) {
      for (std::size_t i = 1; i < n; ++i) {
        if (!(s.dormant & (1u << i))) continue;
        State next = s;
        next.dormant &= ~(1u << i);
        c.add_transition(sid, intern(next), dormancy * rates[i]);
      }
    }
  }

  std::vector<double> init(c.state_count(), 0.0);
  init[ids.at(start)] = 1.0;
  std::vector<bool> fire(c.state_count(), false);
  for (const auto& [st, id] : ids) {
    if (st.active == n) fire[id] = true;
  }
  return std::make_shared<CtmcLifetime>(std::move(c), std::move(init),
                                        std::move(fire));
}

}  // namespace

Dft::Dft(NodePtr top, std::map<std::string, double> rates) {
  detail::require_model(top != nullptr, "Dft: null top node");

  // Pass 1: collect usage counts of basic events and validate rates exist.
  std::map<std::string, int> uses;
  std::set<const Node*> dynamic_gates;
  std::function<void(const Node&)> scan = [&](const Node& node) {
    switch (node.kind()) {
      case Node::Kind::kBasic: {
        const auto rate = rates.find(node.name());
        if (rate == rates.end()) {
          throw ModelError("Dft: no rate for basic event '" + node.name() +
                           "'");
        }
        if (!(rate->second > 0.0)) {
          throw InvalidArgument("Dft: rate must be > 0 for '" + node.name() +
                                "'");
        }
        ++uses[node.name()];
        return;
      }
      case Node::Kind::kPand:
      case Node::Kind::kSpare:
        dynamic_gates.insert(&node);
        [[fallthrough]];
      default:
        for (const auto& ch : node.children()) scan(*ch);
    }
  };
  scan(*top);

  // Module independence: dynamic-gate inputs used exactly once.
  for (const Node* g : dynamic_gates) {
    for (const auto& ch : g->children()) {
      if (uses.at(ch->name()) != 1) {
        throw ModelError("Dft: basic event '" + ch->name() +
                         "' feeds a dynamic gate but is shared — "
                         "module independence violated");
      }
    }
  }

  // Pass 2: translate into a static fault tree. Dynamic gates become
  // pseudo-events carrying a CtmcLifetime.
  std::map<std::string, ftree::EventModel> events;
  std::function<ftree::NodePtr(const Node&)> build =
      [&](const Node& node) -> ftree::NodePtr {
    switch (node.kind()) {
      case Node::Kind::kBasic: {
        if (!events.count(node.name())) {
          events.emplace(node.name(),
                         ftree::EventModel::with_lifetime(
                             exponential(rates.at(node.name()))));
        }
        return ftree::Node::basic(node.name());
      }
      case Node::Kind::kAnd: {
        std::vector<ftree::NodePtr> ch;
        for (const auto& c : node.children()) ch.push_back(build(*c));
        return ftree::Node::and_gate(std::move(ch));
      }
      case Node::Kind::kOr: {
        std::vector<ftree::NodePtr> ch;
        for (const auto& c : node.children()) ch.push_back(build(*c));
        return ftree::Node::or_gate(std::move(ch));
      }
      case Node::Kind::kKofN: {
        std::vector<ftree::NodePtr> ch;
        for (const auto& c : node.children()) ch.push_back(build(*c));
        return ftree::Node::k_of_n_gate(node.k(), std::move(ch));
      }
      case Node::Kind::kPand: {
        std::vector<double> in_rates;
        for (const auto& c : node.children()) {
          in_rates.push_back(rates.at(c->name()));
        }
        if (events.count(node.name())) {
          throw ModelError("Dft: duplicate gate name '" + node.name() + "'");
        }
        events.emplace(node.name(), ftree::EventModel::with_lifetime(
                                        pand_lifetime(in_rates)));
        ++modules_;
        return ftree::Node::basic(node.name());
      }
      case Node::Kind::kSpare: {
        std::vector<double> in_rates;
        for (const auto& c : node.children()) {
          in_rates.push_back(rates.at(c->name()));
        }
        if (events.count(node.name())) {
          throw ModelError("Dft: duplicate gate name '" + node.name() + "'");
        }
        events.emplace(node.name(),
                       ftree::EventModel::with_lifetime(
                           spare_lifetime(in_rates, node.dormancy())));
        ++modules_;
        return ftree::Node::basic(node.name());
      }
    }
    throw ModelError("Dft: unknown node kind");
  };

  const ftree::NodePtr static_top = build(*top);
  tree_ = std::make_unique<ftree::FaultTree>(static_top, std::move(events));

  // Defect of the top event: probe the limit.
  top_fire_prob_ = tree_->top_probability(1e9);
}

double Dft::unreliability(double t) const {
  detail::require(t >= 0.0, "Dft::unreliability: t must be >= 0");
  return tree_->top_probability(t);
}

double Dft::reliability(double t) const { return 1.0 - unreliability(t); }

double Dft::mttf() const {
  detail::require_model(top_fire_prob_ > 1.0 - 1e-9,
                        "Dft::mttf: top event is defective (occurs with "
                        "probability " + std::to_string(top_fire_prob_) +
                        " < 1); MTTF is infinite");
  return integrate_to_inf([this](double t) { return reliability(t); }, 1e-9);
}

}  // namespace relkit::dft
