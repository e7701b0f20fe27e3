#include "semimarkov/mrgp.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "markov/dtmc.hpp"

namespace relkit::semimarkov {

Mrgp::Mrgp(markov::Ctmc subordinated) : chain_(std::move(subordinated)) {
  detail::require_model(chain_.state_count() >= 1, "Mrgp: empty chain");
}

std::size_t Mrgp::add_regeneration(markov::StateId entry,
                                   RegenerationRule rule) {
  detail::require(entry < chain_.state_count(),
                  "Mrgp::add_regeneration: entry out of range");
  detail::require_model(!chain_.is_absorbing(entry),
                        "Mrgp::add_regeneration: entry must be a transient "
                        "state of the subordinated chain");
  if (rule.timer != nullptr) {
    detail::require(rule.timer_branch.size() == chain_.state_count(),
                    "Mrgp::add_regeneration: timer_branch must cover every "
                    "subordinated state");
  }
  regens_.push_back({entry, std::move(rule)});
  return regens_.size() - 1;
}

void Mrgp::set_exit_branch(markov::StateId exit_state,
                           std::size_t regeneration_index) {
  detail::require(exit_state < chain_.state_count(),
                  "Mrgp::set_exit_branch: state out of range");
  if (!chain_.is_absorbing(exit_state)) {
    throw ModelError("Mrgp::set_exit_branch: '" +
                     chain_.state_name(exit_state) +
                     "' is not an exit (absorbing) state");
  }
  exit_branch_[exit_state] = regeneration_index;
}

Mrgp::CycleAnalysis Mrgp::analyze_cycle(std::size_t regen_index) const {
  const Regen& regen = regens_[regen_index];
  const std::size_t n = chain_.state_count();
  const auto pi0 = chain_.point_mass(regen.entry);

  CycleAnalysis out;
  out.time_in_state.assign(n, 0.0);
  out.next_regen_prob.assign(regens_.size(), 0.0);

  std::vector<double> exit_mass(n, 0.0);  // probability of early exit via a

  if (regen.rule.timer == nullptr) {
    // No timer: the cycle ends through an exit state; the classic
    // absorbing analysis gives both sojourns and exit probabilities.
    const auto res = chain_.absorbing_analysis(pi0);
    for (std::size_t j = 0; j < n; ++j) {
      if (!chain_.is_absorbing(j)) {
        out.time_in_state[j] = res.expected_sojourn[j];
        out.cycle_length += res.expected_sojourn[j];
      } else {
        exit_mass[j] = res.absorption_probability[j];
      }
    }
  } else {
    // Equally weighted quadrature nodes over the timer distribution: exact
    // single node for a deterministic timer, midpoint quantiles otherwise.
    // One series gives L(t) and pi(t) at every node.
    std::vector<double> times;
    if (const auto* det =
            dynamic_cast<const Deterministic*>(regen.rule.timer.get())) {
      times.push_back(det->value());
    } else {
      constexpr std::size_t kNodes = 192;
      for (std::size_t k = 0; k < kNodes; ++k) {
        const double p = (static_cast<double>(k) + 0.5) / kNodes;
        times.push_back(regen.rule.timer->quantile(p));
      }
    }
    const double w = 1.0 / static_cast<double>(times.size());

    const SparseMatrix q = chain_.sparse_generator();
    for (const markov::TransientPoint& node :
         chain_.transient_series(pi0, times)) {
      const auto& cum = node.cumulative;
      const auto& pit = node.pi;
      for (std::size_t j = 0; j < n; ++j) {
        if (chain_.is_absorbing(j)) continue;
        out.time_in_state[j] += w * cum[j];
        // Timer fires while in transient state j.
        const std::size_t target = regen.rule.timer_branch[j];
        detail::require(target < regens_.size(),
                        "Mrgp: timer_branch index out of range");
        out.next_regen_prob[target] += w * pit[j];
        // Early-exit flows accumulated from expected time * exit rate.
        for (std::size_t kk = q.row_begin(j); kk < q.row_end(j); ++kk) {
          const std::size_t to = q.col(kk);
          if (to != j && chain_.is_absorbing(to)) {
            exit_mass[to] += w * cum[j] * q.value(kk);
          }
        }
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      out.cycle_length += out.time_in_state[j];
    }
  }

  // Route early exits through their declared regeneration branches.
  for (std::size_t a = 0; a < n; ++a) {
    if (exit_mass[a] <= 1e-14) continue;
    const auto it = exit_branch_.find(a);
    if (it == exit_branch_.end()) {
      throw ModelError("Mrgp: subordinated exit state '" +
                       chain_.state_name(a) +
                       "' reachable but has no exit branch");
    }
    detail::require(it->second < regens_.size(),
                    "Mrgp: exit branch index out of range");
    out.next_regen_prob[it->second] += exit_mass[a];
  }

  // Sanity: branch mass must be a probability distribution.
  double total = 0.0;
  for (double p : out.next_regen_prob) total += p;
  if (!(std::abs(total - 1.0) < 1e-6)) {
    throw ModelError("Mrgp: cycle branch probabilities sum to " +
                     std::to_string(total) +
                     " (numerical quadrature too coarse or model "
                     "inconsistent)");
  }
  for (double& p : out.next_regen_prob) p /= total;
  return out;
}

std::vector<double> Mrgp::steady_state() const {
  detail::require_model(!regens_.empty(),
                        "Mrgp::steady_state: no regeneration states");
  const std::size_t m = regens_.size();

  std::vector<CycleAnalysis> cycles;
  cycles.reserve(m);
  for (std::size_t r = 0; r < m; ++r) cycles.push_back(analyze_cycle(r));

  // Embedded DTMC over regeneration states.
  std::vector<double> nu;
  if (m == 1) {
    nu = {1.0};
  } else {
    markov::Dtmc embedded;
    for (std::size_t r = 0; r < m; ++r) {
      std::string name = "r";
      name += std::to_string(r);
      embedded.add_state(std::move(name));
    }
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t r2 = 0; r2 < m; ++r2) {
        if (cycles[r].next_regen_prob[r2] > 0.0 && r2 != r) {
          embedded.add_transition(r, r2, cycles[r].next_regen_prob[r2]);
        }
      }
      // Self-loop mass handled implicitly: Dtmc rows must sum to 1, so add
      // the self transition when present.
      if (cycles[r].next_regen_prob[r] > 0.0) {
        embedded.add_transition(r, r, cycles[r].next_regen_prob[r]);
      }
    }
    nu = embedded.steady_state();
  }

  const std::size_t n = chain_.state_count();
  std::vector<double> pi(n, 0.0);
  double denom = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      pi[j] += nu[r] * cycles[r].time_in_state[j];
    }
    denom += nu[r] * cycles[r].cycle_length;
  }
  detail::require_model(denom > 0.0, "Mrgp::steady_state: zero cycle length");
  for (double& x : pi) x /= denom;
  return pi;
}

double Mrgp::steady_state_reward(const std::vector<double>& rewards) const {
  detail::require(rewards.size() == chain_.state_count(),
                  "Mrgp::steady_state_reward: reward size mismatch");
  const auto pi = steady_state();
  double acc = 0.0;
  for (std::size_t j = 0; j < pi.size(); ++j) acc += pi[j] * rewards[j];
  return acc;
}

}  // namespace relkit::semimarkov
