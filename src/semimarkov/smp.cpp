#include "semimarkov/smp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "common/quadrature.hpp"
#include "markov/dtmc.hpp"

namespace relkit::semimarkov {

StateId SemiMarkov::add_state(std::string name) {
  detail::require(!name.empty(), "SemiMarkov::add_state: empty name");
  if (index_.count(name)) {
    throw InvalidArgument("SemiMarkov::add_state: duplicate state '" + name +
                          "'");
  }
  const StateId id = names_.size();
  index_.emplace(name, id);
  names_.push_back(std::move(name));
  out_.emplace_back();
  mode_.push_back(Mode::kUnset);
  return id;
}

void SemiMarkov::add_transition(StateId from, StateId to, double prob,
                                DistPtr sojourn) {
  detail::require(from < names_.size() && to < names_.size(),
                  "SemiMarkov::add_transition: state out of range");
  detail::require(prob > 0.0 && prob <= 1.0,
                  "SemiMarkov::add_transition: prob in (0,1]");
  detail::require(sojourn != nullptr,
                  "SemiMarkov::add_transition: null distribution");
  if (mode_[from] == Mode::kRace) {
    throw InvalidArgument("SemiMarkov::add_transition: state '" +
                          names_[from] + "' already uses race mode");
  }
  mode_[from] = Mode::kKernel;
  out_[from].push_back({to, prob, std::move(sojourn)});
}

void SemiMarkov::add_race_transition(StateId from, StateId to, DistPtr clock) {
  detail::require(from < names_.size() && to < names_.size(),
                  "SemiMarkov::add_race_transition: state out of range");
  detail::require(clock != nullptr,
                  "SemiMarkov::add_race_transition: null distribution");
  if (mode_[from] == Mode::kKernel) {
    throw InvalidArgument("SemiMarkov::add_race_transition: state '" +
                          names_[from] + "' already uses kernel mode");
  }
  mode_[from] = Mode::kRace;
  out_[from].push_back({to, std::numeric_limits<double>::quiet_NaN(),
                        std::move(clock)});
}

const std::string& SemiMarkov::state_name(StateId s) const {
  detail::require(s < names_.size(), "SemiMarkov::state_name: out of range");
  return names_[s];
}

StateId SemiMarkov::state_index(const std::string& name) const {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  throw InvalidArgument("SemiMarkov::state_index: unknown state '" + name +
                        "'");
}

bool SemiMarkov::is_absorbing(StateId s) const {
  detail::require(s < names_.size(), "SemiMarkov::is_absorbing: out of range");
  return out_[s].empty();
}

void SemiMarkov::validate(StateId s) const {
  if (mode_[s] != Mode::kKernel) return;
  double total = 0.0;
  for (const auto& t : out_[s]) total += t.prob;
  if (!(std::abs(total - 1.0) < 1e-9)) {
    throw ModelError("SemiMarkov: branch probabilities out of state '" +
                     names_[s] + "' sum to " + std::to_string(total));
  }
}

double SemiMarkov::kernel_density(StateId s, std::size_t branch,
                                  double u) const {
  const auto& ts = out_[s];
  if (mode_[s] == Mode::kKernel) {
    return ts[branch].prob * ts[branch].dist->pdf(u);
  }
  double density = ts[branch].dist->pdf(u);
  for (std::size_t k = 0; k < ts.size(); ++k) {
    if (k == branch) continue;
    density *= ts[k].dist->survival(u);
  }
  return density;
}

std::vector<std::pair<StateId, double>> SemiMarkov::branch_probabilities(
    StateId s) const {
  detail::require(s < names_.size(),
                  "SemiMarkov::branch_probabilities: out of range");
  validate(s);
  std::vector<std::pair<StateId, double>> out;
  const auto& ts = out_[s];
  if (ts.empty()) return out;
  if (mode_[s] == Mode::kKernel) {
    for (const auto& t : ts) out.emplace_back(t.to, t.prob);
    return out;
  }
  // Race mode: p_j = int_0^inf f_j(u) prod_{k != j} S_k(u) du. The
  // deterministic distribution has no density; handle an atom at d by
  // adding prod_{k != j} S_k(d) times the *remaining* survival mass jump.
  double accounted = 0.0;
  for (std::size_t b = 0; b < ts.size(); ++b) {
    double p;
    const auto* det = dynamic_cast<const Deterministic*>(ts[b].dist.get());
    if (det != nullptr) {
      double surv_others = 1.0;
      for (std::size_t k = 0; k < ts.size(); ++k) {
        if (k == b) continue;
        surv_others *= ts[k].dist->survival(det->value());
      }
      p = surv_others;  // clock b fires exactly at its atom if others later
    } else {
      p = integrate_to_inf(
          [this, s, b](double u) { return kernel_density(s, b, u); }, 1e-10);
    }
    out.emplace_back(ts[b].to, p);
    accounted += p;
  }
  if (!(accounted > 1e-12)) {
    throw ModelError("SemiMarkov: race probabilities vanish in state '" +
                     names_[s] + "'");
  }
  // Normalize tiny numerical drift.
  for (auto& [to, p] : out) p /= accounted;
  return out;
}

double SemiMarkov::sojourn_survival(StateId s, double t) const {
  detail::require(s < names_.size(),
                  "SemiMarkov::sojourn_survival: out of range");
  if (out_[s].empty()) return 1.0;  // absorbing: never leaves
  if (t <= 0.0) return 1.0;
  if (mode_[s] == Mode::kKernel) {
    double surv = 0.0;
    for (const auto& tr : out_[s]) surv += tr.prob * tr.dist->survival(t);
    return surv;
  }
  double surv = 1.0;
  for (const auto& tr : out_[s]) surv *= tr.dist->survival(t);
  return surv;
}

double SemiMarkov::mean_sojourn(StateId s) const {
  detail::require(s < names_.size(), "SemiMarkov::mean_sojourn: out of range");
  validate(s);
  if (out_[s].empty()) {
    return std::numeric_limits<double>::infinity();
  }
  if (mode_[s] == Mode::kKernel) {
    double h = 0.0;
    for (const auto& tr : out_[s]) h += tr.prob * tr.dist->mean();
    return h;
  }
  return integrate_to_inf(
      [this, s](double u) { return sojourn_survival(s, u); }, 1e-10);
}

std::vector<double> SemiMarkov::steady_state() const {
  const std::size_t n = names_.size();
  detail::require_model(n >= 1, "SemiMarkov::steady_state: no states");
  markov::Dtmc embedded;
  for (StateId s = 0; s < n; ++s) {
    embedded.add_state(names_[s]);
  }
  for (StateId s = 0; s < n; ++s) {
    if (out_[s].empty()) {
      throw ModelError("SemiMarkov::steady_state: absorbing state '" +
                       names_[s] + "' in an irreducible analysis");
    }
    // Merge parallel branches to the same successor.
    std::map<StateId, double> merged;
    for (const auto& [to, p] : branch_probabilities(s)) merged[to] += p;
    for (const auto& [to, p] : merged) {
      if (to == s) continue;  // self-jumps do not affect occupancy ratios
      embedded.add_transition(s, to, p);
    }
    // Renormalize implicitly: if self-loop mass existed, scale the rest.
    const double self_mass = merged.count(s) ? merged[s] : 0.0;
    if (!(self_mass < 1.0 - 1e-12)) {
      throw ModelError("SemiMarkov::steady_state: state '" + names_[s] +
                       "' only jumps to itself");
    }
  }
  // Row sums may now be < 1 when self-loops were dropped; Dtmc requires
  // rows to sum to 1, so rebuild with normalization.
  markov::Dtmc normalized;
  for (StateId s = 0; s < n; ++s) normalized.add_state(names_[s]);
  for (StateId s = 0; s < n; ++s) {
    std::map<StateId, double> merged;
    for (const auto& [to, p] : branch_probabilities(s)) merged[to] += p;
    const double self_mass = merged.count(s) ? merged[s] : 0.0;
    for (const auto& [to, p] : merged) {
      if (to == s) continue;
      normalized.add_transition(s, to, p / (1.0 - self_mass));
    }
  }
  const std::vector<double> nu = normalized.steady_state();

  std::vector<double> pi(n, 0.0);
  double total = 0.0;
  for (StateId s = 0; s < n; ++s) {
    pi[s] = nu[s] * mean_sojourn(s);
    total += pi[s];
  }
  for (double& x : pi) x /= total;
  return pi;
}

std::vector<double> SemiMarkov::mean_first_passage(
    const std::vector<bool>& target) const {
  const std::size_t n = names_.size();
  detail::require(target.size() == n,
                  "mean_first_passage: target size mismatch");
  bool any = false;
  for (bool b : target) any = any || b;
  detail::require(any, "mean_first_passage: empty target set");

  // m_i = h_i + sum_{j not target} p_ij m_j for i not in target; m_i = 0
  // otherwise. Solve over non-target states.
  std::vector<std::size_t> rows;  // non-target states
  std::vector<std::size_t> ridx(n, SIZE_MAX);
  for (StateId s = 0; s < n; ++s) {
    if (!target[s]) {
      ridx[s] = rows.size();
      rows.push_back(s);
    }
  }
  const std::size_t m = rows.size();
  Matrix a(m, m);
  std::vector<double> b(m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const StateId s = rows[r];
    if (out_[s].empty()) {
      throw ModelError("mean_first_passage: absorbing state '" + names_[s] +
                       "' outside the target set");
    }
    a(r, r) = 1.0;
    b[r] = mean_sojourn(s);
    for (const auto& [to, p] : branch_probabilities(s)) {
      if (ridx[to] == SIZE_MAX) continue;
      a(r, ridx[to]) -= p;
    }
  }
  std::vector<double> sol;
  try {
    sol = lu_solve(a, b);
  } catch (const NumericalError&) {
    throw ModelError(
        "mean_first_passage: some state cannot reach the target set");
  }
  std::vector<double> out(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) out[rows[r]] = sol[r];
  return out;
}

std::vector<double> SemiMarkov::transient(StateId start, double t,
                                          std::size_t grid) const {
  const std::size_t n = names_.size();
  detail::require(start < n, "SemiMarkov::transient: start out of range");
  detail::require(t >= 0.0, "SemiMarkov::transient: t must be >= 0");
  detail::require(grid >= 2, "SemiMarkov::transient: grid too small");
  for (StateId s = 0; s < n; ++s) validate(s);

  if (t == 0.0) {
    std::vector<double> pi(n, 0.0);
    pi[start] = 1.0;
    return pi;
  }

  const double h = t / static_cast<double>(grid);

  // Kernel increments dk[s][branch][l] = K_ij(t_l) - K_ij(t_{l-1}) by the
  // trapezoid rule on the kernel density, plus explicit atoms for
  // deterministic race clocks.
  // V[m][i][j] = P(state j at time t_m | entered i at 0); we only need
  // j-distributions from every i, at every grid point (the convolution
  // needs all of them).
  std::vector<std::vector<std::vector<double>>> dk(n);
  for (StateId s = 0; s < n; ++s) {
    dk[s].assign(out_[s].size(), std::vector<double>(grid + 1, 0.0));
    for (std::size_t branch = 0; branch < out_[s].size(); ++branch) {
      const auto* det =
          dynamic_cast<const Deterministic*>(out_[s][branch].dist.get());
      if (det != nullptr) {
        // Atom at d: jump mass lands in the grid cell containing d. In race
        // mode the atom is weighted by the other clocks still running; in
        // kernel mode by the branch probability.
        const double d = det->value();
        if (d <= t + 1e-12) {
          double mass;
          if (mode_[s] == Mode::kRace) {
            mass = 1.0;
            for (std::size_t k = 0; k < out_[s].size(); ++k) {
              if (k == branch) continue;
              mass *= out_[s][k].dist->survival(d);
            }
          } else {
            mass = out_[s][branch].prob;
          }
          auto cell = static_cast<std::size_t>(std::ceil(d / h - 1e-12));
          cell = std::min(std::max<std::size_t>(cell, 1),
                          static_cast<std::size_t>(grid));
          dk[s][branch][cell] += mass;
        }
        continue;
      }
      double prev = kernel_density(s, branch, 0.0);
      if (!std::isfinite(prev)) prev = 0.0;
      for (std::size_t l = 1; l <= grid; ++l) {
        double cur = kernel_density(s, branch, static_cast<double>(l) * h);
        if (!std::isfinite(cur)) cur = 0.0;
        dk[s][branch][l] = 0.5 * (prev + cur) * h;
        prev = cur;
      }
    }
  }

  // March the renewal equation: V_i(t_m) = delta_i S_i(t_m) +
  // sum_branches sum_{l=1..m} dk[i][b][l] V_{to(b)}(t_{m-l}) (midpoint-in-
  // cell convolution, lag m-l refers to time remaining after the jump).
  // We store V for all start states because the convolution references them.
  std::vector<std::vector<std::vector<double>>> v(
      grid + 1,
      std::vector<std::vector<double>>(n, std::vector<double>(n, 0.0)));
  for (StateId i = 0; i < n; ++i) v[0][i][i] = 1.0;
  for (std::size_t m = 1; m <= grid; ++m) {
    const double tm = static_cast<double>(m) * h;
    for (StateId i = 0; i < n; ++i) {
      std::vector<double>& row = v[m][i];
      row.assign(n, 0.0);
      row[i] = sojourn_survival(i, tm);
      for (std::size_t branch = 0; branch < out_[i].size(); ++branch) {
        const StateId to = out_[i][branch].to;
        const auto& inc = dk[i][branch];
        for (std::size_t l = 1; l <= m; ++l) {
          const double w = inc[l];
          if (w == 0.0) continue;
          const std::vector<double>& tail = v[m - l][to];
          for (StateId j = 0; j < n; ++j) row[j] += w * tail[j];
        }
      }
    }
  }
  std::vector<double> result = v[grid][start];
  // Normalize the O(h^2) discretization drift.
  double total = 0.0;
  for (double x : result) total += x;
  if (total > 0.0) {
    for (double& x : result) x /= total;
  }
  return result;
}

}  // namespace relkit::semimarkov
