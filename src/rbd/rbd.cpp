#include "rbd/rbd.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error.hpp"
#include "common/quadrature.hpp"

namespace relkit::rbd {

BlockPtr Block::component(std::string name) {
  detail::require(!name.empty(), "Block::component: empty name");
  return BlockPtr(new Block(Kind::kComponent, std::move(name), {}, 0));
}

BlockPtr Block::series(std::vector<BlockPtr> children) {
  detail::require_model(!children.empty(), "series block needs children");
  return BlockPtr(new Block(Kind::kSeries, {}, std::move(children), 0));
}

BlockPtr Block::parallel(std::vector<BlockPtr> children) {
  detail::require_model(!children.empty(), "parallel block needs children");
  return BlockPtr(new Block(Kind::kParallel, {}, std::move(children), 0));
}

BlockPtr Block::k_of_n(std::uint32_t k, std::vector<BlockPtr> children) {
  detail::require_model(!children.empty(), "k-of-n block needs children");
  detail::require_model(k >= 1 && k <= children.size(),
                        "k-of-n block: require 1 <= k <= n");
  return BlockPtr(new Block(Kind::kKofN, {}, std::move(children), k));
}

Rbd::Rbd(BlockPtr root, std::map<std::string, ComponentModel> components) {
  detail::require_model(root != nullptr, "Rbd: null root block");

  // Assign variable levels in first-appearance DFS order (a good static
  // ordering for series-parallel structures).
  std::function<void(const Block&)> collect = [&](const Block& b) {
    if (b.kind() == Block::Kind::kComponent) {
      const auto it = components.find(b.component_name());
      detail::require_model(it != components.end(),
                            "Rbd: leaf references unknown component '" +
                                b.component_name() + "'");
      if (!index_.count(b.component_name())) {
        const auto level = static_cast<std::uint32_t>(names_.size());
        index_.emplace(b.component_name(), level);
        names_.push_back(b.component_name());
        models_.push_back(it->second);
      }
      return;
    }
    for (const auto& c : b.children()) collect(*c);
  };
  collect(*root);

  // Success function over x_i = "component i up".
  std::function<bdd::NodeRef(const Block&)> build_up = [&](const Block& b) {
    switch (b.kind()) {
      case Block::Kind::kComponent:
        return mgr_.var(index_.at(b.component_name()));
      case Block::Kind::kSeries: {
        std::vector<bdd::NodeRef> refs;
        refs.reserve(b.children().size());
        for (const auto& c : b.children()) refs.push_back(build_up(*c));
        return mgr_.and_all(refs);
      }
      case Block::Kind::kParallel: {
        std::vector<bdd::NodeRef> refs;
        refs.reserve(b.children().size());
        for (const auto& c : b.children()) refs.push_back(build_up(*c));
        return mgr_.or_all(refs);
      }
      case Block::Kind::kKofN: {
        std::vector<bdd::NodeRef> refs;
        refs.reserve(b.children().size());
        for (const auto& c : b.children()) refs.push_back(build_up(*c));
        return mgr_.at_least(b.k(), refs);
      }
    }
    return bdd::Manager::zero();
  };
  // Failure function over y_i = "component i down" (dual gates), used for
  // minimal cut sets; it is coherent in the y variables.
  std::function<bdd::NodeRef(const Block&)> build_down = [&](const Block& b) {
    switch (b.kind()) {
      case Block::Kind::kComponent:
        return mgr_.var(index_.at(b.component_name()));
      case Block::Kind::kSeries: {
        std::vector<bdd::NodeRef> refs;
        refs.reserve(b.children().size());
        for (const auto& c : b.children()) refs.push_back(build_down(*c));
        return mgr_.or_all(refs);
      }
      case Block::Kind::kParallel: {
        std::vector<bdd::NodeRef> refs;
        refs.reserve(b.children().size());
        for (const auto& c : b.children()) refs.push_back(build_down(*c));
        return mgr_.and_all(refs);
      }
      case Block::Kind::kKofN: {
        // Success needs >= k up; failure means >= n-k+1 down.
        std::vector<bdd::NodeRef> refs;
        refs.reserve(b.children().size());
        for (const auto& c : b.children()) refs.push_back(build_down(*c));
        const auto need =
            static_cast<std::uint32_t>(refs.size()) - b.k() + 1;
        return mgr_.at_least(need, refs);
      }
    }
    return bdd::Manager::zero();
  };

  success_ = build_up(*root);
  failure_ = build_down(*root);
}

std::vector<double> Rbd::probs_at(double t) const {
  std::vector<double> p(models_.size());
  for (std::size_t i = 0; i < models_.size(); ++i) {
    p[i] = t < 0.0 ? models_[i].prob_up_limit() : models_[i].prob_up_at(t);
  }
  return p;
}

double Rbd::prob_vector_eval(const std::vector<double>& p) const {
  return mgr_.prob(success_, p);
}

double Rbd::reliability(double t) const {
  detail::require(t >= 0.0, "Rbd::reliability: t must be >= 0");
  return prob_vector_eval(probs_at(t));
}

double Rbd::availability() const { return prob_vector_eval(probs_at(-1.0)); }

double Rbd::prob_up(const std::map<std::string, double>& prob) const {
  std::vector<double> p(models_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const auto it = prob.find(names_[i]);
    if (it == prob.end()) {
      throw InvalidArgument("Rbd::prob_up: missing probability for '" +
                            names_[i] + "'");
    }
    detail::require(it->second >= 0.0 && it->second <= 1.0,
                    "Rbd::prob_up: probability out of [0,1]");
    p[i] = it->second;
  }
  return prob_vector_eval(p);
}

double Rbd::mttf() const {
  for (const auto& m : models_) {
    detail::require_model(m.kind != ComponentModel::Kind::kRepairable,
                          "Rbd::mttf: undefined with repairable components; "
                          "use availability() instead");
  }
  return integrate_to_inf([this](double t) { return reliability(t); }, 1e-10);
}

std::vector<std::vector<std::string>> Rbd::minimal_cut_sets(
    std::size_t limit) const {
  const auto raw = mgr_.minimal_solutions(failure_, limit);
  std::vector<std::vector<std::string>> out;
  out.reserve(raw.size());
  for (const auto& cut : raw) {
    std::vector<std::string> named;
    named.reserve(cut.size());
    for (const auto v : cut) named.push_back(names_[v]);
    out.push_back(std::move(named));
  }
  return out;
}

std::vector<std::vector<std::string>> Rbd::minimal_path_sets(
    std::size_t limit) const {
  const auto raw = mgr_.minimal_solutions(success_, limit);
  std::vector<std::vector<std::string>> out;
  out.reserve(raw.size());
  for (const auto& path : raw) {
    std::vector<std::string> named;
    named.reserve(path.size());
    for (const auto v : path) named.push_back(names_[v]);
    out.push_back(std::move(named));
  }
  return out;
}

std::vector<ImportanceRow> Rbd::importance(double t) const {
  const std::vector<double> p = probs_at(t);
  const double r_sys = prob_vector_eval(p);
  const double unrel = 1.0 - r_sys;

  // Fussell-Vesely needs the mincut structure; reuse the failure BDD and
  // down-variable probabilities q_i = 1 - p_i.
  std::vector<double> q(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) q[i] = 1.0 - p[i];

  std::vector<ImportanceRow> rows;
  rows.reserve(names_.size());
  const auto cuts = mgr_.minimal_solutions(failure_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    ImportanceRow row;
    row.component = names_[i];
    row.birnbaum =
        mgr_.birnbaum(success_, p, static_cast<std::uint32_t>(i));
    row.criticality =
        unrel > 0.0 ? row.birnbaum * q[i] / unrel : 0.0;
    // FV_i = P(union of mincuts containing i) / P(failure), approximated by
    // the standard rare-event sum of cut products (upper bound form).
    double fv_num = 0.0;
    for (const auto& cut : cuts) {
      if (std::find(cut.begin(), cut.end(), static_cast<std::uint32_t>(i)) ==
          cut.end()) {
        continue;
      }
      double prod = 1.0;
      for (const auto v : cut) prod *= q[v];
      fv_num += prod;
    }
    row.fussell_vesely = unrel > 0.0 ? std::min(1.0, fv_num / unrel) : 0.0;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::size_t Rbd::bdd_node_count() const { return mgr_.node_count(success_); }

}  // namespace relkit::rbd
