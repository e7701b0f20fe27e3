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

  // Success function over x_i = "component i up". Leaves take their
  // variable levels in first-appearance DFS order (a good static ordering
  // for series-parallel structures).
  std::function<bdd::NodeRef(const Block&)> build = [&](const Block& b) {
    if (b.kind() == Block::Kind::kComponent) {
      const auto it = components.find(b.component_name());
      if (it == components.end()) {
        throw ModelError("Rbd: leaf references unknown component '" +
                         b.component_name() + "'");
      }
      return mgr_.var(table_.intern(it->first, it->second));
    }
    std::vector<bdd::NodeRef> refs;
    refs.reserve(b.children().size());
    for (const auto& c : b.children()) refs.push_back(build(*c));
    switch (b.kind()) {
      case Block::Kind::kSeries:
        return mgr_.and_all(refs);
      case Block::Kind::kParallel:
        return mgr_.or_all(refs);
      default:
        return mgr_.at_least(b.k(), refs);
    }
  };
  success_ = build(*root);
  // Failure over y_i = "component i down" is the dual f(y) = !success(!y);
  // it is coherent in the y variables, so its minimal solutions are the
  // minimal cut sets.
  failure_ = mgr_.dual(success_);
}

double Rbd::reliability(double t) const {
  detail::require(t >= 0.0, "Rbd::reliability: t must be >= 0");
  return mgr_.prob(success_, table_.probs_up(t));
}

double Rbd::availability() const {
  return mgr_.prob(success_, table_.probs_up(-1.0));
}

double Rbd::prob_up(const std::map<std::string, double>& prob) const {
  return mgr_.prob(success_, table_.probs_from(prob, "Rbd::prob_up"));
}

double Rbd::mttf() const {
  for (const auto& m : table_.models()) {
    detail::require_model(m.kind != ComponentModel::Kind::kRepairable,
                          "Rbd::mttf: undefined with repairable components; "
                          "use availability() instead");
  }
  return integrate_to_inf([this](double t) { return reliability(t); }, 1e-10);
}

std::vector<std::vector<std::string>> Rbd::minimal_cut_sets(
    std::size_t limit) const {
  return table_.name_sets(mgr_.minimal_solutions(failure_, limit));
}

std::vector<std::vector<std::string>> Rbd::minimal_path_sets(
    std::size_t limit) const {
  return table_.name_sets(mgr_.minimal_solutions(success_, limit));
}

std::vector<ImportanceRow> Rbd::importance(double t) const {
  const std::vector<double> p = table_.probs_up(t);
  const double r_sys = mgr_.prob(success_, p);
  const double unrel = 1.0 - r_sys;

  // Fussell-Vesely needs the mincut structure; reuse the failure BDD and
  // down-variable probabilities q_i = 1 - p_i.
  std::vector<double> q(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) q[i] = 1.0 - p[i];

  std::vector<ImportanceRow> rows;
  rows.reserve(table_.size());
  const auto cuts = mgr_.minimal_solutions(failure_);
  for (std::size_t i = 0; i < table_.size(); ++i) {
    ImportanceRow row;
    row.component = table_.names()[i];
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
