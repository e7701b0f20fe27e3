// Components of the combinatorial model types (RBD, fault tree, reliability
// graph): the behaviour model of one independent component, and the table
// that turns component names into BDD variables.
//
// A component is "up" with a probability that may be constant, derived from
// a lifetime distribution (no repair), or the 2-state CTMC availability of
// an exponentially failing/repairable unit.
//
// ComponentTable is the one place where these models set their variable
// order: a component gets the next BDD level when it is first used, and a
// name used again (a repeated leaf, a shared edge) is the same variable
// with its first model.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/distributions.hpp"
#include "common/error.hpp"

namespace relkit {

struct ComponentModel {
  enum class Kind { kFixedProb, kLifetime, kRepairable };
  Kind kind = Kind::kFixedProb;

  double prob_up = 1.0;        ///< kFixedProb
  DistPtr lifetime;            ///< kLifetime
  double failure_rate = 0.0;   ///< kRepairable (exponential)
  double repair_rate = 0.0;    ///< kRepairable (exponential)

  /// Time-independent probability of being up.
  static ComponentModel fixed(double prob_up) {
    detail::require(prob_up >= 0.0 && prob_up <= 1.0,
                    "ComponentModel::fixed: prob in [0,1]");
    ComponentModel m;
    m.kind = Kind::kFixedProb;
    m.prob_up = prob_up;
    return m;
  }

  /// Non-repairable component with a lifetime distribution.
  static ComponentModel with_lifetime(DistPtr lifetime) {
    detail::require(lifetime != nullptr,
                    "ComponentModel::with_lifetime: null distribution");
    ComponentModel m;
    m.kind = Kind::kLifetime;
    m.lifetime = std::move(lifetime);
    return m;
  }

  /// Repairable component (exponential failure/repair), for availability.
  static ComponentModel repairable(double failure_rate, double repair_rate) {
    detail::require(failure_rate > 0.0 && repair_rate > 0.0,
                    "ComponentModel::repairable: rates must be > 0");
    ComponentModel m;
    m.kind = Kind::kRepairable;
    m.failure_rate = failure_rate;
    m.repair_rate = repair_rate;
    return m;
  }

  /// P(component up at time t). For kRepairable this is the 2-state CTMC
  /// closed form A(t) = mu/(l+mu) + l/(l+mu) e^{-(l+mu)t}.
  double prob_up_at(double t) const {
    switch (kind) {
      case Kind::kFixedProb:
        return prob_up;
      case Kind::kLifetime:
        return lifetime->survival(t);
      case Kind::kRepairable: {
        const double l = failure_rate, mu = repair_rate;
        return mu / (l + mu) + l / (l + mu) * std::exp(-(l + mu) * t);
      }
    }
    return 0.0;
  }

  /// Limiting probability of being up (steady-state availability for
  /// kRepairable; 0 for kLifetime).
  double prob_up_limit() const {
    switch (kind) {
      case Kind::kFixedProb:
        return prob_up;
      case Kind::kLifetime:
        return 0.0;
      case Kind::kRepairable:
        return repair_rate / (failure_rate + repair_rate);
    }
    return 0.0;
  }
};

/// Variables of one combinatorial model: level i is component names()[i]
/// with behaviour models()[i].
class ComponentTable {
 public:
  /// Level of `name`, registering it with `model` on first use. A known
  /// name keeps its level and its first model.
  std::uint32_t intern(const std::string& name, const ComponentModel& model) {
    const auto [it, added] =
        index_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
    if (added) {
      names_.push_back(name);
      models_.push_back(model);
    }
    return it->second;
  }

  /// Level of `name`, if it has been interned.
  std::optional<std::uint32_t> find(const std::string& name) const {
    const auto it = index_.find(name);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  std::size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<ComponentModel>& models() const { return models_; }

  /// P(component up) at time t by level; the limit when t < 0.
  std::vector<double> probs_up(double t) const {
    std::vector<double> p(models_.size());
    for (std::size_t i = 0; i < models_.size(); ++i) {
      p[i] = t < 0.0 ? models_[i].prob_up_limit() : models_[i].prob_up_at(t);
    }
    return p;
  }

  /// The value `prob` gives each component, by level. Throws
  /// InvalidArgument prefixed with `context` when a component is missing or
  /// a value lies outside [0,1].
  std::vector<double> probs_from(const std::map<std::string, double>& prob,
                                 std::string_view context) const {
    std::vector<double> p(names_.size());
    for (std::size_t i = 0; i < names_.size(); ++i) {
      const auto it = prob.find(names_[i]);
      if (it == prob.end()) {
        throw InvalidArgument(std::string(context) +
                              ": missing probability for '" + names_[i] +
                              "'");
      }
      if (!(it->second >= 0.0 && it->second <= 1.0)) {
        throw InvalidArgument(std::string(context) +
                              ": probability out of [0,1]");
      }
      p[i] = it->second;
    }
    return p;
  }

  /// Level sets (e.g. bdd::Manager::minimal_solutions) as name sets.
  std::vector<std::vector<std::string>> name_sets(
      const std::vector<std::vector<std::uint32_t>>& sets) const {
    std::vector<std::vector<std::string>> out;
    out.reserve(sets.size());
    for (const auto& set : sets) {
      std::vector<std::string>& named = out.emplace_back();
      named.reserve(set.size());
      for (const auto v : set) named.push_back(names_[v]);
    }
    return out;
  }

 private:
  std::vector<std::string> names_;
  std::vector<ComponentModel> models_;
  std::unordered_map<std::string, std::uint32_t> index_;
};

}  // namespace relkit
