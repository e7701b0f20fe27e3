// Reliability Block Diagrams (RBD).
//
// The first non-state-space model type of the tutorial. An RBD is a
// series/parallel/k-of-n composition of blocks; a leaf block references a
// named component. The same component may appear in several leaves (that is
// how non-series-parallel structures such as the bridge are expressed), and
// the BDD compilation handles such repeated events exactly.
//
// Components are independent — the tutorial's key efficiency assumption —
// and each carries one of three behaviour models:
//   * fixed probability of being up (time-independent studies),
//   * a lifetime distribution (reliability analysis, no repair),
//   * exponential failure + repair rates (availability analysis).
//
// Compilation walks the diagram once, giving each component its BDD level
// in first-appearance DFS order (a ComponentTable) while it builds the
// success function. The failure function over "down" variables, which
// yields the minimal cut sets, is that BDD's dual.
//
// Measures: reliability R(t), MTTF, steady-state and instantaneous
// availability, Birnbaum / criticality / Fussell-Vesely importance, minimal
// cut sets, and the BDD itself for inspection.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "common/component.hpp"
#include "common/distributions.hpp"

namespace relkit::rbd {

/// Structural node of a block diagram.
class Block;
using BlockPtr = std::shared_ptr<const Block>;

class Block {
 public:
  enum class Kind { kComponent, kSeries, kParallel, kKofN };

  Kind kind() const { return kind_; }
  const std::string& component_name() const { return name_; }
  const std::vector<BlockPtr>& children() const { return children_; }
  std::uint32_t k() const { return k_; }

  /// Leaf referencing component `name`.
  static BlockPtr component(std::string name);
  /// All children must be up.
  static BlockPtr series(std::vector<BlockPtr> children);
  /// At least one child up.
  static BlockPtr parallel(std::vector<BlockPtr> children);
  /// At least k children up.
  static BlockPtr k_of_n(std::uint32_t k, std::vector<BlockPtr> children);

 private:
  Block(Kind kind, std::string name, std::vector<BlockPtr> children,
        std::uint32_t k)
      : kind_(kind), name_(std::move(name)), children_(std::move(children)),
        k_(k) {}

  Kind kind_;
  std::string name_;
  std::vector<BlockPtr> children_;
  std::uint32_t k_ = 0;
};

/// Behaviour model of one independent component (shared across the
/// combinatorial model types).
using ComponentModel = relkit::ComponentModel;

/// Importance measures of one component within a diagram (see the tutorial's
/// "which component should we improve" discussion).
struct ImportanceRow {
  std::string component;
  double birnbaum = 0.0;       ///< dR_sys / dp_i
  double criticality = 0.0;    ///< Birnbaum * (1-p_i) / (1-R_sys)
  double fussell_vesely = 0.0; ///< P(some mincut containing i fails) / P(fail)
};

/// A compiled reliability block diagram.
class Rbd {
 public:
  /// Compiles `root` over the given component behaviour models. Every
  /// component name referenced by a leaf must be present in `components`.
  Rbd(BlockPtr root, std::map<std::string, ComponentModel> components);

  /// Number of distinct components.
  std::size_t component_count() const { return table_.size(); }
  /// Component names in variable order.
  const std::vector<std::string>& component_names() const {
    return table_.names();
  }
  /// Component behaviour models, aligned with component_names() (used by
  /// the CLI to build a SystemSimulator for --rare-event cross-checks).
  const std::vector<ComponentModel>& component_models() const {
    return table_.models();
  }

  /// P(system up) with every component at its prob_up_at(t).
  double reliability(double t) const;
  /// P(system up) in the limit t -> infinity (steady-state availability when
  /// components are repairable).
  double availability() const;
  /// P(system up) under explicit per-component probabilities.
  double prob_up(const std::map<std::string, double>& prob) const;

  /// Mean time to failure: integral of reliability(t) dt. Requires every
  /// component to be kLifetime or kFixedProb (a repairable-component RBD has
  /// no finite-system-lifetime semantics without a repair model of the
  /// system itself).
  double mttf() const;

  /// Minimal cut sets: minimal sets of components whose joint failure brings
  /// the system down.
  std::vector<std::vector<std::string>> minimal_cut_sets(
      std::size_t limit = 1u << 20) const;

  /// Minimal path sets: minimal sets of components whose joint functioning
  /// keeps the system up.
  std::vector<std::vector<std::string>> minimal_path_sets(
      std::size_t limit = 1u << 20) const;

  /// Importance measures at time t (or at the steady state when t < 0).
  std::vector<ImportanceRow> importance(double t) const;

  /// Size of the success BDD in nodes.
  std::size_t bdd_node_count() const;

 private:
  mutable bdd::Manager mgr_;
  bdd::NodeRef success_ = bdd::Manager::zero();
  bdd::NodeRef failure_ = bdd::Manager::zero();  // dual(success_): "down"
  ComponentTable table_;
};

}  // namespace relkit::rbd
