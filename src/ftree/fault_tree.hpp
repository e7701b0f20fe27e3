// Fault trees.
//
// The tutorial's second non-state-space model type: the top event is system
// failure, internal gates are AND / OR / k-of-n (k inputs failing fires the
// gate) / NOT, and leaves are basic events. Repeated basic events are
// handled exactly via BDD compilation, which gives each event its BDD level
// in first-appearance DFS order (a ComponentTable, as for RBDs and
// reliability graphs) during the one walk that builds the top-event
// function. Two independent minimal-cut-set
// algorithms are provided (BDD minimal solutions, and the classical MOCUS
// top-down expansion) so each can validate the other, and MOCUS works even
// when the BDD would blow up.
//
// Importance measures follow the standard definitions on the top-event
// probability Q(q_1..q_n): Birnbaum dQ/dq_i, criticality, Fussell-Vesely,
// risk achievement worth (RAW) and risk reduction worth (RRW).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "common/component.hpp"

namespace relkit::ftree {

class Node;
using NodePtr = std::shared_ptr<const Node>;

/// Gate / basic-event AST node.
class Node {
 public:
  enum class Kind { kBasic, kAnd, kOr, kKofN, kNot };

  Kind kind() const { return kind_; }
  const std::string& event_name() const { return name_; }
  const std::vector<NodePtr>& children() const { return children_; }
  std::uint32_t k() const { return k_; }

  /// Leaf basic event `name` (may be referenced by multiple leaves).
  static NodePtr basic(std::string name);
  /// Fires when all inputs fire.
  static NodePtr and_gate(std::vector<NodePtr> children);
  /// Fires when any input fires.
  static NodePtr or_gate(std::vector<NodePtr> children);
  /// Fires when at least k inputs fire (a.k.a. voting gate).
  static NodePtr k_of_n_gate(std::uint32_t k, std::vector<NodePtr> children);
  /// Negation — makes the tree non-coherent; cut-set and bound methods then
  /// throw ModelError.
  static NodePtr not_gate(NodePtr child);

  /// True if no NOT gate appears in the subtree.
  bool coherent() const;

 private:
  Node(Kind kind, std::string name, std::vector<NodePtr> children,
       std::uint32_t k)
      : kind_(kind), name_(std::move(name)), children_(std::move(children)),
        k_(k) {}

  Kind kind_;
  std::string name_;
  std::vector<NodePtr> children_;
  std::uint32_t k_ = 0;
};

/// Basic-event behaviour: the same three component models as RBDs; the
/// event "occurs" when the component is down, so its probability at time t
/// is 1 - prob_up_at(t).
using EventModel = relkit::ComponentModel;

/// Importance measures of one basic event.
struct ImportanceRow {
  std::string event;
  double birnbaum = 0.0;        ///< dQ/dq_i
  double criticality = 0.0;     ///< birnbaum * q_i / Q
  double fussell_vesely = 0.0;  ///< sum of cut products containing i / Q
  double raw = 0.0;             ///< Q(q_i = 1) / Q
  double rrw = 0.0;             ///< Q / Q(q_i = 0)
};

/// A compiled fault tree.
class FaultTree {
 public:
  /// Compiles `top` over the basic-event behaviour models.
  FaultTree(NodePtr top, std::map<std::string, EventModel> events);

  std::size_t event_count() const { return table_.size(); }
  const std::vector<std::string>& event_names() const {
    return table_.names();
  }
  /// Basic-event behaviour models, aligned with event_names() (used by
  /// the CLI to build a SystemSimulator for --rare-event cross-checks).
  const std::vector<EventModel>& event_models() const {
    return table_.models();
  }
  bool coherent() const { return coherent_; }

  /// Top-event probability at time t (unreliability / unavailability).
  double top_probability(double t) const;
  /// Limiting top-event probability (steady-state unavailability).
  double top_probability_limit() const;
  /// Top-event probability under explicit per-event failure probabilities.
  double top_probability(const std::map<std::string, double>& q) const;

  /// Minimal cut sets via BDD minimal solutions (coherent trees only).
  std::vector<std::vector<std::string>> minimal_cut_sets(
      std::size_t limit = 1u << 20) const;

  /// Minimal cut sets via the classical MOCUS top-down expansion; does not
  /// require the BDD and is used to cross-validate it (coherent trees only).
  std::vector<std::vector<std::string>> minimal_cut_sets_mocus(
      std::size_t limit = 1u << 20) const;

  /// Importance measures at time t (steady state when t < 0).
  std::vector<ImportanceRow> importance(double t) const;

  /// Per-event failure probabilities at time t (steady state when t < 0),
  /// in event_names() order.
  std::vector<double> event_probs(double t) const;

  /// Size of the top-event BDD in nodes.
  std::size_t bdd_node_count() const;

  /// Access to the BDD for advanced use (bounds, custom measures).
  const bdd::Manager& manager() const { return mgr_; }
  bdd::NodeRef top_ref() const { return top_ref_; }

  /// Event index by name (throws if unknown).
  std::uint32_t event_index(const std::string& name) const;

 private:
  mutable bdd::Manager mgr_;
  bdd::NodeRef top_ref_ = bdd::Manager::zero();
  NodePtr root_;
  bool coherent_ = true;
  ComponentTable table_;
};

/// Scalable synthetic fault tree with the shape of the tutorial's Boeing 787
/// example: a wide OR of `clusters` independent k-of-n voting clusters, each
/// over `n` basic events with failure probability `q`. Used by the bounding
/// benchmarks (exact solution becomes expensive as clusters * n grows).
struct GeneratedTree {
  NodePtr top;
  std::map<std::string, EventModel> events;
};
GeneratedTree generate_wide_tree(std::uint32_t clusters, std::uint32_t k,
                                 std::uint32_t n, double q);

}  // namespace relkit::ftree
