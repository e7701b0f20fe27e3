// Reliability graphs (s-t connectivity networks).
//
// The third non-state-space model type of the tutorial: vertices are perfect,
// edges are independent components, and the system is up while at least one
// source->sink path of working edges exists. Two exact solution methods are
// implemented and cross-validated:
//
//  * BDD compilation of the path structure function (minimal paths are
//    enumerated by DFS, the BDD handles their shared edges exactly), and
//  * the factoring (conditioning) algorithm of Moskowitz with parallel-edge
//    reduction, R(G) = p_e R(G * e) + (1 - p_e) R(G - e),
//
// plus minimal path / cut set extraction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "common/component.hpp"

namespace relkit::relgraph {

/// An s-t reliability graph under construction.
class ReliabilityGraph {
 public:
  /// Creates a graph with `num_vertices` vertices, all perfect.
  /// `source` and `sink` index into [0, num_vertices).
  ReliabilityGraph(std::size_t num_vertices, std::size_t source,
                   std::size_t sink);

  /// Adds a directed edge u -> v carried by component `name`. The same name
  /// may carry several edges (shared-failure wiring) and keeps the model of
  /// its first edge; edge direction only affects path enumeration.
  void add_edge(const std::string& name, std::size_t u, std::size_t v,
                ComponentModel model);

  /// Adds an undirected edge (two arcs sharing one component variable).
  void add_undirected_edge(const std::string& name, std::size_t u,
                           std::size_t v, ComponentModel model);

  std::size_t vertex_count() const { return adj_.size(); }
  std::size_t component_count() const { return table_.size(); }

  /// P(source connected to sink) at time t (steady state when t < 0),
  /// via BDD over the enumerated minimal paths.
  double reliability(double t) const;

  /// Same measure via the factoring algorithm — independent implementation
  /// used for cross-validation. Exponential worst case; intended for graphs
  /// with up to a few dozen edges.
  double reliability_factoring(double t) const;

  /// Minimal path sets (component names per path).
  std::vector<std::vector<std::string>> minimal_path_sets(
      std::size_t limit = 1u << 20) const;

  /// Minimal cut sets (components whose failure disconnects s from t).
  std::vector<std::vector<std::string>> minimal_cut_sets(
      std::size_t limit = 1u << 20) const;

  /// BDD size after compilation (diagnostics for the scaling benches).
  std::size_t bdd_node_count() const;

 private:
  struct Arc {
    std::size_t to;
    std::uint32_t comp;  // component variable index
  };

  void ensure_compiled() const;
  std::vector<std::vector<std::uint32_t>> enumerate_paths() const;

  std::size_t source_, sink_;
  std::vector<std::vector<Arc>> adj_;
  ComponentTable table_;
  // For factoring: flat arc list (u, v, comp).
  struct FlatArc {
    std::size_t u, v;
    std::uint32_t comp;
  };
  std::vector<FlatArc> arcs_;

  mutable bdd::Manager mgr_;
  mutable bdd::NodeRef up_ = bdd::Manager::zero();
  mutable bool compiled_ = false;
};

/// Builds the classic 5-component bridge network (the tutorial's standard
/// reliability-graph example): s-A-x, s-C-y, x-B-t, y-D-t, x-E-y undirected.
ReliabilityGraph make_bridge(double p_up);

}  // namespace relkit::relgraph
