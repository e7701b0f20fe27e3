#include "relgraph/relgraph.hpp"

#include <algorithm>
#include <deque>
#include <functional>

#include "common/error.hpp"

namespace relkit::relgraph {

ReliabilityGraph::ReliabilityGraph(std::size_t num_vertices,
                                   std::size_t source, std::size_t sink)
    : source_(source), sink_(sink), adj_(num_vertices) {
  detail::require(num_vertices >= 2,
                  "ReliabilityGraph: need at least 2 vertices");
  detail::require(source < num_vertices && sink < num_vertices,
                  "ReliabilityGraph: source/sink out of range");
  detail::require(source != sink, "ReliabilityGraph: source == sink");
}

void ReliabilityGraph::add_edge(const std::string& name, std::size_t u,
                                std::size_t v, ComponentModel model) {
  detail::require(u < adj_.size() && v < adj_.size(),
                  "add_edge: vertex out of range");
  detail::require(u != v, "add_edge: self-loops are not allowed");
  detail::require(!compiled_, "add_edge: graph already compiled");
  const std::uint32_t comp = table_.intern(name, model);
  adj_[u].push_back({v, comp});
  arcs_.push_back({u, v, comp});
}

void ReliabilityGraph::add_undirected_edge(const std::string& name,
                                           std::size_t u, std::size_t v,
                                           ComponentModel model) {
  add_edge(name, u, v, model);
  add_edge(name, v, u, model);
}

std::vector<std::vector<std::uint32_t>> ReliabilityGraph::enumerate_paths()
    const {
  // DFS enumeration of simple s-t paths; record the component set of each.
  std::vector<std::vector<std::uint32_t>> paths;
  std::vector<bool> visited(adj_.size(), false);
  std::vector<std::uint32_t> comps;

  std::function<void(std::size_t)> dfs = [&](std::size_t v) {
    if (v == sink_) {
      std::vector<std::uint32_t> sorted = comps;
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      paths.push_back(std::move(sorted));
      return;
    }
    visited[v] = true;
    for (const Arc& a : adj_[v]) {
      if (visited[a.to]) continue;
      comps.push_back(a.comp);
      dfs(a.to);
      comps.pop_back();
    }
    visited[v] = false;
    detail::require(paths.size() < (1u << 22),
                    "enumerate_paths: path explosion");
  };
  dfs(source_);
  return paths;
}

void ReliabilityGraph::ensure_compiled() const {
  if (compiled_) return;
  const auto paths = enumerate_paths();
  std::vector<bdd::NodeRef> terms;
  terms.reserve(paths.size());
  for (const auto& path : paths) {
    std::vector<bdd::NodeRef> vars;
    vars.reserve(path.size());
    for (const auto c : path) vars.push_back(mgr_.var(c));
    terms.push_back(mgr_.and_all(vars));
  }
  up_ = mgr_.or_all(terms);
  compiled_ = true;
}

double ReliabilityGraph::reliability(double t) const {
  ensure_compiled();
  return mgr_.prob(up_, table_.probs_up(t));
}

double ReliabilityGraph::reliability_factoring(double t) const {
  const std::vector<double> p = table_.probs_up(t);

  // state: 0 = unconditioned, 1 = perfect, 2 = failed (per component).
  std::vector<std::uint8_t> state(table_.size(), 0);

  // Reachability of sink from source using arcs whose component state
  // passes `ok`; optionally records the first unconditioned component on
  // a discovered path.
  auto reachable = [&](bool perfect_only, std::uint32_t* pick) {
    std::vector<bool> seen(adj_.size(), false);
    std::deque<std::size_t> queue{source_};
    seen[source_] = true;
    while (!queue.empty()) {
      const std::size_t v = queue.front();
      queue.pop_front();
      if (v == sink_) return true;
      for (const Arc& a : adj_[v]) {
        if (seen[a.to]) continue;
        const std::uint8_t s = state[a.comp];
        if (s == 2) continue;
        if (perfect_only && s != 1) continue;
        if (!perfect_only && s == 0 && pick != nullptr) *pick = a.comp;
        seen[a.to] = true;
        queue.push_back(a.to);
      }
    }
    return false;
  };

  std::function<double()> factor = [&]() -> double {
    if (reachable(true, nullptr)) return 1.0;  // connected via perfect arcs
    std::uint32_t pick = 0xffffffffu;
    if (!reachable(false, &pick)) return 0.0;  // disconnected even if all work
    detail::require(pick != 0xffffffffu,
                    "factoring: internal error, no component to condition on");
    const double pc = p[pick];
    state[pick] = 1;
    const double r_works = factor();
    state[pick] = 2;
    const double r_fails = factor();
    state[pick] = 0;
    return pc * r_works + (1.0 - pc) * r_fails;
  };
  return factor();
}

std::vector<std::vector<std::string>> ReliabilityGraph::minimal_path_sets(
    std::size_t limit) const {
  ensure_compiled();
  return table_.name_sets(mgr_.minimal_solutions(up_, limit));
}

std::vector<std::vector<std::string>> ReliabilityGraph::minimal_cut_sets(
    std::size_t limit) const {
  ensure_compiled();
  return table_.name_sets(mgr_.minimal_solutions(mgr_.dual(up_), limit));
}

std::size_t ReliabilityGraph::bdd_node_count() const {
  ensure_compiled();
  return mgr_.node_count(up_);
}

ReliabilityGraph make_bridge(double p_up) {
  // Vertices: 0 = s, 1 = x, 2 = y, 3 = t.
  ReliabilityGraph g(4, 0, 3);
  const auto m = ComponentModel::fixed(p_up);
  g.add_edge("A", 0, 1, m);
  g.add_edge("C", 0, 2, m);
  g.add_edge("B", 1, 3, m);
  g.add_edge("D", 2, 3, m);
  g.add_undirected_edge("E", 1, 2, m);
  return g;
}

}  // namespace relkit::relgraph
