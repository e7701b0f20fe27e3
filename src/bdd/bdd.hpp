// Reduced Ordered Binary Decision Diagrams (ROBDD).
//
// The tutorial's non-state-space methods (reliability block diagrams, fault
// trees, reliability graphs) all reduce to evaluating a monotone Boolean
// structure function of independent component states. RelKit compiles each
// such model into a shared ROBDD and then
//   * evaluates exact failure/success probability in one bottom-up pass
//     (linear in BDD size),
//   * computes Birnbaum importance via cofactors,
//   * extracts minimal cut sets (Rauzy-style minimal-solutions recursion).
//
// Implementation: hash-consed node table (unique table) with an ITE-based
// apply and a memoization cache. Nodes are referenced by 32-bit indices;
// index 0 is the FALSE terminal and index 1 the TRUE terminal. Variables are
// identified by their level (lower level = nearer the root); callers choose
// the ordering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace relkit::bdd {

/// Handle to a BDD node owned by a Manager.
using NodeRef = std::uint32_t;

/// Hash-consing BDD manager. Not thread-safe; use one per model/thread.
class Manager {
 public:
  Manager();

  /// FALSE terminal.
  static constexpr NodeRef zero() { return 0; }
  /// TRUE terminal.
  static constexpr NodeRef one() { return 1; }
  static constexpr bool is_terminal(NodeRef f) { return f <= 1; }

  /// Single-variable function x_level.
  NodeRef var(std::uint32_t level);
  /// Negated single variable !x_level.
  NodeRef nvar(std::uint32_t level);

  /// If-then-else: f ? g : h — the universal connective.
  NodeRef ite(NodeRef f, NodeRef g, NodeRef h);

  NodeRef apply_and(NodeRef a, NodeRef b) { return ite(a, b, zero()); }
  NodeRef apply_or(NodeRef a, NodeRef b) { return ite(a, one(), b); }
  NodeRef apply_not(NodeRef a) { return ite(a, zero(), one()); }
  NodeRef apply_xor(NodeRef a, NodeRef b) { return ite(a, apply_not(b), b); }

  /// AND / OR over a list (balanced reduction keeps intermediate BDDs small).
  NodeRef and_all(std::span<const NodeRef> fs);
  NodeRef or_all(std::span<const NodeRef> fs);

  /// "At least k of these variables/functions are true."
  /// Built by the standard dynamic program over (index, still-needed).
  NodeRef at_least(std::uint32_t k, std::span<const NodeRef> fs);

  /// Cofactor: f with x_level fixed to `value`.
  NodeRef restrict_var(NodeRef f, std::uint32_t level, bool value);

  /// Boolean dual g(x) = !f(!x). For a coherent success function over
  /// "up" variables, the dual read over "down" variables is the failure
  /// function, so minimal_solutions(dual(f)) yields the minimal cut sets.
  NodeRef dual(NodeRef f);

  /// P[f = 1] given independent P[x_level = 1] = p[level].
  /// p.size() must cover every level appearing in f.
  double prob(NodeRef f, std::span<const double> p) const;

  /// f under one 0/1 assignment: x_level = bit `level` of `bits` (levels
  /// >= 64 read 0). One walk from f to a terminal; allocates nothing and
  /// is safe to call concurrently.
  bool evaluate(NodeRef f, std::uint64_t bits) const;

  /// Birnbaum importance dP[f]/dp_level = P(f|x=1) - P(f|x=0).
  double birnbaum(NodeRef f, std::span<const double> p, std::uint32_t level);

  /// Number of distinct nodes reachable from f (terminals excluded).
  std::size_t node_count(NodeRef f) const;

  /// Number of satisfying assignments over `nvars` variables
  /// (levels 0..nvars-1), as a double to allow > 2^64.
  double sat_count(NodeRef f, std::uint32_t nvars) const;

  /// Minimal solutions (minimal cut sets when f is the system-failure
  /// function of a coherent model). Each inner vector is a sorted list of
  /// variable levels. Throws NumericalError if the count exceeds `limit`.
  std::vector<std::vector<std::uint32_t>> minimal_solutions(
      NodeRef f, std::size_t limit = 1u << 20) const;

  /// Total nodes ever allocated in this manager (terminals included).
  std::size_t size() const { return nodes_.size(); }

  /// Variable level of a node (kTerminalLevel for terminals).
  std::uint32_t level(NodeRef f) const { return nodes_[f].level; }
  NodeRef low(NodeRef f) const { return nodes_[f].low; }
  NodeRef high(NodeRef f) const { return nodes_[f].high; }

  static constexpr std::uint32_t kTerminalLevel = 0xffffffffu;

 private:
  struct Node {
    std::uint32_t level;
    NodeRef low;
    NodeRef high;
  };
  struct NodeKey {
    std::uint32_t level;
    NodeRef low, high;
    bool operator==(const NodeKey&) const = default;
  };
  struct NodeKeyHash {
    std::size_t operator()(const NodeKey& k) const {
      std::uint64_t h = k.level;
      h = h * 0x9e3779b97f4a7c15ULL + k.low;
      h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL + k.high;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  struct IteKey {
    NodeRef f, g, h;
    bool operator==(const IteKey&) const = default;
  };
  struct IteKeyHash {
    std::size_t operator()(const IteKey& k) const {
      std::uint64_t h = k.f;
      h = h * 0x9e3779b97f4a7c15ULL + k.g;
      h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL + k.h;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };

  NodeRef make_node(std::uint32_t level, NodeRef low, NodeRef high);
  NodeRef reduce_list(std::span<const NodeRef> fs, bool is_and);

  std::vector<Node> nodes_;
  std::unordered_map<NodeKey, NodeRef, NodeKeyHash> unique_;
  std::unordered_map<IteKey, NodeRef, IteKeyHash> ite_cache_;
};

}  // namespace relkit::bdd
