#include "bdd/bdd.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace relkit::bdd {

Manager::Manager() {
  // Terminals: index 0 = FALSE, index 1 = TRUE.
  nodes_.push_back({kTerminalLevel, 0, 0});
  nodes_.push_back({kTerminalLevel, 1, 1});
}

NodeRef Manager::make_node(std::uint32_t level, NodeRef low, NodeRef high) {
  if (low == high) return low;  // redundant test elimination
  const NodeKey key{level, low, high};
  const auto it = unique_.find(key);
  if (it != unique_.end()) return it->second;
  const auto ref = static_cast<NodeRef>(nodes_.size());
  detail::require(nodes_.size() < 0xfffffff0u, "BDD node table overflow");
  nodes_.push_back({level, low, high});
  unique_.emplace(key, ref);
  static obs::Counter& allocated = obs::counter("bdd.nodes_allocated");
  allocated.add();
  return ref;
}

NodeRef Manager::var(std::uint32_t level) {
  detail::require(level != kTerminalLevel, "var: reserved level");
  return make_node(level, zero(), one());
}

NodeRef Manager::nvar(std::uint32_t level) {
  detail::require(level != kTerminalLevel, "nvar: reserved level");
  return make_node(level, one(), zero());
}

NodeRef Manager::ite(NodeRef f, NodeRef g, NodeRef h) {
  static obs::Counter& calls = obs::counter("bdd.ite_calls");
  static obs::Counter& hits = obs::counter("bdd.ite_cache_hits");
  calls.add();

  // Terminal cases.
  if (f == one()) return g;
  if (f == zero()) return h;
  if (g == h) return g;
  if (g == one() && h == zero()) return f;

  const IteKey key{f, g, h};
  if (const auto it = ite_cache_.find(key); it != ite_cache_.end()) {
    hits.add();
    return it->second;
  }

  // Split on the topmost variable among f, g, h.
  const std::uint32_t lf = level(f);
  const std::uint32_t lg = level(g);
  const std::uint32_t lh = level(h);
  const std::uint32_t top = std::min({lf, lg, lh});

  const NodeRef f0 = (lf == top) ? low(f) : f;
  const NodeRef f1 = (lf == top) ? high(f) : f;
  const NodeRef g0 = (lg == top) ? low(g) : g;
  const NodeRef g1 = (lg == top) ? high(g) : g;
  const NodeRef h0 = (lh == top) ? low(h) : h;
  const NodeRef h1 = (lh == top) ? high(h) : h;

  const NodeRef lo = ite(f0, g0, h0);
  const NodeRef hi = ite(f1, g1, h1);
  const NodeRef result = make_node(top, lo, hi);
  ite_cache_.emplace(key, result);
  return result;
}

NodeRef Manager::reduce_list(std::span<const NodeRef> fs, bool is_and) {
  if (fs.empty()) return is_and ? one() : zero();
  std::vector<NodeRef> work(fs.begin(), fs.end());
  // Balanced pairwise reduction: keeps intermediate results small compared
  // to a left fold when operands share no variables.
  while (work.size() > 1) {
    std::vector<NodeRef> next;
    next.reserve((work.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < work.size(); i += 2) {
      next.push_back(is_and ? apply_and(work[i], work[i + 1])
                            : apply_or(work[i], work[i + 1]));
    }
    if (work.size() % 2 == 1) next.push_back(work.back());
    work.swap(next);
  }
  return work[0];
}

NodeRef Manager::and_all(std::span<const NodeRef> fs) {
  return reduce_list(fs, true);
}

NodeRef Manager::or_all(std::span<const NodeRef> fs) {
  return reduce_list(fs, false);
}

NodeRef Manager::at_least(std::uint32_t k, std::span<const NodeRef> fs) {
  const std::size_t n = fs.size();
  if (k == 0) return one();
  if (k > n) return zero();
  // dp[j] = "at least j of fs[i..n)"; process i from n-1 down to 0.
  // dp over j in [0, k]; dp[0] = 1.
  std::vector<NodeRef> dp(k + 1, zero());
  dp[0] = one();
  for (std::size_t idx = n; idx-- > 0;) {
    // Update in place from high j to low j: new dp[j] = f ? dp[j-1] : dp[j].
    for (std::uint32_t j = std::min<std::uint32_t>(
             k, static_cast<std::uint32_t>(n - idx));
         j >= 1; --j) {
      dp[j] = ite(fs[idx], dp[j - 1], dp[j]);
    }
  }
  return dp[k];
}

NodeRef Manager::restrict_var(NodeRef f, std::uint32_t target, bool value) {
  // Iterative memoized recursion on this single restriction.
  std::unordered_map<NodeRef, NodeRef> memo;
  struct Frame {
    NodeRef f;
    bool expanded;
  };
  std::vector<Frame> stack{{f, false}};
  while (!stack.empty()) {
    Frame& top_frame = stack.back();
    const NodeRef cur = top_frame.f;
    if (is_terminal(cur) || level(cur) > target) {
      memo[cur] = cur;
      stack.pop_back();
      continue;
    }
    if (level(cur) == target) {
      memo[cur] = value ? high(cur) : low(cur);
      stack.pop_back();
      continue;
    }
    if (!top_frame.expanded) {
      top_frame.expanded = true;
      if (!memo.count(low(cur))) stack.push_back({low(cur), false});
      if (!memo.count(high(cur))) stack.push_back({high(cur), false});
      continue;
    }
    memo[cur] = make_node(level(cur), memo.at(low(cur)), memo.at(high(cur)));
    stack.pop_back();
  }
  return memo.at(f);
}

NodeRef Manager::dual(NodeRef f) {
  // Swap terminals and swap each node's children: nodes are rebuilt bottom-up
  // so hash-consing invariants hold.
  std::unordered_map<NodeRef, NodeRef> memo;
  memo[zero()] = one();
  memo[one()] = zero();
  struct Frame {
    NodeRef f;
    bool expanded;
  };
  std::vector<Frame> stack{{f, false}};
  while (!stack.empty()) {
    Frame& top_frame = stack.back();
    const NodeRef cur = top_frame.f;
    if (memo.count(cur)) {
      stack.pop_back();
      continue;
    }
    if (!top_frame.expanded) {
      top_frame.expanded = true;
      if (!memo.count(low(cur))) stack.push_back({low(cur), false});
      if (!memo.count(high(cur))) stack.push_back({high(cur), false});
      continue;
    }
    memo[cur] = make_node(level(cur), memo.at(high(cur)), memo.at(low(cur)));
    stack.pop_back();
  }
  return memo.at(f);
}

bool Manager::evaluate(NodeRef f, std::uint64_t bits) const {
  while (!is_terminal(f)) {
    const std::uint32_t lv = level(f);
    f = lv < 64 && (bits >> lv & 1) ? high(f) : low(f);
  }
  return f == one();
}

double Manager::prob(NodeRef f, std::span<const double> p) const {
  static obs::Counter& evals = obs::counter("bdd.prob_evals");
  evals.add();
  // Bottom-up over reachable nodes; iterative to avoid deep recursion.
  std::unordered_map<NodeRef, double> memo;
  memo[zero()] = 0.0;
  memo[one()] = 1.0;
  std::vector<NodeRef> stack{f};
  while (!stack.empty()) {
    const NodeRef cur = stack.back();
    if (memo.count(cur)) {
      stack.pop_back();
      continue;
    }
    const NodeRef lo = low(cur);
    const NodeRef hi = high(cur);
    const bool lo_done = memo.count(lo) != 0;
    const bool hi_done = memo.count(hi) != 0;
    if (lo_done && hi_done) {
      const std::uint32_t lv = level(cur);
      if (lv >= p.size()) {
        throw InvalidArgument(
            "prob: probability vector does not cover variable level " +
            std::to_string(lv));
      }
      const double px = p[lv];
      memo[cur] = px * memo.at(hi) + (1.0 - px) * memo.at(lo);
      stack.pop_back();
    } else {
      if (!lo_done) stack.push_back(lo);
      if (!hi_done) stack.push_back(hi);
    }
  }
  return memo.at(f);
}

double Manager::birnbaum(NodeRef f, std::span<const double> p,
                         std::uint32_t target) {
  const NodeRef f1 = restrict_var(f, target, true);
  const NodeRef f0 = restrict_var(f, target, false);
  return prob(f1, p) - prob(f0, p);
}

std::size_t Manager::node_count(NodeRef f) const {
  if (is_terminal(f)) return 0;
  std::vector<NodeRef> stack{f};
  std::unordered_map<NodeRef, bool> seen;
  std::size_t count = 0;
  while (!stack.empty()) {
    const NodeRef cur = stack.back();
    stack.pop_back();
    if (is_terminal(cur) || seen.count(cur)) continue;
    seen.emplace(cur, true);
    ++count;
    stack.push_back(low(cur));
    stack.push_back(high(cur));
  }
  return count;
}

double Manager::sat_count(NodeRef f, std::uint32_t nvars) const {
  // count(node) = number of assignments of variables below node's level.
  // Weight by 2^(gap) when jumping levels.
  std::unordered_map<NodeRef, double> memo;
  memo[zero()] = 0.0;
  memo[one()] = 1.0;

  auto level_of = [&](NodeRef n) {
    return is_terminal(n) ? nvars : level(n);
  };

  std::vector<NodeRef> stack{f};
  while (!stack.empty()) {
    const NodeRef cur = stack.back();
    if (memo.count(cur)) {
      stack.pop_back();
      continue;
    }
    const NodeRef lo = low(cur);
    const NodeRef hi = high(cur);
    if (memo.count(lo) && memo.count(hi)) {
      const double cl =
          memo.at(lo) *
          std::pow(2.0, static_cast<double>(level_of(lo) - level(cur) - 1));
      const double ch =
          memo.at(hi) *
          std::pow(2.0, static_cast<double>(level_of(hi) - level(cur) - 1));
      memo[cur] = cl + ch;
      stack.pop_back();
    } else {
      if (!memo.count(lo)) stack.push_back(lo);
      if (!memo.count(hi)) stack.push_back(hi);
    }
  }
  return memo.at(f) * std::pow(2.0, static_cast<double>(level_of(f)));
}

std::vector<std::vector<std::uint32_t>> Manager::minimal_solutions(
    NodeRef f, std::size_t limit) const {
  using CutSet = std::vector<std::uint32_t>;
  using CutList = std::vector<CutSet>;

  std::unordered_map<NodeRef, CutList> memo;
  memo[zero()] = {};
  memo[one()] = {CutSet{}};

  auto subset_of = [](const CutSet& a, const CutSet& b) {
    // a, b sorted; true iff a is a subset of b.
    return std::includes(b.begin(), b.end(), a.begin(), a.end());
  };

  // Post-order traversal.
  std::vector<NodeRef> order;
  {
    std::vector<std::pair<NodeRef, bool>> stack{{f, false}};
    std::unordered_map<NodeRef, bool> seen;
    while (!stack.empty()) {
      auto [cur, expanded] = stack.back();
      stack.pop_back();
      if (is_terminal(cur)) continue;
      if (expanded) {
        order.push_back(cur);
        continue;
      }
      if (seen.count(cur)) continue;
      seen.emplace(cur, true);
      stack.push_back({cur, true});
      stack.push_back({low(cur), false});
      stack.push_back({high(cur), false});
    }
  }

  for (const NodeRef cur : order) {
    const CutList& lo_cuts = memo.at(low(cur));
    const CutList& hi_cuts = memo.at(high(cur));
    CutList result = lo_cuts;  // solutions not involving this variable
    const std::uint32_t v = level(cur);
    for (const CutSet& c : hi_cuts) {
      CutSet with_v;
      with_v.reserve(c.size() + 1);
      // insert v keeping sorted order (v is the top level, hence smallest).
      with_v.push_back(v);
      with_v.insert(with_v.end(), c.begin(), c.end());
      // Minimality: drop if some low-branch solution is a subset.
      bool dominated = false;
      for (const CutSet& c0 : lo_cuts) {
        if (subset_of(c0, with_v)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) result.push_back(std::move(with_v));
    }
    if (result.size() > limit) {
      throw NumericalError("minimal_solutions: more than " +
                           std::to_string(limit) + " cut sets");
    }
    memo.emplace(cur, std::move(result));
  }

  CutList out = memo.at(f);
  std::sort(out.begin(), out.end(), [](const CutSet& a, const CutSet& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  return out;
}

}  // namespace relkit::bdd
