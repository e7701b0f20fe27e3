#include "ftree/fault_tree.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace relkit::ftree {

NodePtr Node::basic(std::string name) {
  detail::require(!name.empty(), "Node::basic: empty name");
  return NodePtr(new Node(Kind::kBasic, std::move(name), {}, 0));
}

NodePtr Node::and_gate(std::vector<NodePtr> children) {
  detail::require_model(!children.empty(), "AND gate needs inputs");
  return NodePtr(new Node(Kind::kAnd, {}, std::move(children), 0));
}

NodePtr Node::or_gate(std::vector<NodePtr> children) {
  detail::require_model(!children.empty(), "OR gate needs inputs");
  return NodePtr(new Node(Kind::kOr, {}, std::move(children), 0));
}

NodePtr Node::k_of_n_gate(std::uint32_t k, std::vector<NodePtr> children) {
  detail::require_model(!children.empty(), "k-of-n gate needs inputs");
  detail::require_model(k >= 1 && k <= children.size(),
                        "k-of-n gate: require 1 <= k <= n");
  return NodePtr(new Node(Kind::kKofN, {}, std::move(children), k));
}

NodePtr Node::not_gate(NodePtr child) {
  detail::require_model(child != nullptr, "NOT gate needs an input");
  return NodePtr(new Node(Kind::kNot, {}, {std::move(child)}, 0));
}

bool Node::coherent() const {
  if (kind_ == Kind::kNot) return false;
  for (const auto& c : children_) {
    if (!c->coherent()) return false;
  }
  return true;
}

FaultTree::FaultTree(NodePtr top, std::map<std::string, EventModel> events)
    : root_(std::move(top)) {
  detail::require_model(root_ != nullptr, "FaultTree: null top node");
  coherent_ = root_->coherent();

  std::function<void(const Node&)> collect = [&](const Node& n) {
    if (n.kind() == Node::Kind::kBasic) {
      const auto it = events.find(n.event_name());
      detail::require_model(it != events.end(),
                            "FaultTree: unknown basic event '" +
                                n.event_name() + "'");
      if (!index_.count(n.event_name())) {
        index_.emplace(n.event_name(),
                       static_cast<std::uint32_t>(names_.size()));
        names_.push_back(n.event_name());
        models_.push_back(it->second);
      }
      return;
    }
    for (const auto& c : n.children()) collect(*c);
  };
  collect(*root_);

  obs::Span span("ftree.build");
  span.set("events", static_cast<std::uint64_t>(names_.size()));

  std::function<bdd::NodeRef(const Node&)> build = [&](const Node& n) {
    switch (n.kind()) {
      case Node::Kind::kBasic:
        return mgr_.var(index_.at(n.event_name()));
      case Node::Kind::kAnd: {
        std::vector<bdd::NodeRef> refs;
        refs.reserve(n.children().size());
        for (const auto& c : n.children()) refs.push_back(build(*c));
        return mgr_.and_all(refs);
      }
      case Node::Kind::kOr: {
        std::vector<bdd::NodeRef> refs;
        refs.reserve(n.children().size());
        for (const auto& c : n.children()) refs.push_back(build(*c));
        return mgr_.or_all(refs);
      }
      case Node::Kind::kKofN: {
        std::vector<bdd::NodeRef> refs;
        refs.reserve(n.children().size());
        for (const auto& c : n.children()) refs.push_back(build(*c));
        return mgr_.at_least(n.k(), refs);
      }
      case Node::Kind::kNot:
        return mgr_.apply_not(build(*n.children()[0]));
    }
    return bdd::Manager::zero();
  };
  top_ref_ = build(*root_);
  span.set("bdd_nodes", mgr_.node_count(top_ref_));
}

std::vector<double> FaultTree::event_probs(double t) const {
  std::vector<double> q(models_.size());
  for (std::size_t i = 0; i < models_.size(); ++i) {
    q[i] = 1.0 - (t < 0.0 ? models_[i].prob_up_limit()
                          : models_[i].prob_up_at(t));
  }
  return q;
}

double FaultTree::top_probability(double t) const {
  detail::require(t >= 0.0, "FaultTree::top_probability: t must be >= 0");
  return mgr_.prob(top_ref_, event_probs(t));
}

double FaultTree::top_probability_limit() const {
  return mgr_.prob(top_ref_, event_probs(-1.0));
}

double FaultTree::top_probability(
    const std::map<std::string, double>& q) const {
  std::vector<double> p(models_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const auto it = q.find(names_[i]);
    if (it == q.end()) {
      throw InvalidArgument(
          "FaultTree::top_probability: missing probability for '" + names_[i] +
          "'");
    }
    detail::require(it->second >= 0.0 && it->second <= 1.0,
                    "FaultTree::top_probability: probability out of [0,1]");
    p[i] = it->second;
  }
  return mgr_.prob(top_ref_, p);
}

std::vector<std::vector<std::string>> FaultTree::minimal_cut_sets(
    std::size_t limit) const {
  detail::require_model(coherent_,
                        "minimal_cut_sets: tree contains NOT gates");
  const auto raw = mgr_.minimal_solutions(top_ref_, limit);
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

std::vector<std::vector<std::string>> FaultTree::minimal_cut_sets_mocus(
    std::size_t limit) const {
  detail::require_model(coherent_,
                        "minimal_cut_sets_mocus: tree contains NOT gates");

  // MOCUS works on rows of (gate | event) references; expand gates until
  // only basic events remain. Rows are sets of Node pointers for gates and
  // event indices for leaves; we encode both as const Node*.
  using Row = std::set<const Node*>;
  std::vector<Row> rows{{root_.get()}};
  bool expanded = true;
  while (expanded) {
    expanded = false;
    std::vector<Row> next;
    for (const Row& row : rows) {
      // Find first gate in the row.
      const Node* gate = nullptr;
      for (const Node* n : row) {
        if (n->kind() != Node::Kind::kBasic) {
          gate = n;
          break;
        }
      }
      if (gate == nullptr) {
        next.push_back(row);
        continue;
      }
      expanded = true;
      Row base = row;
      base.erase(gate);
      switch (gate->kind()) {
        case Node::Kind::kAnd: {
          Row r = base;
          for (const auto& c : gate->children()) r.insert(c.get());
          next.push_back(std::move(r));
          break;
        }
        case Node::Kind::kOr: {
          for (const auto& c : gate->children()) {
            Row r = base;
            r.insert(c.get());
            next.push_back(std::move(r));
          }
          break;
        }
        case Node::Kind::kKofN: {
          // Expand into all k-subsets (classic MOCUS treatment of voting
          // gates); fine for the gate fan-ins used in practice.
          const auto& ch = gate->children();
          const std::uint32_t n = static_cast<std::uint32_t>(ch.size());
          const std::uint32_t k = gate->k();
          std::vector<std::uint32_t> pick(k);
          for (std::uint32_t i = 0; i < k; ++i) pick[i] = i;
          for (;;) {
            Row r = base;
            for (const auto i : pick) r.insert(ch[i].get());
            next.push_back(r);
            // next combination
            std::int64_t pos = static_cast<std::int64_t>(k) - 1;
            while (pos >= 0 &&
                   pick[static_cast<std::size_t>(pos)] ==
                       n - k + static_cast<std::uint32_t>(pos)) {
              --pos;
            }
            if (pos < 0) break;
            ++pick[static_cast<std::size_t>(pos)];
            for (auto j = static_cast<std::size_t>(pos) + 1; j < k; ++j) {
              pick[j] = pick[j - 1] + 1;
            }
          }
          break;
        }
        case Node::Kind::kBasic:
        case Node::Kind::kNot:
          throw ModelError("minimal_cut_sets_mocus: unexpected node kind");
      }
      if (next.size() > 4 * limit) {
        throw NumericalError("minimal_cut_sets_mocus: row explosion beyond " +
                             std::to_string(4 * limit));
      }
    }
    rows.swap(next);
  }

  // Convert rows to sorted index sets (distinct leaves may share an event
  // name), then remove non-minimal rows.
  std::vector<std::vector<std::uint32_t>> cuts;
  cuts.reserve(rows.size());
  for (const Row& row : rows) {
    std::set<std::uint32_t> idx;
    for (const Node* n : row) idx.insert(index_.at(n->event_name()));
    cuts.emplace_back(idx.begin(), idx.end());
  }
  std::sort(cuts.begin(), cuts.end(),
            [](const auto& a, const auto& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<std::vector<std::uint32_t>> minimal;
  for (const auto& c : cuts) {
    bool dominated = false;
    for (const auto& m : minimal) {
      if (std::includes(c.begin(), c.end(), m.begin(), m.end())) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      minimal.push_back(c);
      if (minimal.size() > limit) {
        throw NumericalError("minimal_cut_sets_mocus: more than " +
                             std::to_string(limit) + " cut sets");
      }
    }
  }

  std::vector<std::vector<std::string>> out;
  out.reserve(minimal.size());
  for (const auto& cut : minimal) {
    std::vector<std::string> named;
    named.reserve(cut.size());
    for (const auto v : cut) named.push_back(names_[v]);
    out.push_back(std::move(named));
  }
  return out;
}

std::vector<ImportanceRow> FaultTree::importance(double t) const {
  const std::vector<double> q = event_probs(t);
  const double q_top = mgr_.prob(top_ref_, q);

  std::vector<ImportanceRow> rows;
  rows.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const auto var = static_cast<std::uint32_t>(i);
    ImportanceRow row;
    row.event = names_[i];
    const bdd::NodeRef f1 = mgr_.restrict_var(top_ref_, var, true);
    const bdd::NodeRef f0 = mgr_.restrict_var(top_ref_, var, false);
    const double q1 = mgr_.prob(f1, q);
    const double q0 = mgr_.prob(f0, q);
    row.birnbaum = q1 - q0;
    row.criticality = q_top > 0.0 ? row.birnbaum * q[i] / q_top : 0.0;
    // Exact Fussell-Vesely for coherent trees: P(top and event i critical
    // path) ~ standard approximation uses mincut sums; the exact version
    // P(top occurs due to a cut containing i) equals
    // P(top) - P(top with q_i = 0) for coherent structures.
    row.fussell_vesely = q_top > 0.0 ? (q_top - q0) / q_top : 0.0;
    row.raw = q_top > 0.0 ? q1 / q_top : 0.0;
    row.rrw = q0 > 0.0 ? q_top / q0
                       : std::numeric_limits<double>::infinity();
    rows.push_back(std::move(row));
  }
  return rows;
}

std::size_t FaultTree::bdd_node_count() const {
  return mgr_.node_count(top_ref_);
}

std::uint32_t FaultTree::event_index(const std::string& name) const {
  const auto it = index_.find(name);
  detail::require(it != index_.end(),
                  "FaultTree::event_index: unknown event '" + name + "'");
  return it->second;
}

GeneratedTree generate_wide_tree(std::uint32_t clusters, std::uint32_t k,
                                 std::uint32_t n, double q) {
  detail::require(clusters >= 1 && n >= 1 && k >= 1 && k <= n,
                  "generate_wide_tree: bad shape parameters");
  detail::require(q > 0.0 && q < 1.0, "generate_wide_tree: q in (0,1)");
  GeneratedTree out;
  std::vector<NodePtr> cluster_gates;
  cluster_gates.reserve(clusters);
  for (std::uint32_t c = 0; c < clusters; ++c) {
    std::vector<NodePtr> leaves;
    leaves.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::string name =
          "C" + std::to_string(c) + "_E" + std::to_string(i);
      leaves.push_back(Node::basic(name));
      out.events.emplace(std::move(name), EventModel::fixed(1.0 - q));
    }
    cluster_gates.push_back(Node::k_of_n_gate(k, std::move(leaves)));
  }
  out.top = Node::or_gate(std::move(cluster_gates));
  return out;
}

}  // namespace relkit::ftree
