#include "io/model_parser.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "markov/ctmc.hpp"
#include "obs/obs.hpp"

namespace relkit::io {

namespace {

/// One diagnosed problem, positioned at a 1-based line and column.
struct Diagnostic {
  std::size_t line;
  std::size_t col;
  std::string msg;
};

/// Thrown internally to abort the current line (or the build phase); always
/// caught and funnelled into the ErrorCollector, never escapes the parser.
struct LineError {
  Diagnostic diag;
};

[[noreturn]] void fail(std::size_t line, std::size_t col,
                       const std::string& msg) {
  throw LineError{{line, col, msg}};
}

/// Accumulates every diagnostic in the file so the user can fix them in one
/// round trip instead of one error per run.
class ErrorCollector {
 public:
  void add(Diagnostic d) { diags_.push_back(std::move(d)); }
  bool empty() const { return diags_.empty(); }

  /// Throws a ModelError describing every collected diagnostic. The first
  /// keeps the classic "model parse error at line L, col C: msg" headline;
  /// any further ones are appended one per line.
  [[noreturn]] void throw_all() const {
    const Diagnostic& first = diags_.front();
    std::string msg = "model parse error at line " +
                      std::to_string(first.line) + ", col " +
                      std::to_string(first.col) + ": " + first.msg;
    if (diags_.size() > 1) {
      msg += " (and " + std::to_string(diags_.size() - 1) + " more)";
      for (std::size_t i = 1; i < diags_.size(); ++i) {
        msg += "\n  line " + std::to_string(diags_[i].line) + ", col " +
               std::to_string(diags_[i].col) + ": " + diags_[i].msg;
      }
    }
    throw ModelError(msg);
  }

  void throw_if_any() const {
    if (!empty()) throw_all();
  }

 private:
  std::vector<Diagnostic> diags_;
};

/// Whitespace tokenizer that remembers the 1-based column of each token, so
/// diagnostics can point at the offending word and not just the line.
class LineScanner {
 public:
  LineScanner(std::string text, std::size_t line)
      : text_(std::move(text)), line_(line) {}

  bool next(std::string& tok) {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    tok_col_ = pos_ + 1;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    tok = text_.substr(start, pos_ - start);
    return true;
  }

  /// Next token, or a positioned error naming what was expected.
  std::string expect(const std::string& what) {
    std::string tok;
    if (!next(tok)) fail(line_, end_col(), "expected: " + what);
    return tok;
  }

  /// Column of the most recently returned token (1-based).
  std::size_t col() const { return tok_col_; }
  /// Column one past the consumed input — where a missing token would be.
  std::size_t end_col() const { return pos_ + 1; }
  std::size_t line() const { return line_; }

  void expect_end(const std::string& context) {
    std::string extra;
    if (next(extra)) {
      fail(line_, tok_col_, "trailing tokens after " + context);
    }
  }

 private:
  std::string text_;
  std::size_t line_;
  std::size_t pos_ = 0;
  std::size_t tok_col_ = 1;
};

struct GateSpec {
  std::string kind;  // and / or / kofn / not
  std::uint32_t k = 0;
  std::vector<std::string> children;
  std::size_t line = 0;
  std::size_t col = 1;
};

double parse_number(const std::string& tok, std::size_t line, std::size_t col,
                    const char* what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(tok, &used);
    if (used != tok.size()) {
      fail(line, col, std::string("bad ") + what + " '" + tok + "'");
    }
    return v;
  } catch (const std::exception&) {
    // stod's invalid_argument / out_of_range; LineError is not a
    // std::exception and passes through.
    fail(line, col, std::string("bad ") + what + " '" + tok + "'");
  }
}

/// Resolves `top` (a gate or an event) into the tree of an ftree or rbd
/// model: `leaf(name)` makes an event leaf, `gate(spec, children)` a gate
/// over its resolved children. Unknown references are reported where they
/// are used, cycles at the gate that closes them, and, unless `allow_not`,
/// a 'not' gate at the gate before its children.
template <class Leaf, class Gate>
auto resolve_gates(const std::string& top, std::size_t top_line,
                   std::size_t top_col,
                   const std::map<std::string, ComponentModel>& events,
                   const std::map<std::string, GateSpec>& gates,
                   bool allow_not, Leaf leaf, Gate gate) {
  using Ptr = decltype(leaf(top));
  std::set<std::string> visiting;  // gates on the current path
  std::function<Ptr(const std::string&, std::size_t, std::size_t)> build =
      [&](const std::string& name, std::size_t from_line,
          std::size_t from_col) -> Ptr {
    if (events.count(name)) return leaf(name);
    const auto it = gates.find(name);
    if (it == gates.end()) {
      fail(from_line, from_col, "unknown reference '" + name + "'");
    }
    const GateSpec& g = it->second;
    if (!visiting.insert(name).second) {
      fail(g.line, g.col, "cyclic gate definition through '" + name + "'");
    }
    if (!allow_not && g.kind == "not") {
      fail(g.line, g.col, "'not' gates are not allowed in RBD models");
    }
    std::vector<Ptr> children;
    for (const auto& child : g.children) {
      children.push_back(build(child, g.line, g.col));
    }
    visiting.erase(name);
    return gate(g, std::move(children));
  };
  return build(top, top_line, top_col);
}

/// Availability of an n-unit pool with per-unit failure rate lambda, one
/// shared repairer of rate mu, up while >= k units are up: the steady state
/// of the (n+1)-state birth-death CTMC over "number of failed units".
double markov_pool_availability(const std::string& event_name, std::size_t n,
                                std::size_t k, double lambda, double mu) {
  obs::Span span("hier.submodel");
  span.set("event", event_name);
  span.set("n", n);
  span.set("k", k);

  markov::Ctmc chain;
  chain.add_states(n + 1);  // state i = i units failed
  for (std::size_t i = 0; i < n; ++i) {
    chain.add_transition(i, i + 1, static_cast<double>(n - i) * lambda);
    chain.add_transition(i + 1, i, mu);  // single repairer: rate mu, always
  }
  const std::vector<double> pi = chain.steady_state();
  double avail = 0.0;
  for (std::size_t i = 0; i + k <= n; ++i) avail += pi[i];
  span.set("availability", avail);
  return avail;
}

}  // namespace

ParsedModel parse_model(std::istream& input) {
  obs::Span parse_span("io.parse");
  std::string model_kind;
  std::string model_name;
  std::map<std::string, ComponentModel> events;
  std::map<std::string, GateSpec> gates;
  std::string top_name;
  std::size_t top_line = 0;
  std::size_t top_col = 1;

  // relgraph directives.
  struct EdgeSpec {
    std::string component;
    std::size_t u, v;
    bool undirected;
    std::size_t line;
    std::size_t col;
  };
  std::size_t vertex_count = 0;
  bool have_terminals = false;
  std::size_t source = 0, sink = 0;
  std::vector<EdgeSpec> edges;

  ErrorCollector errors;

  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(input, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    LineScanner line(raw, line_no);
    std::string keyword;
    if (!line.next(keyword)) continue;  // blank line
    const std::size_t keyword_col = line.col();

    try {
      if (keyword == "model") {
        if (!model_kind.empty()) {
          fail(line_no, keyword_col, "duplicate 'model' directive");
        }
        const std::string kind =
            line.expect("model (ftree|rbd|relgraph) <name>");
        if (kind != "ftree" && kind != "rbd" && kind != "relgraph") {
          fail(line_no, line.col(),
               "model kind must be 'ftree', 'rbd', or 'relgraph'");
        }
        model_name = line.expect("model (ftree|rbd|relgraph) <name>");
        model_kind = kind;
      } else if (keyword == "event") {
        const std::string name = line.expect("event <name> <spec ...>");
        const std::size_t name_col = line.col();
        const std::string spec = line.expect("event <name> <spec ...>");
        if (events.count(name) || gates.count(name)) {
          fail(line_no, name_col, "duplicate name '" + name + "'");
        }
        if (spec == "prob") {
          const std::string a = line.expect("prob <p>");
          const double p = parse_number(a, line_no, line.col(), "probability");
          if (p < 0.0 || p > 1.0) {
            fail(line_no, line.col(), "probability out of [0,1]");
          }
          // Convention: the number is always the component's probability of
          // being UP; fault trees derive the event (failure) probability.
          events.emplace(name, ComponentModel::fixed(p));
        } else if (spec == "rate") {
          const std::string a = line.expect("rate <lambda>");
          const std::size_t rate_col = line.col();
          const double lambda = parse_number(a, line_no, rate_col, "rate");
          std::string b;
          if (line.next(b)) {
            if (b != "repair") {
              fail(line_no, line.col(), "expected 'repair' after rate");
            }
            const std::string c = line.expect("repair rate");
            const double mu =
                parse_number(c, line_no, line.col(), "repair rate");
            if (lambda <= 0.0 || mu <= 0.0) {
              fail(line_no, rate_col, "rates must be > 0");
            }
            events.emplace(name, ComponentModel::repairable(lambda, mu));
          } else {
            if (lambda <= 0.0) fail(line_no, rate_col, "rate must be > 0");
            events.emplace(
                name, ComponentModel::with_lifetime(exponential(lambda)));
          }
        } else if (spec == "weibull") {
          const std::string a = line.expect("weibull <shape> <scale>");
          const double shape = parse_number(a, line_no, line.col(), "shape");
          const std::string b = line.expect("weibull <shape> <scale>");
          const double scale = parse_number(b, line_no, line.col(), "scale");
          events.emplace(name,
                         ComponentModel::with_lifetime(weibull(shape, scale)));
        } else if (spec == "lognormal") {
          const std::string a = line.expect("lognormal <mu> <sigma>");
          const double mu = parse_number(a, line_no, line.col(), "mu");
          const std::string b = line.expect("lognormal <mu> <sigma>");
          const double sigma = parse_number(b, line_no, line.col(), "sigma");
          events.emplace(
              name, ComponentModel::with_lifetime(lognormal(mu, sigma)));
        } else if (spec == "markov") {
          const std::string a = line.expect("markov <n> <k> <lambda> <mu>");
          const std::size_t n_col = line.col();
          const double nv = parse_number(a, line_no, n_col, "n");
          const std::string b = line.expect("markov <n> <k> <lambda> <mu>");
          const std::size_t k_col = line.col();
          const double kv = parse_number(b, line_no, k_col, "k");
          const std::string c = line.expect("markov <n> <k> <lambda> <mu>");
          const std::size_t rate_col = line.col();
          const double lambda = parse_number(c, line_no, rate_col, "rate");
          const std::string d = line.expect("markov <n> <k> <lambda> <mu>");
          const double mu =
              parse_number(d, line_no, line.col(), "repair rate");
          if (nv < 1.0 || nv != std::floor(nv) || nv > 100000.0) {
            fail(line_no, n_col, "n must be an integer in [1, 100000]");
          }
          if (kv < 1.0 || kv != std::floor(kv) || kv > nv) {
            fail(line_no, k_col, "k must be an integer in [1, n]");
          }
          if (lambda <= 0.0 || mu <= 0.0) {
            fail(line_no, rate_col, "rates must be > 0");
          }
          events.emplace(
              name, ComponentModel::fixed(markov_pool_availability(
                        name, static_cast<std::size_t>(nv),
                        static_cast<std::size_t>(kv), lambda, mu)));
        } else {
          fail(line_no, line.col(), "unknown event spec '" + spec + "'");
        }
        line.expect_end("event");
      } else if (keyword == "gate") {
        GateSpec g;
        const std::string name = line.expect("gate <name> <kind> ...");
        const std::size_t name_col = line.col();
        g.kind = line.expect("gate <name> <kind> ...");
        const std::size_t kind_col = line.col();
        if (events.count(name) || gates.count(name)) {
          fail(line_no, name_col, "duplicate name '" + name + "'");
        }
        g.line = line_no;
        g.col = name_col;
        if (g.kind == "kofn") {
          const std::string ktok = line.expect("k after 'kofn'");
          const double kv = parse_number(ktok, line_no, line.col(), "k");
          if (kv < 1.0 ||
              kv != static_cast<double>(static_cast<std::uint32_t>(kv))) {
            fail(line_no, line.col(), "k must be a positive integer");
          }
          g.k = static_cast<std::uint32_t>(kv);
        } else if (g.kind != "and" && g.kind != "or" && g.kind != "not") {
          fail(line_no, kind_col, "unknown gate kind '" + g.kind + "'");
        }
        std::string child;
        while (line.next(child)) g.children.push_back(child);
        if (g.children.empty()) {
          fail(line_no, line.end_col(), "gate has no children");
        }
        if (g.kind == "not" && g.children.size() != 1) {
          fail(line_no, name_col, "'not' gate takes exactly one child");
        }
        if (g.kind == "kofn" && g.k > g.children.size()) {
          fail(line_no, name_col,
               "k-of-n gate has k = " + std::to_string(g.k) + " but only " +
                   std::to_string(g.children.size()) + " children");
        }
        gates.emplace(name, std::move(g));
      } else if (keyword == "vertices") {
        const std::string n = line.expect("vertices <n>");
        const double v = parse_number(n, line_no, line.col(), "vertex count");
        if (v < 2.0 || v != std::floor(v)) {
          fail(line_no, line.col(), "vertex count must be an integer >= 2");
        }
        vertex_count = static_cast<std::size_t>(v);
      } else if (keyword == "terminals") {
        const std::string a = line.expect("terminals <s> <t>");
        source = static_cast<std::size_t>(
            parse_number(a, line_no, line.col(), "source"));
        const std::string b = line.expect("terminals <s> <t>");
        sink = static_cast<std::size_t>(
            parse_number(b, line_no, line.col(), "sink"));
        have_terminals = true;
      } else if (keyword == "edge") {
        EdgeSpec e;
        e.component = line.expect("edge <component> <u> <v> [undirected]");
        e.col = line.col();
        const std::string u =
            line.expect("edge <component> <u> <v> [undirected]");
        e.u = static_cast<std::size_t>(
            parse_number(u, line_no, line.col(), "vertex"));
        const std::string v =
            line.expect("edge <component> <u> <v> [undirected]");
        e.v = static_cast<std::size_t>(
            parse_number(v, line_no, line.col(), "vertex"));
        e.undirected = false;
        e.line = line_no;
        std::string flag;
        if (line.next(flag)) {
          if (flag != "undirected") {
            fail(line_no, line.col(), "unknown edge flag");
          }
          e.undirected = true;
        }
        edges.push_back(std::move(e));
      } else if (keyword == "top") {
        if (!top_name.empty()) {
          fail(line_no, keyword_col, "duplicate 'top' directive");
        }
        top_name = line.expect("top <name>");
        top_line = line_no;
        top_col = line.col();
      } else {
        fail(line_no, keyword_col, "unknown directive '" + keyword + "'");
      }
    } catch (const LineError& e) {
      // Record the problem and keep scanning: later lines get their own
      // diagnostics instead of being hidden behind the first one.
      errors.add(e.diag);
    }
  }

  if (model_kind.empty()) errors.add({1, 1, "missing 'model' directive"});
  errors.throw_if_any();

  ParsedModel out;
  out.name = model_name;
  parse_span.set("model", model_name);
  parse_span.set("kind", model_kind);

  if (model_kind == "relgraph") {
    const std::size_t end = line_no ? line_no : 1;
    if (!gates.empty() || !top_name.empty()) {
      errors.add({end, 1, "relgraph models take edges, not gates/top"});
    }
    if (vertex_count == 0) {
      errors.add({end, 1, "missing 'vertices' directive"});
    }
    if (!have_terminals) {
      errors.add({end, 1, "missing 'terminals' directive"});
    }
    if (edges.empty()) errors.add({end, 1, "relgraph model has no edges"});
    if (have_terminals && vertex_count > 0 &&
        (source >= vertex_count || sink >= vertex_count || source == sink)) {
      errors.add({end, 1, "bad terminals"});
    }
    // Validate every edge before building so one bad edge does not mask
    // the others.
    for (const auto& e : edges) {
      if (events.find(e.component) == events.end()) {
        errors.add({e.line, e.col,
                    "edge references unknown component '" + e.component +
                        "'"});
      } else if (vertex_count > 0 &&
                 (e.u >= vertex_count || e.v >= vertex_count)) {
        errors.add({e.line, e.col, "edge vertex out of range"});
      }
    }
    errors.throw_if_any();
    auto graph = std::make_unique<relgraph::ReliabilityGraph>(vertex_count,
                                                              source, sink);
    for (const auto& e : edges) {
      const auto it = events.find(e.component);
      if (e.undirected) {
        graph->add_undirected_edge(e.component, e.u, e.v, it->second);
      } else {
        graph->add_edge(e.component, e.u, e.v, it->second);
      }
    }
    out.graph = std::move(graph);
    return out;
  }

  try {
    if (top_name.empty()) {
      fail(line_no ? line_no : 1, 1, "missing 'top' directive");
    }

    if (model_kind == "ftree") {
      const ftree::NodePtr top = resolve_gates(
          top_name, top_line, top_col, events, gates, /*allow_not=*/true,
          [](const std::string& name) { return ftree::Node::basic(name); },
          [](const GateSpec& g, std::vector<ftree::NodePtr> ch) {
            if (g.kind == "and") return ftree::Node::and_gate(std::move(ch));
            if (g.kind == "or") return ftree::Node::or_gate(std::move(ch));
            if (g.kind == "not") return ftree::Node::not_gate(ch[0]);
            return ftree::Node::k_of_n_gate(g.k, std::move(ch));
          });
      out.fault_tree =
          std::make_unique<ftree::FaultTree>(top, std::move(events));
    } else {
      const rbd::BlockPtr top = resolve_gates(
          top_name, top_line, top_col, events, gates, /*allow_not=*/false,
          [](const std::string& name) { return rbd::Block::component(name); },
          [](const GateSpec& g, std::vector<rbd::BlockPtr> ch) {
            if (g.kind == "and") return rbd::Block::series(std::move(ch));
            if (g.kind == "or") return rbd::Block::parallel(std::move(ch));
            return rbd::Block::k_of_n(g.k, std::move(ch));
          });
      out.rbd = std::make_unique<rbd::Rbd>(top, std::move(events));
    }
  } catch (const LineError& e) {
    errors.add(e.diag);
    errors.throw_all();
  }
  return out;
}

ParsedModel parse_model_string(const std::string& text) {
  std::istringstream is(text);
  return parse_model(is);
}

ParsedModel parse_model_file(const std::string& path) {
  std::ifstream file(path);
  detail::require(file.good(), "parse_model_file: cannot open '" + path + "'");
  return parse_model(file);
}

}  // namespace relkit::io
