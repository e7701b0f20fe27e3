#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "loadgen.hpp"
#include "parallel/pool.hpp"
#include "robust/robust.hpp"
#include "serve/json.hpp"
#include "serve/solve_json.hpp"
#include "stats.hpp"

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void WorkloadResult::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

std::vector<double> solve_scales(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> scales(kScales);
  for (double& s : scales) s = 1.0 + rng.uniform() * 0x1p-20;
  return scales;
}

namespace {

/// Set-up repetitions per run; the reported setup_s is their median.
constexpr std::size_t kSetups = 9;

/// A library workload's run. `setup()` runs first, timed from process
/// start, then `op` until `seconds` have passed (at least once), recording
/// wall and CPU time per operation. `op(k)` returns CPU seconds its
/// operation spent in child processes, 0 for in-process work.
///
/// The other kSetups - 1 set-ups repeat between operations, spread evenly
/// over the run. Set-ups timed back to back at process start all fall into
/// one phase of a shared host, and their median jumped by half between
/// runs; spread out, they sample the host as the operations do.
template <typename Setup, typename Op>
void timed_run(const RunConfig& cfg, WorkloadResult& r, Setup setup, Op op) {
  setup();
  r.setup_s.push_back(now_s() - cfg.process_start_s);
  const double start = now_s();
  for (std::size_t k = 0; k == 0 || now_s() - start < cfg.seconds; ++k) {
    if (r.setup_s.size() < kSetups &&
        now_s() - start >= cfg.seconds * static_cast<double>(r.setup_s.size()) /
                               static_cast<double>(kSetups)) {
      const double s0 = now_s();
      setup();
      r.setup_s.push_back(now_s() - s0);
    }
    const double w0 = now_s();
    const double c0 = process_cpu_s();
    ++r.attempted;
    double child_cpu = 0.0;
    try {
      child_cpu = op(k);
    } catch (const std::exception& e) {
      r.fail(std::string("exception: ") + e.what());
    }
    r.op_s.push_back(now_s() - w0);
    r.cpu_s.push_back(process_cpu_s() - c0 + child_cpu);
  }
}

/// serve_mixed's set-ups: kSetups back to back, each starting a daemon; the
/// first also pays for process start. `between` runs untimed after every
/// set-up but the last.
template <typename Setup, typename Between>
void timed_setups(const RunConfig& cfg, WorkloadResult& r, Setup setup,
                  Between between) {
  for (std::size_t i = 0; i < kSetups; ++i) {
    const double start = i == 0 ? cfg.process_start_s : now_s();
    setup();
    r.setup_s.push_back(now_s() - start);
    if (i + 1 < kSetups) between();
  }
}

std::string format(const char* fmt, double a, double b = 0.0,
                   double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

/// The in-process workloads report the peak resident set through their
/// first operation (r.rss_peak_mb): the high-water mark keeps rising with
/// every further solve, so a reading at the end of the run would depend on
/// how many solves fit into it. This note shows that growth.
std::string rss_growth_note(const WorkloadResult& r) {
  return format("peak resident set %.1f MB after the first operation, "
                "%.1f MB after all %.0f",
                r.rss_peak_mb, self_rss_peak_mb(),
                static_cast<double>(r.op_s.size()));
}

}  // namespace

// ---- references ----------------------------------------------------------------

std::string read_model(const RunConfig& cfg, const std::string& file) {
  std::ifstream in(cfg.models_dir + "/" + file);
  if (!in) throw std::runtime_error("cannot read " + cfg.models_dir + "/" + file);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

References load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const auto parsed = relkit::serve::parse_json(text.str());
  if (!parsed.ok) throw std::runtime_error("references: " + parsed.error);
  using relkit::serve::JsonValue;
  auto number = [](const JsonValue* obj, const char* key) {
    const JsonValue* v = obj != nullptr ? obj->get(key) : nullptr;
    if (v == nullptr || !v->is_number()) {
      throw std::runtime_error(std::string("references: no number ") + key);
    }
    return v->as_number();
  };
  References refs;
  const JsonValue* pools = parsed.value.get("srn_pools");
  refs.pools_availability = number(pools, "availability");
  refs.pools_tolerance = number(pools, "tolerance");
  const JsonValue* rare = parsed.value.get("rare_event");
  refs.rare_analytic = number(rare, "analytic");
  refs.is_cycles = static_cast<std::size_t>(number(rare, "is_cycles"));
  refs.restart_cycles = static_cast<std::size_t>(number(rare, "restart_cycles"));
  for (const auto& [key, out] :
       {std::pair{"is", &refs.is_pins}, std::pair{"restart", &refs.restart_pins}}) {
    const JsonValue* list = rare != nullptr ? rare->get(key) : nullptr;
    if (list == nullptr || !list->is_array() || list->as_array().empty()) {
      throw std::runtime_error(std::string("references: no pins for ") + key);
    }
    for (const JsonValue& pin : list->as_array()) {
      const JsonValue* est = pin.get("estimate");
      if (est == nullptr || !est->is_string()) {
        throw std::runtime_error("references: pin without an estimate");
      }
      out->push_back({static_cast<std::uint64_t>(number(&pin, "seed")),
                      est->as_string()});
    }
  }
  return refs;
}

// ---- ctmc_grid -------------------------------------------------------------

namespace {

/// Per-level rates of one subsystem, alternating with the level's parity:
/// failure moves level k -> k+1, repair moves k+1 -> k.
struct Axis {
  double fail[2];
  double repair[2];
};
constexpr Axis kAxes[2] = {{{0.9, 1.1}, {1.0, 1.0}},
                           {{0.8, 1.2}, {1.0, 1.0}}};

std::vector<double> axis_distribution(const Axis& a, std::size_t side) {
  std::vector<double> p(side);
  p[0] = 1.0;
  for (std::size_t k = 0; k + 1 < side; ++k) {
    p[k + 1] = p[k] * a.fail[k % 2] / a.repair[k % 2];
  }
  double sum = 0.0;
  for (const double x : p) sum += x;
  for (double& x : p) x /= sum;
  return p;
}

}  // namespace

markov::Ctmc build_grid(double scale, std::size_t side) {
  markov::Ctmc chain;
  chain.add_states(side * side);
  for (std::size_t i = 0; i < side; ++i) {
    for (std::size_t j = 0; j < side; ++j) {
      const std::size_t s = i * side + j;
      if (i + 1 < side) {
        chain.add_transition(s, s + side, scale * kAxes[0].fail[i % 2]);
        chain.add_transition(s + side, s, scale * kAxes[0].repair[i % 2]);
      }
      if (j + 1 < side) {
        chain.add_transition(s, s + 1, scale * kAxes[1].fail[j % 2]);
        chain.add_transition(s + 1, s, scale * kAxes[1].repair[j % 2]);
      }
    }
  }
  return chain;
}

std::vector<double> grid_reference(std::size_t side) {
  const auto a = axis_distribution(kAxes[0], side);
  const auto b = axis_distribution(kAxes[1], side);
  std::vector<double> pi(side * side);
  for (std::size_t i = 0; i < side; ++i) {
    for (std::size_t j = 0; j < side; ++j) pi[i * side + j] = a[i] * b[j];
  }
  return pi;
}

markov::SteadyStateOptions grid_options(unsigned jobs) {
  markov::SteadyStateOptions opts;
  opts.solver = relkit::robust::SolverChoice::kBicgstab;
  opts.jobs = jobs;
  return opts;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

std::string grid_op(double scale, unsigned jobs,
                    const std::vector<double>& reference, Spans* spans,
                    std::size_t* iterations) {
  const Scope op(spans, "ctmc_grid.op");
  markov::Ctmc chain;
  {
    const Scope s(spans, "markov.build");
    chain = build_grid(scale, kGridSide);
  }
  relkit::robust::SolveReport report;
  std::vector<double> pi;
  {
    const Scope s(spans, "markov.steady_state");
    pi = chain.steady_state(grid_options(jobs), &report);
  }
  const Scope check(spans, "check");
  if (iterations != nullptr) *iterations = report.iterations;
  const double err = max_abs_diff(pi, reference);
  if (report.cache_hit) return "grid solve was a cache hit";
  if (!(err <= kGridTolerance)) {
    return format("grid pi off the closed form by %.3g", err);
  }
  return "";
}

WorkloadResult run_ctmc_grid(const RunConfig& cfg) {
  WorkloadResult r;
  std::vector<double> reference;
  std::vector<double> scales;
  std::size_t iterations = 0;
  timed_run(
      cfg, r,
      [&] {
        scales = solve_scales(cfg.seed);
        reference = grid_reference(kGridSide);
        // Warm-up on a small grid: starts the pool, faults in the solver
        // code. Cache off, so every set-up pays the solve, not a lookup.
        markov::SteadyStateOptions opts = grid_options(cfg.jobs);
        opts.use_cache = false;
        const auto pi = build_grid(scales[0], 32).steady_state(opts);
        if (!(max_abs_diff(pi, grid_reference(32)) <= kGridTolerance)) {
          throw std::runtime_error("warm-up grid solve is wrong");
        }
      },
      [&](std::size_t k) {
        const std::string failure = grid_op(scales[(1 + k) % kScales], cfg.jobs,
                                            reference, nullptr, &iterations);
        if (!failure.empty()) r.fail(failure);
        if (k == 0) r.rss_peak_mb = self_rss_peak_mb();
        return 0.0;
      });
  r.notes.push_back(rss_growth_note(r));
  r.notes.push_back("bicgstab iterations per solve: " +
                    std::to_string(iterations));
  return r;
}

// ---- srn_pools -------------------------------------------------------------

namespace {

/// One k-of-n pool: n units, at least k up; a failure is covered with
/// probability `coverage`, an uncovered one takes the pool down until a
/// reboot completes. The pools share one repair crew, pool 0 first.
struct Pool {
  unsigned n, k;
  double fail, repair, coverage, reboot;
};
constexpr Pool kPools[3] = {{21, 17, 0.002, 1.0, 0.95, 12.0},
                            {22, 18, 0.003, 1.5, 0.97, 10.0},
                            {23, 19, 0.004, 2.0, 0.99, 6.0}};

/// Places of pool i are 4i .. 4i+3: up, just failed (vanishing), down
/// awaiting repair, rebooting.
constexpr std::size_t kUp = 0, kBoot = 3;

/// Verified residual bound of every solve (the chain's rates are O(1)).
constexpr double kPoolsResidual = 1e-9;

}  // namespace

spn::Srn build_pools(double scale, bool warm_up) {
  spn::Srn net;
  std::vector<spn::PlaceId> queued;
  for (std::size_t i = 0; i < 3; ++i) {
    const Pool& p = kPools[i];
    const std::string tag = std::to_string(i);
    const auto up = net.add_place("up" + tag, warm_up ? 8 : p.n);
    const auto failed = net.add_place("failed" + tag);
    const auto down = net.add_place("down" + tag);
    const auto boot = net.add_place("boot" + tag);
    const double fail = scale * p.fail;
    const auto t_fail = net.add_timed(
        "fail" + tag, [up, fail](const spn::Marking& m) { return fail * m[up]; });
    net.add_input_arc(t_fail, up);
    net.add_output_arc(t_fail, failed);
    net.add_inhibitor_arc(t_fail, boot);
    const auto t_cov = net.add_immediate("covered" + tag, p.coverage);
    net.add_input_arc(t_cov, failed);
    net.add_output_arc(t_cov, down);
    const auto t_unc = net.add_immediate("uncovered" + tag, 1.0 - p.coverage);
    net.add_input_arc(t_unc, failed);
    net.add_output_arc(t_unc, down);
    net.add_output_arc(t_unc, boot);
    const auto t_boot = net.add_timed("reboot" + tag, scale * p.reboot);
    net.add_input_arc(t_boot, boot);
    const auto t_rep = net.add_timed("repair" + tag, scale * p.repair);
    net.add_input_arc(t_rep, down);
    net.add_output_arc(t_rep, up);
    for (const auto earlier : queued) net.add_inhibitor_arc(t_rep, earlier);
    queued.push_back(down);
  }
  return net;
}

double pools_availability(const spn::GeneratedChain& g,
                          const std::vector<double>& pi) {
  double a = 0.0;
  for (std::size_t s = 0; s < pi.size(); ++s) {
    const auto& m = g.markings[s];
    bool up = true;
    for (std::size_t i = 0; i < 3 && up; ++i) {
      up = m[4 * i + kUp] >= kPools[i].k && m[4 * i + kBoot] == 0;
    }
    if (up) a += pi[s];
  }
  return a;
}

Transposed transposed_generator(const markov::Ctmc& chain) {
  const SparseMatrix q = chain.sparse_generator();
  const std::size_t n = q.rows();
  relkit::SparseBuilder bt(n, n);
  Transposed t;
  t.diag.assign(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = q.row_begin(r); k < q.row_end(r); ++k) {
      if (q.col(k) == r) {
        t.diag[r] += q.value(k);
      } else {
        bt.add(q.col(k), r, q.value(k));
      }
    }
  }
  t.qt = bt.build();
  return t;
}

std::string pools_op(double scale, unsigned jobs, const References& refs,
                     Spans* spans, std::string* facts) {
  const Scope op(spans, "srn_pools.op");
  spn::GeneratedChain g;
  {
    const Scope s(spans, "spn.generate");
    g = build_pools(scale, false).generate();
  }
  markov::SteadyStateOptions opts;
  opts.jobs = jobs;
  relkit::robust::SolveReport report;
  std::vector<double> pi;
  {
    const Scope s(spans, "markov.steady_state");
    pi = g.ctmc.steady_state(opts, &report);
  }
  const Scope check(spans, "check");
  if (facts != nullptr) {
    *facts = std::to_string(g.markings.size()) + " tangible markings, " +
             std::to_string(g.vanishing_count) + " vanishing, solved by " +
             report.method + " in " + std::to_string(report.iterations) +
             " iterations";
  }
  const double a = pools_availability(g, pi);
  const Transposed t = transposed_generator(g.ctmc);
  const relkit::parallel::PoolLease lease(jobs);
  const double res =
      relkit::robust::steady_state_residual(t.qt, t.diag, pi, lease.get());
  if (report.cache_hit) return "pools solve was a cache hit";
  if (!(std::abs(a - refs.pools_availability) <= refs.pools_tolerance) ||
      !(res <= kPoolsResidual)) {
    return format("pools availability %.12f (pinned %.12f), residual %.3g", a,
                  refs.pools_availability, res);
  }
  return "";
}

WorkloadResult run_srn_pools(const RunConfig& cfg) {
  WorkloadResult r;
  References refs;
  std::vector<double> scales;
  std::string facts;
  timed_run(
      cfg, r,
      [&] {
        refs = load_references(cfg.references);
        scales = solve_scales(cfg.seed);
        const auto g = build_pools(scales[0], true).generate();
        markov::SteadyStateOptions opts;
        opts.jobs = cfg.jobs;
        opts.use_cache = false;  // every set-up pays the solve, not a lookup
        const auto pi = g.ctmc.steady_state(opts);
        const Transposed t = transposed_generator(g.ctmc);
        if (!(relkit::robust::steady_state_residual(t.qt, t.diag, pi) <=
              kPoolsResidual)) {
          throw std::runtime_error("warm-up pools solve is wrong");
        }
      },
      [&](std::size_t k) {
        const std::string failure = pools_op(scales[(1 + k) % kScales],
                                             cfg.jobs, refs, nullptr, &facts);
        if (!failure.empty()) r.fail(failure);
        if (k == 0) r.rss_peak_mb = self_rss_peak_mb();
        return 0.0;
      });
  r.notes.push_back(rss_growth_note(r));
  r.notes.push_back(facts);
  return r;
}

// ---- rare_event ------------------------------------------------------------

std::vector<std::string> rare_argv(const RunConfig& cfg, const char* method,
                                   std::uint64_t seed, std::size_t cycles) {
  // A relative-error target no run reaches makes the cycle cap the budget.
  return {cfg.tools_dir + "/relkit_cli",
          cfg.models_dir + "/sip_cluster.rbd",
          std::string("--rare-event=") + method,
          "--jobs",
          std::to_string(cfg.jobs),
          "--seed",
          std::to_string(seed),
          "--rare-rel-err",
          "1e-9",
          "--rare-max-cycles",
          std::to_string(cycles)};
}

RareOutput parse_rare_output(const std::string& out) {
  RareOutput r;
  const auto est = out.find("estimate : ");
  const auto ana = out.find("analytic : ");
  const auto ci = out.find("CI +/- ");
  if (est == std::string::npos || ana == std::string::npos ||
      ci == std::string::npos) {
    return r;
  }
  r.estimate = out.substr(est + 11, out.find(' ', est + 11) - (est + 11));
  r.mean = std::strtod(r.estimate.c_str(), nullptr);
  r.half_width = std::strtod(out.c_str() + ci + 7, nullptr);
  r.analytic = std::strtod(out.c_str() + ana + 11, nullptr);
  r.ok = r.mean > 0.0 && r.half_width > 0.0;
  return r;
}

RareRun rare_run(const References& refs, std::uint64_t seed, std::size_t k,
                 std::size_t i) {
  constexpr std::size_t kPerMethod = kRareRunsPerOp / 2;
  const bool is = i < kPerMethod;
  const auto& pins = is ? refs.is_pins : refs.restart_pins;
  return {is ? "is" : "restart",
          pins[(seed + kPerMethod * k + i % kPerMethod) % pins.size()],
          is ? refs.is_cycles : refs.restart_cycles};
}

RareOp rare_op(const RunConfig& cfg, const References& refs, std::size_t k,
               Spans* spans) {
  const Scope op(spans, "rare_event.op");
  RareOp result;
  for (std::size_t i = 0; i < kRareRunsPerOp; ++i) {
    const auto [method, pin, cycles] = rare_run(refs, cfg.seed, k, i);
    ChildRun run;
    {
      const Scope s(spans, "relkit_cli --rare-event");
      run = run_child(rare_argv(cfg, method, pin.seed, cycles), 120.0);
    }
    result.child_cpu_s += run.cpu_s;
    result.child_rss_mb = std::max(result.child_rss_mb, run.rss_peak_mb);
    const RareOutput out = parse_rare_output(run.out);
    const bool covered = out.mean - out.half_width <= refs.rare_analytic &&
                         refs.rare_analytic <= out.mean + out.half_width;
    if (run.exit_code != 0 || !out.ok || out.estimate != pin.estimate ||
        !(std::abs(out.analytic - refs.rare_analytic) <=
          1e-9 * refs.rare_analytic) ||
        !covered) {
      result.failure = std::string(method) + " seed " +
                       std::to_string(pin.seed) + ": estimate " +
                       (out.ok ? out.estimate : "unparsed") + " (pinned " +
                       pin.estimate + ")" +
                       (covered ? "" : ", CI misses the analytic value");
    }
  }
  return result;
}

WorkloadResult run_rare_event(const RunConfig& cfg) {
  WorkloadResult r;
  References refs;
  timed_run(
      cfg, r,
      [&] {
        refs = load_references(cfg.references);
        const ChildRun warm = run_child(rare_argv(cfg, "is", 1, 4096), 60.0);
        if (warm.exit_code != 0 || !parse_rare_output(warm.out).ok) {
          throw std::runtime_error("warm-up rare-event run failed");
        }
      },
      [&](std::size_t k) {
        const RareOp op = rare_op(cfg, refs, k, nullptr);
        if (!op.failure.empty()) r.fail(op.failure);
        r.rss_peak_mb = std::max(r.rss_peak_mb, op.child_rss_mb);
        return op.child_cpu_s;  // the CLI processes do the work
      });
  return r;
}

// ---- serve_mixed -----------------------------------------------------------

const std::vector<double> kServeTimes = {10.0, 1000.0};

namespace {

/// Perturbed variants per model: more than SolutionCache::kMaxEntries (512),
/// so the daemon's LRU churns on the unique share of the traffic.
constexpr std::size_t kVariants = 2048;
constexpr std::size_t kKeysPerModel = kVariants + 1;  // variant 0: verbatim
/// Request ids cycled through by the retry share of the traffic.
constexpr std::size_t kIds = 64;

const char* const kServeModels[] = {"bridge.relgraph", "cluster.rbd",
                                    "georedundant.rbd", "raid.rbd",
                                    "sip_cluster.rbd", "webservice.ftree"};
constexpr std::size_t kModels = std::size(kServeModels);

}  // namespace

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

std::string body_with(const std::string& text, const std::string& id) {
  std::string body = "{";
  if (!id.empty()) body += "\"id\":" + json_string(id) + ",";
  body += "\"model\":" + json_string(text) + ",\"times\":[";
  for (std::size_t i = 0; i < kServeTimes.size(); ++i) {
    body += (i ? "," : "") + relkit::serve::json_number(kServeTimes[i]);
  }
  return body + "]}";
}

/// Model text with its parameters perturbed for variant v (0 = verbatim):
/// failure rates scaled by f = 1 + v/8192, Weibull scales by 1/f, and the
/// complements of fixed probabilities by f.
std::string perturb(const std::string& text, std::size_t v) {
  if (v == 0) return text;
  const double f = 1.0 + static_cast<double>(v) / 8192.0;
  std::istringstream in(text);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    std::istringstream words(line);
    std::vector<std::string> w;
    for (std::string word; words >> word;) w.push_back(word);
    if (w.empty() || w[0] != "event") {
      out += line + "\n";
      continue;
    }
    auto at = [&](std::size_t i) {
      return i < w.size() ? std::atof(w[i].c_str()) : 0.0;
    };
    auto put = [&](std::size_t i, double x) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.9g", x);
      if (i < w.size()) w[i] = buf;
    };
    for (std::size_t i = 2; i < w.size(); ++i) {
      if (w[i] == "rate") put(i + 1, at(i + 1) * f);
      if (w[i] == "prob") put(i + 1, 1.0 - (1.0 - at(i + 1)) * f);
      if (w[i] == "weibull") put(i + 2, at(i + 2) / f);
      if (w[i] == "markov") put(i + 3, at(i + 3) * f);
    }
    for (std::size_t i = 0; i < w.size(); ++i) out += (i ? " " : "") + w[i];
    out += "\n";
  }
  return out;
}

/// Every request the workload can send, as full HTTP bytes.
struct Corpus {
  std::vector<std::string> texts;     ///< model text per key
  std::vector<std::string> requests;  ///< per key, without an id
  std::vector<std::string> id_requests;
  std::vector<std::size_t> id_key;    ///< key behind each id
};

Corpus build_corpus(const RunConfig& cfg) {
  Corpus c;
  for (const char* file : kServeModels) {
    const std::string text = read_model(cfg, file);
    for (std::size_t v = 0; v < kKeysPerModel; ++v) {
      c.texts.push_back(perturb(text, v));
      c.requests.push_back(http_post_bytes("/solve", solve_body(c.texts.back())));
    }
  }
  Rng rng(cfg.seed ^ 0x1d5ULL);
  for (std::size_t j = 0; j < kIds; ++j) {
    const std::size_t key =
        (j % kModels) * kKeysPerModel + 1 + rng.next() % kVariants;
    c.id_key.push_back(key);
    const std::string id = std::to_string(cfg.seed) + "-" + std::to_string(j);
    c.id_requests.push_back(http_post_bytes("/solve", body_with(c.texts[key], id)));
  }
  return c;
}

/// Request k of a run: half byte-identical repeats of the shipped models,
/// 45% perturbed variants, 5% retries of a request id.
struct Pick {
  std::size_t key;
  std::size_t id;  ///< kIds = no id
};
Pick pick_request(std::uint64_t seed, std::uint64_t k) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + k);
  const double u = rng.uniform();
  const std::size_t model = rng.next() % kModels;
  if (u < 0.5) return {model * kKeysPerModel, kIds};
  if (u < 0.95) {
    return {model * kKeysPerModel + 1 + rng.next() % kVariants, kIds};
  }
  return {0, rng.next() % kIds};
}

}  // namespace

std::string solve_body(const std::string& text) { return body_with(text, ""); }

std::string result_fields(const std::string& body) {
  const std::string head = "{\"trace_id\":\"";
  // 32 hex digits, a quote and a comma follow the head.
  if (body.rfind(head, 0) != 0 || body.size() < head.size() + 35 ||
      body.back() != '}') {
    return "";
  }
  std::size_t at = head.size() + 34;
  if (body.compare(at, 6, "\"id\":\"") == 0) {
    const auto cached = body.find("\"cached\":", at);
    if (cached == std::string::npos) return "";
    at = body.find(',', cached) + 1;
  }
  return body.substr(at, body.size() - 1 - at);
}

WorkloadResult run_serve_mixed(const RunConfig& cfg) {
  WorkloadResult r;
  Corpus corpus;
  std::unique_ptr<Daemon> daemon;
  int port = 0;
  const std::vector<std::string> argv = {cfg.tools_dir + "/relkit_serve",
                                         "--port", "0", "--jobs",
                                         std::to_string(cfg.jobs)};
  timed_setups(
      cfg, r,
      [&] {
        corpus = build_corpus(cfg);
        daemon = std::make_unique<Daemon>(argv);
        const std::string line = daemon->wait_line("listening on ", 30.0);
        if (line.empty()) throw std::runtime_error("relkit_serve did not start");
        port = std::atoi(line.c_str() + 13);
        for (std::size_t m = 0; m < kModels; ++m) {
          const Exchange ex =
              http_exchange(port, corpus.requests[m * kKeysPerModel]);
          if (!ex.ok || ex.status != 200) {
            throw std::runtime_error("warm-up request failed");
          }
        }
      },
      [&] { daemon->stop(); });

  // Responses by key, checked against local solves once the daemon is
  // gone: key -> distinct result fields -> count.
  std::unordered_map<std::size_t, std::map<std::string, std::size_t>> seen;
  std::mutex mu;
  auto send = [&](int phase, std::uint64_t k) {
    const Pick pick =
        pick_request(cfg.seed, phase == 0 ? k : (std::uint64_t{1} << 40) + k);
    const bool with_id = pick.id < kIds;
    const Exchange ex = http_exchange(
        port, with_id ? corpus.id_requests[pick.id] : corpus.requests[pick.key]);
    std::string fields =
        ex.ok && ex.status == 200 ? result_fields(ex.body) : "";
    const std::lock_guard<std::mutex> lock(mu);
    if (fields.empty()) {
      r.fail(!ex.ok ? std::string("transport failure")
                    : "status " + std::to_string(ex.status) + ": " +
                          ex.body.substr(0, 120));
      return false;
    }
    ++seen[with_id ? corpus.id_key[pick.id] : pick.key][fields];
    return true;
  };

  // Open loop at a fixed rate: the daemon's CPU per response is sampled
  // every 2 s. Then a closed loop with one connection per job, its
  // throughput sampled every second. Windowed figures are reported as
  // their median, so one host hiccup moves one window, not the run.
  const double open_s = std::floor(0.6 * cfg.seconds);
  const double closed_s = std::max(1.0, std::floor(cfg.seconds - open_s));
  double last_cpu = 0.0;
  std::size_t last_good = 0;
  const auto open = open_loop(
      kOpenRate, open_s, cfg.jobs, [&](std::size_t k) { return send(0, k); },
      std::min(2.0, open_s), [&](double, std::size_t good) {
        const double cpu = daemon->cpu_s();
        if (good > last_good) {
          r.cpu_s.push_back((cpu - last_cpu) /
                            static_cast<double>(good - last_good));
        }
        last_cpu = cpu;
        last_good = good;
      });
  std::map<long, std::vector<double>> per_second;  // latency by due second
  for (const Timed& t : open) {
    r.op_s.push_back(t.done - t.sent);
    r.lat_ms.push_back(1e3 * (t.done - t.due));
    r.lag_ms.push_back(1e3 * (t.sent - t.due));
    per_second[static_cast<long>(t.due)].push_back(1e3 * (t.done - t.due));
  }
  for (const auto& [second, lat] : per_second) {
    r.tail_ms.push_back(supported_tail(lat).value);
  }
  r.notes.push_back(
      "open loop: generator lag p50 " +
      format("%.3g ms, p99 %.3g ms; round trip from the actual send p99 %.3g ms",
             median(r.lag_ms), supported_tail(r.lag_ms).value,
             1e3 * supported_tail(r.op_s).value));
  double last_t = 0.0;
  const auto closed = closed_loop(
      closed_s, cfg.jobs, 1.0, [&](std::size_t k) { return send(1, k); },
      [&](double t, std::size_t good) {
        if (t > last_t) {
          r.rps.push_back(static_cast<double>(good - last_good) / (t - last_t));
        }
        last_t = t;
        last_good = good;
      });
  r.rss_peak_mb = daemon->rss_peak_mb();
  r.notes.push_back(daemon->stop() ? "daemon exited on SIGTERM"
                                   : "daemon needed SIGKILL after SIGTERM");
  r.attempted = open.size() + closed.size();
  r.notes.push_back("closed loop: " + std::to_string(closed.size()) +
                    " requests, median round trip " +
                    format("%.3g ms", 1e3 * median(closed)));

  // Every distinct response must equal the local solve of the same spec.
  for (const auto& [key, variants] : seen) {
    relkit::serve::SolveSpec spec;
    spec.inline_text = corpus.texts[key];
    spec.times = kServeTimes;
    const std::string reference = relkit::serve::solve_model(spec).fields;
    for (const auto& [fields, count] : variants) {
      if (fields == reference) continue;
      for (std::size_t i = 0; i < count; ++i) {
        r.fail("response differs from the local solve: " +
               fields.substr(0, 120));
      }
    }
  }
  return r;
}

// ---- inputs digest -------------------------------------------------------------

std::uint64_t inputs_digest(const std::string& workload, std::uint64_t seed,
                            const RunConfig& cfg) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  };
  if (workload == "ctmc_grid" || workload == "srn_pools") {
    const auto scales = solve_scales(seed);
    mix(scales.data(), scales.size() * sizeof(double));
  } else if (workload == "serve_mixed") {
    RunConfig c = cfg;
    c.seed = seed;
    const Corpus corpus = build_corpus(c);
    for (std::uint64_t k = 0; k < 4096; ++k) {
      const Pick pick = pick_request(seed, k);
      const std::string& bytes = pick.id < kIds ? corpus.id_requests[pick.id]
                                                : corpus.requests[pick.key];
      mix(bytes.data(), bytes.size());
    }
  } else if (workload == "rare_event") {
    const References refs = load_references(cfg.references);
    for (std::size_t k = 0; k < 64; ++k) {
      for (std::size_t i = 0; i < kRareRunsPerOp; ++i) {
        const RareRun run = rare_run(refs, seed, k, i);
        for (const std::string& arg :
             rare_argv(cfg, run.method, run.pin.seed, run.cycles)) {
          mix(arg.data(), arg.size() + 1);
        }
        mix(run.pin.estimate.data(), run.pin.estimate.size());
      }
    }
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  return h;
}

}  // namespace perfbench
