// The four workloads: their inputs (a pure function of the seed), their
// operations with answer checks, and the timed loops that run them
// through RelKit's real entry points. Each operation takes an optional
// span recorder, so the traced run times the very code the timed runs use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "markov/ctmc.hpp"
#include "spn/srn.hpp"
#include "trace.hpp"

namespace perfbench {

namespace markov = relkit::markov;
namespace spn = relkit::spn;
using relkit::SparseMatrix;

/// splitmix64: the benchmark's only random source, so one seed gives the
/// same inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }

 private:
  std::uint64_t state_;
};

/// What every workload run is given.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  double process_start_s = 0.0;  ///< now_s() at the top of main
  unsigned jobs = 1;
  std::string tools_dir;   ///< holds relkit_cli and relkit_serve
  std::string models_dir;  ///< the shipped examples/models
  std::string references;  ///< pinned answers (references.json)
};

/// Raw samples of one run; main.cpp turns them into metrics.
struct WorkloadResult {
  std::vector<double> setup_s;  ///< one per set-up repetition
  std::vector<double> op_s;     ///< wall time per operation
  std::vector<double> cpu_s;    ///< CPU time per operation
  std::vector<double> lat_ms;   ///< open-loop latency from the due time (serve)
  std::vector<double> tail_ms;  ///< p99 latency per second (serve)
  std::vector<double> lag_ms;   ///< open-loop generator lateness (serve)
  std::vector<double> rps;      ///< closed-loop correct responses/s per second (serve)
  double rss_peak_mb = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons
  std::vector<std::string> notes;     ///< run facts worth printing

  void fail(const std::string& why);
};

WorkloadResult run_ctmc_grid(const RunConfig& cfg);
WorkloadResult run_srn_pools(const RunConfig& cfg);
WorkloadResult run_serve_mixed(const RunConfig& cfg);
WorkloadResult run_rare_event(const RunConfig& cfg);

/// Digest of every input a workload derives from `seed` (selftest: one
/// seed, one digest).
std::uint64_t inputs_digest(const std::string& workload, std::uint64_t seed,
                            const RunConfig& cfg);

// ---- inputs and references ---------------------------------------------

/// Rate multipliers of a run's solves, drawn from the seed: unique per
/// solve (so every solve misses the solution cache) and within 1e-6 of 1
/// (so the solver's iteration count does not depend on the seed). Scaling
/// every rate leaves the stationary distribution unchanged.
constexpr std::size_t kScales = 4096;
std::vector<double> solve_scales(std::uint64_t seed);

/// References pinned in references.json.
struct References {
  double pools_availability = 0.0;
  double pools_tolerance = 0.0;
  double rare_analytic = 0.0;
  struct Pin {
    std::uint64_t seed;
    std::string estimate;  ///< as relkit_cli prints it (%.9e)
  };
  std::vector<Pin> is_pins, restart_pins;
  std::size_t is_cycles = 0, restart_cycles = 0;
};
References load_references(const std::string& path);

/// Model text of examples/models/<file>; throws when unreadable.
std::string read_model(const RunConfig& cfg, const std::string& file);

// ---- ctmc_grid ------------------------------------------------------------

/// side x side product-form availability chain (the workload uses 320):
/// two independent repairable subsystems, each a birth-death chain whose
/// rates alternate with the level's parity.
constexpr std::size_t kGridSide = 320;
markov::Ctmc build_grid(double scale, std::size_t side);
/// Closed-form stationary distribution of build_grid (any scale).
std::vector<double> grid_reference(std::size_t side);
/// Solver options of the workload: forced BiCGSTAB, as docs/solvers.md
/// recommends at this size.
markov::SteadyStateOptions grid_options(unsigned jobs);
/// Largest absolute difference between two distributions.
double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b);
/// Largest allowed max_abs_diff from the closed form, about 1% of the
/// largest stationary probability (1.5e-4). BiCGSTAB stops at
/// max|pi Q| <= 1e-10, which leaves errors of up to ~5e-7 on this chain.
constexpr double kGridTolerance = 2e-6;

/// One operation: build the grid, solve it, compare with the closed form.
/// Returns "" when correct, else the reason. `iterations` (optional)
/// receives BiCGSTAB's iteration count.
std::string grid_op(double scale, unsigned jobs,
                    const std::vector<double>& reference, Spans* spans,
                    std::size_t* iterations = nullptr);

// ---- srn_pools ------------------------------------------------------------

/// Three k-of-n pools with imperfect coverage sharing one repair crew
/// (about 10^5 tangible markings). The warm-up has 8 units per pool: big
/// enough that its solve, not thread wake-ups, sets the set-up time.
spn::Srn build_pools(double scale, bool warm_up);
/// Steady-state probability that every pool is up.
double pools_availability(const spn::GeneratedChain& g,
                          const std::vector<double>& pi);
/// Transposed off-diagonal generator and diagonal of `chain`, the form
/// robust::steady_state_residual and the solvers take.
struct Transposed {
  SparseMatrix qt;
  std::vector<double> diag;
};
Transposed transposed_generator(const markov::Ctmc& chain);

/// One operation: generate the chain, solve it with the default chain,
/// check the availability against the pin and verify the residual.
/// `facts` (optional) receives the marking count and solver.
std::string pools_op(double scale, unsigned jobs, const References& refs,
                     Spans* spans, std::string* facts = nullptr);

// ---- rare_event -------------------------------------------------------------

/// argv of one relkit_cli rare-event run on sip_cluster.rbd.
std::vector<std::string> rare_argv(const RunConfig& cfg, const char* method,
                                   std::uint64_t seed, std::size_t cycles);
/// Parsed relkit_cli --rare-event output.
struct RareOutput {
  bool ok = false;
  std::string estimate;
  double mean = 0.0, half_width = 0.0, analytic = 0.0;
};
RareOutput parse_rare_output(const std::string& out);

/// relkit_cli runs per operation, the first half IS, the rest RESTART. Lock
/// contention makes single runs at jobs > 1 bimodal; several processes per
/// operation average that out.
constexpr std::size_t kRareRunsPerOp = 4;
/// Run `i` of operation `k` in a run with seed `seed`: its method, pinned
/// seed and estimate, and cycle budget.
struct RareRun {
  const char* method;
  References::Pin pin;
  std::size_t cycles;
};
RareRun rare_run(const References& refs, std::uint64_t seed, std::size_t k,
                 std::size_t i);

/// One operation: kRareRunsPerOp relkit_cli runs (rare_run), each checked
/// against its pin and the analytic value.
struct RareOp {
  double child_cpu_s = 0.0;
  double child_rss_mb = 0.0;
  std::string failure;  ///< "" when both estimates are right
};
RareOp rare_op(const RunConfig& cfg, const References& refs, std::size_t k,
               Spans* spans);

// ---- serve_mixed ------------------------------------------------------------

/// Times of every /solve request.
extern const std::vector<double> kServeTimes;
/// `s` as a quoted JSON string.
std::string json_string(const std::string& s);
/// JSON body of a /solve request for model `text` (no id).
std::string solve_body(const std::string& text);
/// The result fields of a /solve response body: what follows the trace id
/// and, for requests with an id, the id and cached flag ("" if malformed).
std::string result_fields(const std::string& body);
/// Offered load of the open-loop phase, requests/s.
constexpr double kOpenRate = 3000.0;

}  // namespace perfbench
