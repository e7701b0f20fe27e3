// Unit tests for the large-state-space solver tier: the RCM reordering
// (bandwidth recovery, permutation algebra), the preconditioned BiCGSTAB
// kernel (closed-form agreement on a large birth-death chain, the
// deadline-mid-Krylov contract, iteration-cap exhaustion, forced outcomes
// pinned bit for bit at jobs 1, 2 and 4), the NCD
// detector / aggregation-disaggregation budget contract, the books every
// iterative kernel keeps on each exit, the auto chain on a drifted
// birth-death family, and the thread-local / process-wide solver-choice
// plumbing. Cross-solver statistical agreement lives in
// test_solver_agreement.cpp; whole-chain fallback behavior in
// test_robustness.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "common/krylov.hpp"
#include "common/linsolve.hpp"
#include "common/reorder.hpp"
#include "common/sparse.hpp"
#include "obs/obs.hpp"
#include "robust/budget.hpp"
#include "robust/fault_injection.hpp"
#include "robust/ncd.hpp"
#include "robust/report.hpp"
#include "robust/robust.hpp"

using namespace relkit;

namespace {

// Transposed generator + diagonal of a birth-death chain with constant
// rates: state i fails to i+1 at `lam`, repairs to i-1 at `mu`.
void birth_death_system(std::size_t n, double lam, double mu,
                        SparseMatrix& qt, std::vector<double>& diag) {
  SparseBuilder b(n, n);
  diag.assign(n, 0.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.add(i + 1, i, lam);  // Q(i, i+1) = lam -> qt(i+1, i)
    b.add(i, i + 1, mu);   // Q(i+1, i) = mu  -> qt(i, i+1)
    diag[i] -= lam;
    diag[i + 1] -= mu;
  }
  qt = b.build();
}

// Stationary distribution of that chain in closed form: geometric with
// ratio lam/mu.
std::vector<double> birth_death_closed_form(std::size_t n, double lam,
                                            double mu) {
  std::vector<double> pi(n);
  const double r = lam / mu;
  double v = 1.0, total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    pi[i] = v;
    total += v;
    v *= r;
  }
  for (double& x : pi) x /= total;
  return pi;
}

// Planted NCD system: `blocks` strongly-mixing birth-death blocks of
// `block_size` states (rates ~1) coupled in a ring at `weak`, from state
// `link` of each block to the first state of the next. With link = 0 each
// block is entered at its first state only, and A/D converges in one sweep.
void planted_ncd_system(std::size_t blocks, std::size_t block_size,
                        double weak, SparseMatrix& qt,
                        std::vector<double>& diag, std::size_t link = 0) {
  const std::size_t n = blocks * block_size;
  SparseBuilder b(n, n);
  diag.assign(n, 0.0);
  auto edge = [&](std::size_t from, std::size_t to, double rate) {
    b.add(to, from, rate);  // qt(to, from) = Q(from, to)
    diag[from] -= rate;
  };
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::size_t base = blk * block_size;
    for (std::size_t i = 0; i + 1 < block_size; ++i) {
      edge(base + i, base + i + 1, 1.0);
      edge(base + i + 1, base + i, 1.5);
    }
    const std::size_t next = ((blk + 1) % blocks) * block_size;
    edge(base + link, next, weak);
    edge(next, base + link, weak);
  }
  qt = b.build();
}

// Product-form k x k grid with mildly state-dependent rates (the chain
// test_obs prices kernel traffic on), every rate multiplied by `scale`.
void grid_system(std::size_t k, SparseMatrix& qt, std::vector<double>& diag,
                 double scale = 1.0) {
  const std::size_t n = k * k;
  SparseBuilder b(n, n);
  diag.assign(n, 0.0);
  const auto edge = [&](std::size_t from, std::size_t to, double rate) {
    rate *= scale;
    b.add(to, from, rate);  // qt(to, from) = Q(from, to)
    diag[from] -= rate;
  };
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t s = i * k + j;
      if (i + 1 < k) edge(s, s + k, 0.7 + 0.001 * j);
      if (i > 0) edge(s, s - k, 1.1);
      if (j + 1 < k) edge(s, s + 1, 0.5 + 0.002 * i);
      if (j > 0) edge(s, s - 1, 0.9);
    }
  }
  qt = b.build();
}

}  // namespace

// ---- RCM reordering --------------------------------------------------------

// A banded matrix whose labels have been scrambled has bandwidth ~n; RCM
// on the scrambled pattern must recover a narrow band again.
TEST(Reorder, RcmRecoversBandOnShuffledBandedMatrix) {
  const std::size_t n = 300;
  std::mt19937_64 rng(42);
  std::vector<std::size_t> sigma(n);
  std::iota(sigma.begin(), sigma.end(), 0);
  std::shuffle(sigma.begin(), sigma.end(), rng);

  // Half-bandwidth-2 pattern in the original labels, emitted scrambled.
  SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(sigma[i], sigma[i], -1.0);
    for (std::size_t d = 1; d <= 2; ++d) {
      if (i + d < n) {
        b.add(sigma[i], sigma[i + d], 0.5);
        b.add(sigma[i + d], sigma[i], 0.5);
      }
    }
  }
  const SparseMatrix shuffled = b.build();
  const std::size_t before = bandwidth(shuffled);
  ASSERT_GT(before, n / 4) << "shuffle failed to destroy the band";

  const std::vector<std::size_t> perm = rcm_ordering(shuffled);
  const std::size_t after = bandwidth(permute_symmetric(shuffled, perm));
  // RCM is a heuristic, but on a path-like graph of half-bandwidth 2 it
  // must land within a small constant of optimal.
  EXPECT_LE(after, 8u) << "RCM bandwidth " << after << " (was " << before
                       << ")";
}

TEST(Reorder, InvertOrderingRoundTrips) {
  std::mt19937_64 rng(7);
  for (const std::size_t n : {1u, 2u, 17u, 256u}) {
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);
    const std::vector<std::size_t> inv = invert_ordering(perm);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(inv[perm[i]], i);
      EXPECT_EQ(perm[inv[i]], i);
    }
  }
}

// ---- BiCGSTAB kernel -------------------------------------------------------

// 2000-state birth-death chain against the geometric closed form (mild
// stiffness — lam/mu = 0.98, the availability regime): the kernel must
// hit its 1e-12 verified-residual target and the returned report must
// describe a converged solve.
TEST(Bicgstab, MatchesClosedFormOnLargeBirthDeath) {
  const std::size_t n = 2000;
  SparseMatrix qt;
  std::vector<double> diag;
  birth_death_system(n, 1.0, 1.02, qt, diag);
  const std::vector<double> expect = birth_death_closed_form(n, 1.0, 1.02);
  BicgstabOptions opts;
  opts.tol = 1e-12;
  opts.jobs = 1;
  const BicgstabResult r = bicgstab_steady_state(qt, diag, opts);
  EXPECT_LT(r.residual, 1e-12);
  EXPECT_TRUE(r.report.converged);
  EXPECT_EQ(r.report.method, "bicgstab");
  ASSERT_EQ(r.pi.size(), n);
  // Pointwise agreement is looser than the residual: on a long chain the
  // residual-to-solution amplification grows with the mixing time.
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(r.pi[i], expect[i], 1e-8) << "state " << i;
  }
}

// Disabling RCM must not change the answer, only (possibly) the work.
TEST(Bicgstab, RcmOnAndOffAgree) {
  const std::size_t n = 500;
  SparseMatrix qt;
  std::vector<double> diag;
  birth_death_system(n, 1.0, 1.05, qt, diag);
  BicgstabOptions with;
  with.jobs = 1;
  BicgstabOptions without = with;
  without.use_rcm = false;
  const std::vector<double> a = bicgstab_steady_state(qt, diag, with).pi;
  const std::vector<double> b = bicgstab_steady_state(qt, diag, without).pi;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(a[i], b[i], 1e-12) << "state " << i;
  }
}

// The deadline-mid-Krylov contract: a deadline that fires inside the
// iteration must surface as ConvergenceError carrying the best normalized
// iterate of the right size AND a populated ConvergenceTrace — the trace
// sample is recorded before the deadline check, so even the first
// residual check's abort has history to show.
TEST(Bicgstab, DeadlineMidKrylovCarriesPartialAndTrace) {
  // At tol 0 BiCGSTAB on the 240 x 240 grid (57,600 states, about a
  // millisecond per iteration) never stops on its own, so a 50ms deadline
  // reliably fires mid-iteration — no luck involved.
  SparseMatrix qt;
  std::vector<double> diag;
  grid_system(240, qt, diag);
  const std::size_t n = qt.rows();

  BicgstabOptions opts;
  opts.tol = 0.0;
  opts.jobs = 1;
  const robust::ScopedDeadline deadline(robust::Deadline::after_seconds(0.05));
  try {
    bicgstab_steady_state(qt, diag, opts);
    FAIL() << "tol = 0 cannot converge";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
        << e.what();
    ASSERT_EQ(e.partial_result().size(), n);
    double mass = 0.0;
    for (const double v : e.partial_result()) {
      ASSERT_TRUE(std::isfinite(v));
      ASSERT_GE(v, 0.0);
      mass += v;
    }
    EXPECT_NEAR(mass, 1.0, 1e-9) << "partial iterate is not normalized";
    EXPECT_FALSE(e.report().converged);
    EXPECT_GT(e.report().iterations, 0u);
    EXPECT_FALSE(e.report().convergence.samples().empty())
        << "deadline abort lost the convergence trace";
  }
}

// An already-expired deadline aborts on the FIRST residual check — and
// still carries one trace sample.
TEST(Bicgstab, PreExpiredDeadlineStillPopulatesTrace) {
  const std::size_t n = 200;
  SparseMatrix qt;
  std::vector<double> diag;
  birth_death_system(n, 1.0, 1.2, qt, diag);
  BicgstabOptions opts;
  opts.tol = 0.0;
  opts.jobs = 1;
  const robust::ScopedDeadline expired(robust::Deadline::after_seconds(-1.0));
  try {
    bicgstab_steady_state(qt, diag, opts);
    FAIL() << "expired deadline must abort";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_EQ(e.partial_result().size(), n);
    EXPECT_FALSE(e.report().convergence.samples().empty());
  }
}

// Iteration-cap exhaustion (max_iters) throws with the best iterate rather
// than discarding the work. ILU0 is exact on a tridiagonal chain, so the
// chain is a grid.
TEST(Bicgstab, IterationCapThrowsWithBestIterate) {
  SparseMatrix qt;
  std::vector<double> diag;
  grid_system(20, qt, diag);
  const std::size_t n = qt.rows();
  BicgstabOptions opts;
  opts.tol = 1e-15;
  opts.jobs = 1;
  opts.max_iters = 2;
  try {
    bicgstab_steady_state(qt, diag, opts);
    FAIL() << "2 iterations on a grid cannot reach 1e-15";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_EQ(e.partial_result().size(), n);
    EXPECT_FALSE(e.report().converged);
    EXPECT_LE(e.report().iterations, 2u);
  }
}

// A solve that runs to its cap files its final verified check under the
// iterations its loop ran and reports that count. The 100 x 100 grid needs
// 126 iterations (its row in ForcedOutcomesArePinnedBitForBit below).
TEST(Bicgstab, CappedSolveEndsTrajectoryAtItsIterations) {
  SparseMatrix qt;
  std::vector<double> diag;
  grid_system(100, qt, diag);
  BicgstabOptions opts;
  opts.max_iters = 100;
  opts.jobs = 1;
  try {
    bicgstab_steady_state(qt, diag, opts);
    FAIL() << "the 100 x 100 grid does not converge in 100 iterations";
  } catch (const robust::ConvergenceError& e) {
    const auto samples = e.report().convergence.samples();
    ASSERT_FALSE(samples.empty());
    EXPECT_EQ(e.report().iterations, 100u);
    EXPECT_EQ(samples.back().iteration, e.report().iterations);
  }
}

// On a 2-D grid ILU0 is not exact, so BiCGSTAB iterates, and the residual
// its recurrence updates drifts from the true b - A x in floating point.
// Forty rate scalings 1 + m 2^-30 of the 100 x 100 grid leave pi as it is
// but change the rounding; before the kernel reset that residual every 32
// iterations, three of them took 1,353, 1,507 and 3,147 iterations. Each
// must now converge within 1,000.
TEST(Bicgstab, ScaledGridsConvergeWithinAThousandIterations) {
  BicgstabOptions opts;
  opts.jobs = 1;
  opts.max_iters = 1000;
  for (int m = 0; m < 40; ++m) {
    SCOPED_TRACE("scale 1 + " + std::to_string(m) + " * 2^-30");
    SparseMatrix qt;
    std::vector<double> diag;
    grid_system(100, qt, diag, 1.0 + m * 0x1p-30);
    try {
      const BicgstabResult r = bicgstab_steady_state(qt, diag, opts);
      EXPECT_LT(r.residual, opts.tol);
    } catch (const robust::ConvergenceError& e) {
      ADD_FAILURE() << e.what();
    }
  }
}

// ---- NCD detection and aggregation-disaggregation --------------------------

TEST(Ncd, DetectorFindsPlantedBlocks) {
  SparseMatrix qt;
  std::vector<double> diag;
  planted_ncd_system(3, 5, 1e-5, qt, diag);
  const robust::NcdPartition part = robust::detect_ncd_blocks(qt, diag, 0.05);
  EXPECT_EQ(part.blocks, 3u);
  EXPECT_EQ(part.max_block_size, 5u);
  EXPECT_LT(part.coupling, 1e-3);
  // States in the same planted block share a label; across blocks differ.
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(part.block_of[i], part.block_of[(i / 5) * 5]) << "state " << i;
  }
  EXPECT_NE(part.block_of[0], part.block_of[5]);
  EXPECT_NE(part.block_of[5], part.block_of[10]);
}

// Tightly-coupled chains must NOT decompose: one block, coupling ~1.
TEST(Ncd, DetectorRejectsStronglyCoupledChain) {
  SparseMatrix qt;
  std::vector<double> diag;
  birth_death_system(12, 1.0, 1.5, qt, diag);
  const robust::NcdPartition part = robust::detect_ncd_blocks(qt, diag, 0.05);
  EXPECT_EQ(part.blocks, 1u);
}

// A/D honors the deadline contract like every other iterative solver.
TEST(Ncd, AdPreExpiredDeadlineThrowsPartial) {
  SparseMatrix qt;
  std::vector<double> diag;
  planted_ncd_system(4, 6, 1e-5, qt, diag);
  const robust::NcdPartition part = robust::detect_ncd_blocks(qt, diag, 0.05);
  ASSERT_GE(part.blocks, 2u);
  const robust::ScopedDeadline expired(robust::Deadline::after_seconds(-1.0));
  try {
    robust::ad_steady_state(qt, diag, part);
    FAIL() << "expired deadline must abort";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
    EXPECT_EQ(e.partial_result().size(), qt.rows());
    EXPECT_FALSE(e.report().converged);
  }
}

// A/D on the planted system converges in a handful of sweeps.
TEST(Ncd, AdSolvesPlantedSystemFast) {
  SparseMatrix qt;
  std::vector<double> diag;
  planted_ncd_system(4, 6, 1e-5, qt, diag);
  const robust::NcdPartition part = robust::detect_ncd_blocks(qt, diag, 0.05);
  const robust::SteadyResult r = robust::ad_steady_state(qt, diag, part);
  EXPECT_LT(r.residual, 1e-10);
  EXPECT_LE(r.iterations, 10u) << "NCD coupling 1e-5 should converge in a "
                                  "few sweeps, took " << r.iterations;
  EXPECT_TRUE(r.report.converged);
}

// ---- one set of books -------------------------------------------------------

// SOR, power, BiCGSTAB and A/D keep one set of books. Each runs three ways:
// to convergence, with its cap probe clamped to 1, and under an expired
// deadline. On every exit its span carries n, iterations, residual and
// converged, the span's iterations are the report's, and the report holds
// its one attempt; a failure's message starts with the kernel's name and
// its partial has n finite entries.
TEST(SolveBooks, EveryKernelExitKeepsTheSameBooks) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out (RELKIT_OBS=OFF)";
  SparseMatrix grid_qt, ncd_qt;
  std::vector<double> grid_diag, ncd_diag;
  grid_system(40, grid_qt, grid_diag);
  planted_ncd_system(4, 6, 1e-2, ncd_qt, ncd_diag, 5);
  const SparseMatrix p =
      robust::uniformize(grid_qt, grid_diag).pt.transposed();
  const robust::NcdPartition part =
      robust::detect_ncd_blocks(ncd_qt, ncd_diag, 0.05);
  SorOptions sor;
  sor.jobs = 1;
  PowerOptions power;
  power.jobs = 1;
  BicgstabOptions bicgstab;
  bicgstab.jobs = 1;
  robust::AdOptions ad;
  ad.jobs = 1;

  struct Kernel {
    const char* function;
    const char* span;
    const char* cap_probe;
    std::size_t n;
    std::function<robust::SteadyResult()> run;
  };
  const Kernel kernels[] = {
      {"sor_steady_state", "solver.sor", "sor.max_iters", grid_qt.rows(),
       [&] { return sor_steady_state(grid_qt, grid_diag, sor); }},
      {"power_steady_state", "solver.power", "power.max_iters", p.rows(),
       [&] { return power_steady_state(p, power); }},
      {"bicgstab_steady_state", "solver.bicgstab", "bicgstab.max_iters",
       grid_qt.rows(),
       [&] { return bicgstab_steady_state(grid_qt, grid_diag, bicgstab); }},
      {"ad_steady_state", "solver.ad", "ad.max_sweeps", ncd_qt.rows(),
       [&] { return robust::ad_steady_state(ncd_qt, ncd_diag, part, ad); }},
  };
  enum class Exit { kConverged, kCapped, kDeadline };
  for (const Kernel& k : kernels) {
    for (const Exit exit : {Exit::kConverged, Exit::kCapped, Exit::kDeadline}) {
      SCOPED_TRACE(std::string(k.function) + ", exit " +
                   std::to_string(static_cast<int>(exit)));
      relkit::testing::FaultInjectionScope injector;
      if (exit == Exit::kCapped) injector->clamp_iterations(k.cap_probe, 1);
      std::optional<robust::ScopedDeadline> deadline;
      if (exit == Exit::kDeadline) {
        deadline.emplace(robust::Deadline::after_seconds(-1.0));
      }
      auto ring = std::make_shared<obs::RingBufferSink>(1 << 10);
      obs::set_enabled(true);
      obs::Tracer::instance().add_sink(ring);
      robust::SolveReport report;
      try {
        const robust::SteadyResult r = k.run();
        EXPECT_EQ(exit, Exit::kConverged);
        EXPECT_TRUE(r.report.converged);
        EXPECT_EQ(r.pi.size(), k.n);
        EXPECT_EQ(r.iterations, r.report.iterations);
        report = r.report;
      } catch (const robust::ConvergenceError& e) {
        EXPECT_NE(exit, Exit::kConverged) << e.what();
        EXPECT_EQ(std::string(e.what()).rfind(k.function, 0), 0u) << e.what();
        EXPECT_FALSE(e.report().converged);
        ASSERT_EQ(e.partial_result().size(), k.n);
        for (const double v : e.partial_result()) ASSERT_TRUE(std::isfinite(v));
        report = e.report();
      }
      obs::Tracer::instance().remove_sink(ring);
      obs::set_enabled(false);

      EXPECT_EQ(report.attempt_details.size(), 1u);
      const std::vector<obs::SpanRecord> records = ring->snapshot();
      const auto span = std::find_if(
          records.begin(), records.end(),
          [&](const obs::SpanRecord& r) { return r.name == k.span; });
      ASSERT_NE(span, records.end()) << "no " << k.span << " span";
      for (const char* key : {"n", "iterations", "residual", "converged"}) {
        ASSERT_NE(span->attr(key), nullptr) << k.span << " has no " << key;
      }
      EXPECT_EQ(*span->attr("n"), std::to_string(k.n));
      EXPECT_EQ(*span->attr("iterations"), std::to_string(report.iterations));
      EXPECT_EQ(*span->attr("converged"),
                exit == Exit::kConverged ? "true" : "false");
    }
  }
}

// ---- residual --------------------------------------------------------------

// The residual a kernel reports is max|pi Q| of the pi it hands back,
// computed by the same loop the robust layer verifies with: equal bit for
// bit at any worker count, for a converged result and for the partial of a
// ConvergenceError alike. The last chain is symmetric, so the uniform start
// vector is already exact.
TEST(Residual, KernelResidualIsTheVerificationResidual) {
  const auto expect_same = [](const SparseMatrix& qt,
                              const std::vector<double>& diag,
                              const auto& solve, const char* kernel) {
    SCOPED_TRACE(kernel);
    try {
      const auto r = solve();
      EXPECT_EQ(r.residual, robust::steady_state_residual(qt, diag, r.pi));
      EXPECT_EQ(r.report.residual, r.residual);
    } catch (const robust::ConvergenceError& e) {
      EXPECT_EQ(e.report().residual,
                robust::steady_state_residual(qt, diag, e.partial_result()));
    }
  };
  for (std::size_t k = 0; k < 24; ++k) {
    const std::size_t n = 5 + 41 * k;
    const double lam = k < 23 ? 0.3 + 0.03 * static_cast<double>(k) : 1.0;
    const double mu = k < 23 ? 1.0 + 0.02 * static_cast<double>(k) : 1.0;
    SparseMatrix qt;
    std::vector<double> diag;
    birth_death_system(n, lam, mu, qt, diag);
    for (const unsigned jobs : {1u, 4u}) {
      SCOPED_TRACE("n " + std::to_string(n) + ", jobs " +
                   std::to_string(jobs));
      SorOptions sor;
      sor.jobs = jobs;
      expect_same(qt, diag, [&] { return sor_steady_state(qt, diag, sor); },
                  "sor");
      BicgstabOptions bi;
      bi.jobs = jobs;
      bi.max_iters = 200;
      expect_same(qt, diag,
                  [&] { return bicgstab_steady_state(qt, diag, bi); },
                  "bicgstab");
    }
  }
}

// ---- the drifted birth-death family ----------------------------------------

// Fifteen drifted birth-death chains (mu = 1.1) on which forced BiCGSTAB
// misbehaved: ILU0 failed five until it chose its orientation per chain
// (the normalization row on the state at the heavy end of the band). The
// verified auto chain must still answer every one within 1e-10 of the
// closed form at any worker count (GTH up to 400 states, SOR at 907).
// Forced BiCGSTAB's outcomes on them are pinned bit for bit by
// Bicgstab.ForcedOutcomesArePinnedBitForBit below.
TEST(DriftedBirthDeath, AutoChainMatchesClosedForm) {
  const double mu = 1.1;
  for (const std::size_t n : {210u, 400u, 907u}) {
    for (const double lam : {0.4, 0.45, 0.5, 0.6, 0.7}) {
      SparseMatrix qt;
      std::vector<double> diag;
      birth_death_system(n, lam, mu, qt, diag);
      const std::vector<double> expect = birth_death_closed_form(n, lam, mu);
      for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("n " + std::to_string(n) + ", lam " +
                     std::to_string(lam) + ", jobs " + std::to_string(jobs));
        robust::RobustSteadyOptions opts;
        opts.jobs = jobs;
        const robust::RobustResult r =
            robust::robust_steady_state(qt, diag, opts);
        EXPECT_TRUE(r.report.converged) << r.report.method;
        ASSERT_EQ(r.pi.size(), n);
        double err = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          err = std::max(err, std::abs(r.pi[i] - expect[i]));
        }
        EXPECT_LE(err, 1e-10) << r.report.method;
      }
    }
  }
}

// ILU0 picks its orientation per chain: the normalization row replaces the
// equation of the state ordered last, and the order is reversed only when
// that row's pivot is non-finite or above 1/eps. On a path RCM keeps the
// natural order, so the drifted chains (mass at state 0) are reversed and
// their mirrors (mass at state n - 1) are not; nor is the grid. Every one
// converges in one iteration, as an exact LU of a tridiagonal chain should.
TEST(DriftedBirthDeath, IluOrientationPutsNormalizationOnTheHeavyEnd) {
  const auto reversed = [](const SparseMatrix& qt,
                           const std::vector<double>& diag,
                           std::size_t* iterations) {
    auto ring = std::make_shared<obs::RingBufferSink>(1 << 6);
    obs::set_enabled(true);
    obs::Tracer::instance().add_sink(ring);
    BicgstabOptions opts;
    opts.jobs = 1;
    *iterations = bicgstab_steady_state(qt, diag, opts).iterations;
    obs::Tracer::instance().remove_sink(ring);
    obs::set_enabled(false);
    for (const obs::SpanRecord& r : ring->snapshot()) {
      if (r.name == "solver.bicgstab" && r.attr("reversed") != nullptr) {
        return *r.attr("reversed") == "true";
      }
    }
    ADD_FAILURE() << "no solver.bicgstab span with a reversed attribute";
    return false;
  };
  SparseMatrix qt;
  std::vector<double> diag;
  std::size_t iterations = 0;
  grid_system(40, qt, diag);
  EXPECT_FALSE(reversed(qt, diag, &iterations));
  for (const std::size_t n : {210u, 400u, 907u}) {
    for (const double lam : {0.4, 0.45, 0.5, 0.6, 0.7}) {
      SCOPED_TRACE("n " + std::to_string(n) + ", lam " + std::to_string(lam));
      birth_death_system(n, lam, 1.1, qt, diag);
      EXPECT_TRUE(reversed(qt, diag, &iterations));
      EXPECT_EQ(iterations, 1u);
      birth_death_system(n, 1.1, lam, qt, diag);
      EXPECT_FALSE(reversed(qt, diag, &iterations));
      EXPECT_EQ(iterations, 1u);
    }
  }
}

// ---- forced BiCGSTAB, bit for bit ------------------------------------------

namespace {

// FNV-1a over the bytes of each double, in index order.
std::uint64_t fnv1a(const std::vector<double>& v) {
  std::uint64_t h = 14695981039346656037ull;
  for (const double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// What one forced solve returned: the hash of pi, or of the partial of the
// ConvergenceError it threw, its iterations and residual, and the error's
// message ("" when it converged).
struct Outcome {
  std::string label;
  std::uint64_t hash = 0;
  std::size_t iterations = 0;
  double residual = 0.0;
  std::string message;
  bool operator==(const Outcome&) const = default;
};

Outcome forced_bicgstab(const std::string& label, const SparseMatrix& qt,
                        const std::vector<double>& diag,
                        const BicgstabOptions& opts) {
  try {
    const BicgstabResult r = bicgstab_steady_state(qt, diag, opts);
    return {label, fnv1a(r.pi), r.iterations, r.residual, ""};
  } catch (const robust::ConvergenceError& e) {
    return {label, fnv1a(e.partial_result()), e.report().iterations,
            e.report().residual, e.what()};
  }
}

// One row of the pinned table below, as its initializer; as_table() prints
// all of them, to re-record the table after a deliberate change to the
// kernel's arithmetic.
std::string as_row(const Outcome& o) {
  char head[160];
  std::snprintf(head, sizeof head,
                "      {\"%s\", 0x%016llxull, %zu,\n       %a,",
                o.label.c_str(), static_cast<unsigned long long>(o.hash),
                o.iterations, o.residual);
  std::string row = head;
  if (o.message.empty()) return row + " \"\"},\n";
  // The message as adjacent literals cut at spaces, to stay in 80 columns.
  std::string rest = o.message;
  while (rest.size() > 62 && rest.rfind(' ', 62) != std::string::npos) {
    const std::size_t cut = rest.rfind(' ', 62) + 1;
    row += "\n       \"" + rest.substr(0, cut) + "\"";
    rest.erase(0, cut);
  }
  return row + "\n       \"" + rest + "\"},\n";
}

std::string as_table(const std::vector<Outcome>& outcomes) {
  std::string out;
  for (const Outcome& o : outcomes) out += as_row(o);
  return out;
}

void PrintTo(const Outcome& o, std::ostream* os) { *os << as_row(o); }

}  // namespace

// Forced BiCGSTAB on the 40x40 and 100x100 grids, the 100x100 grid again
// capped at 100 iterations, the fifteen drifted birth-death chains above
// and their fifteen mirrors (birth rate 1.1, death rate lam), at max_iters
// 2000. ILU0 factors the grids in RCM order, the drifted chains reversed
// and the mirrors unreversed, so both orientations are pinned; all 30
// chains converge in one iteration. A last solve repeats the first drifted
// chain with its residual check probed to read 1. Of the 34 solves, 2
// throw: the capped grid at its cap and the probed one on an omega
// breakdown, so both failure paths are pinned with their partials. The
// triangular solves, the products on the factor's remainder and the dot
// products run sequentially at any worker count, so jobs 1, 2 and 4 must
// agree exactly everywhere.
// The literals were recorded on x86-64, where without -march the compiler
// emits no fused multiply-add; on other targets contraction may change
// last bits, so only the agreement across jobs is checked there.
TEST(Bicgstab, ForcedOutcomesArePinnedBitForBit) {
  std::vector<std::vector<Outcome>> by_jobs;
  for (const unsigned jobs : {1u, 2u, 4u}) {
    std::vector<Outcome> outcomes;
    BicgstabOptions opts;
    opts.jobs = jobs;
    SparseMatrix qt;
    std::vector<double> diag;
    for (const std::size_t k : {40u, 100u}) {
      grid_system(k, qt, diag);
      outcomes.push_back(forced_bicgstab("ilu0 grid " + std::to_string(k), qt,
                                         diag, opts));
    }
    opts.max_iters = 100;
    outcomes.push_back(forced_bicgstab("ilu0 grid 100 cap 100", qt, diag, opts));
    opts.max_iters = 2000;
    for (const std::size_t n : {210u, 400u, 907u}) {
      for (const double lam : {0.4, 0.45, 0.5, 0.6, 0.7}) {
        birth_death_system(n, lam, 1.1, qt, diag);
        char chain[64];
        std::snprintf(chain, sizeof chain, "ilu0 n %zu lam %.2f", n, lam);
        outcomes.push_back(forced_bicgstab(chain, qt, diag, opts));
      }
    }
    for (const std::size_t n : {210u, 400u, 907u}) {
      for (const double lam : {0.4, 0.45, 0.5, 0.6, 0.7}) {
        birth_death_system(n, 1.1, lam, qt, diag);
        char chain[64];
        std::snprintf(chain, sizeof chain, "ilu0 mirrored n %zu lam %.2f", n,
                      lam);
        outcomes.push_back(forced_bicgstab(chain, qt, diag, opts));
      }
    }
    {
      // ILU0 solves a tridiagonal chain in the first half step, so s = 0
      // and omega collapses; the probe makes that step's check read 1.
      relkit::testing::FaultInjectionScope injector;
      injector->inject_value("bicgstab.residual", 1.0);
      birth_death_system(210, 0.4, 1.1, qt, diag);
      outcomes.push_back(
          forced_bicgstab("ilu0 n 210 lam 0.40 probed", qt, diag, opts));
    }
    by_jobs.push_back(std::move(outcomes));
  }
  EXPECT_EQ(by_jobs[1], by_jobs[0]) << "jobs 2 differs from jobs 1";
  EXPECT_EQ(by_jobs[2], by_jobs[0]) << "jobs 4 differs from jobs 1";

#if defined(__x86_64__)
  const std::vector<Outcome> pinned = {
      {"ilu0 grid 40", 0xa1fae513ea500c6eull, 32,
       0x1.d16ebcp-38, ""},
      {"ilu0 grid 100", 0xd98652f9ce3f3c88ull, 126,
       0x1.f1f3a8348f6c2p-35, ""},
      {"ilu0 grid 100 cap 100", 0x7d150fed6e12f6dbull, 100,
       0x1.3e0868d0335dep-21,
       "bicgstab_steady_state: no convergence after 100 iterations "
       "(best residual 0.000001)"},
      {"ilu0 n 210 lam 0.40", 0x516c7aee69ecb81aull, 1,
       0x1.8p-55, ""},
      {"ilu0 n 210 lam 0.45", 0x59c0f88f83f6dfb1ull, 1,
       0x1p-53, ""},
      {"ilu0 n 210 lam 0.50", 0x7cc1a8dca2a9e1dfull, 1,
       0x1.4p-54, ""},
      {"ilu0 n 210 lam 0.60", 0xb4550443f724077eull, 1,
       0x1.8p-53, ""},
      {"ilu0 n 210 lam 0.70", 0x3ea0b64edb1577e6ull, 1,
       0x1p-52, ""},
      {"ilu0 n 400 lam 0.40", 0x8e3c6ab4f330947aull, 1,
       0x1.8p-53, ""},
      {"ilu0 n 400 lam 0.45", 0xdea2f0a3875ed5eaull, 1,
       0x1p-56, ""},
      {"ilu0 n 400 lam 0.50", 0x627273029f3665f7ull, 1,
       0x1p-52, ""},
      {"ilu0 n 400 lam 0.60", 0x77d8862c89ba65e7ull, 1,
       0x1p-54, ""},
      {"ilu0 n 400 lam 0.70", 0x41c135b28edab844ull, 1,
       0x1.8p-53, ""},
      {"ilu0 n 907 lam 0.40", 0x35001ea30bf24e15ull, 1,
       0x1.8p-54, ""},
      {"ilu0 n 907 lam 0.45", 0x384f1bb52fb52407ull, 1,
       0x1p-56, ""},
      {"ilu0 n 907 lam 0.50", 0xcdcec91188bd3755ull, 1,
       0x1.cp-54, ""},
      {"ilu0 n 907 lam 0.60", 0x6295a1b8ab2453f7ull, 1,
       0x1.cp-52, ""},
      {"ilu0 n 907 lam 0.70", 0x2c8711f0520c4c32ull, 1,
       0x1p-55, ""},
      {"ilu0 mirrored n 210 lam 0.40", 0xad3d3fe52a9fcac2ull, 1,
       0x1p-54, ""},
      {"ilu0 mirrored n 210 lam 0.45", 0xcfdc7f63ea5fc73eull, 1,
       0x1p-54, ""},
      {"ilu0 mirrored n 210 lam 0.50", 0x99e942b3cad1fd60ull, 1,
       0x1p-54, ""},
      {"ilu0 mirrored n 210 lam 0.60", 0xda2a8083298cd985ull, 1,
       0x1.239999999995cp-54, ""},
      {"ilu0 mirrored n 210 lam 0.70", 0xcc7c8bb6081f0f1eull, 1,
       0x1p-53, ""},
      {"ilu0 mirrored n 400 lam 0.40", 0x4d7d8e8a21119580ull, 1,
       0x1p-52, ""},
      {"ilu0 mirrored n 400 lam 0.45", 0x914779434dc75bd1ull, 1,
       0x1p-56, ""},
      {"ilu0 mirrored n 400 lam 0.50", 0xa5ff467e3664d5f2ull, 1,
       0x1p-53, ""},
      {"ilu0 mirrored n 400 lam 0.60", 0x886e0a994c6eeb6bull, 1,
       0x1p-54, ""},
      {"ilu0 mirrored n 400 lam 0.70", 0x5a254b5b0b4d426cull, 1,
       0x1.8p-53, ""},
      {"ilu0 mirrored n 907 lam 0.40", 0x10c481e04b39009aull, 1,
       0x1p-54, ""},
      {"ilu0 mirrored n 907 lam 0.45", 0x9e923ef384a2c414ull, 1,
       0x1p-56, ""},
      {"ilu0 mirrored n 907 lam 0.50", 0xce2148509cbefa11ull, 1,
       0x1p-54, ""},
      {"ilu0 mirrored n 907 lam 0.60", 0x677549743bfd0c8dull, 1,
       0x1.8p-52, ""},
      {"ilu0 mirrored n 907 lam 0.70", 0xae13cefc236b8b83ull, 1,
       0x1p-53, ""},
      {"ilu0 n 210 lam 0.40 probed", 0xcef55ceeed60e515ull, 1,
       0x1.b4e81b4e81b63p-9,
       "bicgstab_steady_state: omega breakdown at iteration 1"}
  };
  EXPECT_EQ(by_jobs[0], pinned) << "recorded now:\n" << as_table(by_jobs[0]);
#endif
}

// ---- solver-choice plumbing ------------------------------------------------

TEST(SolverChoicePlumbing, ScopedOverrideNestsAndRestores) {
  ASSERT_EQ(robust::ambient_solver(), robust::default_solver());
  const robust::SolverChoice base = robust::default_solver();
  {
    robust::ScopedSolverChoice outer(robust::SolverChoice::kSor);
    EXPECT_EQ(robust::ambient_solver(), robust::SolverChoice::kSor);
    {
      robust::ScopedSolverChoice inner(robust::SolverChoice::kBicgstab);
      EXPECT_EQ(robust::ambient_solver(), robust::SolverChoice::kBicgstab);
    }
    EXPECT_EQ(robust::ambient_solver(), robust::SolverChoice::kSor);
    {
      // kAuto = "no override": ambient falls through to the process
      // default even while an outer override is pending restoration.
      robust::ScopedSolverChoice clear(robust::SolverChoice::kAuto);
      EXPECT_EQ(robust::ambient_solver(), robust::default_solver());
    }
  }
  EXPECT_EQ(robust::ambient_solver(), base);
}

TEST(SolverChoicePlumbing, ProcessDefaultBindsWhenNoOverride) {
  const robust::SolverChoice before = robust::default_solver();
  robust::set_default_solver(robust::SolverChoice::kGth);
  EXPECT_EQ(robust::ambient_solver(), robust::SolverChoice::kGth);
  {
    robust::ScopedSolverChoice scoped(robust::SolverChoice::kPower);
    EXPECT_EQ(robust::ambient_solver(), robust::SolverChoice::kPower);
  }
  robust::set_default_solver(before);
  EXPECT_EQ(robust::ambient_solver(), before);
}

TEST(SolverChoicePlumbing, NamesParseAndRoundTrip) {
  using robust::SolverChoice;
  for (const SolverChoice c :
       {SolverChoice::kAuto, SolverChoice::kGth, SolverChoice::kSor,
        SolverChoice::kBicgstab, SolverChoice::kPower, SolverChoice::kAd}) {
    SolverChoice parsed;
    ASSERT_TRUE(robust::parse_solver_choice(robust::solver_choice_name(c),
                                            parsed));
    EXPECT_EQ(parsed, c);
  }
  SolverChoice sink;
  EXPECT_FALSE(robust::parse_solver_choice("gmres", sink));
  EXPECT_FALSE(robust::parse_solver_choice("", sink));
}
