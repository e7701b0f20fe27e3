// relkit::parallel — a small, work-stealing-free thread pool for the
// embarrassingly parallel fan-outs in RelKit: Monte Carlo replications
// (sim::SystemSimulator / sim::SrnSimulator), parametric-uncertainty
// sample propagation (uncertainty::propagate), and batch model solves
// (relkit_cli --batch).
//
// Design:
//
//   * Fixed worker threads (jobs - 1 background threads; the calling thread
//     always participates, so jobs == 1 means "no threads at all" and the
//     caller runs every chunk inline).
//   * Chunked dynamic scheduling: for_chunks(n, chunk, body) carves [0, n)
//     into fixed-size chunks that workers claim with one atomic fetch_add —
//     no per-task queues, no stealing, nothing to get wrong under TSan.
//   * Deterministic decomposition: chunk boundaries depend only on
//     (n, chunk), never on the worker count or on timing. reduce_chunks
//     merges per-chunk accumulators in chunk-index order, so a reduction's
//     result is a pure function of (inputs, n, chunk) — the worker count
//     can change only the wall-clock time, not the answer. Stochastic
//     fan-outs (simulator replications, uncertainty samples, rare-event
//     cycles and their RESTART split branches) extend the same idea to
//     randomness: the caller's thread splits the streams (or draws the
//     numbers) in item order before the chunks that use them run, and
//     branch streams split from the parent stream in spawn order. Every
//     fan-out therefore returns its jobs-1 bits at every worker count; see
//     docs/parallelism.md for the full determinism contract.
//   * Cooperative cancellation: an optional cancel() predicate (typically
//     a test of the caller's copy of robust::ambient_deadline(), which is
//     unset on workers) is polled between chunks; once it returns true no
//     further chunks start, in-flight chunks finish, and for_chunks
//     reports how many chunks ran.
//   * Observability: every fan-out opens a `parallel.region` span
//     (items/chunk/jobs/chunks-run attrs), bumps the `pool.tasks` counter
//     per chunk, and accumulates `pool.steal_idle_ns` — nanoseconds workers
//     spent idle after work was posted before waking to claim their first
//     chunk (a worker that wakes after the region drained counts nothing).
//     Workers reach the obs registry only inside a claimed chunk, while the
//     posting thread waits, never at thread start-up or pool shutdown.
//
// Exceptions thrown by a chunk body cancel the region and are rethrown on
// the calling thread (first one wins).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace relkit::parallel {

class ThreadPool {
 public:
  /// A pool running work on `jobs` threads total: the caller plus
  /// jobs - 1 background workers. jobs == 0 means hardware concurrency.
  explicit ThreadPool(unsigned jobs = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that execute chunks (callers included), >= 1.
  unsigned jobs() const { return jobs_; }

  using Body = std::function<void(std::size_t begin, std::size_t end)>;
  using CancelFn = std::function<bool()>;

  /// Runs body(begin, end) over [0, n) in chunks of `chunk` (the final
  /// chunk may be short). Blocks until every started chunk finished.
  /// Returns the number of chunks that ran (== ceil(n/chunk) unless
  /// cancelled or a body threw). The cancel predicate, when given, is
  /// polled before each chunk from whichever thread claims it.
  std::size_t for_chunks(std::size_t n, std::size_t chunk, const Body& body,
                         const CancelFn& cancel = nullptr);

 private:
  struct Job;
  void worker_loop();
  /// Claims and runs chunks until none are left. A worker passes the ns it
  /// sat idle after the post; they count on its first claimed chunk.
  static void run_chunks(Job& job, std::optional<std::uint64_t> idle_ns);

  unsigned jobs_ = 1;
  struct Impl;
  Impl* impl_ = nullptr;  // threads + queue state; null when jobs_ == 1
};

/// Chunk size heuristic for n items. Depends on n ONLY (never on the
/// worker count) so that chunked reductions stay deterministic when the
/// pool size changes: enough chunks (~64) for load balance on any sane
/// core count, large enough to amortize the claim fetch_add.
inline std::size_t default_chunk(std::size_t n) {
  const std::size_t chunk = n / 64;
  return chunk < 1 ? 1 : (chunk > 8192 ? 8192 : chunk);
}

/// Deterministic chunked reduction. chunk_fn(begin, end) produces one
/// accumulator per chunk; merge(acc, chunk_acc) folds them together IN
/// CHUNK-INDEX ORDER, so the result is independent of the worker count.
/// Chunks skipped by cancellation are simply absent from the fold.
template <typename Acc, typename ChunkFn, typename MergeFn>
Acc reduce_chunks(ThreadPool& pool, std::size_t n, std::size_t chunk,
                  Acc init, const ChunkFn& chunk_fn, const MergeFn& merge,
                  const ThreadPool::CancelFn& cancel = nullptr) {
  if (n == 0) return init;
  const std::size_t chunks = (n + chunk - 1) / chunk;
  std::vector<std::optional<Acc>> partial(chunks);
  pool.for_chunks(
      n, chunk,
      [&](std::size_t begin, std::size_t end) {
        partial[begin / chunk] = chunk_fn(begin, end);
      },
      cancel);
  Acc acc = std::move(init);
  for (std::size_t c = 0; c < chunks; ++c) {
    if (partial[c].has_value()) merge(acc, *partial[c]);
  }
  return acc;
}

// ---- process-wide default pool ---------------------------------------------

/// The process-wide parallelism degree used by sim::*, uncertainty::* and
/// the CLI when no explicit pool is given. The LIBRARY default is 1 (no
/// threads at all); opting into parallelism is an entry-point decision
/// (relkit_cli --jobs, bench --jobs, or an explicit set_default_jobs call).
unsigned default_jobs();

/// Sets the process-wide degree; 0 means hardware concurrency. Must not be
/// called while a parallel region is running (entry points call it once at
/// startup).
void set_default_jobs(unsigned jobs);

/// The lazily created process-wide pool, sized to default_jobs(). Resized
/// (recreated) on the next call after set_default_jobs changes the degree;
/// the same "no concurrent regions" caveat applies.
ThreadPool& global_pool();

/// Resolves a `jobs` request (the convention every solver option struct
/// uses: 0 = default_jobs(), 1 = force sequential, N = N threads) to a pool
/// for the duration of one solve. A degree above 1 that matches the
/// process-wide default uses the shared global_pool(); any other degree
/// gets a pool held in the lease, so an explicit per-solve `jobs` never
/// perturbs the global pool other callers may be using concurrently. At
/// degree 1 that pool is a ThreadPool(1): it spawns no thread and runs
/// every chunk inline on the caller, so one code path serves every degree.
class PoolLease {
 public:
  explicit PoolLease(unsigned jobs)
      : jobs_(jobs != 0 ? jobs : default_jobs()),
        pool_(jobs_ > 1 && jobs_ == default_jobs() ? &global_pool()
                                                   : &owned_.emplace(jobs_)) {
  }

  /// The pool to run on; never nullptr.
  ThreadPool* get() const { return pool_; }
  /// Effective parallelism degree (>= 1).
  unsigned jobs() const { return jobs_; }

 private:
  unsigned jobs_;
  std::optional<ThreadPool> owned_;
  ThreadPool* pool_;
};

}  // namespace relkit::parallel
