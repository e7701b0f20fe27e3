#include "parallel/pool.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/obs.hpp"

namespace relkit::parallel {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

}  // namespace

/// One fan-out in flight. Chunks are claimed by fetch_add on `next`;
/// `inflight` is incremented BEFORE the claim and decremented after the
/// body, so `next >= n && inflight == 0` (checked under the pool mutex
/// after a cv_done notification) proves the region has drained.
///
/// The counters are looked up by the posting thread. Workers touch them only
/// between a successful claim and the matching `inflight` decrement, while
/// the poster still waits in for_chunks. A worker thread that first runs at
/// start-up or shutdown therefore never reaches the obs registry: one that
/// first runs after `main` returned would meet a registry that static
/// destructors are tearing down, and crash the process at exit.
struct ThreadPool::Job {
  std::size_t n = 0;
  std::size_t chunk = 1;
  const Body* body = nullptr;
  const CancelFn* cancel = nullptr;
  obs::Counter* tasks = nullptr;
  obs::Counter* idle = nullptr;
  Clock::time_point posted{};
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> executed{0};
  std::atomic<int> inflight{0};
  std::atomic<bool> stop{false};
  std::exception_ptr error;  // guarded by the pool mutex
  std::mutex* pool_mu = nullptr;
  std::condition_variable* cv_done = nullptr;
};

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::shared_ptr<Job> job;        // non-null while a region is active
  std::uint64_t generation = 0;    // bumped per posted job
  bool shutdown = false;
  std::vector<std::thread> threads;
};

ThreadPool::ThreadPool(unsigned jobs) {
  if (jobs == 0) {
    jobs = std::thread::hardware_concurrency();
    if (jobs == 0) jobs = 1;
  }
  jobs_ = jobs;
  if (jobs_ > 1) {
    impl_ = new Impl;
    impl_->threads.reserve(jobs_ - 1);
    for (unsigned i = 0; i + 1 < jobs_; ++i) {
      impl_->threads.emplace_back([this] { worker_loop(); });
    }
  }
}

ThreadPool::~ThreadPool() {
  if (impl_ != nullptr) {
    {
      std::lock_guard<std::mutex> lock(impl_->mu);
      impl_->shutdown = true;
    }
    impl_->cv_work.notify_all();
    for (auto& t : impl_->threads) t.join();
    delete impl_;
  }
}

void ThreadPool::run_chunks(Job& job, std::optional<std::uint64_t> idle_ns) {
  for (;;) {
    job.inflight.fetch_add(1, std::memory_order_acq_rel);
    const std::size_t begin =
        job.stop.load(std::memory_order_relaxed)
            ? job.n
            : job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.n) {
      job.inflight.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    if (idle_ns) {  // a worker's first claim: count how long it sat idle
      job.idle->add(*idle_ns);
      idle_ns.reset();
    }
    if (job.cancel != nullptr && *job.cancel && (*job.cancel)()) {
      job.stop.store(true, std::memory_order_relaxed);
      job.inflight.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    const std::size_t end =
        begin + job.chunk < job.n ? begin + job.chunk : job.n;
    try {
      (*job.body)(begin, end);
      job.tasks->add();
      job.executed.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(*job.pool_mu);
        if (!job.error) job.error = std::current_exception();
      }
      job.stop.store(true, std::memory_order_relaxed);
    }
    job.inflight.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  std::uint64_t seen = 0;
  for (;;) {
    impl_->cv_work.wait(lock, [&] {
      return impl_->shutdown ||
             (impl_->job != nullptr && impl_->generation != seen);
    });
    if (impl_->shutdown) return;
    const std::shared_ptr<Job> job = impl_->job;
    seen = impl_->generation;
    lock.unlock();
    // Idle latency: how long this worker sat between the fan-out being
    // posted and it waking (scheduler wake-up + contention), counted if it
    // joins in.
    run_chunks(*job, ns_since(job->posted));
    lock.lock();
    impl_->cv_done.notify_all();
  }
}

std::size_t ThreadPool::for_chunks(std::size_t n, std::size_t chunk,
                                   const Body& body, const CancelFn& cancel) {
  if (n == 0) return 0;
  if (chunk == 0) chunk = 1;

  obs::Span span("parallel.region");
  span.set("items", n);
  span.set("chunk", chunk);
  span.set("jobs", static_cast<std::uint64_t>(jobs_));

  static obs::Counter& task_counter = obs::counter("pool.tasks");
  static obs::Counter& idle_counter = obs::counter("pool.steal_idle_ns");
  if (impl_ == nullptr) {
    // Sequential pool: run the chunks inline, same cancellation contract.
    std::size_t executed = 0;
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      if (cancel && cancel()) break;
      const std::size_t end = begin + chunk < n ? begin + chunk : n;
      body(begin, end);
      task_counter.add();
      ++executed;
    }
    span.set("chunks_run", executed);
    return executed;
  }

  const auto job = std::make_shared<Job>();
  job->n = n;
  job->chunk = chunk;
  job->body = &body;
  job->cancel = cancel ? &cancel : nullptr;
  job->tasks = &task_counter;
  job->idle = &idle_counter;
  job->posted = Clock::now();
  job->pool_mu = &impl_->mu;
  job->cv_done = &impl_->cv_done;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->job = job;
    ++impl_->generation;
  }
  impl_->cv_work.notify_all();

  run_chunks(*job, std::nullopt);  // the caller is worker number jobs_ - 1

  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->cv_done.wait(lock, [&] {
      return (job->next.load(std::memory_order_relaxed) >= n ||
              job->stop.load(std::memory_order_relaxed)) &&
             job->inflight.load(std::memory_order_acquire) == 0;
    });
    impl_->job.reset();
  }

  span.set("chunks_run", job->executed.load(std::memory_order_relaxed));
  span.set("cancelled", job->stop.load(std::memory_order_relaxed));
  if (job->error) std::rethrow_exception(job->error);
  return job->executed.load(std::memory_order_relaxed);
}

// ---- process-wide default pool ---------------------------------------------

namespace {

std::atomic<unsigned> g_default_jobs{1};

std::mutex& global_pool_mutex() {
  static std::mutex mu;
  return mu;
}

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

unsigned default_jobs() {
  return g_default_jobs.load(std::memory_order_relaxed);
}

void set_default_jobs(unsigned jobs) {
  if (jobs == 0) {
    jobs = std::thread::hardware_concurrency();
    if (jobs == 0) jobs = 1;
  }
  g_default_jobs.store(jobs, std::memory_order_relaxed);
}

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(global_pool_mutex());
  auto& slot = global_pool_slot();
  const unsigned want = default_jobs();
  if (slot == nullptr || slot->jobs() != want) {
    slot.reset();  // join old workers before spawning replacements
    slot = std::make_unique<ThreadPool>(want);
  }
  return *slot;
}

}  // namespace relkit::parallel
