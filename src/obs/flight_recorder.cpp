#include "obs/flight_recorder.hpp"

#include <atomic>
#include <cstring>

#include "obs/obs.hpp"

namespace relkit::obs::flight {

namespace {

struct Ring {
  // Only the owning thread stores events and bumps head; readers take
  // acquire loads of head and tolerate one torn in-flight event.
  std::atomic<std::uint64_t> head{0};
  // Monotone per-thread activity count for the stall watchdog. Owner-only
  // writer, so it advances with a relaxed load+store pair instead of a
  // lock-prefixed RMW on a cacheline shared by every thread — that RMW
  // would dominate the cost of a coalesced counter hit.
  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::int32_t> open_spans{0};
  std::atomic<bool> used{false};
  pthread_t thread{};
  double last_event_t = 0.0;
  Event events[kRingCapacity];
};

Ring g_rings[kMaxThreads];
std::atomic<bool> g_recorder_on{true};

inline void bump_progress(Ring* r) noexcept {
  r->progress.store(r->progress.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
}

Ring* acquire_ring() {
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    if (g_rings[i].used.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
      g_rings[i].thread = pthread_self();
      g_rings[i].head.store(0, std::memory_order_relaxed);
      g_rings[i].open_spans.store(0, std::memory_order_relaxed);
      g_rings[i].last_event_t = 0.0;
      // progress deliberately NOT reset: the watchdog's global sum must
      // stay monotone across slot reuse.
      return &g_rings[i];
    }
  }
  return nullptr;  // more live threads than slots: this one goes unrecorded
}

// A thread that exits cleanly hands its slot back so thread churn (server
// start/stop cycles in tests) cannot exhaust the recorder. A thread that
// crashes never runs this destructor — its tail stays visible to the crash
// handler, which is the whole point.
struct RingHandle {
  Ring* ring = acquire_ring();
  ~RingHandle() {
    if (ring != nullptr && ring->open_spans.load(std::memory_order_relaxed) == 0) {
      ring->used.store(false, std::memory_order_release);
    }
  }
};

inline Ring* ring() {
  thread_local RingHandle handle;
  return handle.ring;
}

inline void record(Ring* r, Event::Kind kind, std::uint64_t id,
                   std::uint64_t value, double t,
                   std::string_view name) noexcept {
  const std::uint64_t h = r->head.load(std::memory_order_relaxed);
  Event& e = r->events[h % kRingCapacity];
  e.t = t;
  e.id = id;
  e.value = value;
  e.kind = kind;
  std::size_t n = name.size();
  if (n > sizeof e.name - 1) n = sizeof e.name - 1;
  if (n != 0) std::memcpy(e.name, name.data(), n);
  e.name[n] = '\0';
  r->last_event_t = t;
  r->head.store(h + 1, std::memory_order_release);
  bump_progress(r);
}

}  // namespace

void set_enabled(bool on) {
  g_recorder_on.store(on, std::memory_order_relaxed);
}

bool enabled() {
  if constexpr (!kCompiledIn) return false;
  return g_recorder_on.load(std::memory_order_relaxed);
}

void note_span_begin(std::uint64_t id, std::string_view name,
                     double t) noexcept {
  if (!enabled()) return;
  Ring* r = ring();
  if (r == nullptr) return;
  r->open_spans.fetch_add(1, std::memory_order_relaxed);
  record(r, Event::kSpanBegin, id, 0, t, name);
}

void note_span_end(std::uint64_t id, std::string_view name, double t,
                   double wall_s) noexcept {
  if (!enabled()) return;
  Ring* r = ring();
  if (r == nullptr) return;
  const std::int32_t open = r->open_spans.load(std::memory_order_relaxed);
  if (open > 0) r->open_spans.store(open - 1, std::memory_order_relaxed);
  const double wall_ns = wall_s * 1e9;
  record(r, Event::kSpanEnd, id,
         wall_ns > 0 ? static_cast<std::uint64_t>(wall_ns) : 0, t, name);
}

void note_counter(const void* counter, std::uint64_t delta) noexcept {
  if (!enabled()) return;
  Ring* r = ring();
  if (r == nullptr) return;
  // Hot loops bump the same counter millions of times between spans;
  // coalescing a repeat hit into the newest event keeps the per-hook cost
  // to a compare + add and stops one counter from flushing the whole ring.
  // The summed delta carries the same forensic content as the run of
  // single-delta events it replaces.
  const std::uint64_t id = reinterpret_cast<std::uintptr_t>(counter);
  const std::uint64_t h = r->head.load(std::memory_order_relaxed);
  if (h != 0) {
    Event& last = r->events[(h - 1) % kRingCapacity];
    if (last.kind == Event::kCounter && last.id == id) {
      last.value += delta;
      bump_progress(r);
      return;
    }
  }
  record(r, Event::kCounter, id, delta, r->last_event_t, {});
}

std::uint64_t progress_epoch() noexcept {
  // Sum of per-ring counts; monotone because rings never reset progress.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    total += g_rings[i].progress.load(std::memory_order_relaxed);
  }
  return total;
}

bool slot_used(int slot) noexcept {
  return g_rings[slot].used.load(std::memory_order_acquire);
}

pthread_t slot_thread(int slot) noexcept { return g_rings[slot].thread; }

int slot_open_spans(int slot) noexcept {
  return g_rings[slot].open_spans.load(std::memory_order_relaxed);
}

double slot_last_event_t(int slot) noexcept {
  return g_rings[slot].last_event_t;
}

std::uint64_t slot_head(int slot) noexcept {
  return g_rings[slot].head.load(std::memory_order_acquire);
}

std::size_t copy_tail(int slot, Event* out, std::size_t max) noexcept {
  const Ring& r = g_rings[slot];
  if (!r.used.load(std::memory_order_acquire)) return 0;
  const std::uint64_t head = r.head.load(std::memory_order_acquire);
  std::uint64_t n = head < kRingCapacity ? head : kRingCapacity;
  if (n > max) n = max;
  std::size_t written = 0;
  for (std::uint64_t i = head - n; i != head; ++i) {
    out[written++] = r.events[i % kRingCapacity];
  }
  return written;
}

int open_span_threads() noexcept {
  int threads = 0;
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    if (slot_used(static_cast<int>(i)) &&
        slot_open_spans(static_cast<int>(i)) > 0) {
      ++threads;
    }
  }
  return threads;
}

}  // namespace relkit::obs::flight
