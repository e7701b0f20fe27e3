// Always-on flight recorder: fixed-size per-thread ring buffers of the most
// recent span begin/end events and counter deltas. All storage is static and
// preallocated; the hot-path writes are plain stores into a slot owned by the
// writing thread (wait-free, no locks, no allocation), so the recorder can
// stay on whenever instrumentation is enabled without violating the obs
// overhead contract (bench_obs_overhead prints the recorder's own line).
//
// The rings exist to be read after the fact: the crash handler and the stall
// watchdog in postmortem.{hpp,cpp} walk them from a signal handler, so every
// reader-facing accessor here is async-signal-safe (relaxed/acquire atomic
// loads and memcpy of PODs only). A reader racing a live writer can observe
// one torn event per ring; postmortem output is best-effort by design.
//
// Like the rest of obs, this header deliberately depends on nothing else in
// RelKit.
#pragma once

#include <pthread.h>

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace relkit::obs::flight {

/// Events kept per thread; the crash report dumps at most this many.
inline constexpr std::size_t kRingCapacity = 256;
/// Concurrently recorded threads. Slots are recycled when a thread exits
/// cleanly; threads beyond the limit simply go unrecorded.
inline constexpr std::size_t kMaxThreads = 64;

/// One recorded event. 64 bytes, POD, safe to memcpy from a signal handler.
struct Event {
  enum Kind : std::uint8_t { kNone = 0, kSpanBegin, kSpanEnd, kCounter };

  double t = 0.0;           ///< tracer clock, seconds since process epoch
  std::uint64_t id = 0;     ///< span id; for kCounter the Counter* address
  std::uint64_t value = 0;  ///< counter delta; span end: wall nanoseconds
  std::uint8_t kind = kNone;
  /// Truncated span name, NUL-terminated. Empty for counter events — the
  /// postmortem resolves the Counter* through its pre-registered metric
  /// table instead of copying the name on the hot path.
  char name[39] = {};
};
static_assert(sizeof(Event) == 64, "Event is sized to a cache line");

/// Recorder on/off (default on). This is the bench ablation seam, not a user
/// knob: events are only produced while obs::enabled() anyway.
void set_enabled(bool on);
bool enabled();

// ---- hot-path writers (called from obs.hpp / obs.cpp hooks) ----------------

void note_span_begin(std::uint64_t id, std::string_view name,
                     double t) noexcept;
void note_span_end(std::uint64_t id, std::string_view name, double t,
                   double wall_s) noexcept;
/// Counter delta; no clock read — the event reuses the thread's last span
/// timestamp so counters in tight loops cost a store, not a syscall.
void note_counter(const void* counter, std::uint64_t delta) noexcept;

// ---- readers ---------------------------------------------------------------

/// Total events recorded process-wide; the watchdog's notion of progress.
std::uint64_t progress_epoch() noexcept;

/// Ring-slot accessors for the postmortem writer and the watchdog. `slot`
/// ranges over [0, kMaxThreads). All are async-signal-safe.
bool slot_used(int slot) noexcept;
pthread_t slot_thread(int slot) noexcept;
int slot_open_spans(int slot) noexcept;
double slot_last_event_t(int slot) noexcept;
std::uint64_t slot_head(int slot) noexcept;  ///< events ever written

/// Copies the most recent (up to `max`) events of `slot` into `out`, oldest
/// first. Returns the count. The sequence number of out[0] is
/// slot_head(slot) - count (racy by at most the events written during the
/// copy). Async-signal-safe.
std::size_t copy_tail(int slot, Event* out, std::size_t max) noexcept;

/// Number of threads currently inside at least one span.
int open_span_threads() noexcept;

}  // namespace relkit::obs::flight
