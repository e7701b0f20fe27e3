// relkit::obs — zero-overhead-when-disabled observability.
//
// The tutorial's method comparison (non-state-space vs. state-space vs.
// hierarchical/fixed-point) is ultimately an argument about where the cost
// goes: BDD nodes, state counts, iterations to convergence. This module
// makes that cost visible without turning RelKit into a profiler project:
//
//   * a Registry of named Counters / Gauges / Histograms (BDD nodes, ITE
//     cache hits, SOR sweeps, power steps, uniformization steps, fixed-point
//     iterations, simulation events, residuals per sweep, ...);
//   * scoped Span tracing: RAII spans nest via a thread-local stack, record
//     wall and per-thread CPU time plus free-form attributes, and are
//     emitted on completion to pluggable sinks (in-memory ring buffer for
//     tree rendering, Chrome trace-event file for machine consumption);
//   * render_trace_tree() turns a batch of completed spans back into the
//     nested phase-by-phase cost tree the CLI prints for --trace.
//
// Cost discipline:
//   * compiled in but *disabled* (the default): every hook is one relaxed
//     atomic load and a predictable branch — bench_obs_overhead pins this
//     below 2% on the hottest paths;
//   * compiled out (cmake -DRELKIT_OBS=OFF defines RELKIT_OBS_DISABLED):
//     enabled() is constexpr false and the hooks fold away entirely;
//   * enabled: counters are relaxed atomics, spans cost two clock reads and
//     one short critical section per *phase* (never per iteration).
//
// This header deliberately depends on nothing else in RelKit so every
// module — including `common` — can instrument itself.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace relkit::obs {

#ifdef RELKIT_OBS_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

namespace detail {
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace detail

/// True when instrumentation is compiled in AND switched on at runtime.
/// This is the one check every hook makes; keep it inline and branchy.
inline bool enabled() {
  if constexpr (!kCompiledIn) {
    return false;
  } else {
    return detail::enabled_flag().load(std::memory_order_relaxed);
  }
}

/// Switches instrumentation on/off at runtime (no-op when compiled out).
inline void set_enabled(bool on) {
  detail::enabled_flag().store(on && kCompiledIn, std::memory_order_relaxed);
}

// ---- metrics ---------------------------------------------------------------

namespace flight {
/// Flight-recorder hook for counter deltas (see flight_recorder.hpp);
/// defined out of line so this header keeps depending on nothing. Only
/// reached while enabled() — the disabled path stays a branch-not-taken.
void note_counter(const void* counter, std::uint64_t delta) noexcept;
}  // namespace flight

/// Monotonic event count. add() is a relaxed atomic increment (plus a
/// flight-recorder ring store) when enabled and a branch-not-taken
/// otherwise, so it is safe on hot paths.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    if (enabled()) {
      value_.fetch_add(delta, std::memory_order_relaxed);
      flight::note_counter(this, delta);
    }
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (e.g. current state count, final omega).
class Gauge {
 public:
  void set(double v) {
    if (enabled()) value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution of positive doubles over base-2 exponential buckets.
/// Bucket 0 collects v <= 0; bucket i >= 1 covers ilogb(v) == i - 1 + kMinExp
/// clamped into range, so ~1e-12 .. ~8e6 resolve and the tails saturate.
/// Thread-safe: all fields are relaxed atomics (min/max via CAS).
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr int kMinExp = -40;  // 2^-40 ~ 9e-13

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  ///< +inf when empty
  double max() const;  ///< -inf when empty
  std::uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Approximate quantile (upper edge of the bucket holding rank q*count);
  /// returns 0 when empty.
  double quantile(double q) const;
  void reset();

  static int bucket_index(double v);
  /// Upper edge of bucket i (inf for the saturated top bucket).
  static double bucket_upper(int i);

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> has_extrema_{false};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Rolling-window distribution: a ring of fixed-width time slices, each a
/// base-2 bucketed histogram (same edges as Histogram), merged on read.
/// observe() lands in the slice covering "now"; slices older than the
/// window fall out of snapshots, so quantiles describe roughly the last
/// `window_seconds` only — this powers the rolling p50/p95/p99 SLO gauges
/// relkit_serve exposes at /metrics and /statusz. Thread-safe (one short
/// mutex per observe/snapshot). observe() is a no-op while instrumentation
/// is disabled, like every obs hook; the *_at seams take an explicit clock
/// and are ungated so tests stay deterministic.
class SlidingWindowHistogram {
 public:
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when empty
    double max = 0.0;  ///< 0 when empty
    double p50 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  explicit SlidingWindowHistogram(double window_seconds = 60.0,
                                  int slices = 6);
  ~SlidingWindowHistogram();
  SlidingWindowHistogram(const SlidingWindowHistogram&) = delete;
  SlidingWindowHistogram& operator=(const SlidingWindowHistogram&) = delete;

  void observe(double v);
  Snapshot snapshot() const;

  /// Deterministic seams: identical semantics with an explicit clock
  /// (seconds on any monotone axis — slices are now_s / slice-width).
  void observe_at(double v, double now_s);
  Snapshot snapshot_at(double now_s) const;

  double window_seconds() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Process-wide registry of named metrics. Registration takes a lock;
/// returned references are stable forever, so hot paths cache them:
///
///   static obs::Counter& c = obs::counter("bdd.nodes_allocated");
///   if (obs::enabled()) c.add();
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Attaches a pre-rendered OpenMetrics label set (e.g.
  /// `build_type="release",obs="on"`) to a gauge; to_openmetrics() then
  /// emits `name{labels} value`. The text must already be escaped per the
  /// OpenMetrics ABNF — this is for static identification gauges like
  /// relkit.build_info, not per-sample dimensions.
  void set_gauge_labels(std::string_view name, std::string_view labels);

  /// All registered metric names (sorted), for docs lint and tests.
  std::vector<std::string> names() const;

  /// OpenMetrics text exposition (Prometheus-scrapable): per metric a
  /// `# HELP` line carrying the original dotted name, a `# TYPE` line, and
  /// sample lines — counters as `<name>_total`, histograms as cumulative
  /// `<name>_bucket{le="..."}` series over the base-2 bucket edges plus
  /// `_count`/`_sum`, terminated by `# EOF`. Names pass through
  /// sanitize_metric_name(); every registered metric is exposed, including
  /// zero-valued ones (scrapers want stable series).
  std::string to_openmetrics() const;

  /// Zeroes every metric value; registrations (and cached references)
  /// survive. Intended for tests and for the CLI's per-run scoping.
  void reset_values();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// The Content-Type an HTTP endpoint serving Registry::to_openmetrics()
/// must declare (relkit_serve's /metrics does) so Prometheus-compatible
/// scrapers negotiate the exposition correctly.
inline constexpr const char* kOpenMetricsContentType =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// Maps a RelKit metric name onto the OpenMetrics charset
/// [a-zA-Z_:][a-zA-Z0-9_:]*: '.' and every other invalid byte become '_',
/// and a leading digit gains a '_' prefix. Deterministic and idempotent;
/// tools/check_metrics.py enforces that the mapping stays injective over
/// the documented catalog (no two metrics may silently merge).
std::string sanitize_metric_name(std::string_view name);

/// Registers the scrape-identification gauges once per process:
/// `relkit.build_info` (value 1, labels build_type/git/obs — from the
/// RELKIT_BUILD_TYPE_STR / RELKIT_GIT_DESCRIBE compile definitions) and
/// `relkit.process.start_time.seconds` (Unix time of the first call).
/// Call after set_enabled(true) — gauge writes are gated like every hook.
void register_build_info();

/// Samples process-level resource gauges into the registry:
/// `relkit.process.rss_peak_bytes`, `relkit.process.cpu.user.seconds`,
/// `relkit.process.cpu.sys.seconds` (getrusage) and
/// `relkit.process.open_fds` (/proc/self/fd). Cheap enough to call on
/// every scrape/metrics dump; gauge writes are gated like every hook.
void refresh_process_gauges();

// Convenience accessors; see Registry::counter for the hot-path pattern.
inline Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return Registry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}

// ---- tracing ---------------------------------------------------------------

/// A completed span, as delivered to sinks.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root (no enclosing span on the thread)
  std::uint32_t depth = 0;   ///< nesting depth on its thread (root = 0)
  std::uint64_t thread = 0;  ///< small sequential per-thread index
  std::string name;
  double start_s = 0.0;  ///< seconds since tracer epoch
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< per-thread CPU time consumed inside the span
  /// Attributes in insertion order, values preformatted to strings.
  std::vector<std::pair<std::string, std::string>> attrs;

  /// Attribute value by key (nullptr when absent).
  const std::string* attr(std::string_view key) const;
};

/// Destination for completed spans. on_span may be called from any thread;
/// implementations synchronize internally.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_span(const SpanRecord& record) = 0;
};

/// Keeps the most recent `capacity` spans in memory (oldest dropped).
class RingBufferSink : public Sink {
 public:
  explicit RingBufferSink(std::size_t capacity = 8192);
  void on_span(const SpanRecord& record) override;
  /// Completed spans, oldest first.
  std::vector<SpanRecord> snapshot() const;
  std::uint64_t dropped() const;
  void clear();

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Serializes completed spans as Chrome trace-event JSON (the JSON Object
/// Format: {"traceEvents":[...]}), loadable in Perfetto / chrome://tracing:
/// one complete "X" event per span (ts/dur in microseconds, pid 1, tid =
/// span thread index, attrs as args, cpu time as args.cpu_us) plus one
/// "M" thread_name metadata event per thread. Events are sorted by start
/// time so the timeline nests exactly like render_trace_tree().
std::string to_chrome_json(const std::vector<SpanRecord>& records);

/// Buffers completed spans and writes them as Chrome trace-event JSON on
/// flush()/destruction (the object format needs the full batch — there is
/// no valid incremental prefix).
class ChromeTraceSink : public Sink {
 public:
  /// Opens `path` for writing; returns nullptr when the file cannot be
  /// opened (callers map this to their own error policy — obs has no
  /// dependency on RelKit's exception hierarchy).
  static std::unique_ptr<ChromeTraceSink> open(const std::string& path);
  ~ChromeTraceSink() override;
  void on_span(const SpanRecord& record) override;
  /// Writes the buffered events; idempotent (later spans are dropped once
  /// the file is finalized).
  void flush();

 private:
  struct Impl;
  explicit ChromeTraceSink(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Collects spans completed by ONE thread (by Tracer::thread_index()) and
/// hands them over on take(). This is the per-request / per-model span
/// attribution mechanism: work handled entirely on one worker thread
/// attaches a filter sink for that thread index, runs, detaches, and then
/// owns exactly its own spans — relkit_cli --batch --profile and
/// relkit_serve request tracing both rely on it.
class ThreadFilterSink : public Sink {
 public:
  explicit ThreadFilterSink(std::uint64_t thread);
  ~ThreadFilterSink() override;
  void on_span(const SpanRecord& record) override;
  /// Collected spans in completion order; empties the internal buffer.
  std::vector<SpanRecord> take();
  /// Collected spans in completion order, without clearing.
  std::vector<SpanRecord> snapshot() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Line-oriented append writer with size-based rotation: when a write would
/// push the file past `max_bytes`, the current file is renamed to `path.1`
/// (replacing any previous rotation) and a fresh file is started. Backing
/// store for relkit_serve's JSONL access log. Thread-safe.
class RotatingFileWriter {
 public:
  /// Opens `path` for appending; nullptr when it cannot be opened.
  /// max_bytes == 0 disables rotation.
  static std::unique_ptr<RotatingFileWriter> open(const std::string& path,
                                                  std::size_t max_bytes);
  ~RotatingFileWriter();
  /// Appends `line` plus '\n', rotating first when the write would exceed
  /// max_bytes (the line itself is never split across files).
  void write_line(std::string_view line);
  void flush();

 private:
  struct Impl;
  explicit RotatingFileWriter(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// JSON-escape a string: quote, backslash and control bytes are escaped,
/// everything else (UTF-8 included) passes through.
std::string json_escape(std::string_view s);

/// Builds one JSON text. It owns the commas between members and elements
/// and the escaping of keys and strings; each surface keeps its own number
/// format: number() is %.12g (RelKit's result format), integer() is exact,
/// and raw() splices preformatted text — a fixed-point timestamp, a nested
/// JSON text, or a bare member list such as serve::SolveOutcome::fields —
/// wherever a value or a member may go. Writing members without
/// begin_object() yields such a bare member list.
///
///   obs::JsonWriter w;
///   w.begin_object().key("ok").boolean(true).key("n").integer(3);
///   w.end_object().str();  // {"ok":true,"n":3}
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  JsonWriter& key(std::string_view name);
  JsonWriter& string(std::string_view value);
  JsonWriter& number(double value);
  JsonWriter& integer(std::uint64_t value);
  JsonWriter& boolean(bool value);
  JsonWriter& raw(std::string_view json);
  /// Starts the next value (after its comma) or closing bracket on a new
  /// line — the one-event-per-line layout of Chrome traces.
  JsonWriter& newline();

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  /// Comma and pending line break before a key or a value.
  void separate();
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);

  std::string out_;
  bool comma_ = false;
  bool newline_ = false;
};

// ---- distributed trace ids -------------------------------------------------

/// 128-bit W3C trace id. "Valid" per the traceparent spec means not
/// all-zero.
struct TraceId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  bool valid() const { return (hi | lo) != 0; }
  friend bool operator==(const TraceId& a, const TraceId& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const TraceId& a, const TraceId& b) {
    return !(a == b);
  }
};

/// Random non-zero trace id from a per-thread splitmix64 generator (seeded
/// from std::random_device once per thread — no locks on the request path).
TraceId generate_trace_id();

/// 32 lowercase hex characters.
std::string trace_id_hex(const TraceId& id);

/// Parses a W3C `traceparent` header value
/// (`VV-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>`, lowercase).
/// Returns an invalid (all-zero) TraceId when the value is malformed, the
/// version is "ff", or the trace-id / parent-id field is all-zero.
TraceId parse_traceparent(std::string_view header);

/// Renders `00-<trace-id>-<span-id>-01` (sampled flag set), the propagation
/// form relkit_serve echoes back to clients.
std::string make_traceparent(const TraceId& id, std::uint64_t span_id);

/// Bernoulli sampling decision from the same per-thread generator as
/// generate_trace_id(): true with probability p (p <= 0 never, p >= 1
/// always).
bool sample_trace(double p);

/// Owns the sink list and the span-id source.
class Tracer {
 public:
  static Tracer& instance();
  void add_sink(std::shared_ptr<Sink> sink);
  /// Removes one sink previously added (no-op when absent) — the batch
  /// CLI attaches a per-model collector and must detach only its own.
  void remove_sink(const std::shared_ptr<Sink>& sink);
  void remove_all_sinks();
  bool has_sinks() const;
  /// Seconds since the tracer was first touched.
  double now_s() const;
  void emit(const SpanRecord& record);
  std::uint64_t next_id();
  /// Small sequential index of the calling thread.
  std::uint64_t thread_index();

 private:
  Tracer();
  struct Impl;
  Impl& impl() const;
};

/// RAII scoped span. Inactive (and free apart from the enabled() check)
/// when instrumentation is off at construction time. Typical use:
///
///   obs::Span span("solver.sor");
///   ...
///   span.set("iterations", it);
///   span.set("residual", res);
///   // emitted on scope exit
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }
  /// Span id as recorded (0 while inactive) — lets callers link synthetic
  /// child records (e.g. relkit_serve's serve.queue_wait) to a live parent.
  std::uint64_t id() const { return record_.id; }
  void set(std::string_view key, std::string_view value);
  void set(std::string_view key, const char* value);
  void set(std::string_view key, double value);
  void set(std::string_view key, std::uint64_t value);
  void set(std::string_view key, int value);
  void set(std::string_view key, bool value);

 private:
  bool active_ = false;
  SpanRecord record_;
  double cpu_start_ = 0.0;
  double wall_start_raw_ = 0.0;
};

/// Renders completed spans (any order) as an indented tree with wall/CPU
/// time and attributes — the CLI's --trace output. Spans whose parent is
/// missing from `records` (ring-buffer overflow) render as roots.
std::string render_trace_tree(const std::vector<SpanRecord>& records);

// ---- profiling -------------------------------------------------------------

/// Aggregate of all completed spans sharing one name — the per-phase cost
/// table behind the CLI's --profile flag.
struct ProfileRow {
  std::string name;
  std::uint64_t count = 0;     ///< completed spans with this name
  double inclusive_wall = 0.0; ///< sum of span wall times
  double exclusive_wall = 0.0; ///< inclusive minus time in child spans
  double inclusive_cpu = 0.0;  ///< sum of per-thread CPU times
  double percent = 0.0;        ///< inclusive wall as % of total root wall
  /// Sum of the spans' `bytes` attributes: the memory traffic the sparse
  /// kernels compute from their sizes (0 when no span carried one).
  std::uint64_t bytes = 0;
};

/// One solve's profile: rows sorted by inclusive wall time (descending)
/// plus the total, which is the summed wall time of root spans.
struct ProfileReport {
  std::vector<ProfileRow> rows;
  double total_wall = 0.0;

  const ProfileRow* row(std::string_view name) const;
};

/// Aggregates completed spans by name. Exclusive time subtracts only
/// children present in `records`; a span whose parent is missing (ring
/// overflow) counts as a root. Invariant: for every name, inclusive_wall
/// equals the exact sum of that name's span wall times.
ProfileReport build_profile(const std::vector<SpanRecord>& records);

/// Fixed-width table (CLI --profile): name, calls, inclusive/exclusive
/// wall, CPU, and % of total, one row per name, plus a GB/s column (bytes
/// over inclusive wall) when some row carries bytes.
std::string render_profile_table(const ProfileReport& profile);

/// JSON array of row objects, embedded in batch-mode output lines:
/// [{"name":..,"count":..,"wall_s":..,"excl_s":..,"cpu_s":..,"pct":..},..];
/// rows with bytes add "bytes" and, when wall_s > 0, "gbps".
std::string profile_to_json(const ProfileReport& profile);

}  // namespace relkit::obs
