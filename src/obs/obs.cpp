#include "obs/obs.hpp"

#if defined(__linux__) || defined(__APPLE__)
#include <dirent.h>
#include <sys/resource.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <random>

#include "obs/flight_recorder.hpp"
#include "obs/postmortem.hpp"

#ifndef RELKIT_BUILD_TYPE_STR
#define RELKIT_BUILD_TYPE_STR "unknown"
#endif
#ifndef RELKIT_GIT_DESCRIBE
#define RELKIT_GIT_DESCRIBE "unknown"
#endif

namespace relkit::obs {

namespace {

/// Per-thread CPU seconds (CLOCK_THREAD_CPUTIME_ID where available).
double thread_cpu_seconds() {
#if defined(__linux__) || defined(__APPLE__)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string format_double(double v) {
  // Shortest-ish representation that still round-trips the magnitudes we
  // care about (iteration counts, residuals, seconds).
  char buf[32];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

/// Relaxed atomic min/max update via CAS.
void update_extrema(std::atomic<double>& mn, std::atomic<double>& mx,
                    std::atomic<bool>& has, double v) {
  bool had = has.load(std::memory_order_relaxed);
  if (!had && has.compare_exchange_strong(had, true,
                                          std::memory_order_relaxed)) {
    mn.store(v, std::memory_order_relaxed);
    mx.store(v, std::memory_order_relaxed);
    return;
  }
  double cur = mn.load(std::memory_order_relaxed);
  while (v < cur &&
         !mn.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = mx.load(std::memory_order_relaxed);
  while (v > cur &&
         !mx.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---- Histogram -------------------------------------------------------------

int Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // non-positive and NaN
  const int e = std::ilogb(v);
  const int idx = 1 + (e - kMinExp);
  return std::clamp(idx, 1, kBuckets - 1);
}

double Histogram::bucket_upper(int i) {
  if (i <= 0) return 0.0;
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, i - 1 + kMinExp + 1);
}

void Histogram::observe(double v) {
  if (!enabled()) return;
  count_.fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(v)) {
    sum_.fetch_add(v, std::memory_order_relaxed);
    update_extrema(min_, max_, has_extrema_, v);
  }
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::min() const {
  return has_extrema_.load(std::memory_order_relaxed)
             ? min_.load(std::memory_order_relaxed)
             : std::numeric_limits<double>::infinity();
}

double Histogram::max() const {
  return has_extrema_.load(std::memory_order_relaxed)
             ? max_.load(std::memory_order_relaxed)
             : -std::numeric_limits<double>::infinity();
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (seen > rank) {
      const double upper = bucket_upper(i);
      // Clamp the bucket edge into the observed range so tails stay honest.
      return std::min(std::max(upper, min()), max());
    }
  }
  return max();
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  has_extrema_.store(false, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

// ---- SlidingWindowHistogram ------------------------------------------------

struct SlidingWindowHistogram::Impl {
  mutable std::mutex mu;
  double slice_width = 10.0;
  int slices = 6;
  struct Slice {
    std::int64_t tick = -1;  ///< floor(now_s / slice_width); -1 = never used
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t buckets[Histogram::kBuckets] = {};
  };
  std::vector<Slice> ring;
};

namespace {

/// Quantile over merged base-2 buckets, clamped into the observed range —
/// same convention as Histogram::quantile.
double merged_quantile(const std::uint64_t* buckets, std::uint64_t n,
                       double q, double mn, double mx) {
  if (n == 0) return 0.0;
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    seen += buckets[i];
    if (seen > rank) {
      const double upper = Histogram::bucket_upper(i);
      return std::min(std::max(upper, mn), mx);
    }
  }
  return mx;
}

}  // namespace

SlidingWindowHistogram::SlidingWindowHistogram(double window_seconds,
                                               int slices)
    : impl_(std::make_unique<Impl>()) {
  if (!(window_seconds > 0.0)) window_seconds = 60.0;
  if (slices < 1) slices = 1;
  impl_->slices = slices;
  impl_->slice_width = window_seconds / static_cast<double>(slices);
  impl_->ring.resize(static_cast<std::size_t>(slices));
}

SlidingWindowHistogram::~SlidingWindowHistogram() = default;

double SlidingWindowHistogram::window_seconds() const {
  return impl_->slice_width * static_cast<double>(impl_->slices);
}

void SlidingWindowHistogram::observe(double v) {
  if (!enabled()) return;
  observe_at(v, steady_seconds());
}

SlidingWindowHistogram::Snapshot SlidingWindowHistogram::snapshot() const {
  return snapshot_at(steady_seconds());
}

void SlidingWindowHistogram::observe_at(double v, double now_s) {
  Impl& im = *impl_;
  const auto tick = static_cast<std::int64_t>(
      std::floor(now_s / im.slice_width));
  std::lock_guard lock(im.mu);
  Impl::Slice& slice =
      im.ring[static_cast<std::size_t>(((tick % im.slices) + im.slices) %
                                       im.slices)];
  if (slice.tick != tick) {
    slice = Impl::Slice{};
    slice.tick = tick;
  }
  if (slice.count == 0 || v < slice.min) slice.min = v;
  if (slice.count == 0 || v > slice.max) slice.max = v;
  slice.count += 1;
  if (std::isfinite(v)) slice.sum += v;
  slice.buckets[Histogram::bucket_index(v)] += 1;
}

SlidingWindowHistogram::Snapshot SlidingWindowHistogram::snapshot_at(
    double now_s) const {
  Impl& im = *impl_;
  const auto tick_now = static_cast<std::int64_t>(
      std::floor(now_s / im.slice_width));
  Snapshot snap;
  std::uint64_t buckets[Histogram::kBuckets] = {};
  double mn = 0.0, mx = 0.0;
  std::lock_guard lock(im.mu);
  for (const Impl::Slice& slice : im.ring) {
    if (slice.tick < 0 || slice.tick > tick_now ||
        slice.tick <= tick_now - im.slices) {
      continue;  // never used, from the future, or aged out of the window
    }
    if (slice.count == 0) continue;
    if (snap.count == 0 || slice.min < mn) mn = slice.min;
    if (snap.count == 0 || slice.max > mx) mx = slice.max;
    snap.count += slice.count;
    snap.sum += slice.sum;
    for (int i = 0; i < Histogram::kBuckets; ++i) buckets[i] += slice.buckets[i];
  }
  if (snap.count == 0) return snap;
  snap.min = mn;
  snap.max = mx;
  snap.p50 = merged_quantile(buckets, snap.count, 0.50, mn, mx);
  snap.p90 = merged_quantile(buckets, snap.count, 0.90, mn, mx);
  snap.p95 = merged_quantile(buckets, snap.count, 0.95, mn, mx);
  snap.p99 = merged_quantile(buckets, snap.count, 0.99, mn, mx);
  return snap;
}

// ---- Registry --------------------------------------------------------------

struct Registry::Impl {
  mutable std::mutex mu;
  // std::map keeps iteration sorted and node addresses stable.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  // Pre-rendered OpenMetrics label text per gauge (identification gauges
  // like relkit.build_info only).
  std::map<std::string, std::string, std::less<>> gauge_labels;
};

Registry& Registry::instance() {
  static Registry reg;
  return reg;
}

Registry::Impl& Registry::impl() const {
  static Impl impl;
  return impl;
}

// New nodes register with the postmortem metric table (name c_str()s and
// node addresses are stable forever — nodes are never erased), so a crash
// handler can snapshot every metric without touching the map or the lock.

Counter& Registry::counter(std::string_view name) {
  Impl& im = impl();
  std::lock_guard lock(im.mu);
  auto it = im.counters.find(name);
  if (it == im.counters.end()) {
    it = im.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
    postmortem::register_metric_node(postmortem::MetricKind::kCounter,
                                     it->first.c_str(), it->second.get());
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  Impl& im = impl();
  std::lock_guard lock(im.mu);
  auto it = im.gauges.find(name);
  if (it == im.gauges.end()) {
    it = im.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
    postmortem::register_metric_node(postmortem::MetricKind::kGauge,
                                     it->first.c_str(), it->second.get());
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  Impl& im = impl();
  std::lock_guard lock(im.mu);
  auto it = im.histograms.find(name);
  if (it == im.histograms.end()) {
    it = im.histograms
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
    postmortem::register_metric_node(postmortem::MetricKind::kHistogram,
                                     it->first.c_str(), it->second.get());
  }
  return *it->second;
}

void Registry::set_gauge_labels(std::string_view name,
                                std::string_view labels) {
  Impl& im = impl();
  std::lock_guard lock(im.mu);
  im.gauge_labels[std::string(name)] = std::string(labels);
}

std::vector<std::string> Registry::names() const {
  Impl& im = impl();
  std::lock_guard lock(im.mu);
  std::vector<std::string> out;
  for (const auto& [name, c] : im.counters) out.push_back(name);
  for (const auto& [name, g] : im.gauges) out.push_back(name);
  for (const auto& [name, h] : im.histograms) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

namespace {

/// HELP text escaping per the OpenMetrics ABNF: backslash and line feed.
std::string openmetrics_escape_help(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Exact, locale-free rendering of a histogram bucket edge; the `le` label
/// values must be strictly increasing strings that parse back to the same
/// doubles.
std::string format_le(double upper) {
  if (upper == std::numeric_limits<double>::infinity()) return "+Inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", upper);
  return buf;
}

}  // namespace

std::string Registry::to_openmetrics() const {
  Impl& im = impl();
  std::lock_guard lock(im.mu);
  std::string out;
  auto header = [&](const std::string& name, const char* kind,
                    const std::string& sanitized) {
    out += "# HELP " + sanitized + " RelKit " + kind + " '" +
           openmetrics_escape_help(name) + "'\n";
    out += "# TYPE " + sanitized + " " + kind + "\n";
  };
  for (const auto& [name, c] : im.counters) {
    const std::string s = sanitize_metric_name(name);
    header(name, "counter", s);
    out += s + "_total " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : im.gauges) {
    const std::string s = sanitize_metric_name(name);
    header(name, "gauge", s);
    const auto lbl = im.gauge_labels.find(name);
    if (lbl != im.gauge_labels.end() && !lbl->second.empty()) {
      out += s + "{" + lbl->second + "} " + format_double(g->value()) + "\n";
    } else {
      out += s + " " + format_double(g->value()) + "\n";
    }
  }
  for (const auto& [name, h] : im.histograms) {
    const std::string s = sanitize_metric_name(name);
    header(name, "histogram", s);
    std::uint64_t cumulative = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      cumulative += h->bucket(i);
      out += s + "_bucket{le=\"" + format_le(Histogram::bucket_upper(i)) +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    out += s + "_count " + std::to_string(h->count()) + "\n";
    out += s + "_sum " + format_double(h->sum()) + "\n";
  }
  out += "# EOF\n";
  return out;
}

void register_build_info() {
  static std::once_flag once;
  std::call_once(once, [] {
    Registry& reg = Registry::instance();
    reg.gauge("relkit.build_info").set(1.0);
    reg.set_gauge_labels(
        "relkit.build_info",
        std::string("build_type=\"") + RELKIT_BUILD_TYPE_STR + "\",git=\"" +
            RELKIT_GIT_DESCRIBE + "\",obs=\"" + (kCompiledIn ? "on" : "off") +
            "\"");
    reg.gauge("relkit.process.start_time.seconds")
        .set(std::chrono::duration<double>(
                 std::chrono::system_clock::now().time_since_epoch())
                 .count());
  });
}

void refresh_process_gauges() {
#if defined(__linux__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    // ru_maxrss is KiB on Linux (bytes on macOS, but RelKit targets Linux).
    obs::gauge("relkit.process.rss_peak_bytes")
        .set(static_cast<double>(usage.ru_maxrss) * 1024.0);
    obs::gauge("relkit.process.cpu.user.seconds")
        .set(static_cast<double>(usage.ru_utime.tv_sec) +
             static_cast<double>(usage.ru_utime.tv_usec) * 1e-6);
    obs::gauge("relkit.process.cpu.sys.seconds")
        .set(static_cast<double>(usage.ru_stime.tv_sec) +
             static_cast<double>(usage.ru_stime.tv_usec) * 1e-6);
  }
  if (DIR* fds = opendir("/proc/self/fd")) {
    int count = 0;
    while (readdir(fds) != nullptr) ++count;
    closedir(fds);
    // Minus ".", ".." and the directory fd opendir itself holds.
    obs::gauge("relkit.process.open_fds")
        .set(static_cast<double>(count > 3 ? count - 3 : 0));
  }
#endif
}

void Registry::reset_values() {
  Impl& im = impl();
  std::lock_guard lock(im.mu);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, g] : im.gauges) g->reset();
  for (auto& [name, h] : im.histograms) h->reset();
}

// ---- SpanRecord ------------------------------------------------------------

const std::string* SpanRecord::attr(std::string_view key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

// ---- sinks -----------------------------------------------------------------

struct RingBufferSink::Impl {
  mutable std::mutex mu;
  std::size_t capacity;
  std::deque<SpanRecord> records;
  std::uint64_t dropped = 0;
};

RingBufferSink::RingBufferSink(std::size_t capacity)
    : impl_(std::make_shared<Impl>()) {
  impl_->capacity = capacity == 0 ? 1 : capacity;
}

void RingBufferSink::on_span(const SpanRecord& record) {
  std::lock_guard lock(impl_->mu);
  if (impl_->records.size() >= impl_->capacity) {
    impl_->records.pop_front();
    ++impl_->dropped;
  }
  impl_->records.push_back(record);
}

std::vector<SpanRecord> RingBufferSink::snapshot() const {
  std::lock_guard lock(impl_->mu);
  return {impl_->records.begin(), impl_->records.end()};
}

std::uint64_t RingBufferSink::dropped() const {
  std::lock_guard lock(impl_->mu);
  return impl_->dropped;
}

void RingBufferSink::clear() {
  std::lock_guard lock(impl_->mu);
  impl_->records.clear();
  impl_->dropped = 0;
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

// ---- JsonWriter ------------------------------------------------------------

void JsonWriter::separate() {
  if (comma_) out_ += ',';
  if (newline_) out_ += '\n';
  comma_ = false;
  newline_ = false;
}

JsonWriter& JsonWriter::open(char bracket) {
  separate();
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  if (newline_) out_ += '\n';
  newline_ = false;
  out_ += bracket;
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  out_ += '"';
  append_escaped(out_, name);
  out_ += "\":";
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view value) {
  separate();
  out_ += '"';
  append_escaped(out_, value);
  out_ += '"';
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return raw(buf);
}

JsonWriter& JsonWriter::integer(std::uint64_t value) {
  return raw(std::to_string(value));
}

JsonWriter& JsonWriter::boolean(bool value) {
  return raw(value ? "true" : "false");
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_ += json;
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::newline() {
  newline_ = true;
  return *this;
}

// ---- distributed trace ids -------------------------------------------------

namespace {

std::uint64_t splitmix64_next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t& trace_rng_state() {
  thread_local std::uint64_t state = [] {
    std::random_device rd;
    const std::uint64_t seed =
        (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    return seed != 0 ? seed : 0x6b696c6572ULL;
  }();
  return state;
}

/// Lowercase-hex-only parse (W3C traceparent is case-sensitive lowercase).
bool parse_hex_u64(std::string_view s, std::uint64_t& out) {
  out = 0;
  for (const char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    out = (out << 4) | static_cast<std::uint64_t>(digit);
  }
  return true;
}

}  // namespace

TraceId generate_trace_id() {
  std::uint64_t& state = trace_rng_state();
  TraceId id;
  do {
    id.hi = splitmix64_next(state);
    id.lo = splitmix64_next(state);
  } while (!id.valid());
  return id;
}

std::string trace_id_hex(const TraceId& id) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(id.hi),
                static_cast<unsigned long long>(id.lo));
  return buf;
}

TraceId parse_traceparent(std::string_view header) {
  // version "-" trace-id "-" parent-id "-" flags; future versions may append
  // "-" plus extra fields, version ff is forbidden, version 00 is exactly
  // 55 chars.
  if (header.size() < 55) return {};
  if (header[2] != '-' || header[35] != '-' || header[52] != '-') return {};
  std::uint64_t version = 0;
  if (!parse_hex_u64(header.substr(0, 2), version)) return {};
  if (version == 0xff) return {};
  if (header.size() > 55 && (version == 0 || header[55] != '-')) return {};
  TraceId id;
  std::uint64_t parent = 0, flags = 0;
  if (!parse_hex_u64(header.substr(3, 16), id.hi) ||
      !parse_hex_u64(header.substr(19, 16), id.lo) ||
      !parse_hex_u64(header.substr(36, 16), parent) ||
      !parse_hex_u64(header.substr(53, 2), flags)) {
    return {};
  }
  if (!id.valid() || parent == 0) return {};
  return id;
}

std::string make_traceparent(const TraceId& id, std::uint64_t span_id) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "00-%016llx%016llx-%016llx-01",
                static_cast<unsigned long long>(id.hi),
                static_cast<unsigned long long>(id.lo),
                static_cast<unsigned long long>(span_id));
  return buf;
}

bool sample_trace(double p) {
  if (!(p > 0.0)) return false;
  if (p >= 1.0) return true;
  const double u = static_cast<double>(splitmix64_next(trace_rng_state()) >>
                                       11) *
                   0x1.0p-53;
  return u < p;
}

// ---- ThreadFilterSink ------------------------------------------------------

struct ThreadFilterSink::Impl {
  mutable std::mutex mu;
  std::uint64_t thread = 0;
  std::vector<SpanRecord> records;
};

ThreadFilterSink::ThreadFilterSink(std::uint64_t thread)
    : impl_(std::make_unique<Impl>()) {
  impl_->thread = thread;
}

ThreadFilterSink::~ThreadFilterSink() = default;

void ThreadFilterSink::on_span(const SpanRecord& record) {
  if (record.thread != impl_->thread) return;
  std::lock_guard lock(impl_->mu);
  impl_->records.push_back(record);
}

std::vector<SpanRecord> ThreadFilterSink::take() {
  std::lock_guard lock(impl_->mu);
  return std::move(impl_->records);
}

std::vector<SpanRecord> ThreadFilterSink::snapshot() const {
  std::lock_guard lock(impl_->mu);
  return impl_->records;
}

// ---- RotatingFileWriter ----------------------------------------------------

struct RotatingFileWriter::Impl {
  std::mutex mu;
  std::FILE* file = nullptr;
  std::string path;
  std::size_t max_bytes = 0;
  std::size_t size = 0;
  ~Impl() {
    if (file) std::fclose(file);
  }
};

RotatingFileWriter::RotatingFileWriter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

RotatingFileWriter::~RotatingFileWriter() = default;

std::unique_ptr<RotatingFileWriter> RotatingFileWriter::open(
    const std::string& path, std::size_t max_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ae");
  if (!f) return nullptr;
  auto impl = std::make_unique<Impl>();
  impl->file = f;
  impl->path = path;
  impl->max_bytes = max_bytes;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long pos = std::ftell(f);
    if (pos > 0) impl->size = static_cast<std::size_t>(pos);
  }
  return std::unique_ptr<RotatingFileWriter>(
      new RotatingFileWriter(std::move(impl)));
}

void RotatingFileWriter::write_line(std::string_view line) {
  Impl& im = *impl_;
  std::lock_guard lock(im.mu);
  if (!im.file) return;
  const std::size_t needed = line.size() + 1;
  if (im.max_bytes != 0 && im.size > 0 && im.size + needed > im.max_bytes) {
    std::fclose(im.file);
    im.file = nullptr;
    const std::string rotated = im.path + ".1";
    std::rename(im.path.c_str(), rotated.c_str());
    im.file = std::fopen(im.path.c_str(), "we");
    im.size = 0;
    if (!im.file) return;  // disk trouble: drop lines rather than crash
  }
  std::fwrite(line.data(), 1, line.size(), im.file);
  std::fputc('\n', im.file);
  im.size += needed;
}

void RotatingFileWriter::flush() {
  std::lock_guard lock(impl_->mu);
  if (impl_->file) std::fflush(impl_->file);
}

// ---- Chrome trace ----------------------------------------------------------

std::string to_chrome_json(const std::vector<SpanRecord>& records) {
  // Stable thread set + start-time ordering so the timeline nests the way
  // render_trace_tree() does.
  std::vector<const SpanRecord*> sorted;
  sorted.reserve(records.size());
  std::vector<std::uint64_t> threads;
  for (const auto& r : records) {
    sorted.push_back(&r);
    if (std::find(threads.begin(), threads.end(), r.thread) ==
        threads.end()) {
      threads.push_back(r.thread);
    }
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->start_s < b->start_s;
            });
  std::sort(threads.begin(), threads.end());

  const auto microseconds = [](double seconds) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
    return std::string(buf);
  };
  JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (const std::uint64_t t : threads) {
    w.newline().begin_object().key("ph").string("M").key("pid").integer(1);
    w.key("tid").integer(t).key("name").string("thread_name");
    w.key("args").begin_object();
    w.key("name").string("relkit thread " + std::to_string(t));
    w.end_object().end_object();
  }
  for (const SpanRecord* r : sorted) {
    w.newline().begin_object().key("ph").string("X").key("pid").integer(1);
    w.key("tid").integer(r->thread).key("name").string(r->name);
    w.key("cat").string("relkit");
    w.key("ts").raw(microseconds(r->start_s));
    w.key("dur").raw(microseconds(r->wall_s));
    w.key("args").begin_object();
    w.key("span_id").string(std::to_string(r->id));
    w.key("parent").string(std::to_string(r->parent));
    w.key("cpu_us").string(microseconds(r->cpu_s));
    for (const auto& [k, v] : r->attrs) w.key(k).string(v);
    w.end_object().end_object();
  }
  w.newline().end_array().key("displayTimeUnit").string("ms").end_object();
  return w.take() + "\n";
}

struct ChromeTraceSink::Impl {
  std::mutex mu;
  std::FILE* file = nullptr;
  std::vector<SpanRecord> buffer;
  bool finalized = false;
  ~Impl() {
    if (file) std::fclose(file);
  }
};

ChromeTraceSink::ChromeTraceSink(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

std::unique_ptr<ChromeTraceSink> ChromeTraceSink::open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "we");
  if (!f) return nullptr;
  auto impl = std::make_unique<Impl>();
  impl->file = f;
  return std::unique_ptr<ChromeTraceSink>(
      new ChromeTraceSink(std::move(impl)));
}

ChromeTraceSink::~ChromeTraceSink() { flush(); }

void ChromeTraceSink::on_span(const SpanRecord& record) {
  std::lock_guard lock(impl_->mu);
  if (!impl_->finalized) impl_->buffer.push_back(record);
}

void ChromeTraceSink::flush() {
  std::lock_guard lock(impl_->mu);
  if (impl_->finalized) return;
  impl_->finalized = true;
  const std::string json = to_chrome_json(impl_->buffer);
  std::fwrite(json.data(), 1, json.size(), impl_->file);
  std::fflush(impl_->file);
}

// ---- Tracer ----------------------------------------------------------------

struct Tracer::Impl {
  mutable std::mutex mu;
  std::vector<std::shared_ptr<Sink>> sinks;
  std::atomic<bool> any_sink{false};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint64_t> next_thread{0};
  double epoch = steady_seconds();
};

Tracer::Tracer() = default;

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Impl& Tracer::impl() const {
  static Impl impl;
  return impl;
}

void Tracer::add_sink(std::shared_ptr<Sink> sink) {
  if (!sink) return;
  Impl& im = impl();
  std::lock_guard lock(im.mu);
  im.sinks.push_back(std::move(sink));
  im.any_sink.store(true, std::memory_order_relaxed);
}

void Tracer::remove_sink(const std::shared_ptr<Sink>& sink) {
  Impl& im = impl();
  std::lock_guard lock(im.mu);
  im.sinks.erase(std::remove(im.sinks.begin(), im.sinks.end(), sink),
                 im.sinks.end());
  im.any_sink.store(!im.sinks.empty(), std::memory_order_relaxed);
}

void Tracer::remove_all_sinks() {
  Impl& im = impl();
  std::lock_guard lock(im.mu);
  im.sinks.clear();
  im.any_sink.store(false, std::memory_order_relaxed);
}

bool Tracer::has_sinks() const {
  return impl().any_sink.load(std::memory_order_relaxed);
}

double Tracer::now_s() const { return steady_seconds() - impl().epoch; }

void Tracer::emit(const SpanRecord& record) {
  Impl& im = impl();
  // Copy the sink list under the lock, call outside it: a sink callback may
  // itself take locks (file IO) and must not serialize unrelated threads.
  std::vector<std::shared_ptr<Sink>> sinks;
  {
    std::lock_guard lock(im.mu);
    sinks = im.sinks;
  }
  for (const auto& sink : sinks) sink->on_span(record);
}

std::uint64_t Tracer::next_id() {
  return impl().next_id.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Tracer::thread_index() {
  thread_local std::uint64_t index =
      impl().next_thread.fetch_add(1, std::memory_order_relaxed);
  return index;
}

namespace {
/// Per-thread stack of open span ids — the nesting mechanism.
std::vector<std::uint64_t>& span_stack() {
  thread_local std::vector<std::uint64_t> stack;
  return stack;
}
}  // namespace

// ---- Span ------------------------------------------------------------------

Span::Span(std::string_view name) {
  if (!enabled()) return;
  Tracer& tracer = Tracer::instance();
  active_ = true;
  record_.id = tracer.next_id();
  record_.name = name;
  record_.thread = tracer.thread_index();
  auto& stack = span_stack();
  record_.parent = stack.empty() ? 0 : stack.back();
  record_.depth = static_cast<std::uint32_t>(stack.size());
  stack.push_back(record_.id);
  record_.start_s = tracer.now_s();
  wall_start_raw_ = steady_seconds();
  cpu_start_ = thread_cpu_seconds();
  flight::note_span_begin(record_.id, record_.name, record_.start_s);
}

Span::~Span() {
  if (!active_) return;
  record_.wall_s = steady_seconds() - wall_start_raw_;
  record_.cpu_s = thread_cpu_seconds() - cpu_start_;
  auto& stack = span_stack();
  // Pop this span; tolerate (and repair) out-of-order destruction.
  while (!stack.empty() && stack.back() != record_.id) stack.pop_back();
  if (!stack.empty()) stack.pop_back();
  flight::note_span_end(record_.id, record_.name,
                        record_.start_s + record_.wall_s, record_.wall_s);
  Tracer::instance().emit(record_);
}

void Span::set(std::string_view key, std::string_view value) {
  if (!active_) return;
  record_.attrs.emplace_back(std::string(key), std::string(value));
}

void Span::set(std::string_view key, const char* value) {
  set(key, std::string_view(value));
}

void Span::set(std::string_view key, double value) {
  if (!active_) return;
  record_.attrs.emplace_back(std::string(key), format_double(value));
}

void Span::set(std::string_view key, std::uint64_t value) {
  if (!active_) return;
  record_.attrs.emplace_back(std::string(key), std::to_string(value));
}

void Span::set(std::string_view key, int value) {
  if (!active_) return;
  record_.attrs.emplace_back(std::string(key), std::to_string(value));
}

void Span::set(std::string_view key, bool value) {
  set(key, value ? std::string_view("true") : std::string_view("false"));
}

// ---- tree rendering --------------------------------------------------------

namespace {

std::string format_seconds(double s) {
  char buf[32];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  }
  return buf;
}

}  // namespace

std::string render_trace_tree(const std::vector<SpanRecord>& records) {
  if (records.empty()) return "(no spans recorded)\n";
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const auto& r : records) by_id.emplace(r.id, &r);
  std::map<std::uint64_t, std::vector<const SpanRecord*>> children;
  std::vector<const SpanRecord*> roots;
  for (const auto& r : records) {
    if (r.parent != 0 && by_id.count(r.parent)) {
      children[r.parent].push_back(&r);
    } else {
      roots.push_back(&r);
    }
  }
  auto by_start = [](const SpanRecord* a, const SpanRecord* b) {
    return a->start_s < b->start_s;
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (auto& [id, kids] : children) {
    std::sort(kids.begin(), kids.end(), by_start);
  }

  std::string out;
  auto render = [&](auto&& self, const SpanRecord& r, int indent) -> void {
    std::string line(static_cast<std::size_t>(indent) * 2, ' ');
    line += r.name;
    if (line.size() < 44) line.resize(44, ' ');
    line += "  wall " + format_seconds(r.wall_s);
    line += "  cpu " + format_seconds(r.cpu_s);
    if (!r.attrs.empty()) {
      line += "  [";
      bool first = true;
      for (const auto& [k, v] : r.attrs) {
        if (!first) line += " ";
        first = false;
        line += k + "=" + v;
      }
      line += "]";
    }
    out += line + "\n";
    if (auto it = children.find(r.id); it != children.end()) {
      for (const SpanRecord* kid : it->second) self(self, *kid, indent + 1);
    }
  };
  for (const SpanRecord* root : roots) render(render, *root, 0);
  return out;
}

// ---- profiling -------------------------------------------------------------

const ProfileRow* ProfileReport::row(std::string_view name) const {
  for (const auto& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

ProfileReport build_profile(const std::vector<SpanRecord>& records) {
  ProfileReport profile;
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const auto& r : records) by_id.emplace(r.id, &r);

  // Per-span child wall time, to subtract for exclusive times.
  std::map<std::uint64_t, double> child_wall;
  for (const auto& r : records) {
    if (r.parent != 0 && by_id.count(r.parent)) {
      child_wall[r.parent] += r.wall_s;
    } else {
      profile.total_wall += r.wall_s;
    }
  }

  std::map<std::string, ProfileRow, std::less<>> rows;
  for (const auto& r : records) {
    ProfileRow& row = rows[r.name];
    row.name = r.name;
    row.count += 1;
    row.inclusive_wall += r.wall_s;
    row.inclusive_cpu += r.cpu_s;
    // Per-span exclusive time; clock jitter can push the children's sum a
    // hair past the parent's wall, so clamp each span at zero.
    const auto it = child_wall.find(r.id);
    const double in_children = it == child_wall.end() ? 0.0 : it->second;
    row.exclusive_wall += std::max(0.0, r.wall_s - in_children);
    if (const std::string* bytes = r.attr("bytes")) {
      row.bytes += std::strtoull(bytes->c_str(), nullptr, 10);
    }
  }
  for (auto& [name, row] : rows) {
    row.percent = profile.total_wall > 0.0
                      ? row.inclusive_wall / profile.total_wall * 100.0
                      : 0.0;
    profile.rows.push_back(std::move(row));
  }
  std::sort(profile.rows.begin(), profile.rows.end(),
            [](const ProfileRow& a, const ProfileRow& b) {
              return a.inclusive_wall > b.inclusive_wall;
            });
  return profile;
}

std::string render_profile_table(const ProfileReport& profile) {
  if (profile.rows.empty()) return "(no spans recorded)\n";
  // The GB/s column appears only when some span carried bytes, so a
  // profile without sparse kernels keeps the classic layout.
  bool traffic = false;
  for (const auto& r : profile.rows) traffic = traffic || r.bytes > 0;
  std::string out;
  char line[200];
  std::snprintf(line, sizeof(line), "%-40s %7s %11s %11s %11s %7s",
                "span", "calls", "incl wall", "excl wall", "incl cpu",
                "% tot");
  out += line;
  out += traffic ? "    GB/s\n" : "\n";
  for (const auto& r : profile.rows) {
    std::snprintf(line, sizeof(line),
                  "%-40s %7llu %11s %11s %11s %6.1f%%", r.name.c_str(),
                  static_cast<unsigned long long>(r.count),
                  format_seconds(r.inclusive_wall).c_str(),
                  format_seconds(r.exclusive_wall).c_str(),
                  format_seconds(r.inclusive_cpu).c_str(), r.percent);
    out += line;
    if (traffic) {
      if (r.bytes > 0 && r.inclusive_wall > 0.0) {
        std::snprintf(line, sizeof(line), " %7.2f",
                      static_cast<double>(r.bytes) / r.inclusive_wall / 1e9);
      } else {
        std::snprintf(line, sizeof(line), " %7s", "-");
      }
      out += line;
    }
    out += "\n";
  }
  std::snprintf(line, sizeof(line), "%-40s %7s %11s\n", "total (roots)", "",
                format_seconds(profile.total_wall).c_str());
  out += line;
  return out;
}

std::string profile_to_json(const ProfileReport& profile) {
  JsonWriter w;
  w.begin_array();
  for (const auto& r : profile.rows) {
    w.begin_object().key("name").string(r.name).key("count").integer(r.count);
    w.key("wall_s").raw(format_double(r.inclusive_wall));
    w.key("excl_s").raw(format_double(r.exclusive_wall));
    w.key("cpu_s").raw(format_double(r.inclusive_cpu));
    w.key("pct").raw(format_double(r.percent));
    if (r.bytes > 0) {
      w.key("bytes").integer(r.bytes);
      if (r.inclusive_wall > 0.0) {
        w.key("gbps").raw(format_double(static_cast<double>(r.bytes) /
                                        r.inclusive_wall / 1e9));
      }
    }
    w.end_object();
  }
  return w.end_array().take();
}

}  // namespace relkit::obs
