// Process-wide memoization of CTMC solves.
//
// The tutorial's hierarchical models re-solve the same subchain many times:
// every fixed-point iteration in core/hierarchy re-evaluates submodel
// availabilities, and a --batch CLI run solves the same `event ... markov`
// pool once per model that declares it. Those solves are pure functions of
// (generator, solver options), so RelKit caches them.
//
// Correctness before speed:
//   * keys are EXACT — the full key material (a word-serialized description
//     of the computation: kind tag, state count, every transition triple,
//     every option that can change the answer, and for transient solves the
//     horizon, truncation mass, and initial distribution) is stored and
//     compared on lookup, so a 64-bit hash collision can never alias two
//     different chains;
//   * the deadline and `jobs` are deliberately NOT part of the key: the
//     determinism contract (docs/parallelism.md) makes results independent
//     of the worker count, and a cache hit trivially satisfies any
//     deadline (iteration caps are solver options, which are in the key);
//   * solves made while testing::FaultInjector is armed bypass the cache in
//     both directions (no lookup, no insert), because injected faults act
//     inside the solver where the key cannot see them.
//
// Hits/misses are visible as `markov.cache.{hits,misses}` obs counters
// (plus a derived `markov.cache.hit_rate` gauge, updated on every lookup
// so the serve /metrics endpoint exposes it without a scrape-time pass)
// and as always-on internal stats (for benches and span attributes); a
// served hit sets SolveReport::cache_hit so --diagnostics shows "(cached)".
// Eviction is LRU, bounded both by entry count and by total key+result
// words, so pathological workloads cannot grow the cache without bound.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "robust/report.hpp"

namespace relkit::markov {

/// Incremental builder of a cache key: an exact word sequence plus an
/// FNV-1a hash over it for bucketing. Doubles are keyed by bit pattern, so
/// -0.0 vs 0.0 or different NaNs never alias.
class CacheKey {
 public:
  void add(std::uint64_t w) {
    words_.push_back(w);
    hash_ = (hash_ ^ w) * 0x100000001b3ULL;
  }
  void add(bool b) { add(static_cast<std::uint64_t>(b)); }
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  /// Keys a byte string exactly: length word first, then the bytes packed
  /// 8 per word (zero-padded), so "ab"+"c" can never alias "a"+"bc".
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    std::uint64_t w = 0;
    std::size_t filled = 0;
    for (const char c : s) {
      w |= static_cast<std::uint64_t>(static_cast<unsigned char>(c))
           << (8 * filled);
      if (++filled == 8) {
        add(w);
        w = 0;
        filled = 0;
      }
    }
    if (filled != 0) add(w);
  }

  std::uint64_t hash() const { return hash_; }
  const std::vector<std::uint64_t>& words() const { return words_; }
  std::vector<std::uint64_t> take_words() { return std::move(words_); }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::vector<std::uint64_t> words_;
};

/// Thread-safe LRU cache of solved distributions keyed by exact CacheKey
/// material. One process-wide instance; see file comment for semantics.
class SolutionCache {
 public:
  /// Computation kind tags, the first word of every key so steady-state and
  /// transient solves of the same generator can never alias. kResponseTag
  /// keys relkit_serve idempotency records (client request ids mapped to
  /// the full response payload) in the same LRU/byte budget.
  static constexpr std::uint64_t kSteadyTag = 0x5354454144590001ULL;
  static constexpr std::uint64_t kTransientTag = 0x5452414e53490001ULL;
  static constexpr std::uint64_t kResponseTag = 0x524553504f4e0001ULL;

  /// A cached solve: the distribution plus the diagnostics of the original
  /// computation (served back with cache_hit = true). Response entries
  /// (kResponseTag) instead carry the serialized payload; `result` is empty.
  struct Entry {
    std::vector<double> result;
    robust::SolveReport report;
    std::string payload = {};
  };

  static SolutionCache& instance();

  /// Runtime switch (CLI --no-solver-cache). Disabled lookups miss without
  /// recording stats and inserts are dropped.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Exact lookup; a hit refreshes LRU order and returns a copy.
  std::optional<Entry> lookup(const CacheKey& key);

  /// Inserts (no-op if the key is already present or the entry alone
  /// exceeds the byte budget), evicting LRU entries to stay within bounds.
  void insert(CacheKey key, Entry entry);

  /// Always-on stats (relaxed atomics), independent of obs being enabled.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::size_t size() const;

  /// Drops every entry (tests; model-file hot reload).
  void clear();

  /// Bounds: at most kMaxEntries cached solves and kMaxTotalWords 64-bit
  /// words across all keys + results (~64 MB).
  static constexpr std::size_t kMaxEntries = 512;
  static constexpr std::size_t kMaxTotalWords = std::size_t{1} << 23;

 private:
  struct Node {
    std::uint64_t hash;
    std::vector<std::uint64_t> key;
    Entry entry;
    std::size_t words;  // key + result footprint
  };

  mutable std::mutex mu_;
  std::list<Node> lru_;  // front = most recently used
  std::unordered_multimap<std::uint64_t, std::list<Node>::iterator> index_;
  std::size_t total_words_ = 0;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace relkit::markov
