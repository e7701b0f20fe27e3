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
//     compared on every hit, so a 64-bit digest collision can never alias
//     two different chains;
//   * the deadline and `jobs` are deliberately NOT part of the key: the
//     determinism contract (docs/parallelism.md) makes results independent
//     of the worker count, and a cache hit trivially satisfies any
//     deadline (iteration caps are solver options, which are in the key);
//   * solves made while testing::FaultInjector is armed bypass the cache in
//     both directions (no lookup, no insert), because injected faults act
//     inside the solver where the key cannot see them.
//
// A miss costs no memory:
//   * lookups go by digest first. A Ctmc keeps a digest of its transitions
//     up to date as they are added, and a solve mixes in the rest of its
//     key, so a lookup is O(1) until a stored entry has the same digest and
//     key length. Only then is the exact key built and compared;
//   * on a miss the exact key is built after the solve returns, in one
//     allocation, and not at all when key plus result would exceed the
//     word budget (such an entry could never be stored);
//   * large entries (over 1/8 of the word budget) are admitted on evidence
//     of reuse, after 2Q's probation queue (Johnson and Shasha, VLDB 1994)
//     cut to a single slot. A new large entry goes into the slot, a hit
//     there promotes it into the LRU, and every large miss frees the slot
//     before it is solved. A stream of one-off large chains thus keeps at
//     most one of them resident, and an immediate repeat still hits; two
//     large chains solved in turn (A, B, A, B, ...) never do, because each
//     miss frees the other's slot. Small entries go straight into the LRU.
//
// Hits/misses are visible as `markov.cache.{hits,misses}` obs counters
// (plus a derived `markov.cache.hit_rate` gauge, updated on every lookup
// so the serve /metrics endpoint exposes it without a scrape-time pass)
// and as always-on internal stats (for benches and span attributes); a
// served hit sets SolveReport::cache_hit so --diagnostics shows "(cached)".
// Eviction is LRU, bounded both by entry count and by total key+result
// words (the probation slot included, and evicted first), so pathological
// workloads cannot grow the cache without bound.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "robust/report.hpp"

namespace relkit::markov {

/// One step of the cache's 64-bit digests: FNV-1a over 64-bit words. A step
/// is a bijection of the running digest for a fixed word, so two sequences
/// of equal length that differ in one word never share a digest. Digests
/// only pick candidates; every hit compares the exact key.
constexpr std::uint64_t digest_step(std::uint64_t digest, std::uint64_t word) {
  return (digest ^ word) * 0x100000001b3ULL;
}
constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/// A double keyed by bit pattern, so -0.0 vs 0.0 or different NaNs never
/// alias.
inline std::uint64_t word_of(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Incremental builder of a cache key: an exact word sequence.
class CacheKey {
 public:
  void add(std::uint64_t w) { words_.push_back(w); }
  void add(bool b) { add(static_cast<std::uint64_t>(b)); }
  void add(double v) { add(word_of(v)); }
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

  void reserve(std::size_t words) { words_.reserve(words); }
  std::vector<std::uint64_t> take_words() { return std::move(words_); }

 private:
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

  /// A solve's key, written only when it is needed: `digest` summarizes
  /// it, `words` is its exact length, and `write` adds exactly those words
  /// to a CacheKey, the same ones on every call. A lookup runs `write`
  /// under the cache's lock, so the stored key it compares against cannot
  /// be evicted meanwhile; `write` must not call into the cache.
  struct LazyKey {
    std::uint64_t digest;
    std::size_t words;
    std::function<void(CacheKey&)> write;

    /// A key built up front (relkit_serve's few-word idempotency keys):
    /// the digest is digest_step over its words, and `write` replays them.
    static LazyKey of(CacheKey key);
  };

  static SolutionCache& instance();

  /// Runtime switch (CLI --no-solver-cache). Disabled lookups miss without
  /// recording stats and inserts are dropped.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Digest-first lookup of an entry whose result has `result_words`
  /// words. The key is built only when a stored key has the same digest
  /// and length, and a hit needs the two to be equal word for word; it
  /// refreshes LRU order (promoting a probation entry) and returns a copy.
  /// A large miss frees the probation slot.
  std::optional<Entry> lookup(const LazyKey& key, std::size_t result_words);

  /// Stores an entry after its miss: builds the exact key in one
  /// allocation unless key plus entry exceed the word budget, then admits
  /// it (a large one into the probation slot, a small one into the LRU),
  /// evicting to stay within bounds. No-op if the key is already present.
  void insert(const LazyKey& key, Entry entry);

  /// Always-on stats (relaxed atomics), independent of obs being enabled.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Resident entries, the probation slot included.
  std::size_t size() const;

  /// Drops every entry (tests; model-file hot reload).
  void clear();

  /// Bounds: at most kMaxEntries cached solves and kMaxTotalWords 64-bit
  /// words across all keys + results (~64 MB). An entry over kLargeWords
  /// is "large" and admitted through probation.
  static constexpr std::size_t kMaxEntries = 512;
  static constexpr std::size_t kMaxTotalWords = std::size_t{1} << 23;
  static constexpr std::size_t kLargeWords = kMaxTotalWords / 8;

 private:
  struct Node {
    std::uint64_t digest;
    std::vector<std::uint64_t> key;
    Entry entry;
    std::size_t words;  // key + result footprint
  };
  using Nodes = std::list<Node>;

  /// The entry, in the LRU or the probation slot, whose key is `key`.
  std::optional<Nodes::iterator> find_locked(
      std::uint64_t digest, const std::vector<std::uint64_t>& key);
  /// Counts a hit, moves the node to the LRU's front (out of probation, if
  /// it was there) and returns a copy of its entry.
  Entry hit_locked(Nodes::iterator node);
  /// Counts a lookup in the stats, the obs counters and the hit-rate gauge.
  void count(bool hit);
  /// Admits a node whose key is not resident, into the probation slot or
  /// the LRU's front, evicting (the probation entry first, then the LRU's
  /// back) until both bounds hold.
  void admit_locked(Node node, bool probation);
  void erase_locked(Nodes& from, Nodes::iterator node);

  mutable std::mutex mu_;
  Nodes lru_;        // front = most recently used
  Nodes probation_;  // at most one large entry, not yet hit
  std::unordered_multimap<std::uint64_t, Nodes::iterator> index_;  // both
  std::size_t total_words_ = 0;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace relkit::markov
