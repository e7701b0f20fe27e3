#include "markov/solution_cache.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace relkit::markov {

SolutionCache& SolutionCache::instance() {
  static SolutionCache cache;
  return cache;
}

namespace {

/// Result + payload footprint in 64-bit words (payload bytes round up); with
/// the key's length, the unit of the cache's byte budget.
std::size_t entry_words(const SolutionCache::Entry& entry) {
  return entry.result.size() + (entry.payload.size() + 7) / 8;
}

std::vector<std::uint64_t> build(const SolutionCache::LazyKey& key) {
  CacheKey built;
  built.reserve(key.words);
  key.write(built);
  return built.take_words();
}

}  // namespace

SolutionCache::LazyKey SolutionCache::LazyKey::of(CacheKey key) {
  std::vector<std::uint64_t> words = key.take_words();
  std::uint64_t digest = kDigestSeed;
  for (const std::uint64_t w : words) digest = digest_step(digest, w);
  const std::size_t size = words.size();
  return {digest, size, [words = std::move(words)](CacheKey& k) {
            for (const std::uint64_t w : words) k.add(w);
          }};
}

std::optional<SolutionCache::Nodes::iterator> SolutionCache::find_locked(
    std::uint64_t digest, const std::vector<std::uint64_t>& key) {
  const auto [first, last] = index_.equal_range(digest);
  for (auto it = first; it != last; ++it) {
    if (it->second->key == key) return it->second;
  }
  return std::nullopt;
}

SolutionCache::Entry SolutionCache::hit_locked(Nodes::iterator node) {
  const bool probation = !probation_.empty() && &*node == &probation_.front();
  lru_.splice(lru_.begin(), probation ? probation_ : lru_, node);
  count(true);
  return node->entry;
}

void SolutionCache::count(bool hit) {
  static obs::Counter& hit_counter = obs::counter("markov.cache.hits");
  static obs::Counter& miss_counter = obs::counter("markov.cache.misses");
  static obs::Gauge& rate_gauge = obs::gauge("markov.cache.hit_rate");
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  (hit ? hit_counter : miss_counter).add();
  const double h = static_cast<double>(hits());
  rate_gauge.set(h / (h + static_cast<double>(misses())));
}

void SolutionCache::erase_locked(Nodes& from, Nodes::iterator node) {
  // The index holds iterators into both lists, so nodes are told apart by
  // address: == between iterators of different lists is undefined.
  const auto [first, last] = index_.equal_range(node->digest);
  for (auto it = first; it != last; ++it) {
    if (&*it->second == &*node) {
      index_.erase(it);
      break;
    }
  }
  total_words_ -= node->words;
  from.erase(node);
}

void SolutionCache::admit_locked(Node node, bool probation) {
  if (probation && !probation_.empty()) {
    erase_locked(probation_, probation_.begin());
  }
  while (lru_.size() + probation_.size() >= kMaxEntries ||
         total_words_ + node.words > kMaxTotalWords) {
    if (!probation_.empty()) {
      erase_locked(probation_, probation_.begin());
    } else if (!lru_.empty()) {
      erase_locked(lru_, std::prev(lru_.end()));
    } else {
      break;
    }
  }
  Nodes& into = probation ? probation_ : lru_;
  total_words_ += node.words;
  into.push_front(std::move(node));
  index_.emplace(into.front().digest, into.begin());
}

std::optional<SolutionCache::Entry> SolutionCache::lookup(
    const LazyKey& key, std::size_t result_words) {
  if (!enabled()) return std::nullopt;
  const std::size_t words = key.words + result_words;
  std::lock_guard<std::mutex> lock(mu_);
  // An entry over the budget is never stored, so nothing can match it; the
  // key is built only when some stored key has its digest and length.
  const auto [first, last] = index_.equal_range(key.digest);
  const bool candidate =
      words <= kMaxTotalWords && std::any_of(first, last, [&](const auto& e) {
        return e.second->key.size() == key.words;
      });
  if (candidate) {
    if (const auto node = find_locked(key.digest, build(key))) {
      return hit_locked(*node);
    }
  }
  count(false);
  if (words > kLargeWords && !probation_.empty()) {
    erase_locked(probation_, probation_.begin());
  }
  return std::nullopt;
}

void SolutionCache::insert(const LazyKey& key, Entry entry) {
  if (!enabled()) return;
  const std::size_t words = key.words + entry_words(entry);
  if (words > kMaxTotalWords) return;  // never cacheable: no key is built
  std::vector<std::uint64_t> built = build(key);

  std::lock_guard<std::mutex> lock(mu_);
  if (find_locked(key.digest, built)) return;  // already cached
  admit_locked(Node{key.digest, std::move(built), std::move(entry), words},
               words > kLargeWords);
}

std::size_t SolutionCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size() + probation_.size();
}

void SolutionCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  probation_.clear();
  index_.clear();
  total_words_ = 0;
}

}  // namespace relkit::markov
