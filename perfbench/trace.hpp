// The traced run's span recorder. Spans are timed around calls into the
// library from the benchmark's own code, kept in memory, and written out
// once at the end; a span's self time is its duration minus its children's.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "proc.hpp"
#include "stats.hpp"

namespace perfbench {

class Spans {
 public:
  struct Span {
    const char* name;
    int parent;  ///< index of the enclosing span, -1 at the top
    double start;
    double end;
    std::size_t calls;  ///< library calls the span covers
  };

  int begin(const char* name);
  /// Closes span `id` and returns its duration in seconds.
  double end(int id, std::size_t calls = 1);

  /// Duration of the most recent span called `name` (seconds), or -1.
  double last(const char* name) const;

  /// Times f() in a span; returns the duration.
  template <typename F>
  double time(const char* name, F&& f) {
    const int id = begin(name);
    f();
    return end(id);
  }

  /// Median per-call time of f() over `batches` spans of `calls` calls.
  template <typename F>
  double per_call(const char* name, int batches, std::size_t calls, F&& f) {
    std::vector<double> each;
    for (int b = 0; b < batches; ++b) {
      const int id = begin(name);
      for (std::size_t c = 0; c < calls; ++c) f();
      each.push_back(end(id, calls) / static_cast<double>(calls));
    }
    return median(std::move(each));
  }

  /// Writes every span as a JSON array (times relative to the first span).
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// A span on an optional recorder: free when `spans` is null, which is how
/// the untraced timed runs call the same operation code.
class Scope {
 public:
  Scope(Spans* spans, const char* name)
      : spans_(spans), id_(spans != nullptr ? spans->begin(name) : -1) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

}  // namespace perfbench
