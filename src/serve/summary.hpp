// Per-error-class request accounting, shared by `relkit_cli --batch`
// (final summary line) and the relkit_serve drain summary, so both report
// the same taxonomy in the same JSON shape.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/obs.hpp"

namespace relkit::serve {

/// Thread-safe tally of request outcomes by error class. Workers call
/// add() concurrently; to_json() is a snapshot (the daemon only reads it
/// after drain, the CLI after the batch barrier).
class ErrorClassCounts {
 public:
  /// Records an outcome by CLI exit class: 0 ok, 2 model, 3 numerical,
  /// 4 invalid argument, 5 deadline-exceeded-with-partial-result;
  /// anything else lands in the catch-all "error" bucket.
  void add(int exit_class) {
    switch (exit_class) {
      case 0: ok_.fetch_add(1, std::memory_order_relaxed); break;
      case 2: model_.fetch_add(1, std::memory_order_relaxed); break;
      case 3: numerical_.fetch_add(1, std::memory_order_relaxed); break;
      case 4: invalid_.fetch_add(1, std::memory_order_relaxed); break;
      case 5: deadline_.fetch_add(1, std::memory_order_relaxed); break;
      default: error_.fetch_add(1, std::memory_order_relaxed); break;
    }
  }

  /// Records a server-side outcome that has no CLI exit class.
  void add_named(std::string_view error_class) {
    if (error_class == "bad_request") {
      bad_request_.fetch_add(1, std::memory_order_relaxed);
    } else if (error_class == "overload") {
      overload_.fetch_add(1, std::memory_order_relaxed);
    } else if (error_class == "draining") {
      draining_.fetch_add(1, std::memory_order_relaxed);
    } else {
      error_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::uint64_t total() const {
    return ok_.load() + model_.load() + numerical_.load() + invalid_.load() +
           deadline_.load() + bad_request_.load() + overload_.load() +
           draining_.load() + error_.load();
  }

  std::uint64_t ok() const { return ok_.load(); }
  std::uint64_t overload() const { return overload_.load(); }
  std::uint64_t deadline() const { return deadline_.load(); }

  /// One JSON object, e.g. the final `--batch` line:
  /// {"summary":true,"models":7,"ok":5,"errors":{"model":1,...}}
  std::string to_json() const {
    obs::JsonWriter w;
    w.begin_object().key("summary").boolean(true);
    w.key("models").integer(total()).key("ok").integer(ok_.load());
    w.key("errors").begin_object();
    w.key("model").integer(model_.load());
    w.key("numerical").integer(numerical_.load());
    w.key("invalid").integer(invalid_.load());
    w.key("deadline").integer(deadline_.load());
    w.key("bad_request").integer(bad_request_.load());
    w.key("overload").integer(overload_.load());
    w.key("draining").integer(draining_.load());
    w.key("error").integer(error_.load());
    return w.end_object().end_object().take();
  }

 private:
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> model_{0};
  std::atomic<std::uint64_t> numerical_{0};
  std::atomic<std::uint64_t> invalid_{0};
  std::atomic<std::uint64_t> deadline_{0};
  std::atomic<std::uint64_t> bad_request_{0};
  std::atomic<std::uint64_t> overload_{0};
  std::atomic<std::uint64_t> draining_{0};
  std::atomic<std::uint64_t> error_{0};
};

}  // namespace relkit::serve
