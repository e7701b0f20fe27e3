// Deterministic fault injection for robustness tests.
//
// Solvers are instrumented with named probe points; tests arm the global
// FaultInjector to corrupt values (NaN/Inf/override/scale), clamp iteration
// budgets, or force whole methods to fail, proving that every fallback edge
// of the resilience layer actually fires. When nothing is armed every hook
// is a single branch on a bool, so production code pays ~nothing.
//
// The probe points and failable methods are listed once, in
// docs/robustness.md ("Fault injection").
//
// Header-only (Meyers singleton) so the base `common` module can call hooks
// without a link dependency on the robust module. Thread-safe: the serve
// chaos harness arms it while pool workers solve concurrently, so the maps
// are mutex-guarded and the fast path (nothing armed) is a single relaxed
// atomic load.
#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <mutex>
#include <string>

namespace relkit::testing {

class FaultInjector {
 public:
  static FaultInjector& instance() {
    static FaultInjector injector;
    return injector;
  }

  /// Disarms everything and clears hit counters.
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    value_faults_.clear();
    caps_.clear();
    method_failures_.clear();
    hits_.clear();
    active_.store(false, std::memory_order_relaxed);
  }

  // ---- arming (called by tests) -------------------------------------------

  /// Replace the value at `point` with NaN on its `at_hit`-th visit (0-based).
  void inject_nan(const std::string& point, std::size_t at_hit = 0) {
    arm_value(point, std::numeric_limits<double>::quiet_NaN(), at_hit, false);
  }

  /// Replace the value at `point` with +Inf on its `at_hit`-th visit.
  void inject_inf(const std::string& point, std::size_t at_hit = 0) {
    arm_value(point, std::numeric_limits<double>::infinity(), at_hit, false);
  }

  /// Replace the value at `point` with `value` on its `at_hit`-th visit.
  void inject_value(const std::string& point, double value,
                    std::size_t at_hit = 0) {
    arm_value(point, value, at_hit, false);
  }

  /// Multiply every value passing `point` by `factor` (generator
  /// perturbation studies).
  void scale(const std::string& point, double factor) {
    arm_value(point, factor, 0, true);
  }

  /// Clamp any iteration budget passing `point` to at most `cap`.
  void clamp_iterations(const std::string& point, std::size_t cap) {
    std::lock_guard<std::mutex> lock(mu_);
    caps_[point] = cap;
    active_.store(true, std::memory_order_relaxed);
  }

  /// Force the named method to report failure `times` times (default:
  /// every time) when the fallback chain consults should_fail().
  void fail_method(const std::string& method,
                   std::size_t times = std::numeric_limits<std::size_t>::max()) {
    std::lock_guard<std::mutex> lock(mu_);
    method_failures_[method] = times;
    active_.store(true, std::memory_order_relaxed);
  }

  // ---- hooks (called by instrumented solvers) -----------------------------

  /// Passes `value` through `point`, applying any armed corruption.
  double tap(const char* point, double value) {
    if (!active_.load(std::memory_order_relaxed)) return value;
    std::lock_guard<std::mutex> lock(mu_);
    const std::string key(point);
    const std::size_t hit = hits_[key]++;
    const auto it = value_faults_.find(key);
    if (it == value_faults_.end()) return value;
    if (it->second.every_hit_scale) return value * it->second.value;
    if (hit != it->second.at_hit) return value;
    return it->second.value;
  }

  /// Passes an iteration budget through `point`, applying any armed clamp.
  std::size_t cap(const char* point, std::size_t iterations) {
    if (!active_.load(std::memory_order_relaxed)) return iterations;
    std::lock_guard<std::mutex> lock(mu_);
    const std::string key(point);
    ++hits_[key];
    const auto it = caps_.find(key);
    if (it == caps_.end()) return iterations;
    return iterations < it->second ? iterations : it->second;
  }

  /// True if the named method is armed to fail (consumes one charge).
  bool should_fail(const char* method) {
    if (!active_.load(std::memory_order_relaxed)) return false;
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = method_failures_.find(method);
    if (it == method_failures_.end() || it->second == 0) return false;
    if (it->second != std::numeric_limits<std::size_t>::max()) --it->second;
    return true;
  }

  /// Times `point` has been visited while the injector was active.
  std::size_t hits(const std::string& point) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = hits_.find(point);
    return it == hits_.end() ? 0 : it->second;
  }

  bool active() const { return active_.load(std::memory_order_relaxed); }

 private:
  struct ValueFault {
    double value = 0.0;
    std::size_t at_hit = 0;
    bool every_hit_scale = false;
  };

  void arm_value(const std::string& point, double value, std::size_t at_hit,
                 bool every_hit_scale) {
    std::lock_guard<std::mutex> lock(mu_);
    value_faults_[point] = {value, at_hit, every_hit_scale};
    active_.store(true, std::memory_order_relaxed);
  }

  mutable std::mutex mu_;
  std::map<std::string, ValueFault> value_faults_;
  std::map<std::string, std::size_t> caps_;
  std::map<std::string, std::size_t> method_failures_;
  std::map<std::string, std::size_t> hits_;
  std::atomic<bool> active_{false};
};

/// RAII guard: resets the injector when a test scope ends.
struct FaultInjectionScope {
  FaultInjectionScope() { FaultInjector::instance().reset(); }
  ~FaultInjectionScope() { FaultInjector::instance().reset(); }
  FaultInjector& operator*() const { return FaultInjector::instance(); }
  FaultInjector* operator->() const { return &FaultInjector::instance(); }
};

}  // namespace relkit::testing
