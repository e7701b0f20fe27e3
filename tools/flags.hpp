// Checked command-line flag parsing shared by relkit_cli and relkit_serve.
// Every value flag goes through one of these parsers. A missing, malformed
// or out-of-range value prints "invalid argument: ..." and the binary's
// usage text, then exits 4 before any model output.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace relkit::flags {

/// The binary's usage text, printed after every flag error. Each binary
/// that includes this header defines it.
void usage();

/// Prints "invalid argument: MESSAGE" and the usage text, then exits 4.
[[noreturn]] inline void invalid(const std::string& message) {
  std::fprintf(stderr, "invalid argument: %s\n", message.c_str());
  usage();
  std::exit(4);
}

/// True when `arg` is `flag` itself or `flag=VALUE`.
inline bool matches(const char* arg, const char* flag) {
  const std::size_t len = std::strlen(flag);
  return std::strncmp(arg, flag, len) == 0 &&
         (arg[len] == '\0' || arg[len] == '=');
}

/// The value of `--flag VALUE` or `--flag=VALUE`, advancing `i` past a
/// separate VALUE. A missing or empty value exits 4.
inline const char* value(int argc, char** argv, int& i, const char* flag) {
  const std::size_t len = std::strlen(flag);
  const char* v = argv[i][len] == '=' ? argv[i] + len + 1
                  : i + 1 < argc      ? argv[++i]
                                      : nullptr;
  if (v == nullptr || *v == '\0') invalid(std::string(flag) + " needs a value");
  return v;
}

/// `--flag N` / `--flag=N` as an integer in [lo, hi]. Only digits are
/// accepted, so a sign cannot wrap `-1` to 2^64 - 1.
inline std::uint64_t parse_count(int argc, char** argv, int& i,
                                 const char* flag, std::uint64_t lo,
                                 std::uint64_t hi) {
  const char* v = value(argc, argv, i, flag);
  char* rest = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &rest, 10);
  if (*v < '0' || *v > '9' || *rest != '\0' || errno == ERANGE || n < lo ||
      n > hi) {
    invalid(std::string(flag) + " needs an integer in [" +
            std::to_string(lo) + ", " + std::to_string(hi) + "], got '" + v +
            "'");
  }
  return n;
}

/// Whole-text strtod that accepts finite numbers only.
inline bool parse_finite(const char* text, double* out) {
  char* rest = nullptr;
  *out = std::strtod(text, &rest);
  return rest != text && *rest == '\0' && std::isfinite(*out);
}

/// Whether an end of a parse_fraction range includes its bound.
enum class End { kClosed, kOpen };

/// `--flag X` / `--flag=X` as a finite number between lo and hi; each end
/// is closed unless marked open.
inline double parse_fraction(int argc, char** argv, int& i, const char* flag,
                             double lo, double hi, End lo_end = End::kClosed,
                             End hi_end = End::kClosed) {
  const char* v = value(argc, argv, i, flag);
  double x = 0.0;
  if (!parse_finite(v, &x) || x < lo || x > hi ||
      (lo_end == End::kOpen && x == lo) || (hi_end == End::kOpen && x == hi)) {
    char range[80];
    std::snprintf(range, sizeof range, "%c%g, %g%c",
                  lo_end == End::kOpen ? '(' : '[', lo, hi,
                  hi_end == End::kOpen ? ')' : ']');
    invalid(std::string(flag) + " needs a number in " + range + ", got '" +
            v + "'");
  }
  return x;
}

/// `--flag` (giving `default_path`) or `--flag=PATH`. A separate-word PATH
/// is deliberately not taken, so the optional value stays unambiguous; an
/// empty PATH exits 4.
inline std::string parse_optional_path(const char* arg, const char* flag,
                                       const char* default_path) {
  const std::size_t len = std::strlen(flag);
  if (arg[len] != '=') return default_path;
  if (arg[len + 1] == '\0') invalid(std::string(flag) + "= needs a value");
  return arg + len + 1;
}

/// `--time t1 t2 ...`: the values up to the next `--flag` are appended to
/// `times`. Each must be a finite number >= 0, and at least one is needed.
inline void parse_times(int argc, char** argv, int& i,
                        std::vector<double>& times) {
  const std::size_t before = times.size();
  while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
    const char* text = argv[++i];
    double t = 0.0;
    if (!parse_finite(text, &t) || t < 0.0) {
      invalid(std::string("--time needs finite numbers >= 0, got '") + text +
              "'");
    }
    times.push_back(t);
  }
  if (times.size() == before) invalid("--time needs at least one time point");
}

}  // namespace relkit::flags
