// Crash-path battery for the postmortem subsystem (docs/postmortem.md).
//
// Each test forks the REAL relkit_cli / relkit_serve binary, drives it into
// a deliberate SIGSEGV / SIGABRT / unhandled exception / stall via
// --obs-selftest, and then asserts that the process died the right way AND
// left a parseable JSON postmortem containing a non-empty backtrace, the
// flight-recorder tail, and the metrics snapshot. The watchdog variant
// must NOT kill the process: the report appears while the child keeps
// running, and the child observes it and exits 0.
//
// These tests run under the "crash" ctest label and RUN_SERIAL: each one
// forks, kills, and reaps a full binary, which is noisy enough not to
// share a machine slice with timing-sensitive suites.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON syntax checker: "the report must be
// parseable" is the contract, so the test validates real JSON grammar
// rather than grepping for braces.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        pos_ += 2;
      } else {
        ++pos_;
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Fork/exec the binary into --obs-selftest MODE with --postmortem=<fresh
// temp dir> and return how it died plus the report it left (if any).
struct DeathOutcome {
  int status = -1;          ///< raw waitpid status
  std::string report;       ///< postmortem JSON, empty if none was written
  std::string report_path;  ///< where the report was expected
};

DeathOutcome run_selftest(const char* binary, const char* mode,
                          bool with_watchdog) {
  char dir_template[] = "/tmp/relkit_postmortem_XXXXXX";
  const char* dir = ::mkdtemp(dir_template);
  EXPECT_NE(dir, nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: silence the crash banner, become the selftest.
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDERR_FILENO);
      ::dup2(devnull, STDOUT_FILENO);
    }
    const std::string postmortem_flag = std::string("--postmortem=") + dir;
    if (with_watchdog) {
      ::execl(binary, binary, "--obs-selftest", mode,
              postmortem_flag.c_str(), "--watchdog-ms", "200",
              static_cast<char*>(nullptr));
    } else {
      ::execl(binary, binary, "--obs-selftest", mode,
              postmortem_flag.c_str(), static_cast<char*>(nullptr));
    }
    ::_exit(127);  // exec failed
  }

  DeathOutcome out;
  EXPECT_GT(pid, 0);
  ::waitpid(pid, &out.status, 0);

  out.report_path = std::string(dir) + "/relkit-crash-" +
                    std::to_string(static_cast<long>(pid)) + ".json";
  std::ifstream in(out.report_path);
  if (in.good()) {
    std::ostringstream buf;
    buf << in.rdbuf();
    out.report = buf.str();
  }

  // Best-effort cleanup; a leftover temp dir is harmless.
  std::remove(out.report_path.c_str());
  ::rmdir(dir);
  return out;
}

// Shared assertions: a complete postmortem is valid JSON and carries the
// three payloads the tutorial's "debuggable failures" practice demands —
// where it crashed (backtrace), what it was doing (flight-recorder tail),
// and what the counters said (metrics snapshot).
void expect_complete_report(const DeathOutcome& out, const char* reason) {
  ASSERT_FALSE(out.report.empty())
      << "no postmortem at " << out.report_path;
  JsonChecker checker(out.report);
  EXPECT_TRUE(checker.valid()) << "unparseable postmortem:\n" << out.report;
  EXPECT_NE(out.report.find("\"relkit_postmortem\": 1"), std::string::npos);
  EXPECT_NE(out.report.find(std::string("\"reason\": \"") + reason),
            std::string::npos);
  // Non-empty backtrace: at least one quoted frame inside the array.
  const auto bt = out.report.find("\"backtrace\": [");
  ASSERT_NE(bt, std::string::npos);
  EXPECT_EQ(out.report[out.report.find_first_not_of(" \n", bt + 14)], '"')
      << "backtrace array is empty";
  // Flight-recorder tail: the selftest preamble's spans and counter bumps
  // must have survived the crash.
  EXPECT_NE(out.report.find("\"flight_recorder\": ["), std::string::npos);
  EXPECT_NE(out.report.find("\"kind\": \"span_begin\""), std::string::npos);
  EXPECT_NE(out.report.find("obs.selftest.events"), std::string::npos);
  // Metrics snapshot and the mirrored SolveReport.
  EXPECT_NE(out.report.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(out.report.find("\"active_solve\": {"), std::string::npos);
  EXPECT_NE(out.report.find("\"method\": \"obs.selftest\""),
            std::string::npos);
  // Resource usage rides along (satellite of the same PR).
  EXPECT_NE(out.report.find("\"rss_peak_bytes\""), std::string::npos);
}

class PostmortemDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef RELKIT_OBS_DISABLED
    GTEST_SKIP() << "observability compiled out (RELKIT_OBS=OFF)";
#endif
  }
};

}  // namespace

// --------------------------------------------------------------------------
// relkit_cli death tests.

TEST_F(PostmortemDeathTest, CliSegvWritesPostmortem) {
  const DeathOutcome out = run_selftest(RELKIT_CLI_BIN, "segv", false);
  ASSERT_TRUE(WIFSIGNALED(out.status));
  EXPECT_EQ(WTERMSIG(out.status), SIGSEGV);
  expect_complete_report(out, "SIGSEGV");
}

TEST_F(PostmortemDeathTest, CliAbortWritesPostmortem) {
  const DeathOutcome out = run_selftest(RELKIT_CLI_BIN, "abort", false);
  ASSERT_TRUE(WIFSIGNALED(out.status));
  EXPECT_EQ(WTERMSIG(out.status), SIGABRT);
  expect_complete_report(out, "SIGABRT");
}

TEST_F(PostmortemDeathTest, CliTerminateWritesPostmortem) {
  const DeathOutcome out = run_selftest(RELKIT_CLI_BIN, "terminate", false);
  // std::terminate ends in abort() after the handler captures the what().
  ASSERT_TRUE(WIFSIGNALED(out.status));
  EXPECT_EQ(WTERMSIG(out.status), SIGABRT);
  expect_complete_report(out, "terminate");
  EXPECT_NE(out.report.find("unhandled exception"), std::string::npos);
}

TEST_F(PostmortemDeathTest, CliWatchdogStallDumpsWithoutKilling) {
  const DeathOutcome out = run_selftest(RELKIT_CLI_BIN, "stall", true);
  // The stalled process must SURVIVE the dump: selftest polls for the
  // report and exits 0 once it appears.
  ASSERT_TRUE(WIFEXITED(out.status));
  EXPECT_EQ(WEXITSTATUS(out.status), 0);
  expect_complete_report(out, "watchdog_stall");
  EXPECT_NE(out.report.find("\"stuck_stack\": ["), std::string::npos);
  EXPECT_NE(out.report.find("\"last_stall_span\": \"obs.selftest.stall\""),
            std::string::npos);
}

// --------------------------------------------------------------------------
// relkit_serve death tests: identical contract through the daemon binary.

TEST_F(PostmortemDeathTest, ServeSegvWritesPostmortem) {
  const DeathOutcome out = run_selftest(RELKIT_SERVE_BIN, "segv", false);
  ASSERT_TRUE(WIFSIGNALED(out.status));
  EXPECT_EQ(WTERMSIG(out.status), SIGSEGV);
  expect_complete_report(out, "SIGSEGV");
}

TEST_F(PostmortemDeathTest, ServeAbortWritesPostmortem) {
  const DeathOutcome out = run_selftest(RELKIT_SERVE_BIN, "abort", false);
  ASSERT_TRUE(WIFSIGNALED(out.status));
  EXPECT_EQ(WTERMSIG(out.status), SIGABRT);
  expect_complete_report(out, "SIGABRT");
}

TEST_F(PostmortemDeathTest, ServeWatchdogStallDumpsWithoutKilling) {
  const DeathOutcome out = run_selftest(RELKIT_SERVE_BIN, "stall", true);
  ASSERT_TRUE(WIFEXITED(out.status));
  EXPECT_EQ(WEXITSTATUS(out.status), 0);
  expect_complete_report(out, "watchdog_stall");
}

TEST_F(PostmortemDeathTest, StallWithoutWatchdogIsAUsageError) {
  const DeathOutcome out = run_selftest(RELKIT_CLI_BIN, "stall", false);
  ASSERT_TRUE(WIFEXITED(out.status));
  EXPECT_EQ(WEXITSTATUS(out.status), 4);
  EXPECT_TRUE(out.report.empty());
}
