#include "proc.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double self_rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

Host host_info() {
  Host h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    h.nproc = static_cast<unsigned>(CPU_COUNT(&set));
  }
  if (h.nproc == 0) h.nproc = 1;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) h.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  utsname u{};
  if (uname(&u) == 0) h.kernel = u.release;
  return h;
}

namespace {

/// Spawns argv with stdout on a fresh pipe; returns the pid and stores the
/// read end in *out_fd. Throws on failure.
pid_t spawn_piped(const std::vector<std::string>& argv, int* out_fd) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error("cannot start " + argv[0]);
  }
  *out_fd = fds[0];
  return pid;
}

/// Reads what is available on `fd` into `out` within `timeout_ms`. Returns
/// false at end of file.
bool read_some(int fd, std::string& out, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  const int ready = poll(&p, 1, timeout_ms);
  if (ready <= 0) return true;  // timeout (or EINTR): not yet at EOF
  char buf[4096];
  const ssize_t n = read(fd, buf, sizeof buf);
  if (n > 0) {
    out.append(buf, static_cast<std::size_t>(n));
    return true;
  }
  return n < 0 && errno == EINTR;
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

}  // namespace

ChildRun run_child(const std::vector<std::string>& argv, double timeout_s) {
  ChildRun r;
  const double start = now_s();
  int fd = -1;
  const pid_t pid = spawn_piped(argv, &fd);
  bool open = true;
  while (open) {
    const double left = start + timeout_s - now_s();
    if (left <= 0) {
      kill(pid, SIGKILL);
      r.timed_out = true;
      break;
    }
    open = read_some(fd, r.out, static_cast<int>(left * 1000) + 1);
  }
  close(fd);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.wall_s = now_s() - start;
  r.cpu_s = tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
  r.rss_peak_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (WIFEXITED(status) && !r.timed_out) r.exit_code = WEXITSTATUS(status);
  return r;
}

Daemon::Daemon(const std::vector<std::string>& argv) {
  pid_ = spawn_piped(argv, &out_fd_);
}

Daemon::~Daemon() { stop(); }

std::string Daemon::wait_line(const std::string& prefix, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  for (;;) {
    std::size_t nl;
    while ((nl = buffer_.find('\n')) != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (line.rfind(prefix, 0) == 0) return line;
    }
    const double left = deadline - now_s();
    if (left <= 0 || out_fd_ < 0) return "";
    if (!read_some(out_fd_, buffer_, static_cast<int>(left * 1000) + 1)) {
      return "";
    }
  }
}

bool Daemon::stop(double term_wait_s) {
  if (pid_ <= 0) return true;
  kill(pid_, SIGTERM);
  bool clean = false;
  const double deadline = now_s() + term_wait_s;
  int status = 0;
  for (;;) {
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      clean = true;
      break;
    }
    if (now_s() >= deadline) {
      kill(pid_, SIGKILL);
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    // Drain the summary line so the daemon never blocks on a full pipe.
    if (out_fd_ >= 0 && !read_some(out_fd_, buffer_, 5)) {
      close(out_fd_);
      out_fd_ = -1;
    } else if (out_fd_ < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
  return clean;
}

double Daemon::cpu_s() const {
  // Run time of every thread in nanoseconds (the first schedstat field),
  // far finer than the 10 ms ticks of /proc/<pid>/stat. The daemon's
  // threads live as long as it does, so none drops out between samples.
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  DIR* dir = opendir(tasks.c_str());
  if (dir == nullptr) return 0.0;
  double ns = 0.0;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(tasks + "/" + e->d_name + "/schedstat");
    double run_ns = 0.0;
    if (in >> run_ns) ns += run_ns;
  }
  closedir(dir);
  return 1e-9 * ns;
}

double Daemon::rss_peak_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
