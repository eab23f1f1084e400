// Child processes (posix_spawn + wait4 accounting) and /proc readers.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "harness.hpp"

extern char** environ;

namespace mcf0::bench {

bool ExitInfo::ok() const {
  return status >= 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Child Child::Spawn(const std::vector<std::string>& argv, bool capture) {
  Child child;
  int pipe_fds[2] = {-1, -1};
  if (capture && ::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    std::perror("mcf0_bench: pipe2");
    return child;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  if (capture) {
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  }
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  child.start_ = Clock::now();
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (capture) ::close(pipe_fds[1]);
  if (rc != 0) {
    std::fprintf(stderr, "mcf0_bench: cannot spawn %s: %s\n", args[0],
                 std::strerror(rc));
    if (capture) ::close(pipe_fds[0]);
    return child;
  }
  child.pid_ = pid;
  child.out_fd_ = capture ? pipe_fds[0] : -1;
  return child;
}

Child::Child(Child&& other) noexcept { *this = std::move(other); }

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    Release();
    pid_ = std::exchange(other.pid_, -1);
    out_fd_ = std::exchange(other.out_fd_, -1);
    reaped_ = std::exchange(other.reaped_, false);
    start_ = other.start_;
    exit_ = other.exit_;
    pending_ = std::move(other.pending_);
  }
  return *this;
}

Child::~Child() { Release(); }

void Child::Release() {
  if (pid_ > 0 && !reaped_) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    reaped_ = true;
  }
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
}

bool Child::ReadLine(std::string* line) {
  for (;;) {
    const size_t newline = pending_.find('\n');
    if (newline != std::string::npos) {
      *line = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      return true;
    }
    if (out_fd_ < 0) return false;
    char buffer[4096];
    const ssize_t n = ::read(out_fd_, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
      if (pending_.empty()) return false;
      *line = std::move(pending_);
      pending_.clear();
      return true;
    }
    pending_.append(buffer, static_cast<size_t>(n));
  }
}

std::string Child::ReadRest() {
  std::string out = std::move(pending_);
  pending_.clear();
  while (out_fd_ >= 0) {
    char buffer[4096];
    const ssize_t n = ::read(out_fd_, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
      break;
    }
    out.append(buffer, static_cast<size_t>(n));
  }
  return out;
}

void Child::Signal(int sig) const {
  if (pid_ > 0 && !reaped_) ::kill(pid_, sig);
}

void Child::Reap(int status, const rusage& usage) {
  reaped_ = true;
  exit_.status = status;
  exit_.wall_s = SecondsSince(start_);
  exit_.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
                static_cast<double>(usage.ru_stime.tv_sec) +
                1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                           usage.ru_stime.tv_usec);
  exit_.max_rss_kb = static_cast<double>(usage.ru_maxrss);
}

ExitInfo Child::Wait() {
  if (pid_ <= 0 || reaped_) return exit_;
  int status = 0;
  rusage usage{};
  pid_t got = -1;
  do {
    got = ::wait4(pid_, &status, 0, &usage);
  } while (got < 0 && errno == EINTR);
  if (got == pid_) {
    Reap(status, usage);
  } else {
    reaped_ = true;  // lost to an unexpected wait error: never signal it
  }
  return exit_;
}

int Child::WaitAny(std::vector<Child>& children) {
  bool running = false;
  for (const Child& c : children) running |= c.started() && !c.reaped_;
  if (!running) return -1;
  for (;;) {
    int status = 0;
    rusage usage{};
    const pid_t got = ::wait4(-1, &status, 0, &usage);
    if (got < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    for (size_t i = 0; i < children.size(); ++i) {
      if (children[i].pid_ == got && !children[i].reaped_) {
        children[i].Reap(status, usage);
        return static_cast<int>(i);
      }
    }
  }
}

std::optional<double> ProcCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) return std::nullopt;
  // Fields after the parenthesised command name start at field 3;
  // utime and stime are fields 14 and 15.
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return std::nullopt;
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::optional<double> ProcPeakRssKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  return std::nullopt;
}

}  // namespace mcf0::bench
