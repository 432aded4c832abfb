#include "proc.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"

extern char** environ;

namespace mbqperf {

namespace {

/// The CPU set of the process at first use, before any pinning.
const cpu_set_t& StartCpus() {
  static const cpu_set_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_SET(0, &set);
    return set;
  }();
  return cpus;
}

/// The `index`-th CPU of StartCpus(), modulo their count.
cpu_set_t NthCpu(int index) {
  const cpu_set_t& all = StartCpus();
  int count = CPU_COUNT(&all);
  int want = count > 0 ? index % count : 0;
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &all)) continue;
    if (seen++ == want) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  return one;
}

}  // namespace

void PinToCpu(int index) {
  cpu_set_t one = NthCpu(index);
  sched_setaffinity(0, sizeof one, &one);
}

std::unique_ptr<Child> Child::Spawn(const std::vector<std::string>& argv,
                                    const std::vector<std::string>& unset_env,
                                    const std::vector<std::string>& set_env,
                                    const std::string& log_path, int cpu,
                                    std::string* error) {
  // Everything the child needs is built before fork: only
  // async-signal-safe calls run between fork and exec.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string entry(*e);
    bool drop = false;
    for (const std::string& name : unset_env) {
      if (entry.rfind(name + "=", 0) == 0) drop = true;
    }
    for (const std::string& set : set_env) {
      if (entry.rfind(set.substr(0, set.find('=') + 1), 0) == 0) drop = true;
    }
    if (!drop) env.push_back(entry);
  }
  env.insert(env.end(), set_env.begin(), set_env.end());
  std::vector<char*> argv_c, env_c;
  for (const std::string& a : argv) argv_c.push_back(const_cast<char*>(a.c_str()));
  argv_c.push_back(nullptr);
  for (const std::string& e : env) env_c.push_back(const_cast<char*>(e.c_str()));
  env_c.push_back(nullptr);

  int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path + ": " + std::strerror(errno);
    return nullptr;
  }
  cpu_set_t cpus = cpu >= 0 ? NthCpu(cpu) : StartCpus();
  pid_t parent = getpid();
  pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(log_fd);
    return nullptr;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    sched_setaffinity(0, sizeof cpus, &cpus);
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    int devnull = open("/dev/null", O_RDONLY);
    if (devnull >= 0) dup2(devnull, STDIN_FILENO);
    execve(argv_c[0], argv_c.data(), env_c.data());
    _exit(127);
  }
  close(log_fd);
  return std::unique_ptr<Child>(new Child(pid, log_path));
}

Child::~Child() {
  if (reaped_) return;
  kill(pid_, SIGTERM);
  for (int i = 0; i < 200 && Alive(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!reaped_) {
    kill(pid_, SIGKILL);
    Wait();
  }
}

bool Child::Alive() {
  if (reaped_) return false;
  pid_t r = waitpid(pid_, &status_, WNOHANG);
  if (r == pid_ || r < 0) reaped_ = true;
  return !reaped_;
}

int Child::Wait() {
  while (!reaped_) {
    pid_t r = waitpid(pid_, &status_, 0);
    if (r == pid_ || (r < 0 && errno != EINTR)) reaped_ = true;
  }
  return status_;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int WaitForPort(Child& child, const std::string& marker, double timeout_s,
                std::string* error) {
  uint64_t deadline = NowNs() + static_cast<uint64_t>(timeout_s * 1e9);
  while (NowNs() < deadline) {
    std::string log = ReadFile(child.log_path());
    size_t at = log.find(marker);
    if (at != std::string::npos) {
      int port = std::atoi(log.c_str() + at + marker.size());
      if (port > 0) return port;
    }
    if (!child.Alive()) {
      *error = "process " + std::to_string(child.pid()) +
               " exited before listening; log " + child.log_path();
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  *error = "process " + std::to_string(child.pid()) + " did not listen within " +
           std::to_string(timeout_s) + " s";
  return 0;
}

}  // namespace mbqperf
