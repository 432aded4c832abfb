// Child processes the harness starts: the shard daemons and its own
// untraced probe. Each child dies with the harness (PR_SET_PDEATHSIG)
// and is stopped and reaped when its handle is destroyed.
#ifndef MBQPERF_PROC_H_
#define MBQPERF_PROC_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

namespace mbqperf {

class Child {
 public:
  /// Starts `argv` with the harness's environment minus `unset_env` plus
  /// `set_env` ("NAME=value"), stdout and stderr going to `log_path`,
  /// on CPU `cpu` alone when it is not negative (see PinToCpu). Null
  /// (with *error set) when the process cannot be started.
  static std::unique_ptr<Child> Spawn(const std::vector<std::string>& argv,
                                      const std::vector<std::string>& unset_env,
                                      const std::vector<std::string>& set_env,
                                      const std::string& log_path, int cpu,
                                      std::string* error);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  const std::string& log_path() const { return log_path_; }
  /// False once the process has exited (reaps it).
  bool Alive();
  /// Waits for exit; the exit status as waitpid reports it.
  int Wait();

 private:
  Child(pid_t pid, std::string log_path)
      : pid_(pid), log_path_(std::move(log_path)) {}

  pid_t pid_;
  std::string log_path_;
  bool reaped_ = false;
  int status_ = 0;
};

/// Restricts the calling thread to the `index`-th CPU (modulo their
/// count) of those the process started with. The closed-loop callers
/// and the shard daemons each get their own: left to the scheduler,
/// ldbc_cluster2's cross-process wake-ups ran at one of two speeds a
/// factor of two apart from run to run.
void PinToCpu(int index);

/// Waits until `child`'s log holds "<marker><port>" and returns the port;
/// 0 (with *error set) if the child exits first or `timeout_s` passes.
int WaitForPort(Child& child, const std::string& marker, double timeout_s,
                std::string* error);

std::string ReadFile(const std::string& path);

}  // namespace mbqperf

#endif  // MBQPERF_PROC_H_
