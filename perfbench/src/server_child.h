// A resest_server child process: spawned with an ephemeral port, probed
// until /healthz answers 200, and always stopped and reaped — SIGTERM
// (graceful drain) first, SIGKILL if the drain overruns.
#ifndef PERFBENCH_SERVER_CHILD_H_
#define PERFBENCH_SERVER_CHILD_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerChild {
 public:
  ServerChild() = default;
  ~ServerChild();
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  /// Spawns `binary --port=0 args...` and waits (up to `timeout_s`) for its
  /// "listening on" line, then for GET /healthz to answer 200. The healthz
  /// body lands in *healthz_body.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             double timeout_s, std::string* healthz_body, std::string* error);
  /// Graceful stop; returns true when the child exited 0 by itself.
  bool Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// "model_version":N from a /healthz body; 0 when absent.
uint64_t HealthzModelVersion(const std::string& body);

/// The value of an unlabelled Prometheus sample `name` in a /metrics body;
/// -1 when absent.
double MetricValue(const std::string& metrics, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_CHILD_H_
