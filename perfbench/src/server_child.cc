#include "server_child.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/server/http_client.h"

namespace perfbench {

namespace {

double Elapsed(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Waits up to `timeout_s` for `pid` to exit; true when it did.
bool WaitExit(pid_t pid, double timeout_s, int* status) {
  const auto start = std::chrono::steady_clock::now();
  while (true) {
    const pid_t r = waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0) return true;  // already reaped
    if (Elapsed(start) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

ServerChild::~ServerChild() { Stop(); }

bool ServerChild::Start(const std::string& binary,
                        const std::vector<std::string>& args, double timeout_s,
                        std::string* healthz_body, std::string* error) {
  const auto start = std::chrono::steady_clock::now();
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::vector<std::string> argv_storage = {binary, "--port=0"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = fork();
  if (pid_ < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    *error = "fork failed";
    return false;
  }
  if (pid_ == 0) {
    // The server must not outlive the benchmark, however it ends.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    dup2(pipe_fds[1], STDOUT_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];

  // The server prints "resest_server listening on <addr>:<port> ..." first.
  std::string line;
  while (line.find('\n') == std::string::npos) {
    const double left = timeout_s - Elapsed(start);
    if (left <= 0) {
      *error = "timed out waiting for the listening line";
      return false;
    }
    pollfd p{stdout_fd_, POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char buf[512];
    const ssize_t n = read(stdout_fd_, buf, sizeof buf);
    if (n <= 0) {
      *error = "server exited before listening";
      return false;
    }
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t at = line.find("listening on ");
  const size_t colon = at == std::string::npos ? at : line.find(':', at);
  if (colon == std::string::npos) {
    *error = "unexpected first line: " + line;
    return false;
  }
  port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));

  resest::HttpClient client;
  while (Elapsed(start) < timeout_s) {
    resest::HttpClientResponse response;
    if (client.Connect("127.0.0.1", port_) &&
        client.Get("/healthz", &response) && response.status == 200) {
      *healthz_body = response.body;
      return true;
    }
    client.Close();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  *error = "timed out waiting for /healthz";
  return false;
}

bool ServerChild::Stop() {
  if (pid_ <= 0) return true;
  int status = 0;
  kill(pid_, SIGTERM);
  bool clean = WaitExit(pid_, 30.0, &status) && WIFEXITED(status) &&
               WEXITSTATUS(status) == 0;
  if (!clean && kill(pid_, 0) == 0) {
    kill(pid_, SIGKILL);
    WaitExit(pid_, 30.0, &status);
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return clean;
}

uint64_t HealthzModelVersion(const std::string& body) {
  const char* key = "\"model_version\":";
  const size_t at = body.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + std::strlen(key), nullptr, 10);
}

double MetricValue(const std::string& metrics, const std::string& name) {
  size_t at = 0;
  while ((at = metrics.find(name, at)) != std::string::npos) {
    const bool line_start = at == 0 || metrics[at - 1] == '\n';
    const size_t after = at + name.size();
    if (line_start && after < metrics.size() && metrics[after] == ' ') {
      return std::strtod(metrics.c_str() + after + 1, nullptr);
    }
    at = after;
  }
  return -1.0;
}

}  // namespace perfbench
