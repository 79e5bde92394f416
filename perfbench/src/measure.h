// Measurement primitives shared by the workloads: the clock, percentiles,
// per-process CPU and peak-RSS readers, CPU pinning, host steal accounting,
// the sub-window aggregator behind every end-to-end metric, and the
// in-memory span recorder of the traced run.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile (p in [0, 1]) of `values`; sorts a copy.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// On-CPU time (user + sys, ns resolution) summed over every live thread of
/// `pid`, from /proc/<pid>/task/*/schedstat. Falls back to utime + stime of
/// /proc/<pid>/stat (tick resolution) when schedstat is unavailable.
int64_t ProcessCpuNs(pid_t pid);

/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);

/// Returns freed heap to the kernel and resets this process's VmHWM to its
/// current resident set, which it returns in MiB (0 when unreadable).
double ResetOwnPeakRss();

/// The last `n` CPUs (at least one) of those this process may run on.
cpu_set_t LastCpus(size_t n);
/// The CPUs of `set` as a list, e.g. "2,3".
std::string CpuList(const cpu_set_t& set);
/// Restricts the calling thread to `set`; threads it starts later inherit it.
bool PinThisThread(const cpu_set_t& set);
/// Restricts every current thread of `pid` to `set`; threads they start
/// later inherit it.
bool PinProcess(pid_t pid, const cpu_set_t& set);

/// Aggregate /proc/stat jiffies, for the steal share of a window.
struct HostCpuSample {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpuSample ReadHostCpu();
double StealShare(const HostCpuSample& begin, const HostCpuSample& end);

/// One completed call of a timed window: when it finished (ns since the
/// window start), its latency, and the rows it carried.
struct CallSample {
  int64_t end_ns = 0;
  double latency_ms = 0.0;
  uint32_t rows = 0;
};

/// End-to-end figures of one timed window. The window is cut into
/// sub-windows of half a second, and the host's steal share is read at every
/// boundary. Every figure is the median, over the quieter half of the
/// sub-windows (those with the least steal), of that sub-window's value. On
/// a shared VM host a neighbour's burst lengthens every wake-up inside the
/// sub-windows it hits; ranking by steal, which the host reports and the
/// measured code does not choose, keeps such sub-windows out of the result.
struct WindowFigures {
  double rows_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double cpu_us_per_row = 0.0;
  // Whole-window diagnostics (not end-to-end metrics).
  double latency_p99_ms = 0.0;
  size_t latency_samples = 0;
  size_t p99_tail_samples = 0;  ///< Samples at or above the p99.
  size_t sub_windows = 0;
  size_t kept_sub_windows = 0;  ///< The quieter half the figures come from.
  double steal_share = 0.0;       ///< Over the whole window.
  double kept_steal_share = 0.0;  ///< Highest of the kept sub-windows.
};

/// Sleeps until `at_ns` (steady clock).
void SleepUntilNs(int64_t at_ns);

/// Samples the serving process's CPU and the host's steal counters at every
/// sub-window boundary of a window of `seconds`; the load threads time
/// their calls against the same boundaries.
class WindowClock {
 public:
  static constexpr int kSubWindowsPerSecond = 2;

  WindowClock(pid_t serving_pid, int seconds);
  /// Sleeps until `start_ns`, then blocks until the window is over,
  /// sampling at each sub-window boundary.
  void Run(int64_t start_ns);
  /// Combines the per-call samples (from any number of threads; end_ns
  /// relative to the window start) with the CPU and steal samples into the
  /// window's figures.
  WindowFigures Summarize(const std::vector<std::vector<CallSample>>& calls)
      const;

 private:
  pid_t pid_;
  int seconds_;
  size_t sub_windows_;
  int64_t start_ns_ = 0;
  int64_t end_ns_ = 0;
  // Both at each sub-window boundary.
  std::vector<int64_t> cpu_ns_;
  std::vector<HostCpuSample> host_;
};

/// A traced interval: which layer call, which request it served, the span
/// that caused it (0 = none), and when.
struct Span {
  const char* name = "";
  uint64_t request = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans kept in memory and written out when the run ends. Thread-safe.
/// Capacity is fixed up front so recording never reallocates mid-window;
/// spans beyond it are counted as dropped.
class Tracer {
 public:
  explicit Tracer(size_t capacity);
  /// Records a span and returns its id (0 when dropped).
  uint64_t Add(const char* name, uint64_t request, uint64_t parent,
               int64_t start_ns, int64_t end_ns);
  std::vector<Span> Take();
  uint64_t dropped() const;
  /// Writes every span as one tab-separated line; false on I/O failure.
  static bool WriteTsv(const std::vector<Span>& spans, const std::string& path);

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  size_t capacity_;
  uint64_t dropped_ = 0;
};

/// Durations (ms) of every span named `name`.
std::vector<double> SpanMs(const std::vector<Span>& spans, const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
