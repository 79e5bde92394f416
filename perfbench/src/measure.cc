#include "measure.h"

#include <dirent.h>
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

bool ReadFile(const std::string& path, char* buf, size_t size) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  const size_t n = std::fread(buf, 1, size - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  return n > 0;
}

int64_t StatCpuNs(pid_t pid) {
  char buf[4096];
  if (!ReadFile("/proc/" + std::to_string(pid) + "/stat", buf, sizeof buf)) {
    return 0;
  }
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return 0;
  unsigned long long utime = 0, stime = 0;
  if (std::sscanf(p + 2,
                  "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return 0;
  }
  const long hz = sysconf(_SC_CLK_TCK);
  return static_cast<int64_t>((utime + stime) * (1000000000ull /
                                                 static_cast<uint64_t>(hz)));
}

}  // namespace

int64_t ProcessCpuNs(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return StatCpuNs(pid);
  int64_t total = 0;
  bool any = false;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    char buf[256];
    if (!ReadFile(dir + "/" + e->d_name + "/schedstat", buf, sizeof buf)) {
      continue;
    }
    unsigned long long run_ns = 0;
    if (std::sscanf(buf, "%llu", &run_ns) == 1) {
      total += static_cast<int64_t>(run_ns);
      any = true;
    }
  }
  closedir(d);
  return any ? total : StatCpuNs(pid);
}

namespace {

/// A "<field>:  <n> kB" line of /proc/<pid>/status, in MiB.
double StatusMb(pid_t pid, const char* field) {
  char buf[8192];
  if (!ReadFile("/proc/" + std::to_string(pid) + "/status", buf, sizeof buf)) {
    return 0.0;
  }
  const char* p = std::strstr(buf, field);
  unsigned long long kb = 0;
  if (p == nullptr ||
      std::sscanf(p + std::strlen(field), ": %llu", &kb) != 1) {
    return 0.0;
  }
  return static_cast<double>(kb) / 1024.0;
}

}  // namespace

double PeakRssMb(pid_t pid) { return StatusMb(pid, "VmHWM"); }

double ResetOwnPeakRss() {
  malloc_trim(0);
  // Writing 5 to clear_refs resets the peak resident set (Linux >= 4.0).
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
  return StatusMb(getpid(), "VmRSS");
}

cpu_set_t LastCpus(size_t n) {
  cpu_set_t allowed, out;
  CPU_ZERO(&out);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return out;
  n = std::max<size_t>(1, n);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &out);
      --n;
    }
  }
  return out;
}

std::string CpuList(const cpu_set_t& set) {
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
  }
  return out;
}

bool PinThisThread(const cpu_set_t& set) {
  // On Linux, pid 0 names the calling thread, not the whole process.
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

bool PinProcess(pid_t pid, const cpu_set_t& set) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return false;
  bool ok = true;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
    ok = sched_setaffinity(tid, sizeof set, &set) == 0 && ok;
  }
  closedir(d);
  return ok;
}

HostCpuSample ReadHostCpu() {
  HostCpuSample s;
  char buf[512];
  if (!ReadFile("/proc/stat", buf, sizeof buf)) return s;
  unsigned long long v[8] = {};
  const int n = std::sscanf(buf, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  for (int i = 0; i < n; ++i) s.total += v[i];
  if (n == 8) s.steal = v[7];
  return s;
}

double StealShare(const HostCpuSample& begin, const HostCpuSample& end) {
  const uint64_t total = end.total - begin.total;
  return total == 0 ? 0.0
                    : static_cast<double>(end.steal - begin.steal) /
                          static_cast<double>(total);
}

WindowClock::WindowClock(pid_t serving_pid, int seconds)
    : pid_(serving_pid),
      seconds_(std::max(1, seconds)),
      sub_windows_(static_cast<size_t>(seconds_ * kSubWindowsPerSecond)) {}

void SleepUntilNs(int64_t at_ns) {
  timespec ts{static_cast<time_t>(at_ns / 1000000000),
              static_cast<long>(at_ns % 1000000000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

void WindowClock::Run(int64_t start_ns) {
  start_ns_ = start_ns;
  end_ns_ = start_ns_ + static_cast<int64_t>(seconds_) * 1000000000;
  cpu_ns_.clear();
  host_.clear();
  SleepUntilNs(start_ns_);
  const int64_t step = (end_ns_ - start_ns_) / static_cast<int64_t>(sub_windows_);
  for (size_t k = 0; k <= sub_windows_; ++k) {
    SleepUntilNs(start_ns_ + static_cast<int64_t>(k) * step);
    host_.push_back(ReadHostCpu());
    cpu_ns_.push_back(ProcessCpuNs(pid_));
  }
}

WindowFigures WindowClock::Summarize(
    const std::vector<std::vector<CallSample>>& calls) const {
  WindowFigures f;
  f.sub_windows = sub_windows_;
  f.steal_share = StealShare(host_.front(), host_.back());
  const int64_t step = (end_ns_ - start_ns_) / static_cast<int64_t>(sub_windows_);
  std::vector<std::vector<double>> lat(sub_windows_);
  std::vector<uint64_t> rows(sub_windows_, 0);
  std::vector<double> all;
  for (const auto& per_thread : calls) {
    for (const CallSample& c : per_thread) {
      if (c.end_ns < 0 || c.end_ns >= end_ns_ - start_ns_) continue;
      const size_t k = std::min(sub_windows_ - 1,
                                static_cast<size_t>(c.end_ns / step));
      lat[k].push_back(c.latency_ms);
      rows[k] += c.rows;
      all.push_back(c.latency_ms);
    }
  }
  // The quieter half: sub-windows that completed calls, least steal first,
  // earlier first among equals.
  std::vector<size_t> order;
  for (size_t k = 0; k < sub_windows_; ++k) {
    if (rows[k] > 0) order.push_back(k);
  }
  std::vector<double> steal(sub_windows_);
  for (size_t k = 0; k < sub_windows_; ++k) {
    steal[k] = StealShare(host_[k], host_[k + 1]);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  order.resize((order.size() + 1) / 2);
  std::vector<double> rate, p50, p90, cpu;
  const double sub_seconds = static_cast<double>(step) / 1e9;
  for (const size_t k : order) {
    rate.push_back(static_cast<double>(rows[k]) / sub_seconds);
    p50.push_back(Percentile(lat[k], 0.50));
    p90.push_back(Percentile(lat[k], 0.90));
    const double cpu_us =
        static_cast<double>(cpu_ns_[k + 1] - cpu_ns_[k]) / 1000.0;
    cpu.push_back(cpu_us / static_cast<double>(rows[k]));
    f.kept_steal_share = std::max(f.kept_steal_share, steal[k]);
  }
  f.kept_sub_windows = order.size();
  f.rows_per_s = Median(rate);
  f.latency_p50_ms = Median(p50);
  f.latency_p90_ms = Median(p90);
  f.cpu_us_per_row = Median(cpu);
  f.latency_samples = all.size();
  f.latency_p99_ms = Percentile(all, 0.99);
  f.p99_tail_samples = static_cast<size_t>(
      std::count_if(all.begin(), all.end(),
                    [&](double v) { return v >= f.latency_p99_ms; }));
  return f;
}

Tracer::Tracer(size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

uint64_t Tracer::Add(const char* name, uint64_t request, uint64_t parent,
                     int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  const uint64_t id = spans_.size() + 1;
  spans_.push_back({name, request, id, parent, start_ns, end_ns});
  return id;
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool Tracer::WriteTsv(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%s\t%" PRId64
                    "\t%" PRId64 "\n",
                 s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

std::vector<double> SpanMs(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

}  // namespace perfbench
