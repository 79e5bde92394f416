#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "inputs.h"
#include "measure.h"
#include "server_child.h"
#include "src/common/arena.h"
#include "src/common/thread_pool.h"
#include "src/ml/compiled_forest.h"
#include "src/ml/dataset.h"
#include "src/ml/mart.h"
#include "src/server/http_client.h"
#include "src/server/http_server.h"
#include "src/server/json.h"
#include "src/server/serving_frontend.h"
#include "src/server/wire_api.h"
#include "src/serving/batch_coalescer.h"
#include "src/serving/estimation_service.h"
#include "src/serving/model_registry.h"
#include "src/training/incremental_trainer.h"

namespace perfbench {

using namespace resest;

namespace {

// Set-up is repeated and its median reported, so one slow repetition (a
// page-cache miss, a descheduled spawn) does not move setup_s.
constexpr int kSetupReps = 5;
constexpr double kWarmupSeconds = 1.0;
// admission_wire: one fixed offered rate, well below what a 4-vCPU host
// serves, so the open loop measures latency at a load it can carry.
constexpr double kAdmissionRequestsPerS = 500.0;
constexpr size_t kAdmissionRowsPerCall = 4;
// feedback_wire: two closed-loop connections alternating one observe batch
// with two estimate batches.
constexpr size_t kFeedbackConnections = 2;
constexpr size_t kFeedbackObserveRows = 32;
constexpr size_t kFeedbackEstimateRows = 32;
constexpr size_t kFeedbackEstimatesPerObserve = 2;
constexpr size_t kFeedbackCalls = 1500;
constexpr int kObslogCapMb = 4;
// A run whose kept sub-windows reached this host steal share ran in a burst:
// in alternating admission_wire runs, p90 stayed within 15% of its quiet
// value up to 2% steal and rose 65-110% above 2.5%.
constexpr double kStealBurstShare = 0.02;
// Micro-measurements repeat their loop for at least this long.
constexpr double kMicroSeconds = 0.3;

const char* const kModelName = "default";

// Every hand-off between threads is a wake-up, and on a shared VM host a
// wake-up is where a neighbour's load enters the measurement: a woken vCPU
// may wait milliseconds for the host. The workloads therefore use the
// fewest hand-offs that still exercise their layers: one pool thread per
// server, one chunk per optimizer call, and two to nproc/2 client
// connections (see README.md, "Noise").
constexpr size_t kPoolThreads = 1;

/// Server I/O loops. feedback_wire gets one per connection: an observe
/// batch is appended on its I/O loop, and a WAL seal's fsync there must not
/// stall the other connection's reads.
size_t IoThreads(bool durable) { return durable ? kFeedbackConnections : 1; }

size_t ClientConnections(const RunConfig& config) {
  return std::max<size_t>(2, config.nproc / 2);
}

/// CPUs the clients and the server share during a wire window. The guest
/// has no halt polling: an idle vCPU halts, and a wake-up aimed at it waits
/// until the host runs it again, which on a busy host takes milliseconds.
/// The window therefore keeps its threads on few CPUs: one for the light
/// open loop, whose requests then wake a CPU once instead of once per
/// hand-off, and half of them for the closed loop, whose threads keep
/// those busy.
size_t WindowCpuCount(const RunConfig& config, bool feedback) {
  return feedback ? std::max<size_t>(1, config.nproc / 2) : 1;
}

/// The traced window is half the untraced one: per-layer figures carry no
/// bound, and the shorter window keeps a traced run inside its time budget.
int TracedSeconds(const RunConfig& config) {
  return std::max(1, config.seconds / 2);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void Put(std::vector<Metric>* out, const char* name, const char* unit,
         double value) {
  out->push_back({name, unit, value});
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// When the warm-up starts, when the timed window starts and ends.
struct Timeline {
  int64_t start = 0;
  int64_t window_start = 0;
  int64_t window_end = 0;
};

Timeline MakeTimeline(int seconds) {
  Timeline t;
  t.start = NowNs() + 20000000;  // 20 ms for the load threads to start
  t.window_start = t.start + static_cast<int64_t>(kWarmupSeconds * 1e9);
  t.window_end = t.window_start + static_cast<int64_t>(seconds) * 1000000000;
  return t;
}

/// Per-call accounting shared by the load threads of one window.
struct Tally {
  explicit Tally(size_t threads) : samples(threads), late_ms(threads) {
    for (auto& s : samples) s.reserve(1 << 16);
  }
  std::vector<std::vector<CallSample>> samples;
  std::vector<std::vector<double>> late_ms;  ///< Open loop, window only.
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> observed_ok{0};  ///< Observation rows accepted.
  std::mutex mu;
  std::string first_problem;

  void Fail(uint64_t rows, const std::string& why) {
    failed.fetch_add(rows, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    if (first_problem.empty()) first_problem = why;
  }
};

std::string WorkDir(const RunConfig& config, const std::string& leaf) {
  const std::string dir = config.work_dir + "/" + config.workload + "-" +
                          std::to_string(getpid()) + "-" + leaf;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Layer micro-measurements (traced run only).
// ---------------------------------------------------------------------------

/// Keeps a micro-measurement's results observable so the measured calls
/// cannot be optimised away.
volatile double g_consumed = 0.0;
void Consume(double v) { g_consumed = v; }

/// One operator row as the core layer sees it.
struct CoreRow {
  OpType op;
  Resource resource;
  const FeatureVector* features;
};

struct PredictFigures {
  double us_per_row = 0.0;
  double rows_per_call = 0.0;
  double serial_us_per_row = 0.0;  ///< EstimateFromFeatures, one row a call.
};

/// ResourceEstimator::EstimateBatchFromFeatures over `chunks`, grouped by
/// (op, resource) inside each chunk exactly as the service groups a chunk's
/// cache misses, with a caller-owned arena reset between chunks.
PredictFigures PredictMicro(const ResourceEstimator& estimator,
                            const std::vector<std::vector<CoreRow>>& chunks) {
  PredictFigures f;
  Arena arena;
  std::vector<double> out;
  uint64_t rows = 0, calls = 0;
  double sink = 0.0;
  const auto start = Clock::now();
  do {
    for (const auto& chunk : chunks) {
      std::map<std::pair<int, int>, std::vector<const FeatureVector*>> groups;
      for (const CoreRow& r : chunk) {
        groups[{static_cast<int>(r.op), static_cast<int>(r.resource)}]
            .push_back(r.features);
      }
      for (const auto& [slot, group] : groups) {
        out.resize(group.size());
        estimator.EstimateBatchFromFeatures(
            static_cast<OpType>(slot.first), group.data(), group.size(),
            static_cast<Resource>(slot.second), out.data(), &arena);
        sink += out[0];
        rows += group.size();
        ++calls;
      }
      arena.Reset();
    }
  } while (SecondsSince(start) < kMicroSeconds);
  const double seconds = SecondsSince(start);
  f.us_per_row = seconds * 1e6 / static_cast<double>(std::max<uint64_t>(rows, 1));
  f.rows_per_call = Ratio(static_cast<double>(rows), static_cast<double>(calls));
  // The same rows one at a time through the scalar entry point: the floor
  // the batched path is compared against.
  uint64_t serial_rows = 0;
  const auto serial_start = Clock::now();
  do {
    for (const auto& chunk : chunks) {
      for (const CoreRow& r : chunk) {
        sink += estimator.EstimateFromFeatures(r.op, *r.features, r.resource);
      }
      serial_rows += chunk.size();
    }
  } while (SecondsSince(serial_start) < kMicroSeconds);
  f.serial_us_per_row = SecondsSince(serial_start) * 1e6 /
                        static_cast<double>(std::max<uint64_t>(serial_rows, 1));
  Consume(sink);
  return f;
}

/// CompiledForest::PredictBatch (active kernel) of a default-sized MART
/// fitted on the training rows of `op`, over the workload's rows of `op` in
/// groups of `group` rows. Nanoseconds per row per tree.
double ForestMicro(const std::vector<OpRow>& train_rows,
                   const std::vector<const FeatureVector*>& rows, OpType op,
                   size_t group) {
  Dataset data;
  for (const OpRow& r : train_rows) {
    if (r.op != op || r.resource != Resource::kCpu) continue;
    data.Add(std::vector<double>(r.features.begin(), r.features.end()),
             r.label);
  }
  if (data.NumRows() < 4 || rows.empty()) return 0.0;
  Mart mart(TrainOptions{}.mart);
  mart.Fit(data);
  const CompiledForest& forest = mart.compiled();
  std::vector<double> packed;
  for (const FeatureVector* f : rows) packed.insert(packed.end(), f->begin(), f->end());
  group = std::max<size_t>(1, std::min(group, rows.size()));
  std::vector<double> out(group);
  uint64_t predicted = 0;
  const auto start = Clock::now();
  do {
    for (size_t i = 0; i + group <= rows.size(); i += group) {
      forest.PredictBatch(packed.data() + i * kNumFeatures, group,
                          kNumFeatures, out.data());
      predicted += group;
    }
  } while (SecondsSince(start) < kMicroSeconds);
  return SecondsSince(start) * 1e9 /
         (static_cast<double>(predicted) *
          static_cast<double>(std::max<size_t>(forest.NumTrees(), 1)));
}

/// The op with the most rows in `rows`.
OpType MostCommonOp(const std::vector<CoreRow>& rows) {
  std::array<size_t, kNumOpTypes> count{};
  for (const CoreRow& r : rows) ++count[static_cast<size_t>(r.op)];
  return static_cast<OpType>(std::max_element(count.begin(), count.end()) -
                             count.begin());
}

std::vector<const FeatureVector*> RowsOf(const std::vector<CoreRow>& rows,
                                         OpType op) {
  std::vector<const FeatureVector*> out;
  for (const CoreRow& r : rows) {
    if (r.op == op) out.push_back(r.features);
  }
  return out;
}

/// Wire rows cut into coalesced batches of `batch_rows`, then into the
/// service's chunks of such a batch.
std::vector<std::vector<CoreRow>> WireChunks(
    const std::vector<WireCall>& calls, const EstimationService& service,
    size_t batch_rows, std::vector<CoreRow>* flat) {
  for (const WireCall& call : calls) {
    for (const EstimateRequest& r : call.rows) {
      flat->push_back({r.op, r.resource, &r.features});
    }
  }
  batch_rows = std::max<size_t>(1, batch_rows);
  const size_t chunk = std::max<size_t>(
      1, service.EffectiveChunkSize(batch_rows, TaskPriority::kNormal));
  std::vector<std::vector<CoreRow>> chunks;
  for (size_t b = 0; b < flat->size(); b += batch_rows) {
    const size_t end = std::min(flat->size(), b + batch_rows);
    for (size_t c = b; c < end; c += chunk) {
      chunks.emplace_back(flat->begin() + static_cast<ptrdiff_t>(c),
                          flat->begin() + static_cast<ptrdiff_t>(
                                              std::min(end, c + chunk)));
    }
    if (chunks.size() >= 512) break;
  }
  return chunks;
}

/// EstimationService::SubmitBatch -> callback latency (ms, p50) for batches
/// of `batch_rows` wire rows on a fresh service (cold cache).
double SubmitBatchP50Ms(const ModelRegistry& registry, ThreadPool* pool,
                        const std::vector<WireCall>& calls, size_t batch_rows) {
  EstimationService service(&registry, pool);
  std::vector<EstimateRequest> flat;
  for (const WireCall& call : calls) {
    flat.insert(flat.end(), call.rows.begin(), call.rows.end());
  }
  batch_rows = std::max<size_t>(1, batch_rows);
  std::vector<double> ms;
  const auto start = Clock::now();
  for (size_t b = 0; b + batch_rows <= flat.size() &&
                     (SecondsSince(start) < kMicroSeconds || ms.size() < 50);
       b += batch_rows) {
    std::vector<EstimateRequest> batch(flat.begin() + static_cast<ptrdiff_t>(b),
                                       flat.begin() + static_cast<ptrdiff_t>(
                                                          b + batch_rows));
    std::promise<void> done;
    const int64_t t0 = NowNs();
    service.SubmitBatch(std::move(batch),
                        [&done](std::vector<EstimateResult>) { done.set_value(); });
    done.get_future().wait();
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return Percentile(ms, 0.5);
}

struct CodecFigures {
  double parse_us_per_row = 0.0;
  double format_us_per_row = 0.0;
};

/// The wire codec on the workload's own bodies: ParseEstimateWireRequest /
/// JSON parse + ParseObserveWireBatch, and FormatEstimateWireResponse /
/// FormatObserveWireResponse on the reference results.
CodecFigures CodecMicro(const std::vector<WireCall>& calls,
                        const ResourceEstimator& estimator) {
  const size_t n = std::min<size_t>(calls.size(), 2000);
  std::vector<std::vector<EstimateResult>> results(n);
  uint64_t rows_per_pass = 0;
  for (size_t i = 0; i < n; ++i) {
    rows_per_pass += calls[i].row_count();
    for (const EstimateRequest& r : calls[i].rows) {
      EstimateResult res;
      res.value = estimator.EstimateFromFeatures(r.op, r.features, r.resource);
      res.model_version = 1;
      results[i].push_back(res);
    }
  }
  CodecFigures f;
  size_t sink = 0;
  uint64_t rows = 0;
  auto start = Clock::now();
  do {
    for (size_t i = 0; i < n; ++i) {
      std::string error, tenant;
      if (calls[i].kind == WireCall::Kind::kEstimate) {
        std::vector<EstimateRequest> requests;
        SubmitOptions options;
        ParseEstimateWireRequest(calls[i].body, &requests, &options, &tenant,
                                 &error);
        sink += requests.size();
      } else {
        JsonValue body;
        std::vector<ObserveWireRow> parsed;
        if (JsonValue::Parse(calls[i].body, &body, &error)) {
          ParseObserveWireBatch(body, &parsed, &error, &tenant);
        }
        sink += parsed.size();
      }
    }
    rows += rows_per_pass;
  } while (SecondsSince(start) < kMicroSeconds);
  f.parse_us_per_row = SecondsSince(start) * 1e6 / static_cast<double>(rows);
  rows = 0;
  start = Clock::now();
  do {
    for (size_t i = 0; i < n; ++i) {
      const std::string body =
          calls[i].kind == WireCall::Kind::kEstimate
              ? FormatEstimateWireResponse(results[i])
              : FormatObserveWireResponse(calls[i].observations.size(), 1);
      sink += body.size();
    }
    rows += rows_per_pass;
  } while (SecondsSince(start) < kMicroSeconds);
  f.format_us_per_row = SecondsSince(start) * 1e6 / static_cast<double>(rows);
  Consume(static_cast<double>(sink));
  return f;
}

/// Per-request span durations joined by request id.
struct RequestSpans {
  int64_t total = -1;   ///< client.request (root): what latency measures.
  int64_t late = 0;     ///< client.late: due -> sent.
  int64_t rtt = -1;     ///< client.rtt: sent -> response.
  int64_t handle = -1;  ///< server.handle.
  int64_t layer = -1;   ///< serving.estimate_batch.
};

std::unordered_map<uint64_t, RequestSpans> JoinSpans(std::vector<Span>* spans) {
  std::unordered_map<uint64_t, RequestSpans> by_request;
  std::unordered_map<uint64_t, uint64_t> root_of;
  for (const Span& s : *spans) {
    RequestSpans& r = by_request[s.request];
    const int64_t d = s.end_ns - s.start_ns;
    if (std::strcmp(s.name, "client.request") == 0) {
      r.total = d;
      root_of[s.request] = s.id;
    } else if (std::strcmp(s.name, "client.late") == 0) {
      r.late = d;
    } else if (std::strcmp(s.name, "client.rtt") == 0) {
      r.rtt = d;
    } else if (std::strcmp(s.name, "server.handle") == 0) {
      r.handle = d;
    } else if (std::strcmp(s.name, "serving.estimate_batch") == 0) {
      r.layer = d;
    }
  }
  // Server spans are recorded before their request's root exists; link
  // every orphan to its request's root now.
  for (Span& s : *spans) {
    if (s.parent != 0) continue;
    const auto it = root_of.find(s.request);
    if (it != root_of.end() && it->second != s.id) s.parent = it->second;
  }
  return by_request;
}

/// Median share of a request's latency that its blocking-path layer spans
/// (late + handle on the wire, the service call in process) leave
/// unaccounted for.
double UnaccountedShare(const std::unordered_map<uint64_t, RequestSpans>& m) {
  std::vector<double> total, rest;
  for (const auto& [id, r] : m) {
    if (r.total < 0) continue;
    int64_t covered = r.late;
    if (r.handle >= 0) covered += r.handle;
    if (r.layer >= 0) covered += r.layer;
    total.push_back(static_cast<double>(r.total));
    rest.push_back(static_cast<double>(std::max<int64_t>(0, r.total - covered)));
  }
  return Ratio(Median(rest), Median(total));
}

double SocketMsP50(const std::unordered_map<uint64_t, RequestSpans>& m) {
  std::vector<double> socket;
  for (const auto& [id, r] : m) {
    if (r.rtt >= 0 && r.handle >= 0) {
      socket.push_back(static_cast<double>(r.rtt - r.handle) / 1e6);
    }
  }
  return Median(socket);
}

void WriteSpans(const RunConfig& config, std::vector<Span>* spans,
                RunResult* result) {
  const std::string path = config.work_dir + "/spans-" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".tsv";
  if (Tracer::WriteTsv(*spans, path)) result->context.push_back({"spans_file", path});
}

void PutEndToEnd(const WindowFigures& w, double setup_s, double rss_mb,
                 RunResult* result) {
  Put(&result->end_to_end, "setup_s", "s", setup_s);
  Put(&result->end_to_end, "rows_per_s", "rows/s", w.rows_per_s);
  Put(&result->end_to_end, "latency_p50_ms", "ms", w.latency_p50_ms);
  Put(&result->end_to_end, "latency_p90_ms", "ms", w.latency_p90_ms);
  Put(&result->end_to_end, "cpu_us_per_row", "us", w.cpu_us_per_row);
  Put(&result->end_to_end, "rss_mb", "MiB", rss_mb);
  result->context.push_back({"latency_p99_ms", Num(w.latency_p99_ms)});
  result->context.push_back({"latency_samples", std::to_string(w.latency_samples)});
  result->context.push_back({"p99_tail_samples", std::to_string(w.p99_tail_samples)});
  result->context.push_back({"sub_windows", std::to_string(w.sub_windows)});
  result->context.push_back({"kept_sub_windows", std::to_string(w.kept_sub_windows)});
  result->context.push_back({"steal_share", Num(w.steal_share)});
  result->context.push_back({"kept_steal_share_max", Num(w.kept_steal_share)});
  result->context.push_back(
      {"steal_burst", w.kept_steal_share > kStealBurstShare ? "yes" : "no"});
}

/// Every per-layer metric, zero where a layer is not on the workload's path.
struct LayerFigures {
  double handle_ms_p50 = 0, socket_ms_p50 = 0, parse_us_per_row = 0,
         format_us_per_row = 0, ready_s = 0;
  double coalesce_rows_per_batch = 0, coalesce_wait_us_mean = 0,
         flush_window_share = 0, batch_ms_p50 = 0, cache_hit_rate = 0,
         cache_evictions_per_row = 0;
  double extract_us_per_op = 0, predict_us_per_row = 0, serial_us_per_row = 0,
         rows_per_predict_call = 0, predict_cpu_share = 0;
  double forest_ns_per_row_tree = 0, train_s = 0;
  double append_us_per_row = 0, spilled_rows = 0;
  double wal_bytes_per_row = 0, fsyncs = 0, segments_sealed = 0;
  double late_ms_p90 = 0;
  double rows_per_s_untraced = 0, rows_per_s_traced = 0,
         unaccounted_p50_share = 0;
};

void PutPerLayer(const LayerFigures& l, RunResult* result) {
  auto* m = &result->per_layer;
  Put(m, "server.handle_ms_p50", "ms", l.handle_ms_p50);
  Put(m, "server.socket_ms_p50", "ms", l.socket_ms_p50);
  Put(m, "server.parse_us_per_row", "us", l.parse_us_per_row);
  Put(m, "server.format_us_per_row", "us", l.format_us_per_row);
  Put(m, "server.ready_s", "s", l.ready_s);
  Put(m, "serving.coalesce_rows_per_batch", "rows", l.coalesce_rows_per_batch);
  Put(m, "serving.coalesce_wait_us_mean", "us", l.coalesce_wait_us_mean);
  Put(m, "serving.flush_window_share", "ratio", l.flush_window_share);
  Put(m, "serving.batch_ms_p50", "ms", l.batch_ms_p50);
  Put(m, "serving.cache_hit_rate", "ratio", l.cache_hit_rate);
  Put(m, "serving.cache_evictions_per_row", "ratio", l.cache_evictions_per_row);
  Put(m, "core.extract_us_per_op", "us", l.extract_us_per_op);
  Put(m, "core.predict_us_per_row", "us", l.predict_us_per_row);
  Put(m, "core.rows_per_predict_call", "rows", l.rows_per_predict_call);
  Put(m, "core.serial_us_per_row", "us", l.serial_us_per_row);
  Put(m, "core.predict_cpu_share", "ratio", l.predict_cpu_share);
  Put(m, "ml.forest_ns_per_row_tree", "ns", l.forest_ns_per_row_tree);
  Put(m, "ml.train_s", "s", l.train_s);
  Put(m, "training.append_us_per_row", "us", l.append_us_per_row);
  Put(m, "training.spilled_rows", "count", l.spilled_rows);
  Put(m, "storage.wal_bytes_per_row", "B/row", l.wal_bytes_per_row);
  Put(m, "storage.fsyncs", "count", l.fsyncs);
  Put(m, "storage.segments_sealed", "count", l.segments_sealed);
  Put(m, "client.late_ms_p90", "ms", l.late_ms_p90);
  Put(m, "trace.rows_per_s_untraced", "rows/s", l.rows_per_s_untraced);
  Put(m, "trace.rows_per_s_traced", "rows/s", l.rows_per_s_traced);
  Put(m, "trace.overhead_share", "ratio",
      l.rows_per_s_untraced > 0
          ? 1.0 - l.rows_per_s_traced / l.rows_per_s_untraced
          : 0.0);
  Put(m, "trace.unaccounted_p50_share", "ratio", l.unaccounted_p50_share);
}

// ---------------------------------------------------------------------------
// optimizer_session: in process, closed loop, one caller plus the pool.
// ---------------------------------------------------------------------------

struct SessionWindow {
  WindowFigures figures;
  ServiceStats before, after;
  uint64_t rows_in_window = 0;
};

/// A window's per-call samples, touched up front: in process, the buffer
/// is the benchmark's memory, not the serving state's, and must not grow
/// rss_mb during the window.
std::vector<std::vector<CallSample>> SessionSampleBuffer() {
  std::vector<std::vector<CallSample>> samples(1);
  samples[0].resize(1 << 20);
  samples[0].clear();
  return samples;
}

SessionWindow RunSessionWindow(const EstimationService& service,
                               const SessionInputs& session, int seconds,
                               std::vector<std::vector<CallSample>>* buffer,
                               Tracer* tracer, RunResult* result) {
  SessionWindow w;
  const Timeline tl = MakeTimeline(seconds);
  WindowClock clock(getpid(), seconds);
  std::thread sampler([&]() { clock.Run(tl.window_start); });
  std::vector<std::vector<CallSample>>& samples = *buffer;
  samples[0].clear();
  uint64_t attempted = 0, failed = 0;
  bool stats_taken = false;
  SleepUntilNs(tl.start);
  for (size_t c = 0;; ++c) {
    const int64_t t0 = NowNs();
    if (t0 >= tl.window_end) break;
    if (!stats_taken && t0 >= tl.window_start) {
      w.before = service.stats();
      stats_taken = true;
    }
    const size_t idx = c % session.calls.size();
    const auto& call = session.calls[idx];
    const auto results = service.EstimateBatch(call);
    const int64_t t1 = NowNs();
    const auto& expected = session.expected[idx];
    uint64_t bad = results.size() == call.size() ? 0 : call.size();
    for (size_t i = 0; bad == 0 && i < results.size(); ++i) {
      if (!results[i].ok() ||
          std::memcmp(&results[i].value, &expected[i], sizeof(double)) != 0) {
        ++bad;
      }
    }
    const int64_t t2 = NowNs();
    attempted += call.size();
    failed += bad;
    samples[0].push_back({t1 - tl.window_start,
                          static_cast<double>(t1 - t0) / 1e6,
                          static_cast<uint32_t>(call.size())});
    if (t0 >= tl.window_start && t1 < tl.window_end) {
      w.rows_in_window += call.size();
    }
    if (tracer != nullptr) {
      const uint64_t request = c + 1;
      const uint64_t root = tracer->Add("client.request", request, 0, t0, t2);
      tracer->Add("serving.estimate_batch", request, root, t0, t1);
    }
  }
  w.after = service.stats();
  sampler.join();
  w.figures = clock.Summarize(samples);
  result->attempted += attempted;
  result->failed += failed;
  if (failed > 0) {
    result->problems.push_back(std::to_string(failed) +
                               " session rows differ from serial EstimateQuery");
  }
  return w;
}

void RunOptimizerSession(const RunConfig& config, RunResult* result) {
  const Corpus corpus = BuildCorpus(config.seed);
  // rss_mb is the serving state's peak: its growth over the generated
  // inputs and the sample buffer, which stay resident, from the end of
  // set-up on. Like the wire workloads' server, which loads a trained
  // model, it leaves out the transient peak of training.
  std::vector<std::vector<CallSample>> samples = SessionSampleBuffer();
  const double inputs_mb = ResetOwnPeakRss();
  result->context.push_back({"inputs_rss_mb", Num(inputs_mb)});
  std::vector<double> setup_s, train_s;
  std::unique_ptr<ModelRegistry> registry;
  std::shared_ptr<const ResourceEstimator> estimator;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    auto trained = TrainDefault(corpus.train);
    train_s.push_back(SecondsSince(t0));
    auto reg = std::make_unique<ModelRegistry>();
    if (reg->Publish(kModelName, trained) == 0) {
      result->problems.push_back("model publish failed");
      result->correct = false;
      return;
    }
    setup_s.push_back(SecondsSince(t0));
    registry = std::move(reg);
    estimator = std::move(trained);
  }
  const SessionInputs session = BuildSession(corpus, *estimator, config.seed);
  ResetOwnPeakRss();
  ThreadPool pool(kPoolThreads);
  // One chunk per call: the caller drains its own candidate set instead of
  // waiting on a pool helper's chunk.
  ServiceOptions options;
  options.chunk_size = session.calls[0].size();
  EstimationService service(registry.get(), &pool, options);
  result->context.push_back(
      {"threads", "1 caller + " + std::to_string(kPoolThreads) +
                      " pool, chunk " + std::to_string(options.chunk_size)});
  result->context.push_back({"connections", "0 (in process)"});
  result->context.push_back(
      {"rows_per_call", std::to_string(session.calls[0].size())});

  const SessionWindow untraced =
      RunSessionWindow(service, session, config.seconds, &samples, nullptr,
                       result);
  PutEndToEnd(untraced.figures, Median(setup_s),
              PeakRssMb(getpid()) - inputs_mb, result);
  if (!config.trace) return;

  LayerFigures l;
  l.train_s = Median(train_s);
  l.rows_per_s_untraced = untraced.figures.rows_per_s;
  Tracer tracer(1u << 20);
  const SessionWindow traced =
      RunSessionWindow(service, session, TracedSeconds(config), &samples,
                       &tracer, result);
  l.rows_per_s_traced = traced.figures.rows_per_s;
  std::vector<Span> spans = tracer.Take();
  const auto joined = JoinSpans(&spans);
  l.unaccounted_p50_share = UnaccountedShare(joined);
  l.batch_ms_p50 = Percentile(SpanMs(spans, "serving.estimate_batch"), 0.5);
  result->context.push_back({"spans", std::to_string(spans.size())});
  result->context.push_back({"spans_dropped", std::to_string(tracer.dropped())});
  const uint64_t hits = traced.after.cache_hits - traced.before.cache_hits;
  const uint64_t misses = traced.after.cache_misses - traced.before.cache_misses;
  l.cache_hit_rate = CacheHitRate(hits, misses);
  l.cache_evictions_per_row =
      Ratio(static_cast<double>(traced.after.cache_evictions -
                                traced.before.cache_evictions),
            static_cast<double>(traced.rows_in_window));

  // Feature extraction over every operator of the session's plans.
  std::vector<std::pair<const PlanNode*, const PlanNode*>> nodes;
  std::vector<const Database*> dbs;
  for (const ExecutedQuery& eq : corpus.session) {
    VisitPlanOperators(eq.plan, [&](const PlanNode& n, const PlanNode* p) {
      nodes.push_back({&n, p});
      dbs.push_back(eq.database);
    });
  }
  {
    uint64_t ops = 0;
    double sink = 0.0;
    const auto start = Clock::now();
    do {
      for (size_t i = 0; i < nodes.size(); ++i) {
        sink += ExtractFeatures(*nodes[i].first, nodes[i].second, *dbs[i],
                                estimator->mode())[0];
      }
      ops += nodes.size();
    } while (SecondsSince(start) < kMicroSeconds);
    l.extract_us_per_op = SecondsSince(start) * 1e6 / static_cast<double>(ops);
    Consume(sink);
  }

  // Core and ML on the operators of the candidate sets, chunked as the
  // service chunks one call.
  std::unordered_map<const Plan*, std::vector<FeatureVector>> plan_features;
  for (const ExecutedQuery& eq : corpus.session) {
    auto& feats = plan_features[&eq.plan];
    VisitPlanOperators(eq.plan, [&](const PlanNode& n, const PlanNode* p) {
      feats.push_back(ExtractFeatures(n, p, *eq.database, estimator->mode()));
    });
  }
  std::vector<CoreRow> flat;
  std::vector<std::vector<CoreRow>> chunks;
  for (size_t c = 0; c < std::min<size_t>(64, session.calls.size()); ++c) {
    const auto& call = session.calls[c];
    const size_t chunk = std::max<size_t>(
        1, service.EffectiveChunkSize(call.size(), TaskPriority::kNormal));
    for (size_t b = 0; b < call.size(); b += chunk) {
      std::vector<CoreRow> rows;
      for (size_t i = b; i < std::min(call.size(), b + chunk); ++i) {
        const auto& feats = plan_features[call[i].plan];
        size_t k = 0;
        VisitPlanOperators(*call[i].plan, [&](const PlanNode& n,
                                              const PlanNode*) {
          if (estimator->ModelsFor(n.type, call[i].resource) != nullptr) {
            rows.push_back({n.type, call[i].resource, &feats[k]});
          }
          ++k;
        });
      }
      flat.insert(flat.end(), rows.begin(), rows.end());
      chunks.push_back(std::move(rows));
    }
  }
  const PredictFigures predict = PredictMicro(*estimator, chunks);
  l.predict_us_per_row = predict.us_per_row;
  l.rows_per_predict_call = predict.rows_per_call;
  l.serial_us_per_row = predict.serial_us_per_row;
  // Share of the serving CPU per row that cache misses spend in prediction.
  const double ops_per_row =
      Ratio(static_cast<double>(hits + misses),
            static_cast<double>(traced.rows_in_window));
  l.predict_cpu_share =
      Ratio((1.0 - l.cache_hit_rate) * ops_per_row * l.predict_us_per_row,
            untraced.figures.cpu_us_per_row);
  const OpType op = MostCommonOp(flat);
  l.forest_ns_per_row_tree = ForestMicro(
      TrainedSlotRows(corpus.train, *estimator), RowsOf(flat, op), op,
      static_cast<size_t>(std::lround(std::max(1.0, predict.rows_per_call))));
  WriteSpans(config, &spans, result);
  PutPerLayer(l, result);
}

// ---------------------------------------------------------------------------
// Wire workloads: a resest_server child for the end-to-end window, the same
// bodies replayed through an in-process stack for the traced window.
// ---------------------------------------------------------------------------

/// Span hooks of a traced wire window: every body maps to the request id
/// currently carrying it, so server spans join their client request.
struct WireTrace {
  Tracer* tracer = nullptr;
  std::unordered_map<std::string_view, size_t> body_index;
  std::unique_ptr<std::atomic<uint64_t>[]> current;
  std::atomic<uint64_t> next_request{1};

  WireTrace(Tracer* t, const std::vector<WireCall>& calls)
      : tracer(t), current(new std::atomic<uint64_t>[calls.size()]) {
    for (size_t i = 0; i < calls.size(); ++i) {
      body_index.emplace(calls[i].body, i);
      current[i].store(0);
    }
  }
  uint64_t RequestFor(const std::string& body) const {
    const auto it = body_index.find(body);
    return it == body_index.end() ? 0 : current[it->second].load();
  }
};

/// Sends one call and accounts for it. `due` is when the call was due
/// (open loop) or sent (closed loop).
void SendCall(HttpClient* client, const std::vector<WireCall>& calls,
               size_t idx, int64_t due, const Timeline& tl, size_t conn,
               WireTrace* trace, Tally* tally) {
  const WireCall& call = calls[idx];
  uint64_t request = 0;
  if (trace != nullptr) {
    request = trace->next_request.fetch_add(1);
    trace->current[idx].store(request);
  }
  const int64_t sent = NowNs();
  HttpClientResponse response;
  std::string error;
  const bool ok = client->Post(call.target, call.body, &response, &error);
  const int64_t done = NowNs();
  const uint32_t rows = static_cast<uint32_t>(call.row_count());
  tally->attempted.fetch_add(rows, std::memory_order_relaxed);
  if (!ok) {
    tally->Fail(rows, "transport error: " + error);
  } else if (response.status != 200) {
    tally->Fail(rows, "HTTP " + std::to_string(response.status) + ": " +
                          response.body.substr(0, 200));
  } else if (response.body != call.expected) {
    tally->Fail(rows, "response differs from the serial reference: " +
                          response.body.substr(0, 200));
  } else if (call.kind == WireCall::Kind::kObserve) {
    tally->observed_ok.fetch_add(rows, std::memory_order_relaxed);
  }
  tally->samples[conn].push_back(
      {done - tl.window_start, static_cast<double>(done - due) / 1e6, rows});
  if (due >= tl.window_start && due < tl.window_end) {
    tally->late_ms[conn].push_back(static_cast<double>(sent - due) / 1e6);
  }
  if (trace != nullptr) {
    const uint64_t root =
        trace->tracer->Add("client.request", request, 0, due, done);
    if (sent > due) trace->tracer->Add("client.late", request, root, due, sent);
    trace->tracer->Add("client.rtt", request, root, sent, done);
  }
}

/// Open loop: call i is due at tl.start + due_s[i]; `conns` keep-alive
/// connections, on `cpus`, take calls in schedule order. Latency runs from
/// the due time.
void RunOpenLoop(uint16_t port, const std::vector<WireCall>& calls,
                 const std::vector<double>& due_s, size_t conns,
                 const cpu_set_t& cpus, const Timeline& tl, WireTrace* trace,
                 Tally* tally) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c]() {
      PinThisThread(cpus);
      HttpClient client;
      client.Connect("127.0.0.1", port);
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= calls.size()) break;
        const int64_t due = tl.start + static_cast<int64_t>(due_s[i] * 1e9);
        if (due >= tl.window_end) break;
        SleepUntilNs(due);
        SendCall(&client, calls, i, due, tl, c, trace, tally);
      }
    });
  }
  for (auto& t : threads) t.join();
}

/// Closed loop: connection c, on `cpus`, sends calls c, c + conns, ...
/// (cycling) back to back until the window ends.
void RunClosedLoop(uint16_t port, const std::vector<WireCall>& calls,
                   size_t conns, const cpu_set_t& cpus, const Timeline& tl,
                   WireTrace* trace, Tally* tally) {
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c]() {
      PinThisThread(cpus);
      HttpClient client;
      client.Connect("127.0.0.1", port);
      SleepUntilNs(tl.start);
      for (size_t i = c;; i += conns) {
        const int64_t now = NowNs();
        if (now >= tl.window_end) break;
        SendCall(&client, calls, i % calls.size(), now, tl, c, trace, tally);
      }
    });
  }
  for (auto& t : threads) t.join();
}

struct WireSpec {
  bool open_loop = false;
  size_t connections = 1;
  cpu_set_t cpus;  ///< Shared by the clients and the server in a window.
  const std::vector<double>* due_s = nullptr;
};

struct WireWindow {
  WindowFigures figures;
  double late_ms_p90 = 0.0;
  uint64_t observed_ok = 0;
  uint64_t rows_done_in_window = 0;  ///< Completed inside the window.
};

WireWindow RunWireWindow(uint16_t port, pid_t server_pid,
                         const std::vector<WireCall>& calls,
                         const WireSpec& spec, int seconds, WireTrace* trace,
                         RunResult* result) {
  // The in-process twin's threads inherit the pinned main thread's CPUs.
  if (server_pid != getpid() && !PinProcess(server_pid, spec.cpus)) {
    result->problems.push_back("could not pin resest_server to its CPUs");
  }
  const Timeline tl = MakeTimeline(seconds);
  WindowClock clock(server_pid, seconds);
  std::thread sampler([&]() { clock.Run(tl.window_start); });
  Tally tally(spec.connections);
  if (spec.open_loop) {
    RunOpenLoop(port, calls, *spec.due_s, spec.connections, spec.cpus, tl,
                trace, &tally);
  } else {
    RunClosedLoop(port, calls, spec.connections, spec.cpus, tl, trace, &tally);
  }
  sampler.join();
  WireWindow w;
  w.figures = clock.Summarize(tally.samples);
  std::vector<double> late;
  for (const auto& v : tally.late_ms) late.insert(late.end(), v.begin(), v.end());
  w.late_ms_p90 = Percentile(late, 0.9);
  w.observed_ok = tally.observed_ok.load();
  const int64_t window_ns = tl.window_end - tl.window_start;
  for (const auto& per_conn : tally.samples) {
    for (const CallSample& c : per_conn) {
      if (c.end_ns >= 0 && c.end_ns < window_ns) w.rows_done_in_window += c.rows;
    }
  }
  result->attempted += tally.attempted.load();
  result->failed += tally.failed.load();
  if (!tally.first_problem.empty()) {
    result->problems.push_back(tally.first_problem);
  }
  return w;
}

/// The in-process twin of resest_server used by the traced window, set up
/// like the child: the same HttpServer, ServingFrontend and
/// EstimationService, with a BatchCoalescer for admission_wire or a
/// WAL-backed IncrementalTrainer (no coalescer) for feedback_wire, and the
/// handler wrapped in a server.handle span.
struct LocalStack {
  ModelRegistry registry;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<EstimationService> service;
  std::unique_ptr<BatchCoalescer> coalescer;
  std::unique_ptr<IncrementalTrainer> trainer;
  std::unique_ptr<ServingFrontend> frontend;
  std::unique_ptr<HttpServer> server;
  uint64_t version = 0;
};

bool StartLocalStack(std::shared_ptr<const ResourceEstimator> estimator,
                     const std::string& data_dir,
                     WireTrace* trace, LocalStack* s, std::string* error) {
  s->pool = std::make_unique<ThreadPool>(kPoolThreads);
  s->version = s->registry.Publish(kModelName, estimator);
  s->service = std::make_unique<EstimationService>(&s->registry, s->pool.get());
  s->frontend = std::make_unique<ServingFrontend>(s->service.get(),
                                                  &s->registry, kModelName);
  if (data_dir.empty()) {
    s->coalescer = std::make_unique<BatchCoalescer>(s->service.get());
    s->frontend->set_coalescer(s->coalescer.get());
  } else {
    LogBounds bounds;
    bounds.memory_cap_bytes = static_cast<size_t>(kObslogCapMb) << 20;
    s->trainer = std::make_unique<IncrementalTrainer>(
        TrainOptions{}, RefitPolicy{}, s->pool.get(), bounds);
    if (!s->trainer->EnableDurability(data_dir, kModelName)) {
      *error = "in-process WAL failed to open";
      return false;
    }
    s->trainer->Attach(estimator, s->version);
    s->frontend->set_trainer(s->trainer.get());
  }
  const ServingFrontend* frontend = s->frontend.get();
  HttpServerOptions options;
  options.io_threads = IoThreads(!data_dir.empty());
  s->server = std::make_unique<HttpServer>(
      [frontend, trace](const HttpRequest& r, HttpResponseSender respond) {
        const uint64_t request = trace->RequestFor(r.body);
        const int64_t t0 = NowNs();
        frontend->HandleAsync(r, [trace, request, t0,
                                  respond](HttpResponse response) {
          trace->tracer->Add("server.handle", request, 0, t0, NowNs());
          respond(std::move(response));
        });
      },
      options);
  s->frontend->set_http_server(s->server.get());
  return s->server->Start(error);
}

/// Tears the twin down front to back: server, frontend, trainer, coalescer,
/// service, pool.
void StopLocalStack(LocalStack* s) {
  if (s->server != nullptr) s->server->Stop();
  s->server.reset();
  s->frontend.reset();
  s->trainer.reset();
  s->coalescer.reset();
  s->service.reset();
  s->pool.reset();
}

/// One set-up repetition of a wire workload: train, save, spawn, healthz.
struct WireSetup {
  std::shared_ptr<const ResourceEstimator> estimator;
  std::unique_ptr<ServerChild> server;
  uint64_t version = 0;
  std::string data_dir;
  std::vector<double> setup_s, train_s, ready_s;
};

bool SetUpWire(const RunConfig& config, const Corpus& corpus, bool durable,
               WireSetup* out, RunResult* result) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (out->server != nullptr) out->server->Stop();
    if (!out->data_dir.empty()) RemoveDir(out->data_dir);
    const std::string model_dir = WorkDir(config, "model");
    const auto t0 = Clock::now();
    auto trained = TrainDefault(corpus.train);
    out->train_s.push_back(SecondsSince(t0));
    const std::string model_path = model_dir + "/model.bin";
    if (!trained->SaveToFile(model_path)) {
      result->problems.push_back("model save failed");
      return false;
    }
    std::vector<std::string> args = {
        "--model=" + model_path, "--threads=" + std::to_string(kPoolThreads),
        "--io-threads=" + std::to_string(IoThreads(durable))};
    if (durable) {
      // The write path is measured without the coalescer's window in front
      // of the reads it interleaves with.
      out->data_dir = WorkDir(config, "data");
      args.push_back("--data-dir=" + out->data_dir);
      args.push_back("--obslog-cap-mb=" + std::to_string(kObslogCapMb));
      args.push_back("--coalesce-window-us=0");
    }
    const auto spawn = Clock::now();
    auto child = std::make_unique<ServerChild>();
    std::string healthz, error;
    if (!child->Start(config.server_bin, args, 60.0, &healthz, &error)) {
      result->problems.push_back("resest_server: " + error);
      return false;
    }
    out->ready_s.push_back(SecondsSince(spawn));
    out->setup_s.push_back(SecondsSince(t0));
    out->version = HealthzModelVersion(healthz);
    out->server = std::move(child);
    out->estimator = std::move(trained);
    RemoveDir(model_dir);
  }
  return true;
}

std::string FetchMetrics(uint16_t port) {
  HttpClient client;
  HttpClientResponse response;
  if (!client.Connect("127.0.0.1", port) || !client.Get("/metrics", &response) ||
      response.status != 200) {
    return "";
  }
  return response.body;
}

void RunWire(const RunConfig& config, bool feedback, RunResult* result) {
  const Corpus corpus = BuildCorpus(config.seed);
  WireSetup setup;
  if (!SetUpWire(config, corpus, feedback, &setup, result)) {
    result->correct = false;
    return;
  }
  const ResourceEstimator& estimator = *setup.estimator;
  const std::vector<OpRow> pool = TrainedSlotRows(corpus.session, estimator);

  WireSpec spec;
  spec.cpus = LastCpus(WindowCpuCount(config, feedback));
  AdmissionInputs admission;
  std::vector<WireCall> calls;
  if (feedback) {
    spec.connections = kFeedbackConnections;
    calls = BuildFeedback(pool, kFeedbackObserveRows, kFeedbackEstimateRows,
                          kFeedbackEstimatesPerObserve, kFeedbackCalls,
                          config.seed);
  } else {
    spec.open_loop = true;
    spec.connections = ClientConnections(config);
    admission = BuildAdmission(pool, kAdmissionRequestsPerS,
                               kWarmupSeconds + config.seconds + 0.5,
                               kAdmissionRowsPerCall, config.seed);
    calls = std::move(admission.calls);
    spec.due_s = &admission.due_s;
    result->context.push_back(
        {"offered_rows_per_s",
         Num(kAdmissionRequestsPerS * kAdmissionRowsPerCall)});
  }
  const size_t bad_reference = FillExpected(&calls, estimator, setup.version);
  if (bad_reference != 0) {
    result->problems.push_back("reference bodies do not round-trip");
    result->correct = false;
    return;
  }
  result->context.push_back(
      {"threads", std::to_string(kPoolThreads) + " server pool + " +
                      std::to_string(IoThreads(feedback)) + " server io"});
  result->context.push_back(
      {"connections", std::to_string(spec.connections) +
                          (spec.open_loop ? " (open loop)" : " (closed loop)")});
  result->context.push_back({"window_cpus", CpuList(spec.cpus)});

  const double wal_before = MetricValue(FetchMetrics(setup.server->port()),
                                        "resest_wal_records_total");
  const WireWindow untraced =
      RunWireWindow(setup.server->port(), setup.server->pid(), calls, spec,
                    config.seconds, nullptr, result);
  if (feedback) {
    // Every accepted observation row is one WAL record on the server.
    const double wal_after = MetricValue(FetchMetrics(setup.server->port()),
                                         "resest_wal_records_total");
    const double accepted = wal_after - wal_before;
    result->context.push_back({"observation_rows_sent",
                               std::to_string(untraced.observed_ok)});
    result->context.push_back(
        {"observation_rows_logged", std::to_string(static_cast<int64_t>(accepted))});
    if (wal_before < 0 || accepted != static_cast<double>(untraced.observed_ok)) {
      result->problems.push_back("server logged " + Num(accepted) +
                                 " observation rows, client sent " +
                                 std::to_string(untraced.observed_ok));
      result->correct = false;
    }
  } else {
    // Open-loop validity: the server kept up when the rows completed in the
    // window match the rows the schedule made due in it.
    uint64_t due_rows = 0;
    for (size_t i = 0; i < calls.size(); ++i) {
      const double t = admission.due_s[i] - kWarmupSeconds;
      if (t >= 0 && t < config.seconds) due_rows += calls[i].row_count();
    }
    const double kept_up =
        Ratio(static_cast<double>(untraced.rows_done_in_window),
              static_cast<double>(due_rows));
    result->context.push_back({"client_late_ms_p90", Num(untraced.late_ms_p90)});
    result->context.push_back({"achieved_vs_scheduled_rows", Num(kept_up)});
    if (kept_up < 0.98) {
      result->problems.push_back("achieved rate fell behind the offered rate");
      result->correct = false;
    }
  }
  const double rss_mb = PeakRssMb(setup.server->pid());
  if (!setup.server->Stop()) {
    result->problems.push_back("resest_server did not drain cleanly");
    result->correct = false;
  }
  if (!setup.data_dir.empty()) RemoveDir(setup.data_dir);
  PutEndToEnd(untraced.figures, Median(setup.setup_s), rss_mb, result);
  if (!config.trace) return;

  // Traced window: the same bodies through the in-process twin.
  LayerFigures l;
  l.train_s = Median(setup.train_s);
  l.ready_s = Median(setup.ready_s);
  l.late_ms_p90 = spec.open_loop ? untraced.late_ms_p90 : 0.0;
  l.rows_per_s_untraced = untraced.figures.rows_per_s;
  Tracer tracer(1u << 20);
  WireTrace trace(&tracer, calls);
  LocalStack stack;
  std::string error;
  const std::string data_dir = feedback ? WorkDir(config, "traced") : "";
  // The twin's threads and the clients share the child's CPUs.
  cpu_set_t all_cpus;
  sched_getaffinity(0, sizeof all_cpus, &all_cpus);
  PinThisThread(spec.cpus);
  if (!StartLocalStack(setup.estimator, data_dir, &trace, &stack, &error)) {
    result->problems.push_back("in-process server: " + error);
    result->correct = false;
    StopLocalStack(&stack);
    PinThisThread(all_cpus);
    if (!data_dir.empty()) RemoveDir(data_dir);
    return;
  }
  if (stack.version != setup.version) {
    // Reference bodies carry the child's model version; realign.
    FillExpected(&calls, estimator, stack.version);
  }
  const ServiceStats s0 = stack.service->stats();
  const CoalescerStats c0 =
      stack.coalescer ? stack.coalescer->stats() : CoalescerStats{};
  const DurabilityStats d0 =
      stack.trainer ? stack.trainer->durability_stats() : DurabilityStats{};
  const WireWindow traced =
      RunWireWindow(stack.server->port(), getpid(), calls, spec,
                    TracedSeconds(config), &trace, result);
  stack.server->Stop();
  const ServiceStats s1 = stack.service->stats();
  const CoalescerStats c1 =
      stack.coalescer ? stack.coalescer->stats() : CoalescerStats{};
  const DurabilityStats d1 =
      stack.trainer ? stack.trainer->durability_stats() : DurabilityStats{};
  l.rows_per_s_traced = traced.figures.rows_per_s;
  std::vector<Span> spans = tracer.Take();
  const auto joined = JoinSpans(&spans);
  l.unaccounted_p50_share = UnaccountedShare(joined);
  l.handle_ms_p50 = Percentile(SpanMs(spans, "server.handle"), 0.5);
  l.socket_ms_p50 = SocketMsP50(joined);
  result->context.push_back({"spans", std::to_string(spans.size())});
  result->context.push_back({"spans_dropped", std::to_string(tracer.dropped())});

  const double batches = static_cast<double>(c1.batches - c0.batches);
  l.coalesce_rows_per_batch =
      Ratio(static_cast<double>(c1.coalesced_rows - c0.coalesced_rows), batches);
  l.coalesce_wait_us_mean =
      Ratio(c1.total_wait_us - c0.total_wait_us,
            static_cast<double>(c1.submissions - c0.submissions));
  l.flush_window_share =
      Ratio(static_cast<double>(c1.flush_window - c0.flush_window), batches);
  const uint64_t hits = s1.cache_hits - s0.cache_hits;
  const uint64_t misses = s1.cache_misses - s0.cache_misses;
  l.cache_hit_rate = CacheHitRate(hits, misses);
  l.cache_evictions_per_row =
      Ratio(static_cast<double>(s1.cache_evictions - s0.cache_evictions),
            static_cast<double>(hits + misses));
  if (feedback) {
    const double records =
        static_cast<double>(d1.wal.records_appended - d0.wal.records_appended);
    l.wal_bytes_per_row = Ratio(
        static_cast<double>(d1.wal.bytes_appended - d0.wal.bytes_appended),
        records);
    l.fsyncs = static_cast<double>(d1.wal.fsyncs - d0.wal.fsyncs);
    l.segments_sealed =
        static_cast<double>(d1.wal.segments_sealed - d0.wal.segments_sealed);
    l.spilled_rows = static_cast<double>(d1.spilled_rows - d0.spilled_rows);
    if (records != static_cast<double>(traced.observed_ok)) {
      result->problems.push_back("in-process trainer logged a different "
                                 "number of rows than were sent");
      result->correct = false;
    }
  }

  // Layer micro-measurements on the workload's own rows and bodies.
  // Rows per service batch: the coalesced size, or one request's rows when
  // the server runs without a coalescer.
  const size_t batch_rows =
      stack.coalescer ? static_cast<size_t>(std::lround(
                            std::max(1.0, l.coalesce_rows_per_batch)))
                      : kFeedbackEstimateRows;
  const CodecFigures codec = CodecMicro(calls, estimator);
  l.parse_us_per_row = codec.parse_us_per_row;
  l.format_us_per_row = codec.format_us_per_row;
  l.batch_ms_p50 =
      SubmitBatchP50Ms(stack.registry, stack.pool.get(), calls, batch_rows);
  std::vector<CoreRow> flat;
  const auto chunks = WireChunks(calls, *stack.service, batch_rows, &flat);
  const PredictFigures predict = PredictMicro(estimator, chunks);
  l.predict_us_per_row = predict.us_per_row;
  l.rows_per_predict_call = predict.rows_per_call;
  l.serial_us_per_row = predict.serial_us_per_row;
  l.predict_cpu_share =
      Ratio((1.0 - l.cache_hit_rate) * l.predict_us_per_row,
            untraced.figures.cpu_us_per_row);
  const OpType op = MostCommonOp(flat);
  l.forest_ns_per_row_tree = ForestMicro(
      TrainedSlotRows(corpus.train, estimator), RowsOf(flat, op), op,
      static_cast<size_t>(std::lround(std::max(1.0, predict.rows_per_call))));
  if (feedback) {
    // IncrementalTrainer::Append, WAL-backed under the same memory cap.
    const std::string dir = WorkDir(config, "append");
    LogBounds bounds;
    bounds.memory_cap_bytes = static_cast<size_t>(kObslogCapMb) << 20;
    IncrementalTrainer trainer(TrainOptions{}, RefitPolicy{}, nullptr, bounds);
    if (trainer.EnableDurability(dir, kModelName)) {
      uint64_t rows = 0;
      const auto start = Clock::now();
      do {
        for (const WireCall& call : calls) {
          for (const OpRow& r : call.observations) {
            trainer.Append(r.op, r.resource, r.features, r.label);
          }
          rows += call.observations.size();
        }
      } while (SecondsSince(start) < kMicroSeconds);
      l.append_us_per_row = SecondsSince(start) * 1e6 / static_cast<double>(rows);
    }
    RemoveDir(dir);
  }
  StopLocalStack(&stack);
  PinThisThread(all_cpus);
  if (!data_dir.empty()) RemoveDir(data_dir);
  WriteSpans(config, &spans, result);
  PutPerLayer(l, result);
}

}  // namespace

bool RunWorkload(const RunConfig& config, RunResult* result) {
  if (config.workload == "optimizer_session") {
    RunOptimizerSession(config, result);
  } else if (config.workload == "admission_wire") {
    RunWire(config, /*feedback=*/false, result);
  } else if (config.workload == "feedback_wire") {
    RunWire(config, /*feedback=*/true, result);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
