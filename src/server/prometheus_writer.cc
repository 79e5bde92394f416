#include "src/server/prometheus_writer.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace resest {
namespace {

std::string FormatDouble(double value) {
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  if (std::isnan(value)) return "NaN";
  // Shortest representation that still round-trips: bucket bounds like
  // 0.004 read as "0.004", not "0.0040000000000000001".
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
void AppendLabelValue(const std::string& value, std::string* out) {
  for (char c : value) {
    switch (c) {
      case '\\': *out += "\\\\"; break;
      case '"': *out += "\\\""; break;
      case '\n': *out += "\\n"; break;
      default: *out += c;
    }
  }
}

}  // namespace

void PrometheusWriter::BeginFamily(const std::string& name,
                                   const std::string& help,
                                   const char* type) {
  text_ += "# HELP " + name + " " + help + "\n";
  text_ += "# TYPE " + name + " ";
  text_ += type;
  text_ += "\n";
}

void PrometheusWriter::SampleLine(const std::string& name,
                                  const PrometheusLabels& labels,
                                  const std::string& value) {
  text_ += name;
  if (!labels.empty()) {
    text_ += '{';
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) text_ += ',';
      text_ += labels[i].first;
      text_ += "=\"";
      AppendLabelValue(labels[i].second, &text_);
      text_ += '"';
    }
    text_ += '}';
  }
  text_ += ' ';
  text_ += value;
  text_ += '\n';
}

void PrometheusWriter::Sample(const std::string& name,
                              const PrometheusLabels& labels, double value) {
  SampleLine(name, labels, FormatDouble(value));
}

void PrometheusWriter::Sample(const std::string& name,
                              const PrometheusLabels& labels,
                              uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  SampleLine(name, labels, buf);
}

void PrometheusWriter::Histogram(const std::string& name,
                                 const PrometheusLabels& labels,
                                 const std::vector<double>& upper_bounds,
                                 const std::vector<uint64_t>& bucket_counts,
                                 double sum, uint64_t count) {
  uint64_t cumulative = 0;
  PrometheusLabels bucket_labels = labels;
  bucket_labels.emplace_back("le", "");
  for (size_t i = 0; i < upper_bounds.size(); ++i) {
    cumulative += i < bucket_counts.size() ? bucket_counts[i] : 0;
    bucket_labels.back().second = FormatDouble(upper_bounds[i]);
    Sample(name + "_bucket", bucket_labels, cumulative);
  }
  bucket_labels.back().second = "+Inf";
  Sample(name + "_bucket", bucket_labels, count);
  Sample(name + "_sum", labels, sum);
  Sample(name + "_count", labels, count);
}

std::string RenderServiceMetrics(const ServerMetricsSnapshot& snapshot) {
  PrometheusWriter w;
  const ServiceStats& s = snapshot.service;

  w.BeginFamily("resest_requests_total",
                "Individual estimates served OK.", "counter");
  w.Sample("resest_requests_total", {}, s.requests);
  w.BeginFamily("resest_batches_total", "Batch calls accepted.", "counter");
  w.Sample("resest_batches_total", {}, s.batches);
  w.BeginFamily("resest_rejected_batches_total",
                "Batch calls rejected as oversized.", "counter");
  w.Sample("resest_rejected_batches_total", {}, s.rejected_batches);
  w.BeginFamily("resest_errors_total",
                "Non-OK requests other than deadline expiry.", "counter");
  w.Sample("resest_errors_total", {}, s.errors);
  w.BeginFamily("resest_deadline_expired_total",
                "Requests expired by their deadline.", "counter");
  w.Sample("resest_deadline_expired_total", {}, s.deadline_expired);

  // Per-priority-lane accounting of the batched pipeline.
  w.BeginFamily("resest_lane_batches_total",
                "Batches finished, by priority lane.", "counter");
  for (size_t p = 0; p < kNumTaskPriorities; ++p) {
    w.Sample("resest_lane_batches_total",
             {{"priority", TaskPriorityName(static_cast<TaskPriority>(p))}},
             s.priorities[p].batches);
  }
  w.BeginFamily("resest_lane_requests_total",
                "Requests completed OK, by priority lane.", "counter");
  for (size_t p = 0; p < kNumTaskPriorities; ++p) {
    w.Sample("resest_lane_requests_total",
             {{"priority", TaskPriorityName(static_cast<TaskPriority>(p))}},
             s.priorities[p].requests);
  }
  w.BeginFamily("resest_lane_expired_total",
                "Requests expired by their deadline, by priority lane.",
                "counter");
  for (size_t p = 0; p < kNumTaskPriorities; ++p) {
    w.Sample("resest_lane_expired_total",
             {{"priority", TaskPriorityName(static_cast<TaskPriority>(p))}},
             s.priorities[p].expired);
  }
  w.BeginFamily("resest_lane_latency_mean_ms",
                "Mean batch latency (ms), by priority lane.", "gauge");
  for (size_t p = 0; p < kNumTaskPriorities; ++p) {
    w.Sample("resest_lane_latency_mean_ms",
             {{"priority", TaskPriorityName(static_cast<TaskPriority>(p))}},
             s.priorities[p].MeanLatencyMs());
  }
  w.BeginFamily("resest_lane_latency_max_ms",
                "Max batch latency (ms), by priority lane.", "gauge");
  for (size_t p = 0; p < kNumTaskPriorities; ++p) {
    w.Sample("resest_lane_latency_max_ms",
             {{"priority", TaskPriorityName(static_cast<TaskPriority>(p))}},
             s.priorities[p].max_latency_ms);
  }

  // The service's power-of-two latency histogram: bucket i counts batches
  // under 2^i microseconds, exposed in seconds per Prometheus convention.
  w.BeginFamily("resest_batch_latency_seconds",
                "Batch latency, submission to completion, by priority lane.",
                "histogram");
  std::vector<double> bounds(kServiceLatencyBuckets);
  for (size_t i = 0; i < kServiceLatencyBuckets; ++i) {
    bounds[i] = static_cast<double>(uint64_t{1} << i) / 1e6;
  }
  for (size_t p = 0; p < kNumTaskPriorities; ++p) {
    const PriorityLaneStats& lane = s.priorities[p];
    std::vector<uint64_t> counts(lane.latency_histogram.begin(),
                                 lane.latency_histogram.end());
    w.Histogram("resest_batch_latency_seconds",
                {{"priority", TaskPriorityName(static_cast<TaskPriority>(p))}},
                bounds, counts, lane.total_latency_ms / 1e3, lane.batches);
  }

  // Estimate cache, totals then the per-shard breakdown.
  w.BeginFamily("resest_cache_hits_total", "Estimate cache hits.", "counter");
  w.Sample("resest_cache_hits_total", {}, s.cache_hits);
  w.BeginFamily("resest_cache_misses_total", "Estimate cache misses.",
                "counter");
  w.Sample("resest_cache_misses_total", {}, s.cache_misses);
  w.BeginFamily("resest_cache_evictions_total",
                "Estimate cache entries dropped by the LRU bound.", "counter");
  w.Sample("resest_cache_evictions_total", {}, s.cache_evictions);
  w.BeginFamily("resest_cache_invalidated_total",
                "Estimate cache entries dropped by scoped invalidation.",
                "counter");
  w.Sample("resest_cache_invalidated_total", {}, snapshot.cache.invalidated);
  w.BeginFamily("resest_cache_entries", "Estimate cache current size.",
                "gauge");
  w.Sample("resest_cache_entries", {}, static_cast<uint64_t>(s.cache_entries));
  w.BeginFamily("resest_cache_shard_hits_total",
                "Estimate cache hits, by shard.", "counter");
  for (size_t i = 0; i < snapshot.cache.shards.size(); ++i) {
    w.Sample("resest_cache_shard_hits_total", {{"shard", std::to_string(i)}},
             snapshot.cache.shards[i].hits);
  }
  w.BeginFamily("resest_cache_shard_misses_total",
                "Estimate cache misses, by shard.", "counter");
  for (size_t i = 0; i < snapshot.cache.shards.size(); ++i) {
    w.Sample("resest_cache_shard_misses_total", {{"shard", std::to_string(i)}},
             snapshot.cache.shards[i].misses);
  }
  w.BeginFamily("resest_cache_shard_entries",
                "Estimate cache current size, by shard.", "gauge");
  for (size_t i = 0; i < snapshot.cache.shards.size(); ++i) {
    w.Sample("resest_cache_shard_entries", {{"shard", std::to_string(i)}},
             static_cast<uint64_t>(snapshot.cache.shards[i].entries));
  }

  // Model lineage: the active version plus every slot's last-changed
  // version (the delta-publish trail).
  w.BeginFamily("resest_model_version",
                "Active model version (0 = none).", "gauge");
  w.Sample("resest_model_version", {{"model", snapshot.model_name}},
           snapshot.model_version);
  w.BeginFamily("resest_model_slot_version",
                "Version at which each (op, resource) model slot last "
                "changed.",
                "gauge");
  for (const auto& slot : snapshot.slot_versions) {
    w.Sample("resest_model_slot_version",
             {{"model", snapshot.model_name},
              {"op", std::get<0>(slot)},
              {"resource", std::get<1>(slot)}},
             std::get<2>(slot));
  }

  // Durability: the observation WAL, startup recovery, and the in-memory
  // observation-log footprint (emitted only for durable servers, so a
  // scrape of a stateless server carries no misleading zeros).
  if (snapshot.has_durability) {
    const DurabilityStats& d = snapshot.durability;
    w.BeginFamily("resest_wal_ok",
                  "1 while the observation WAL accepts appends, 0 after a "
                  "write failure (degraded durability).",
                  "gauge");
    w.Sample("resest_wal_ok", {}, static_cast<uint64_t>(d.wal_ok ? 1 : 0));
    w.BeginFamily("resest_wal_records_total",
                  "Records appended to the observation WAL.", "counter");
    w.Sample("resest_wal_records_total", {}, d.wal.records_appended);
    w.BeginFamily("resest_wal_appended_bytes_total",
                  "Bytes appended to the observation WAL.", "counter");
    w.Sample("resest_wal_appended_bytes_total", {}, d.wal.bytes_appended);
    w.BeginFamily("resest_wal_segments_sealed_total",
                  "Active WAL files sealed into immutable segments.",
                  "counter");
    w.Sample("resest_wal_segments_sealed_total", {}, d.wal.segments_sealed);
    w.BeginFamily("resest_wal_fsyncs_total",
                  "fsync calls on the active WAL file.", "counter");
    w.Sample("resest_wal_fsyncs_total", {}, d.wal.fsyncs);
    w.BeginFamily("resest_wal_append_failures_total",
                  "Observations whose WAL append failed (kept in memory, "
                  "lost on restart).",
                  "counter");
    w.Sample("resest_wal_append_failures_total", {}, d.wal_append_failures);
    w.BeginFamily("resest_recovery_rows_recovered",
                  "Observation rows replayed from the WAL at startup.",
                  "gauge");
    w.Sample("resest_recovery_rows_recovered", {},
             d.recovery.rows_recovered);
    w.BeginFamily("resest_recovery_records_dropped",
                  "WAL records dropped at startup past the first "
                  "corruption.",
                  "gauge");
    w.Sample("resest_recovery_records_dropped", {},
             d.recovery.records_dropped);
    w.BeginFamily("resest_recovery_bytes_dropped",
                  "WAL bytes on disk not replayed at startup.", "gauge");
    w.Sample("resest_recovery_bytes_dropped", {}, d.recovery.bytes_dropped);
    w.BeginFamily("resest_obslog_memory_bytes",
                  "Current in-memory observation-log footprint.", "gauge");
    w.Sample("resest_obslog_memory_bytes", {},
             static_cast<uint64_t>(d.memory_bytes));
    w.BeginFamily("resest_obslog_memory_peak_bytes",
                  "Peak in-memory observation-log footprint.", "gauge");
    w.Sample("resest_obslog_memory_peak_bytes", {},
             static_cast<uint64_t>(d.memory_peak_bytes));
    w.BeginFamily("resest_obslog_memory_cap_bytes",
                  "Configured observation-log memory cap (0 = unbounded).",
                  "gauge");
    w.Sample("resest_obslog_memory_cap_bytes", {},
             static_cast<uint64_t>(d.memory_cap_bytes));
    w.BeginFamily("resest_obslog_spilled_rows_total",
                  "Window rows spilled into reservoirs by the bounds or "
                  "the memory cap.",
                  "counter");
    w.Sample("resest_obslog_spilled_rows_total", {}, d.spilled_rows);
  }

  // HTTP front end.
  w.BeginFamily("resest_http_requests_total",
                "HTTP requests answered (including parser-level errors).",
                "counter");
  w.Sample("resest_http_requests_total", {}, snapshot.http_requests_served);
  w.BeginFamily("resest_http_active_connections",
                "HTTP connections currently open.", "gauge");
  w.Sample("resest_http_active_connections", {},
           static_cast<uint64_t>(snapshot.http_active_connections));
  w.BeginFamily("resest_http_connections_accepted_total",
                "HTTP connections accepted since startup.", "counter");
  w.Sample("resest_http_connections_accepted_total", {},
           snapshot.http_connections_accepted);
  w.BeginFamily("resest_http_keepalive_requests_total",
                "HTTP requests beyond the first on their connection "
                "(keep-alive reuse).",
                "counter");
  w.Sample("resest_http_keepalive_requests_total", {},
           snapshot.http_keepalive_requests);

  // Cross-request micro-batch coalescing (emitted only when the server
  // runs with a coalescer, mirroring the durability block's convention).
  if (snapshot.has_coalescer) {
    const CoalescerStats& c = snapshot.coalescer;
    w.BeginFamily("resest_coalesce_submissions_total",
                  "Estimate submissions that entered a coalescing bucket.",
                  "counter");
    w.Sample("resest_coalesce_submissions_total", {}, c.submissions);
    w.BeginFamily("resest_coalesce_passthrough_total",
                  "Estimate submissions forwarded solo (deadline-carrying, "
                  "oversized, or coalescing disabled).",
                  "counter");
    w.Sample("resest_coalesce_passthrough_total", {}, c.passthrough);
    w.BeginFamily("resest_coalesce_flushes_total",
                  "Merged batches submitted, by flush trigger.", "counter");
    w.Sample("resest_coalesce_flushes_total", {{"trigger", "idle"}},
             c.flush_idle);
    w.Sample("resest_coalesce_flushes_total", {{"trigger", "chained"}},
             c.flush_chained);
    w.Sample("resest_coalesce_flushes_total", {{"trigger", "full"}},
             c.flush_full);
    w.Sample("resest_coalesce_flushes_total", {{"trigger", "urgent"}},
             c.flush_urgent);
    w.Sample("resest_coalesce_flushes_total", {{"trigger", "drain"}},
             c.flush_drain);
    w.BeginFamily("resest_coalesce_batch_rows",
                  "Rows per merged batch handed to the service.",
                  "histogram");
    std::vector<double> row_bounds(kCoalesceRowsBuckets);
    for (size_t i = 0; i < kCoalesceRowsBuckets; ++i) {
      row_bounds[i] = static_cast<double>(uint64_t{1} << i);
    }
    w.Histogram("resest_coalesce_batch_rows", {}, row_bounds,
                std::vector<uint64_t>(c.batch_rows_histogram.begin(),
                                      c.batch_rows_histogram.end()),
                static_cast<double>(c.coalesced_rows), c.batches);
    w.BeginFamily("resest_coalesce_wait_seconds",
                  "Time each coalesced submission spent queued behind a "
                  "running batch.",
                  "histogram");
    std::vector<double> wait_bounds(kCoalesceWaitBuckets);
    for (size_t i = 0; i < kCoalesceWaitBuckets; ++i) {
      wait_bounds[i] = static_cast<double>(uint64_t{1} << i) / 1e6;
    }
    w.Histogram("resest_coalesce_wait_seconds", {}, wait_bounds,
                std::vector<uint64_t>(c.wait_histogram.begin(),
                                      c.wait_histogram.end()),
                c.total_wait_us / 1e6, c.submissions);
  }

  // Per-tenant load dimension (the heartbeat sweep's TenantStats): one
  // sample per tenant per family, so scrapes see disjoint {tenant="..."}
  // label sets — the isolation surface a capacity supervisor watches.
  if (!snapshot.tenants.empty()) {
    w.BeginFamily("resest_tenant_requests_total",
                  "Estimates served OK, by tenant.", "counter");
    for (const TenantStats& t : snapshot.tenants) {
      w.Sample("resest_tenant_requests_total", {{"tenant", t.tenant}},
               t.requests);
    }
    w.BeginFamily("resest_tenant_batches_total",
                  "Batches accepted, by tenant.", "counter");
    for (const TenantStats& t : snapshot.tenants) {
      w.Sample("resest_tenant_batches_total", {{"tenant", t.tenant}},
               t.batches);
    }
    w.BeginFamily("resest_tenant_qps",
                  "Estimates per second over the last heartbeat window, by "
                  "tenant.",
                  "gauge");
    for (const TenantStats& t : snapshot.tenants) {
      w.Sample("resest_tenant_qps", {{"tenant", t.tenant}}, t.qps);
    }
    w.BeginFamily("resest_tenant_cache_hits_total",
                  "Estimate cache hits in the tenant's cache region.",
                  "counter");
    for (const TenantStats& t : snapshot.tenants) {
      w.Sample("resest_tenant_cache_hits_total", {{"tenant", t.tenant}},
               t.cache_hits);
    }
    w.BeginFamily("resest_tenant_cache_misses_total",
                  "Estimate cache misses in the tenant's cache region.",
                  "counter");
    for (const TenantStats& t : snapshot.tenants) {
      w.Sample("resest_tenant_cache_misses_total", {{"tenant", t.tenant}},
               t.cache_misses);
    }
    w.BeginFamily("resest_tenant_cache_entries",
                  "Current size of the tenant's cache region.", "gauge");
    for (const TenantStats& t : snapshot.tenants) {
      w.Sample("resest_tenant_cache_entries", {{"tenant", t.tenant}},
               static_cast<uint64_t>(t.cache_entries));
    }
    w.BeginFamily("resest_tenant_cache_pressure",
                  "Tenant cache occupancy in [0, 1] (entries / capacity).",
                  "gauge");
    for (const TenantStats& t : snapshot.tenants) {
      w.Sample("resest_tenant_cache_pressure", {{"tenant", t.tenant}},
               t.cache_pressure);
    }
    w.BeginFamily("resest_tenant_obslog_bytes",
                  "In-memory observation-log footprint, by tenant (0 for "
                  "non-durable tenants).",
                  "gauge");
    for (const TenantStats& t : snapshot.tenants) {
      w.Sample("resest_tenant_obslog_bytes", {{"tenant", t.tenant}},
               t.obslog_bytes);
    }
    w.BeginFamily("resest_tenant_wal_records_total",
                  "Records appended to the tenant's observation WAL.",
                  "counter");
    for (const TenantStats& t : snapshot.tenants) {
      w.Sample("resest_tenant_wal_records_total", {{"tenant", t.tenant}},
               t.wal_records);
    }
    w.BeginFamily("resest_tenant_lane_latency_p99_ms",
                  "Approximate p99 batch latency (ms), by tenant and "
                  "priority lane.",
                  "gauge");
    for (const TenantStats& t : snapshot.tenants) {
      for (size_t p = 0; p < kNumTaskPriorities; ++p) {
        w.Sample("resest_tenant_lane_latency_p99_ms",
                 {{"tenant", t.tenant},
                  {"priority",
                   TaskPriorityName(static_cast<TaskPriority>(p))}},
                 t.lane_p99_ms[p]);
      }
    }
    w.BeginFamily("resest_tenant_model_version",
                  "Active model version of the tenant's model (0 = none).",
                  "gauge");
    for (const TenantStats& t : snapshot.tenants) {
      w.Sample("resest_tenant_model_version",
               {{"tenant", t.tenant}, {"model", t.model_name}},
               t.model_version);
    }
  }

  return w.text();
}

}  // namespace resest
