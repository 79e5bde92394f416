#include "src/training/incremental_trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <utility>

#include "src/common/serial.h"
#include "src/serving/model_registry.h"

namespace resest {

namespace {

constexpr uint32_t kLogMagic = 0x524f424c;  // "ROBL"
// v2: bounded window + reservoir layout (window rows/labels, reservoir
// rows/labels, reservoir_seen, rng_state, total_rows, label_sum).
constexpr uint32_t kLogVersion = 2;

std::string LogPath(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / (name + ".obslog")).string();
}

std::string ModelPath(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / (name + ".model")).string();
}

// The per-slot reservoir generator: splitmix64, advanced once per
// full-reservoir eviction. Fixed algorithm + per-slot seed + identical
// eviction stream == identical reservoirs on replay.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

IncrementalTrainer::IncrementalTrainer(TrainOptions options, RefitPolicy policy,
                                       ThreadPool* pool, LogBounds bounds)
    : options_(options),
      policy_(policy),
      pool_(pool),
      bounds_(bounds),
      tracker_(bounds.memory_cap_bytes) {
  SeedLogRngsLocked();  // single-threaded in the constructor; no lock needed
}

void IncrementalTrainer::SeedLogRngsLocked() {
  for (size_t op = 0; op < static_cast<size_t>(kNumOpTypes); ++op) {
    for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
      // Distinct fixed seed per slot; splitmix's gamma scrambles weak seeds.
      logs_[op][r].rng_state = op * kNumResources + r + 1;
    }
  }
}

bool IncrementalTrainer::EnableDurability(const std::string& dir,
                                          const std::string& name,
                                          WalOptions wal_options,
                                          RecoveryStats* recovery) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ != nullptr) return false;  // already durable
  // Replay first (into memory only — the WAL is not open yet, so replayed
  // rows are not re-appended), then open for append. Order matters: an
  // existing active file must be scanned before Open() truncates its torn
  // tail and starts writing after the valid prefix.
  RecoveryStats stats;
  const bool replay_ok = ReplayObservationLog(
      dir, name, [this](const WalRecord& r) { ApplyWalRecordLocked(r); },
      &stats);
  recovery_ = stats;
  if (recovery != nullptr) *recovery = stats;
  if (!replay_ok) return false;
  auto wal = std::make_unique<WriteAheadLog>(dir, name, wal_options);
  if (!wal->Open()) return false;
  wal_ = std::move(wal);
  return true;
}

std::shared_ptr<const ResourceEstimator> IncrementalTrainer::SeedAndTrain(
    const std::vector<ExecutedQuery>& workload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A blank estimator carrying the training options: every slot falls
    // back to mean 0 with no model, exactly what from-scratch training on
    // an empty workload yields. The seed fit below is then a forced refit
    // of every slot with data — the same code path every later delta uses.
    base_ = std::make_shared<const ResourceEstimator>(
        ResourceEstimator::Train({}, options_));
    base_version_ = 0;
  }
  ObserveAll(workload);
  RefitAll();
  return base();
}

void IncrementalTrainer::Observe(const ExecutedQuery& executed) {
  // Same admission rule and same pre-order operator visit as
  // ResourceEstimator::Train — log order is fit order, and fit order is
  // part of the byte-identity contract.
  if (!executed.plan.root || executed.database == nullptr) return;
  const FeatureMode mode = options_.mode;
  std::vector<ObservationRow> rows;
  VisitPlanOperators(
      executed.plan, [&](const PlanNode& node, const PlanNode* parent) {
        const FeatureVector features =
            ExtractFeatures(node, parent, *executed.database, mode);
        const double labels[kNumResources] = {
            node.actual.cpu, static_cast<double>(node.actual.logical_io)};
        for (size_t r = 0; r < kNumResources; ++r) {
          rows.push_back(
              {node.type, static_cast<Resource>(r), features, labels[r]});
        }
      });
  Append(rows.data(), rows.size());
}

void IncrementalTrainer::ObserveAll(
    const std::vector<ExecutedQuery>& workload) {
  for (const ExecutedQuery& eq : workload) Observe(eq);
}

void IncrementalTrainer::Append(const ObservationRow* rows, size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ != nullptr) {
    // WAL first: a row is never in memory without being on its way to
    // disk. A failed write counts every row it did not acknowledge in the
    // WAL's append_failures, and memory continues — degraded durability,
    // surfaced via durability_stats().
    std::vector<WalRecord> records(count);
    for (size_t i = 0; i < count; ++i) {
      WalObservation& o = records[i].observation;
      o.op = rows[i].op;
      o.resource = rows[i].resource;
      o.model_version = base_version_;
      o.label = rows[i].label;
      o.features = rows[i].features;
    }
    wal_->Append(records.data(), count);
  }
  for (size_t i = 0; i < count; ++i) {
    ApplyRowLocked(static_cast<size_t>(rows[i].op),
                   static_cast<size_t>(rows[i].resource), rows[i].features,
                   rows[i].label);
  }
}

void IncrementalTrainer::ApplyRowLocked(size_t op, size_t resource,
                                        const FeatureVector& row,
                                        double label) {
  ObservationLog& log = logs_[op][resource];
  if (log.total_rows == log.refit_rows) {
    // First pending row after a fully-covered state: the age clock starts.
    log.first_pending_at = std::chrono::steady_clock::now();
  }
  log.window_rows.push_back(row);
  log.window_labels.push_back(label);
  tracker_.Charge(kObservationRowBytes);
  ++log.total_rows;
  // Running ordered sum — the same `+=` sequence from-scratch training's
  // fallback mean performs, so the doubles stay bit-identical.
  log.label_sum += label;
  while (log.window_rows.size() > bounds_.window_rows) {
    EvictOldestLocked(&log);
  }
  EnforceCapLocked();
}

void IncrementalTrainer::EvictOldestLocked(ObservationLog* log) {
  const FeatureVector row = log->window_rows.front();
  const double label = log->window_labels.front();
  log->window_rows.pop_front();
  log->window_labels.pop_front();
  ++spilled_rows_;
  ++log->reservoir_seen;
  if (log->reservoir_rows.size() < bounds_.reservoir_rows) {
    // Reservoir still filling: the row moves, footprint unchanged.
    log->reservoir_rows.push_back(row);
    log->reservoir_labels.push_back(label);
    return;
  }
  tracker_.Release(kObservationRowBytes);
  if (bounds_.reservoir_rows == 0) return;
  // Algorithm R over the evicted stream: the i-th evicted row replaces a
  // uniform slot with probability capacity/i. One generator draw per
  // full-reservoir eviction — a pure function of the append stream.
  const uint64_t j = SplitMix64(&log->rng_state) % log->reservoir_seen;
  if (j < log->reservoir_rows.size()) {
    log->reservoir_rows[static_cast<size_t>(j)] = row;
    log->reservoir_labels[static_cast<size_t>(j)] = label;
  }
}

void IncrementalTrainer::EnforceCapLocked() {
  // Spill oldest-of-the-largest-window first (ties to the lowest slot
  // index — a fixed order, so replay spills identically). Terminates: every
  // eviction shrinks some window by one row; once all windows are empty the
  // footprint floor is the reservoirs', which the cap cannot reclaim.
  while (tracker_.over()) {
    ObservationLog* victim = nullptr;
    size_t largest = 0;
    for (auto& per_op : logs_) {
      for (ObservationLog& log : per_op) {
        if (log.window_rows.size() > largest) {
          largest = log.window_rows.size();
          victim = &log;
        }
      }
    }
    if (victim == nullptr) break;
    EvictOldestLocked(victim);
  }
}

void IncrementalTrainer::ApplyWalRecordLocked(const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kObservation: {
      const WalObservation& o = record.observation;
      ApplyRowLocked(static_cast<size_t>(o.op),
                     static_cast<size_t>(o.resource), o.features, o.label);
      break;
    }
    case WalRecordType::kRefitMarker: {
      const WalRefitMarker& m = record.refit;
      ObservationLog& log =
          logs_[static_cast<size_t>(m.op)][static_cast<size_t>(m.resource)];
      // Clamp defensively: markers are appended after the rows they cover,
      // so replay should always have total_rows >= covered_rows.
      log.refit_rows = std::min(m.covered_rows, log.total_rows);
      log.refit_mean = m.refit_mean;
      break;
    }
    case WalRecordType::kCheckpoint: {
      for (size_t op = 0; op < static_cast<size_t>(kNumOpTypes); ++op) {
        for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
          const WalCheckpoint::Slot& slot = record.checkpoint.slots[op][r];
          ObservationLog& log = logs_[op][r];
          log.refit_rows = std::min(slot.covered_rows, log.total_rows);
          log.refit_mean = slot.refit_mean;
        }
      }
      break;
    }
  }
}

bool IncrementalTrainer::CrossedLocked(
    const ObservationLog& log,
    std::chrono::steady_clock::time_point now) const {
  const uint64_t pending = log.total_rows - log.refit_rows;
  if (pending == 0) return false;
  if (pending >= policy_.min_new_rows) return true;
  if (policy_.drift_threshold > 0.0 && log.refit_rows > 0) {
    const double mean =
        log.label_sum / static_cast<double>(log.total_rows);
    const double denom = std::abs(log.refit_mean) > 0.0
                             ? std::abs(log.refit_mean)
                             : 1.0;
    if (std::abs(mean - log.refit_mean) / denom >= policy_.drift_threshold) {
      return true;
    }
  }
  if (policy_.max_pending_age.count() > 0 &&
      now - log.first_pending_at >= policy_.max_pending_age) {
    return true;
  }
  return false;
}

std::vector<ModelSlotId> IncrementalTrainer::AffectedSlots() const {
  std::vector<ModelSlotId> out;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  for (int op = 0; op < kNumOpTypes; ++op) {
    for (int r = 0; r < kNumResources; ++r) {
      if (CrossedLocked(
              logs_[static_cast<size_t>(op)][static_cast<size_t>(r)], now)) {
        out.emplace_back(static_cast<OpType>(op), static_cast<Resource>(r));
      }
    }
  }
  return out;
}

IncrementalTrainer::RefitResult IncrementalTrainer::RefitAffected() {
  std::lock_guard<std::mutex> refit_lock(refit_mu_);
  return RefitLocked(false);
}

IncrementalTrainer::RefitResult IncrementalTrainer::RefitAll() {
  std::lock_guard<std::mutex> refit_lock(refit_mu_);
  return RefitLocked(true);
}

IncrementalTrainer::RefitResult IncrementalTrainer::RefitLocked(bool force) {
  struct Work {
    ModelSlotId slot{OpType::kTableScan, Resource::kCpu};
    std::vector<FeatureVector> rows;
    std::vector<double> labels;
    uint64_t total_rows = 0;
    double label_sum = 0.0;
  };
  std::vector<Work> work;
  std::shared_ptr<const ResourceEstimator> base;
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (base_ == nullptr) return {};
    base = base_;
    for (int op = 0; op < kNumOpTypes; ++op) {
      for (int r = 0; r < kNumResources; ++r) {
        const ObservationLog& log =
            logs_[static_cast<size_t>(op)][static_cast<size_t>(r)];
        const bool due =
            force ? log.total_rows > 0 : CrossedLocked(log, now);
        if (!due) continue;
        Work w;
        w.slot = {static_cast<OpType>(op), static_cast<Resource>(r)};
        // Copy a consistent snapshot: appends racing the fit stay pending.
        // Training set = reservoir (index order: the evicted summary) then
        // the window (append order) — while nothing was evicted this is
        // exactly the cumulative log in append order.
        w.rows.reserve(log.reservoir_rows.size() + log.window_rows.size());
        w.rows.assign(log.reservoir_rows.begin(), log.reservoir_rows.end());
        w.rows.insert(w.rows.end(), log.window_rows.begin(),
                      log.window_rows.end());
        w.labels.reserve(w.rows.size());
        w.labels.assign(log.reservoir_labels.begin(),
                        log.reservoir_labels.end());
        w.labels.insert(w.labels.end(), log.window_labels.begin(),
                        log.window_labels.end());
        w.total_rows = log.total_rows;
        w.label_sum = log.label_sum;
        work.push_back(std::move(w));
      }
    }
  }
  if (work.empty()) return {};  // below threshold: a no-op, publish nothing

  OperatorModelSet::TrainOptions set_options;
  set_options.mart = options_.mart;
  set_options.enable_scaling = options_.enable_scaling;
  set_options.normalize_dependents = options_.normalize_dependents;
  set_options.max_scale_features = options_.max_scale_features;

  struct FitOut {
    std::shared_ptr<const OperatorModelSet> set;
    double mean = 0.0;
  };
  // Per-slot fits from the cumulative log, mirroring from-scratch training
  // exactly: the fallback mean is the running ordered label sum over every
  // appended row (bit-identical to from-scratch summation while nothing
  // was evicted, and still a deterministic function of the stream after),
  // the min_rows_per_operator rule, and the same OperatorModelSet::Train
  // inputs. Fits are mutually independent and MART is seeded, so pool
  // fan-out reproduces the serial bytes for any thread count.
  auto fit_one = [this, &set_options](const Work& w) {
    FitOut out;
    out.mean = w.total_rows == 0
                   ? 0.0
                   : w.label_sum / static_cast<double>(w.total_rows);
    if (w.rows.size() >= options_.min_rows_per_operator) {
      out.set = std::make_shared<const OperatorModelSet>(
          OperatorModelSet::Train(w.slot.first, w.slot.second, w.rows,
                                  w.labels, set_options));
    }
    return out;
  };

  std::vector<FitOut> fitted(work.size());
  if (pool_ == nullptr || work.size() <= 1) {
    for (size_t i = 0; i < work.size(); ++i) fitted[i] = fit_one(work[i]);
  } else {
    // kBulk: a background refit must never displace serving traffic on the
    // shared pool — urgent and normal estimation lanes drain first.
    std::vector<std::future<void>> fits;
    fits.reserve(work.size());
    for (size_t i = 0; i < work.size(); ++i) {
      fits.push_back(pool_->Submit(TaskPriority::kBulk, [&, i]() {
        fitted[i] = fit_one(work[i]);
      }));
    }
    for (auto& f : fits) f.get();
  }

  auto delta = std::make_shared<ResourceEstimator>(*base);
  RefitResult result;
  for (size_t i = 0; i < work.size(); ++i) {
    delta->ReplaceModelSet(work[i].slot.first, work[i].slot.second,
                           fitted[i].set, fitted[i].mean);
    result.refitted.push_back(work[i].slot);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < work.size(); ++i) {
      ObservationLog& log =
          logs_[static_cast<size_t>(work[i].slot.first)]
               [static_cast<size_t>(work[i].slot.second)];
      log.refit_rows = work[i].total_rows;
      log.refit_mean = fitted[i].mean;
      // Rows appended while the fit ran stay pending; their age clock keeps
      // the pre-snapshot start (conservative — fires no later than true).
      if (std::find(unpublished_refits_.begin(), unpublished_refits_.end(),
                    work[i].slot) == unpublished_refits_.end()) {
        unpublished_refits_.push_back(work[i].slot);
      }
    }
    base_ = delta;
  }
  result.estimator = std::move(delta);
  return result;
}

uint64_t IncrementalTrainer::PublishBaseline(ModelRegistry* registry,
                                             const std::string& name) {
  std::shared_ptr<const ResourceEstimator> base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    base = base_;
  }
  if (base == nullptr) return 0;
  const uint64_t version = registry->Publish(name, base);
  std::lock_guard<std::mutex> lock(mu_);
  if (base_ == base) {
    base_version_ = version;
    // A full publish stamps every slot; nothing diverges from it.
    unpublished_refits_.clear();
  }
  return version;
}

IncrementalTrainer::RefitResult IncrementalTrainer::RefitAndPublish(
    ModelRegistry* registry, const std::string& name) {
  // Hold refit_mu_ across refit *and* publish: a second publisher must see
  // this delta's version as its base, or its lineage would stamp our
  // refitted slots as unchanged-since-an-older-version and stale cache
  // entries could hit under them.
  std::lock_guard<std::mutex> refit_lock(refit_mu_);
  uint64_t published_base = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    published_base = base_version_;
  }
  RefitResult result = RefitLocked(false);
  if (!result) return result;
  // Stamp every slot that diverged from the published base
  // — this round's refits plus any earlier unpublished RefitAffected/
  // RefitAll rounds (unpublished_refits_ accumulated them), which the
  // delta's estimator also carries.
  std::vector<ModelSlotId> diverged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    diverged = unpublished_refits_;
  }
  result.version =
      registry->PublishDelta(name, result.estimator, published_base, diverged);
  std::lock_guard<std::mutex> lock(mu_);
  base_version_ = result.version;
  if (wal_ != nullptr) {
    // Record the published coverage: a restart replays these markers and
    // does not re-refit work the published (and later checkpointed) model
    // already represents. Only *published* boundaries are marked —
    // unpublished refit rounds are simply redone after recovery, which is
    // deterministic.
    for (const ModelSlotId& slot : diverged) {
      const ObservationLog& log =
          logs_[static_cast<size_t>(slot.first)]
               [static_cast<size_t>(slot.second)];
      WalRecord rec;
      rec.type = WalRecordType::kRefitMarker;
      rec.refit.op = slot.first;
      rec.refit.resource = slot.second;
      rec.refit.covered_rows = log.refit_rows;
      rec.refit.refit_mean = log.refit_mean;
      rec.refit.model_version = result.version;
      wal_->Append(rec);
    }
    wal_->Sync();
  }
  unpublished_refits_.clear();
  return result;
}

void IncrementalTrainer::Attach(std::shared_ptr<const ResourceEstimator> base,
                                uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  base_ = std::move(base);
  base_version_ = version;
  unpublished_refits_.clear();
}

WalRecord IncrementalTrainer::BuildCheckpointLocked() const {
  WalRecord rec;
  rec.type = WalRecordType::kCheckpoint;
  rec.checkpoint.base_version = base_version_;
  for (size_t op = 0; op < static_cast<size_t>(kNumOpTypes); ++op) {
    for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
      rec.checkpoint.slots[op][r].covered_rows = logs_[op][r].refit_rows;
      rec.checkpoint.slots[op][r].refit_mean = logs_[op][r].refit_mean;
    }
  }
  return rec;
}

bool IncrementalTrainer::Checkpoint(const ModelRegistry& registry,
                                    const std::string& name,
                                    const std::string& dir) const {
  if (!registry.SaveActive(name, dir)) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (wal_ != nullptr) {
      // The rows are already durable in the WAL; all a checkpoint adds is
      // the coverage snapshot matching the model just saved, made durable
      // with an fsync.
      return wal_->Append(BuildCheckpointLocked()) && wal_->Sync();
    }
  }
  // Legacy (non-durable) mode: the full-log image. SaveLogs takes mu_
  // itself, so it must run outside the guard above.
  return SaveLogs(LogPath(dir, name));
}

uint64_t IncrementalTrainer::Restore(ModelRegistry* registry,
                                     const std::string& name,
                                     const std::string& dir) {
  bool durable = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    durable = wal_ != nullptr;
  }
  if (durable) {
    // EnableDurability()'s replay already rebuilt the logs (rows, coverage
    // markers and all); only the model remains to republish.
    const uint64_t version =
        registry->PublishFromFile(name, ModelPath(dir, name));
    if (version == 0) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    base_ = registry->Get(name).estimator;
    base_version_ = version;
    unpublished_refits_.clear();
    return version;
  }
  // Parse everything before mutating anything: a failure at any step must
  // leave both the trainer and the registry exactly as they were.
  std::vector<uint8_t> bytes;
  LogArray loaded;
  if (!ReadFileBytes(LogPath(dir, name), &bytes) ||
      !ParseLogs(bytes, &loaded)) {
    return 0;
  }
  const uint64_t version =
      registry->PublishFromFile(name, ModelPath(dir, name));
  if (version == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  logs_ = std::move(loaded);
  NormalizeLoadedLocked();
  base_ = registry->Get(name).estimator;
  base_version_ = version;
  unpublished_refits_.clear();
  return version;
}

bool IncrementalTrainer::DrainWal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr) return true;
  const bool ok = wal_->Append(BuildCheckpointLocked());
  // Seal regardless: even with the marker lost, the sealed rows must
  // survive the exit.
  return wal_->Seal() && ok;
}

bool IncrementalTrainer::FlushWal() {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_ == nullptr ? true : wal_->Sync();
}

bool IncrementalTrainer::SaveLogs(const std::string& path) const {
  std::vector<uint8_t> bytes;
  ByteWriter w(&bytes);
  w.U32(kLogMagic);
  w.U32(kLogVersion);
  w.U32(static_cast<uint32_t>(kNumFeatures));
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& per_op : logs_) {
    for (const ObservationLog& log : per_op) {
      w.Pod(static_cast<uint64_t>(log.window_rows.size()));
      for (const FeatureVector& row : log.window_rows) w.Pod(row);
      for (double label : log.window_labels) w.F64(label);
      w.Pod(static_cast<uint64_t>(log.reservoir_rows.size()));
      for (const FeatureVector& row : log.reservoir_rows) w.Pod(row);
      for (double label : log.reservoir_labels) w.F64(label);
      w.Pod(log.reservoir_seen);
      w.Pod(log.rng_state);
      w.Pod(log.total_rows);
      w.F64(log.label_sum);
      w.Pod(log.refit_rows);
      w.F64(log.refit_mean);
    }
  }
  return WriteFileAtomic(path, bytes);
}

bool IncrementalTrainer::LoadLogs(const std::string& path) {
  std::vector<uint8_t> bytes;
  LogArray loaded;
  if (!ReadFileBytes(path, &bytes) || !ParseLogs(bytes, &loaded)) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  logs_ = std::move(loaded);
  NormalizeLoadedLocked();
  return true;
}

bool IncrementalTrainer::ParseLogs(const std::vector<uint8_t>& bytes,
                                   LogArray* out) const {
  ByteReader r(bytes);
  uint32_t magic = 0, format = 0, num_features = 0;
  if (!r.U32(&magic) || magic != kLogMagic) return false;
  if (!r.U32(&format) || format != kLogVersion) return false;
  if (!r.U32(&num_features) || num_features != kNumFeatures) return false;

  // Bound a row count by the bytes actually present before resizing, so a
  // corrupt count field fails the parse instead of throwing on a huge
  // allocation.
  auto plausible = [&](uint64_t count) {
    const uint64_t remaining = bytes.size() - r.position();
    return count <= remaining / sizeof(FeatureVector);
  };

  LogArray& loaded = *out;
  for (auto& per_op : loaded) {
    for (ObservationLog& log : per_op) {
      uint64_t window = 0, reservoir = 0;
      if (!r.Pod(&window) || !plausible(window)) return false;
      log.window_rows.resize(window);
      for (FeatureVector& row : log.window_rows) {
        if (!r.Pod(&row)) return false;
      }
      log.window_labels.resize(window);
      for (double& label : log.window_labels) {
        if (!r.F64(&label)) return false;
      }
      if (!r.Pod(&reservoir) || !plausible(reservoir)) return false;
      log.reservoir_rows.resize(reservoir);
      for (FeatureVector& row : log.reservoir_rows) {
        if (!r.Pod(&row)) return false;
      }
      log.reservoir_labels.resize(reservoir);
      for (double& label : log.reservoir_labels) {
        if (!r.F64(&label)) return false;
      }
      if (!r.Pod(&log.reservoir_seen) || !r.Pod(&log.rng_state) ||
          !r.Pod(&log.total_rows) || !r.F64(&log.label_sum) ||
          !r.Pod(&log.refit_rows) || !r.F64(&log.refit_mean)) {
        return false;
      }
      if (log.refit_rows > log.total_rows) return false;
      if (window + reservoir > log.total_rows) return false;
    }
  }
  return r.AtEnd();
}

void IncrementalTrainer::NormalizeLoadedLocked() {
  tracker_ = MemoryTracker(bounds_.memory_cap_bytes);
  size_t rows = 0;
  for (const auto& per_op : logs_) {
    for (const ObservationLog& log : per_op) {
      rows += log.window_rows.size() + log.reservoir_rows.size();
    }
  }
  tracker_.Charge(rows * kObservationRowBytes);
  const auto now = std::chrono::steady_clock::now();
  for (auto& per_op : logs_) {
    for (ObservationLog& log : per_op) {
      // The age clock restarts at load (steady_clock does not persist).
      if (log.total_rows > log.refit_rows) log.first_pending_at = now;
      // Re-apply the bounds: the image may come from looser ones.
      while (log.window_rows.size() > bounds_.window_rows) {
        EvictOldestLocked(&log);
      }
    }
  }
  EnforceCapLocked();
}

IncrementalTrainer::SlotLogStats IncrementalTrainer::LogStats(
    OpType op, Resource resource) const {
  std::lock_guard<std::mutex> lock(mu_);
  const ObservationLog& log =
      logs_[static_cast<size_t>(op)][static_cast<size_t>(resource)];
  SlotLogStats out;
  out.rows = static_cast<size_t>(log.total_rows);
  out.pending = static_cast<size_t>(log.total_rows - log.refit_rows);
  out.window = log.window_rows.size();
  out.reservoir = log.reservoir_rows.size();
  return out;
}

size_t IncrementalTrainer::TotalPendingRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t pending = 0;
  for (const auto& per_op : logs_) {
    for (const ObservationLog& log : per_op) {
      pending += static_cast<size_t>(log.total_rows - log.refit_rows);
    }
  }
  return pending;
}

DurabilityStats IncrementalTrainer::durability_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DurabilityStats s;
  s.durable = wal_ != nullptr;
  if (wal_ != nullptr) {
    s.wal_ok = wal_->ok();
    s.wal = wal_->stats();
  }
  s.recovery = recovery_;
  s.memory_bytes = tracker_.bytes();
  s.memory_peak_bytes = tracker_.peak_bytes();
  s.memory_cap_bytes = tracker_.cap_bytes();
  s.spilled_rows = spilled_rows_;
  return s;
}

bool IncrementalTrainer::durable_ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_ == nullptr || wal_->ok();
}

std::shared_ptr<const ResourceEstimator> IncrementalTrainer::base() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_;
}

uint64_t IncrementalTrainer::base_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_version_;
}

}  // namespace resest
