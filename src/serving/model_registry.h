// Versioned registry of trained ResourceEstimators with atomic hot-swap.
//
// The serving deployment of the paper (Figure 5): models are trained
// offline, serialized, and published into a long-lived server process.
// Readers take a shared_ptr snapshot of the active model under a brief
// lock, then predict lock-free; publishing a new version swaps the active
// pointer without disturbing in-flight readers, which keep their snapshot
// alive until they drop it.
#ifndef RESEST_SERVING_MODEL_REGISTRY_H_
#define RESEST_SERVING_MODEL_REGISTRY_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/estimator.h"

namespace resest {

/// Per-slot delta lineage: the registry version at which each (operator,
/// resource) model slot last changed. A full publish stamps every slot with
/// the new version; a delta publish (PublishDelta) stamps only the refitted
/// slots and inherits the rest from the base version — which is what lets
/// the serving cache keep entries for untouched operators alive across a
/// hot-swap (keys carry the slot version, not the estimator version).
using SlotVersionMap =
    std::array<std::array<uint64_t, kNumResources>, kNumOpTypes>;

/// A snapshot handle: the estimator plus the version it was published as.
struct ModelSnapshot {
  std::shared_ptr<const ResourceEstimator> estimator;
  uint64_t version = 0;
  /// Delta lineage of this version; null for snapshots that predate lineage
  /// tracking (every slot then counts as last-changed at `version`).
  std::shared_ptr<const SlotVersionMap> slots;

  /// Version at which this snapshot's (op, resource) slot last changed.
  uint64_t SlotVersion(OpType op, Resource resource) const {
    return slots == nullptr
               ? version
               : (*slots)[static_cast<size_t>(op)]
                         [static_cast<size_t>(resource)];
  }

  explicit operator bool() const { return estimator != nullptr; }
};

/// Thread-safe, versioned store of named estimators.
class ModelRegistry {
 public:
  /// Publishes an estimator under `name`; returns its (monotonic) version.
  /// The new version becomes the active one for subsequent Get() calls.
  uint64_t Publish(const std::string& name,
                   std::shared_ptr<const ResourceEstimator> estimator);

  /// Publishes `estimator` as a *delta* over `base_version`: only the
  /// `refitted` slots are stamped with the new version in the lineage, every
  /// other slot inherits its last-changed version from the base (the caller
  /// guarantees those slots share the base's model sets — see
  /// ResourceEstimator::ReplaceModelSet). If the base version is no longer
  /// retained, the publish degrades to a full one (all slots stamped new),
  /// which is always safe — lineage only ever widens invalidation. Returns
  /// the new version, 0 on a null estimator.
  uint64_t PublishDelta(const std::string& name,
                        std::shared_ptr<const ResourceEstimator> estimator,
                        uint64_t base_version,
                        const std::vector<ModelSlotId>& refitted);

  /// Deserializes `bytes` (ResourceEstimator::Serialize format) and
  /// publishes the result. Returns 0 on corrupt input.
  uint64_t PublishSerialized(const std::string& name,
                             const std::vector<uint8_t>& bytes);

  /// Loads a model store written by SaveActive (or
  /// ResourceEstimator::SaveToFile) and publishes it — how a restarted
  /// server comes back without retraining. If a `<path>.lineage` sidecar
  /// (written by SaveActive) is present and valid, version numbering
  /// resumes there: the model is republished at a version no smaller than
  /// any saved slot version. The saved delta lineage itself is adopted only
  /// when every saved slot version is at least the next version this
  /// registry would mint, i.e. none of them can name other content here;
  /// otherwise the model is full-stamped at its new version. Either way
  /// lineage versions stay unique within the registry, and a resumed
  /// incremental trainer can keep delta-publishing mid-stream. Returns 0 on
  /// a missing or corrupt model file; the active version is untouched on
  /// failure.
  uint64_t PublishFromFile(const std::string& name, const std::string& path);

  /// Persists the active version of `name` as `<dir>/<name>.model`
  /// (creating `dir` if needed), in the format PublishFromFile loads, plus
  /// a `<name>.model.lineage` sidecar carrying the version and delta
  /// lineage. Returns false if `name` has no active version or the model
  /// write fails (the lineage sidecar is best-effort: PublishFromFile falls
  /// back to a full-stamp lineage without it).
  bool SaveActive(const std::string& name, const std::string& dir) const;

  /// Snapshot of the active version of `name` (empty snapshot if absent).
  ModelSnapshot Get(const std::string& name) const;

  /// Snapshot of a specific retained version (empty snapshot if evicted or
  /// never published).
  ModelSnapshot GetVersion(const std::string& name, uint64_t version) const;

  /// Reactivates a retained older version (rollback). Returns false if that
  /// version is not retained.
  bool Activate(const std::string& name, uint64_t version);

  /// Removes the name and all retained versions.
  void Remove(const std::string& name);

  /// Versions currently retained for `name`, oldest first.
  std::vector<uint64_t> Versions(const std::string& name) const;

  std::vector<std::string> Names() const;

  /// How many versions to retain per name (older ones are evicted on
  /// publish; the active version is never evicted). Default 2: current
  /// plus one rollback target.
  void set_max_versions(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    max_versions_ = n == 0 ? 1 : n;
  }

 private:
  struct Version {
    std::shared_ptr<const ResourceEstimator> estimator;
    std::shared_ptr<const SlotVersionMap> slots;
  };
  struct Entry {
    std::map<uint64_t, Version> versions;
    uint64_t active = 0;
  };

  /// Publishes under the registry lock. `slots` (null = stamp every slot
  /// with the new version) is the inherited lineage; the `refitted` slots
  /// are stamped with the assigned version *after* it is minted, so the
  /// stamp can never diverge from the version actually published.
  /// `min_version` floors the assigned number (used when restoring
  /// persisted lineage).
  uint64_t PublishLocked(const std::string& name,
                         std::shared_ptr<const ResourceEstimator> estimator,
                         std::shared_ptr<SlotVersionMap> slots,
                         uint64_t min_version,
                         const std::vector<ModelSlotId>& refitted);

  void EvictLocked(Entry* entry);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  uint64_t next_version_ = 1;
  size_t max_versions_ = 2;
};

}  // namespace resest

#endif  // RESEST_SERVING_MODEL_REGISTRY_H_
