#include "src/serving/model_registry.h"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#include "src/common/serial.h"

namespace resest {

namespace {

constexpr uint32_t kLineageMagic = 0x524c4e47;  // "RLNG"
constexpr uint32_t kLineageVersion = 1;

std::string LineagePath(const std::string& model_path) {
  return model_path + ".lineage";
}

std::shared_ptr<const SlotVersionMap> FullStamp(uint64_t version) {
  auto slots = std::make_shared<SlotVersionMap>();
  for (auto& per_op : *slots) per_op.fill(version);
  return slots;
}

/// Serialized lineage sidecar: magic, format version, active version, then
/// one slot version per (op, resource) in canonical order.
bool WriteLineageFile(const std::string& path, uint64_t version,
                      const SlotVersionMap& slots) {
  std::vector<uint8_t> bytes;
  ByteWriter w(&bytes);
  w.U32(kLineageMagic);
  w.U32(kLineageVersion);
  w.Pod(version);
  for (const auto& per_op : slots) {
    for (uint64_t v : per_op) w.Pod(v);
  }
  return WriteFileAtomic(path, bytes);
}

bool ReadLineageFile(const std::string& path, uint64_t* version,
                     SlotVersionMap* slots) {
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes)) return false;
  ByteReader r(bytes);
  uint32_t magic = 0, format = 0;
  if (!r.U32(&magic) || magic != kLineageMagic) return false;
  if (!r.U32(&format) || format != kLineageVersion) return false;
  if (!r.Pod(version)) return false;
  for (auto& per_op : *slots) {
    for (uint64_t& v : per_op) {
      if (!r.Pod(&v)) return false;
    }
  }
  return r.AtEnd();
}

}  // namespace

uint64_t ModelRegistry::PublishLocked(
    const std::string& name, std::shared_ptr<const ResourceEstimator> estimator,
    std::shared_ptr<SlotVersionMap> slots, uint64_t min_version,
    const std::vector<ModelSlotId>& refitted) {
  Entry& entry = entries_[name];
  next_version_ = std::max(next_version_, min_version);
  const uint64_t version = next_version_++;
  std::shared_ptr<const SlotVersionMap> lineage;
  if (slots == nullptr) {
    lineage = FullStamp(version);
  } else {
    for (const auto& [op, resource] : refitted) {
      (*slots)[static_cast<size_t>(op)][static_cast<size_t>(resource)] =
          version;
    }
    lineage = std::move(slots);
  }
  entry.versions[version] = Version{std::move(estimator), std::move(lineage)};
  entry.active = version;
  EvictLocked(&entry);
  return version;
}

uint64_t ModelRegistry::Publish(
    const std::string& name,
    std::shared_ptr<const ResourceEstimator> estimator) {
  if (!estimator) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return PublishLocked(name, std::move(estimator), nullptr, 0, {});
}

uint64_t ModelRegistry::PublishDelta(
    const std::string& name, std::shared_ptr<const ResourceEstimator> estimator,
    uint64_t base_version, const std::vector<ModelSlotId>& refitted) {
  if (!estimator) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  // Inherit the base's lineage when it is still retained; otherwise fall
  // back to stamping everything with the new version (full invalidation —
  // safe, merely wider than necessary).
  std::shared_ptr<const SlotVersionMap> base_slots;
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    auto vit = it->second.versions.find(base_version);
    if (vit != it->second.versions.end()) base_slots = vit->second.slots;
  }
  if (base_slots == nullptr) {
    return PublishLocked(name, std::move(estimator), nullptr, 0, {});
  }
  return PublishLocked(name, std::move(estimator),
                       std::make_shared<SlotVersionMap>(*base_slots), 0,
                       refitted);
}

uint64_t ModelRegistry::PublishSerialized(const std::string& name,
                                          const std::vector<uint8_t>& bytes) {
  auto estimator = std::make_shared<ResourceEstimator>();
  if (!estimator->Deserialize(bytes)) return 0;
  return Publish(name, std::move(estimator));
}

uint64_t ModelRegistry::PublishFromFile(const std::string& name,
                                        const std::string& path) {
  auto estimator = std::make_shared<ResourceEstimator>();
  if (!estimator->LoadFromFile(path)) return 0;

  // Restore the delta lineage sidecar when present: the model is published
  // at a version >= every saved slot version (version numbering resumes
  // across the restart), so inherited slot versions never collide with
  // versions this registry mints later. The saved versions must not collide
  // with versions it has already minted either: the serving cache keys
  // entries by slot version, so a reused number would serve another
  // model's estimates. A lineage reaching below next_version_ is therefore
  // dropped, and the model is full-stamped at its new version instead.
  uint64_t saved_version = 0;
  auto slots = std::make_shared<SlotVersionMap>();
  if (!ReadLineageFile(LineagePath(path), &saved_version, slots.get())) {
    return Publish(name, std::move(estimator));
  }
  uint64_t min_slot = saved_version;
  uint64_t max_slot = saved_version;
  for (const auto& per_op : *slots) {
    for (uint64_t v : per_op) {
      min_slot = std::min(min_slot, v);
      max_slot = std::max(max_slot, v);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (min_slot < next_version_) slots = nullptr;
  return PublishLocked(name, std::move(estimator), std::move(slots), max_slot,
                       {});
}

bool ModelRegistry::SaveActive(const std::string& name,
                               const std::string& dir) const {
  const ModelSnapshot snapshot = Get(name);
  if (!snapshot) return false;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  const std::filesystem::path path =
      std::filesystem::path(dir) / (name + ".model");
  if (!snapshot.estimator->SaveToFile(path.string())) return false;
  const SlotVersionMap slots =
      snapshot.slots ? *snapshot.slots : *FullStamp(snapshot.version);
  WriteLineageFile(LineagePath(path.string()), snapshot.version, slots);
  return true;
}

ModelSnapshot ModelRegistry::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return {};
  auto vit = it->second.versions.find(it->second.active);
  if (vit == it->second.versions.end()) return {};
  return {vit->second.estimator, vit->first, vit->second.slots};
}

ModelSnapshot ModelRegistry::GetVersion(const std::string& name,
                                        uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return {};
  auto vit = it->second.versions.find(version);
  if (vit == it->second.versions.end()) return {};
  return {vit->second.estimator, vit->first, vit->second.slots};
}

bool ModelRegistry::Activate(const std::string& name, uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  if (it->second.versions.count(version) == 0) return false;
  it->second.active = version;
  return true;
}

void ModelRegistry::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(name);
}

std::vector<uint64_t> ModelRegistry::Versions(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out;
  auto it = entries_.find(name);
  if (it == entries_.end()) return out;
  for (const auto& [v, _] : it->second.versions) out.push_back(v);
  return out;
}

std::vector<std::string> ModelRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, _] : entries_) out.push_back(name);
  return out;
}

void ModelRegistry::EvictLocked(Entry* entry) {
  while (entry->versions.size() > max_versions_) {
    auto oldest = entry->versions.begin();
    if (oldest->first == entry->active) {
      // The active version is pinned; evict the next-oldest instead.
      auto next = std::next(oldest);
      if (next == entry->versions.end()) return;
      entry->versions.erase(next);
    } else {
      entry->versions.erase(oldest);
    }
  }
}

}  // namespace resest
