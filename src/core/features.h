// The operator-level feature model of the paper (Section 5.3, Tables 1 & 2)
// and the feature-dependency table used for normalization when scaling
// (Section 6.1, Table 3).
#ifndef RESEST_CORE_FEATURES_H_
#define RESEST_CORE_FEATURES_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/plan.h"
#include "src/storage/catalog.h"

namespace resest {

/// Resources the framework estimates (paper: CPU time and logical I/O).
enum class Resource { kCpu = 0, kIo = 1 };
inline constexpr int kNumResources = 2;
const char* ResourceName(Resource r);

/// Inverse of ResourceName, case-insensitive ("CPU"/"cpu", "IO"/"io").
/// True (and sets *out) iff `name` matches a resource.
bool ParseResource(const std::string& name, Resource* out);

/// One (operator type, resource) model slot of a ResourceEstimator — the
/// unit of incremental retraining and of the serving cache's slot-version
/// key.
using ModelSlotId = std::pair<OpType, Resource>;
inline constexpr size_t kNumModelSlots =
    static_cast<size_t>(kNumOpTypes) * static_cast<size_t>(kNumResources);

/// All features from Tables 1 and 2. Per-child features (CIN, SINAVG,
/// SINTOT — "1 feature per child") get two slots since operators have at
/// most two children.
enum class FeatureId : int {
  // --- Global features (Table 1) ---
  kCOut = 0,       ///< # output tuples
  kSOutAvg,        ///< avg width of output tuples (bytes)
  kSOutTot,        ///< total bytes output
  kCIn0,           ///< # input tuples, child 0
  kSInAvg0,        ///< avg width of input tuples, child 0
  kSInTot0,        ///< total bytes input, child 0
  kCIn1,           ///< # input tuples, child 1
  kSInAvg1,        ///< avg width of input tuples, child 1
  kSInTot1,        ///< total bytes input, child 1
  kOutputUsage,    ///< operator type of the parent (categorical)
  // --- Operator-specific features (Table 2) ---
  kTSize,          ///< input table size in tuples          (Seek/Scan)
  kPages,          ///< input table size in pages           (Seek/Scan)
  kTColumns,       ///< # columns in a tuple                (Seek/Scan)
  kEstIoCost,      ///< optimizer-estimated I/O cost        (Seek/Scan)
  kIndexDepth,     ///< # index levels in the access path   (Seek)
  kHashOpAvg,      ///< # hashing operations per tuple      (Hash Agg/Join)
  kHashOpTot,      ///< HASHOPAVG x # tuples                (Hash Agg/Join)
  kCHashCol,       ///< # columns involved in hash          (Hash Agg)
  kCInnerCol,      ///< # join columns (inner)              (Joins)
  kCOuterCol,      ///< # join columns (outer)              (Joins)
  kSSeekTable,     ///< # tuples in inner table             (Nested Loop)
  kMinComp,        ///< # tuples x sort columns             (Sort)
  kCSortCol,       ///< # columns involved in sort          (Sort)
  kSInSum,         ///< total bytes input over all children (Merge Join)
  kNumFeatures
};
inline constexpr int kNumFeatures = static_cast<int>(FeatureId::kNumFeatures);

const char* FeatureName(FeatureId f);

/// A raw per-operator feature vector (values indexed by FeatureId).
using FeatureVector = std::array<double, kNumFeatures>;

/// Canonical 64-bit hash of a feature vector, computed over the raw bit
/// patterns of its doubles (FNV-1a). Bitwise hashing keeps the hash
/// consistent with HashEqual below: distinct bit patterns that compare
/// equal under operator== (-0.0 vs +0.0) hash differently on purpose, so
/// equality for hashed containers must be bitwise too.
uint64_t HashFeatureVector(const FeatureVector& v);

/// Bitwise equality companion to HashFeatureVector: true iff every slot has
/// the same bit pattern. Stricter than operator== (-0.0 != +0.0 here, and
/// NaN == NaN); the right notion for memoization keys, where a spurious
/// mismatch costs a cache miss but a spurious match would corrupt results.
bool FeatureVectorHashEqual(const FeatureVector& a, const FeatureVector& b);

/// Whether to populate cardinality-derived features from exact (measured)
/// values or from optimizer estimates (paper Sections 7.1.1 vs 7.1.2).
enum class FeatureMode { kExact, kEstimated };

/// The features applicable to an operator type, in canonical order (model
/// input layout).
const std::vector<FeatureId>& OperatorFeatures(OpType op);

/// Features eligible as scaling features for an operator (numeric,
/// monotonically related to resource usage). For I/O estimation, the paper
/// additionally excludes HASHOP*, C*COL and MINCOMP (Section 6.2,
/// "Non-scaling Features").
std::vector<FeatureId> ScalableFeatures(OpType op, Resource resource);

/// Extracts the feature vector of an executed/annotated plan node.
/// `parent` may be null (root operator).
FeatureVector ExtractFeatures(const PlanNode& node, const PlanNode* parent,
                              const Database& db, FeatureMode mode);

/// Feature dependencies (paper Table 3): Dependents(f) lists the features
/// whose values must be divided by f's value when f is used as a scaling
/// feature. Reconstructed from the feature semantics, since the published
/// table's layout does not survive plain-text extraction (see DESIGN.md).
const std::vector<FeatureId>& Dependents(FeatureId f);

}  // namespace resest

#endif  // RESEST_CORE_FEATURES_H_
