// Per-process write-ahead log for observation rows — the durability layer
// under the incremental retraining loop (ROADMAP: "Durable feedback loop").
//
// Layout on disk: one active file `<dir>/<name>.wal` receives appends; when
// it exceeds WalOptions::segment_bytes it is fsync'd and sealed — renamed to
// the immutable `<dir>/<name>.<seq>.seg` — and a fresh active file with the
// next sequence number is opened. Every file starts with a fixed header
// (magic, format version, sequence number) and then carries length-prefixed,
// CRC32C-checksummed records:
//
//   [u32 payload_len][u32 crc32c(payload)][payload bytes]
//
// Payloads are tagged with a record type: an observation row ((OpType,
// Resource) slot + model version + label + features), a refit marker (a
// slot's log coverage advanced at a publish boundary), or a checkpoint
// snapshot (every slot's coverage at once). Recovery (src/storage/
// recovery.h) replays sealed segments in sequence order and then the active
// tail, stopping cleanly at the first torn or corrupt record.
//
// Write path: Append takes a batch. Its frames are encoded into one reused
// buffer and leave in one write() per run, where a run ends at the record
// after which a one-at-a-time append would fsync (SyncPolicy::kEveryAppend)
// or seal. So a batch writes the same bytes, into the same files, as the
// same records appended one by one, with no heap allocation once the
// buffer has grown to the batch's size.
//
// Crash safety: a record is durable once its bytes reach the file (a killed
// process loses nothing the kernel accepted — only power loss can eat
// unfsync'd page cache), and fully durable once Sync()/Seal() ran. A crash
// mid-write leaves a torn tail: replay keeps the whole records before the
// tear (a prefix of the batch) and Open() truncates the active file back to
// that prefix so new appends never land after garbage.
//
// Fault injection: WalOptions::fault_hook is the deterministic test seam —
// it observes every write/fsync/seal-rename and can inject short writes,
// I/O failures (ENOSPC simulation), or an immediate SIGKILL, which is how
// tests/crash_recovery_test.cc kills real subprocesses mid-append, mid-seal
// and mid-checkpoint. Production leaves it empty; the hook costs one
// branch per call when unset.
//
// Thread safety: none — the owner (IncrementalTrainer) serializes access
// under its own log mutex, which also pins the WAL's record order to the
// in-memory append order (the property recovery's determinism rests on).
#ifndef RESEST_STORAGE_WAL_H_
#define RESEST_STORAGE_WAL_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/features.h"

namespace resest {

/// CRC32C (Castagnoli) of `data`, the checksum guarding every WAL record
/// (portable slice-by-8: eight input bytes per table step).
uint32_t Crc32c(const uint8_t* data, size_t size);

inline constexpr uint32_t kWalMagic = 0x4c415752;  // "RWAL" little-endian
inline constexpr uint32_t kWalFormatVersion = 1;
/// Sanity cap on a record's payload: a corrupt length field must fail
/// validation, not drive a multi-gigabyte allocation.
inline constexpr uint32_t kWalMaxPayloadBytes = 1u << 20;

enum class WalRecordType : uint8_t {
  kObservation = 1,
  kRefitMarker = 2,
  kCheckpoint = 3,
};

/// One observation row: the (operator, resource) slot it feeds, the model
/// version that was serving when it was observed, and the training row.
struct WalObservation {
  OpType op = OpType::kTableScan;
  Resource resource = Resource::kCpu;
  uint64_t model_version = 0;
  double label = 0.0;
  FeatureVector features{};
};

/// A slot's refit coverage advanced at a *published* boundary: rows up to
/// `covered_rows` (lifetime count) are represented by the published model.
struct WalRefitMarker {
  OpType op = OpType::kTableScan;
  Resource resource = Resource::kCpu;
  uint64_t covered_rows = 0;
  double refit_mean = 0.0;
  uint64_t model_version = 0;
};

/// Full coverage snapshot of every slot, written by Checkpoint/drain so a
/// restart need not re-refit work already represented in the saved model.
struct WalCheckpoint {
  uint64_t base_version = 0;
  struct Slot {
    uint64_t covered_rows = 0;
    double refit_mean = 0.0;
  };
  std::array<std::array<Slot, kNumResources>, kNumOpTypes> slots{};
};

/// A decoded record (exactly one member is meaningful, per `type`).
struct WalRecord {
  WalRecordType type = WalRecordType::kObservation;
  WalObservation observation;
  WalRefitMarker refit;
  WalCheckpoint checkpoint;
};

/// Encodes `record` as a payload (no length/CRC framing — the WAL adds it).
void EncodeWalRecord(const WalRecord& record, std::vector<uint8_t>* out);
/// Decodes a payload; false on truncated/unknown input (*out unspecified).
bool DecodeWalRecord(const uint8_t* payload, size_t size, WalRecord* out);

// --- Fault injection -------------------------------------------------------

enum class WalFaultOp {
  kWrite,       ///< About to write() a run of record frames, or a header.
  kSync,        ///< About to fsync() the active file.
  kSealRename,  ///< About to rename() the active file to its segment name.
};

struct WalFaultContext {
  WalFaultOp op = WalFaultOp::kWrite;
  /// Sequence number of the active file the operation targets.
  uint64_t seq = 0;
  /// 1-based count of this operation kind since Open() (per-op counter) —
  /// the usual way tests pick "the Nth append" deterministically.
  uint64_t call_index = 0;
  /// Bytes about to be written (kWrite only).
  size_t bytes = 0;
  /// True when the kWrite is a file header, not a record.
  bool is_header = false;
};

enum class WalFaultAction {
  kProceed,             ///< No fault.
  kShortWrite,          ///< Write ~half the bytes, then fail the append.
  kFail,                ///< Fail without touching the file (ENOSPC-style).
  kCrash,               ///< raise(SIGKILL) — the process dies right here.
  kShortWriteThenCrash, ///< Write ~half the bytes, then raise(SIGKILL):
                        ///< a genuinely torn record on disk.
};

using WalFaultHook = std::function<WalFaultAction(const WalFaultContext&)>;

// --- The log ---------------------------------------------------------------

struct WalOptions {
  /// Active-file size (header + records) beyond which an append seals it
  /// into a segment and starts a fresh file.
  size_t segment_bytes = 4u << 20;
  /// fsync the active file on every append (kEveryAppend) or only at
  /// explicit Sync()/Seal() boundaries (kOnSeal, the default — a SIGKILL
  /// never loses kernel-accepted bytes, so per-append fsync buys protection
  /// only against power loss, at a large latency cost).
  enum class SyncPolicy { kOnSeal, kEveryAppend } sync = SyncPolicy::kOnSeal;
  /// Deterministic fault seam (tests only); empty = no faults.
  WalFaultHook fault_hook;
};

struct WalStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t fsyncs = 0;
  uint64_t segments_sealed = 0;
  uint64_t append_failures = 0;
  /// Torn bytes Open() truncated off the active file's tail.
  uint64_t truncated_tail_bytes = 0;
};

class WriteAheadLog {
 public:
  WriteAheadLog(std::string dir, std::string name, WalOptions options = {});
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Creates `dir` if needed, adopts any existing segments' numbering,
  /// truncates a torn tail off an existing active file, and opens it for
  /// append. False (with *error set) on I/O failure.
  bool Open(std::string* error = nullptr);

  /// Appends `count` records in order (framing + CRC added here), one
  /// write() per run (see the file comment). True when every record was
  /// written (and synced/sealed as the policy asks). False on I/O failure —
  /// after which the log is failed (ok() == false) and further appends
  /// fail fast; what was already on disk stays recoverable. Every record
  /// of the failed write and every record after it counts in
  /// stats().append_failures; a torn write may still leave a prefix of its
  /// whole records on disk, which replay recovers.
  bool Append(const WalRecord* records, size_t count);
  bool Append(const WalRecord& record) { return Append(&record, 1); }

  /// fsyncs the active file.
  bool Sync();

  /// Sync + rename the active file into an immutable segment + open a
  /// fresh active file. A no-op (returning true) when the active file
  /// holds no records yet.
  bool Seal();

  /// False once an append/sync/seal failed; the WAL stops accepting writes
  /// (sticky), preserving the valid on-disk prefix for recovery.
  bool ok() const { return !failed_; }

  const WalStats& stats() const { return stats_; }
  uint64_t active_seq() const { return seq_; }
  size_t active_bytes() const { return active_bytes_; }

 private:
  bool WriteAll(const uint8_t* data, size_t size, bool is_header);
  bool OpenActiveFile(bool fresh, std::string* error);
  WalFaultAction Consult(WalFaultOp op, size_t bytes, bool is_header);
  /// Appends `record`'s frame (length, CRC32C, payload) to frames_.
  void EncodeFrame(const WalRecord& record);

  const std::string dir_;
  const std::string name_;
  const WalOptions options_;

  int fd_ = -1;
  uint64_t seq_ = 0;
  size_t active_bytes_ = 0;
  bool failed_ = false;
  WalStats stats_;
  uint64_t fault_counts_[3] = {0, 0, 0};  ///< Per-WalFaultOp call counters.
  /// One run's encoded frames; cleared, never shrunk, between runs. A run
  /// ends at a seal, so it holds at most segment_bytes plus one record.
  std::vector<uint8_t> frames_;
};

}  // namespace resest

#endif  // RESEST_STORAGE_WAL_H_
