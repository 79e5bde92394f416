// Unit and corruption tests for the observation WAL (src/storage/wal.h,
// segment.h, recovery.h): round-trip encoding, segment sealing, torn-tail
// truncation, and the full corruption matrix — truncated tail, bit-flipped
// CRC, zero-length record, duplicate segment sequence, sequence gap, and a
// segment from a newer format version. Every case must recover the longest
// valid prefix, never crash, and never read past the corruption. Disk-full
// (ENOSPC) is simulated through the fault hook and must fail cleanly while
// keeping the on-disk prefix recoverable. Batched appends must write the
// same files, byte for byte, as the same records appended one at a time.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/serial.h"
#include "src/storage/recovery.h"
#include "src/storage/segment.h"
#include "src/storage/wal.h"
#include "src/training/incremental_trainer.h"

namespace resest {
namespace {

std::string FreshDir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

WalRecord ObsRecord(int i) {
  WalRecord rec;
  rec.type = WalRecordType::kObservation;
  rec.observation.op = static_cast<OpType>(i % kNumOpTypes);
  rec.observation.resource = static_cast<Resource>(i % kNumResources);
  rec.observation.model_version = 7;
  rec.observation.label = 1.5 * i + 0.25;
  rec.observation.features[0] = static_cast<double>(i);
  rec.observation.features[kNumFeatures - 1] = -static_cast<double>(i);
  return rec;
}

struct Replayed {
  std::vector<WalRecord> records;
  RecoveryStats stats;
};

Replayed Replay(const std::string& dir, const std::string& name) {
  Replayed out;
  EXPECT_TRUE(ReplayObservationLog(
      dir, name, [&](const WalRecord& r) { out.records.push_back(r); },
      &out.stats));
  return out;
}

void OverwriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

TEST(Crc32cTest, KnownAnswer) {
  // The CRC-32C check value: crc of the ASCII digits "123456789".
  const char* digits = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t*>(digits), 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

// Bit-at-a-time CRC32C: the definition the sliced table loop must match.
uint32_t BitwiseCrc32c(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32cTest, SliceBy8MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Every length 0..64 at every start offset 0..7 covers each alignment
  // and each tail length (0..7 bytes past the last 8-byte step).
  std::vector<uint8_t> bytes(64 + 8);
  uint32_t x = 0x9E3779B9u;
  for (uint8_t& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      EXPECT_EQ(Crc32c(bytes.data() + offset, length),
                BitwiseCrc32c(bytes.data() + offset, length))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST(WalRecordTest, EncodeDecodeRoundTripsEveryType) {
  WalRecord obs = ObsRecord(3);
  WalRecord marker;
  marker.type = WalRecordType::kRefitMarker;
  marker.refit = {OpType::kHashJoin, Resource::kIo, 123, 4.5, 9};
  WalRecord checkpoint;
  checkpoint.type = WalRecordType::kCheckpoint;
  checkpoint.checkpoint.base_version = 42;
  checkpoint.checkpoint.slots[1][1] = {77, 8.25};

  for (const WalRecord& in : {obs, marker, checkpoint}) {
    std::vector<uint8_t> payload;
    EncodeWalRecord(in, &payload);
    WalRecord out;
    ASSERT_TRUE(DecodeWalRecord(payload.data(), payload.size(), &out));
    EXPECT_EQ(out.type, in.type);
  }
  WalRecord out;
  ASSERT_TRUE(DecodeWalRecord(nullptr, 0, &out) == false);

  std::vector<uint8_t> payload;
  EncodeWalRecord(obs, &payload);
  WalRecord decoded;
  ASSERT_TRUE(DecodeWalRecord(payload.data(), payload.size(), &decoded));
  EXPECT_EQ(decoded.observation.op, obs.observation.op);
  EXPECT_EQ(decoded.observation.resource, obs.observation.resource);
  EXPECT_EQ(decoded.observation.model_version, obs.observation.model_version);
  EXPECT_EQ(decoded.observation.label, obs.observation.label);
  EXPECT_EQ(decoded.observation.features, obs.observation.features);
  // Truncated payloads must fail, not read past the end.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeWalRecord(payload.data(), cut, &decoded));
  }
}

TEST(WalTest, AppendReopenReplayPreservesOrder) {
  const std::string dir = FreshDir("resest_wal_roundtrip");
  {
    WriteAheadLog wal(dir, "log");
    ASSERT_TRUE(wal.Open());
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(wal.Append(ObsRecord(i)));
    ASSERT_TRUE(wal.Sync());
    EXPECT_EQ(wal.stats().records_appended, 10u);
    EXPECT_TRUE(wal.ok());
  }
  const Replayed replay = Replay(dir, "log");
  EXPECT_TRUE(replay.stats.clean());
  ASSERT_EQ(replay.records.size(), 10u);
  EXPECT_EQ(replay.stats.rows_recovered, 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(replay.records[static_cast<size_t>(i)].observation.label,
              ObsRecord(i).observation.label);
  }
  // Reopening appends after the existing records, not over them.
  {
    WriteAheadLog wal(dir, "log");
    ASSERT_TRUE(wal.Open());
    ASSERT_TRUE(wal.Append(ObsRecord(10)));
  }
  EXPECT_EQ(Replay(dir, "log").records.size(), 11u);
}

TEST(WalTest, SealsAtThresholdAndReplaysSegmentsInOrder) {
  const std::string dir = FreshDir("resest_wal_seal");
  WalOptions options;
  options.segment_bytes = 2048;  // a few records per segment
  {
    WriteAheadLog wal(dir, "log", options);
    ASSERT_TRUE(wal.Open());
    for (int i = 0; i < 64; ++i) ASSERT_TRUE(wal.Append(ObsRecord(i)));
    EXPECT_GE(wal.stats().segments_sealed, 2u);
    EXPECT_EQ(wal.active_seq(), wal.stats().segments_sealed + 1);
  }
  const auto segments = ListSegmentFiles(dir, "log");
  ASSERT_GE(segments.size(), 2u);
  for (size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(segments[i].seq, i + 1);
  }
  const Replayed replay = Replay(dir, "log");
  EXPECT_TRUE(replay.stats.clean());
  EXPECT_EQ(replay.stats.segments_replayed, segments.size());
  ASSERT_EQ(replay.records.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(replay.records[static_cast<size_t>(i)].observation.label,
              ObsRecord(i).observation.label);
  }
}

TEST(WalTest, ExplicitSealRollsTheActiveFile) {
  const std::string dir = FreshDir("resest_wal_explicit_seal");
  WriteAheadLog wal(dir, "log");
  ASSERT_TRUE(wal.Open());
  EXPECT_TRUE(wal.Seal());  // empty active file: a no-op
  EXPECT_EQ(wal.stats().segments_sealed, 0u);
  ASSERT_TRUE(wal.Append(ObsRecord(0)));
  EXPECT_TRUE(wal.Seal());
  EXPECT_EQ(wal.stats().segments_sealed, 1u);
  EXPECT_EQ(wal.active_seq(), 2u);
  ASSERT_TRUE(wal.Append(ObsRecord(1)));
  const Replayed replay = Replay(dir, "log");
  EXPECT_TRUE(replay.stats.clean());
  EXPECT_EQ(replay.records.size(), 2u);
}

TEST(WalCorruptionTest, TruncatedTailRecoversLongestValidPrefix) {
  const std::string dir = FreshDir("resest_wal_torn");
  {
    WriteAheadLog wal(dir, "log");
    ASSERT_TRUE(wal.Open());
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(wal.Append(ObsRecord(i)));
  }
  const std::string active = ActiveWalPath(dir, "log");
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(active, &bytes));
  bytes.resize(bytes.size() - 17);  // tear the last record mid-payload
  OverwriteFile(active, bytes);

  const Replayed replay = Replay(dir, "log");
  EXPECT_FALSE(replay.stats.clean());
  EXPECT_EQ(replay.records.size(), 7u);
  EXPECT_GT(replay.stats.bytes_dropped, 0u);
  EXPECT_NE(replay.stats.detail.find("torn"), std::string::npos)
      << replay.stats.detail;

  // Reopening truncates the torn tail so new appends land after record 7.
  {
    WriteAheadLog wal(dir, "log");
    ASSERT_TRUE(wal.Open());
    EXPECT_GT(wal.stats().truncated_tail_bytes, 0u);
    ASSERT_TRUE(wal.Append(ObsRecord(100)));
  }
  const Replayed after = Replay(dir, "log");
  EXPECT_TRUE(after.stats.clean());
  ASSERT_EQ(after.records.size(), 8u);
  EXPECT_EQ(after.records.back().observation.label,
            ObsRecord(100).observation.label);
}

TEST(WalCorruptionTest, BitFlippedCrcStopsReplayAtTheFlip) {
  const std::string dir = FreshDir("resest_wal_bitflip");
  {
    WriteAheadLog wal(dir, "log");
    ASSERT_TRUE(wal.Open());
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(wal.Append(ObsRecord(i)));
  }
  const std::string active = ActiveWalPath(dir, "log");
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(active, &bytes));
  // Flip one payload bit of the 4th record: records 0..2 must survive,
  // 3..7 must be dropped (replay never applies past the first corruption).
  const size_t record_bytes = (bytes.size() - kWalFileHeaderBytes) / 8;
  const size_t flip_at =
      kWalFileHeaderBytes + 3 * record_bytes + kWalRecordFrameBytes + 5;
  bytes[flip_at] ^= 0x40;
  OverwriteFile(active, bytes);

  const Replayed replay = Replay(dir, "log");
  EXPECT_FALSE(replay.stats.clean());
  EXPECT_EQ(replay.records.size(), 3u);
  // 5 records lost; the estimate counts the 4 still-intact frames after
  // the flipped one (the corrupted record itself no longer parses).
  EXPECT_EQ(replay.stats.records_dropped, 4u);
  EXPECT_NE(replay.stats.detail.find("CRC"), std::string::npos)
      << replay.stats.detail;
}

TEST(WalCorruptionTest, ZeroLengthRecordStopsReplay) {
  const std::string dir = FreshDir("resest_wal_zerolen");
  {
    WriteAheadLog wal(dir, "log");
    ASSERT_TRUE(wal.Open());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(wal.Append(ObsRecord(i)));
  }
  const std::string active = ActiveWalPath(dir, "log");
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(active, &bytes));
  // Append an all-zero frame: length 0 must stop the scan, not loop.
  bytes.insert(bytes.end(), kWalRecordFrameBytes, 0);
  OverwriteFile(active, bytes);

  const Replayed replay = Replay(dir, "log");
  EXPECT_FALSE(replay.stats.clean());
  EXPECT_EQ(replay.records.size(), 3u);
  EXPECT_NE(replay.stats.detail.find("zero-length"), std::string::npos)
      << replay.stats.detail;
}

TEST(WalCorruptionTest, ImplausibleLengthStopsReplay) {
  const std::string dir = FreshDir("resest_wal_hugelen");
  {
    WriteAheadLog wal(dir, "log");
    ASSERT_TRUE(wal.Open());
    ASSERT_TRUE(wal.Append(ObsRecord(0)));
  }
  const std::string active = ActiveWalPath(dir, "log");
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(active, &bytes));
  const uint32_t huge = kWalMaxPayloadBytes + 1;
  uint32_t zero = 0;
  bytes.insert(bytes.end(), reinterpret_cast<const uint8_t*>(&huge),
               reinterpret_cast<const uint8_t*>(&huge) + 4);
  bytes.insert(bytes.end(), reinterpret_cast<const uint8_t*>(&zero),
               reinterpret_cast<const uint8_t*>(&zero) + 4);
  OverwriteFile(active, bytes);

  const Replayed replay = Replay(dir, "log");
  EXPECT_FALSE(replay.stats.clean());
  EXPECT_EQ(replay.records.size(), 1u);
  EXPECT_NE(replay.stats.detail.find("implausible"), std::string::npos)
      << replay.stats.detail;
}

TEST(WalCorruptionTest, DuplicateSegmentSequenceStopsBeforeTheDuplicate) {
  const std::string dir = FreshDir("resest_wal_dupseq");
  WalOptions options;
  options.segment_bytes = 1024;
  {
    WriteAheadLog wal(dir, "log", options);
    ASSERT_TRUE(wal.Open());
    for (int i = 0; i < 24; ++i) ASSERT_TRUE(wal.Append(ObsRecord(i)));
  }
  const auto segments = ListSegmentFiles(dir, "log");
  ASSERT_GE(segments.size(), 2u);
  // "log.1.seg" parses to the same sequence as "log.00000001.seg": two
  // files claiming slot 1.
  std::filesystem::copy_file(segments[0].path,
                             std::filesystem::path(dir) / "log.1.seg");

  const Replayed replay = Replay(dir, "log");
  EXPECT_FALSE(replay.stats.clean());
  EXPECT_NE(replay.stats.detail.find("duplicate segment sequence"),
            std::string::npos)
      << replay.stats.detail;
  // Whatever was applied is a prefix of segment 1's records only.
  uint64_t per_segment = 0;
  {
    WalFileScan scan;
    ASSERT_TRUE(ScanWalFile(segments[0].path, &scan));
    per_segment = scan.records.size();
  }
  EXPECT_LE(replay.records.size(), per_segment);
}

TEST(WalCorruptionTest, SegmentSequenceGapDropsEverythingAfterTheGap) {
  const std::string dir = FreshDir("resest_wal_gap");
  WalOptions options;
  options.segment_bytes = 1024;
  uint64_t appended = 0;
  {
    WriteAheadLog wal(dir, "log", options);
    ASSERT_TRUE(wal.Open());
    for (int i = 0; i < 36; ++i) ASSERT_TRUE(wal.Append(ObsRecord(i)));
    appended = wal.stats().records_appended;
  }
  auto segments = ListSegmentFiles(dir, "log");
  ASSERT_GE(segments.size(), 3u);
  WalFileScan first;
  ASSERT_TRUE(ScanWalFile(segments[0].path, &first));
  std::filesystem::remove(segments[1].path);

  const Replayed replay = Replay(dir, "log");
  EXPECT_FALSE(replay.stats.clean());
  EXPECT_NE(replay.stats.detail.find("gap"), std::string::npos)
      << replay.stats.detail;
  // Only the segment(s) before the gap applied; the rest counted as lost.
  EXPECT_EQ(replay.records.size(), first.records.size());
  EXPECT_LT(replay.records.size() + replay.stats.records_dropped, appended + 1);
}

TEST(WalCorruptionTest, NewerFormatVersionIsNeverApplied) {
  const std::string dir = FreshDir("resest_wal_newver");
  {
    WriteAheadLog wal(dir, "log");
    ASSERT_TRUE(wal.Open());
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(wal.Append(ObsRecord(i)));
    ASSERT_TRUE(wal.Seal());
  }
  const auto segments = ListSegmentFiles(dir, "log");
  ASSERT_EQ(segments.size(), 1u);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(segments[0].path, &bytes));
  const uint32_t newer = kWalFormatVersion + 1;
  std::memcpy(bytes.data() + 4, &newer, sizeof(newer));  // header: version
  OverwriteFile(segments[0].path, bytes);

  const Replayed replay = Replay(dir, "log");
  EXPECT_FALSE(replay.stats.clean());
  EXPECT_TRUE(replay.records.empty());
  EXPECT_NE(replay.stats.detail.find("newer"), std::string::npos)
      << replay.stats.detail;
}

TEST(WalCorruptionTest, SegmentRenamedToWrongSequenceIsRejected) {
  const std::string dir = FreshDir("resest_wal_renamed");
  WalOptions options;
  options.segment_bytes = 1024;
  {
    WriteAheadLog wal(dir, "log", options);
    ASSERT_TRUE(wal.Open());
    for (int i = 0; i < 24; ++i) ASSERT_TRUE(wal.Append(ObsRecord(i)));
  }
  auto segments = ListSegmentFiles(dir, "log");
  ASSERT_GE(segments.size(), 2u);
  // Move segment 1 out of the way and give segment 2's file its name: the
  // file header still says seq 2, which must not pass for slot 1.
  std::filesystem::remove(segments[0].path);
  std::filesystem::rename(segments[1].path, segments[0].path);

  const Replayed replay = Replay(dir, "log");
  EXPECT_FALSE(replay.stats.clean());
  EXPECT_TRUE(replay.records.empty());
  EXPECT_NE(replay.stats.detail.find("sequence mismatch"), std::string::npos)
      << replay.stats.detail;
}

TEST(WalFaultTest, DiskFullFailsCleanlyAndKeepsPrefixRecoverable) {
  const std::string dir = FreshDir("resest_wal_diskfull");
  WalOptions options;
  int writes = 0;
  // Every record write after the 5th fails without touching the file —
  // the ENOSPC shape (headers pass so Open() itself succeeds).
  options.fault_hook = [&writes](const WalFaultContext& ctx) {
    if (ctx.op != WalFaultOp::kWrite || ctx.is_header) {
      return WalFaultAction::kProceed;
    }
    return ++writes > 5 ? WalFaultAction::kFail : WalFaultAction::kProceed;
  };
  WriteAheadLog wal(dir, "log", options);
  ASSERT_TRUE(wal.Open());
  int accepted = 0;
  for (int i = 0; i < 10; ++i) accepted += wal.Append(ObsRecord(i)) ? 1 : 0;
  EXPECT_EQ(accepted, 5);
  EXPECT_FALSE(wal.ok());  // sticky: the log stopped accepting writes
  EXPECT_FALSE(wal.Append(ObsRecord(99)));
  EXPECT_GE(wal.stats().append_failures, 5u);

  // The accepted prefix replays cleanly — a full disk corrupts nothing.
  const Replayed replay = Replay(dir, "log");
  EXPECT_TRUE(replay.stats.clean());
  EXPECT_EQ(replay.records.size(), 5u);
}

TEST(WalFaultTest, ShortWriteLeavesATornTailThatOpenTruncates) {
  const std::string dir = FreshDir("resest_wal_shortwrite");
  WalOptions options;
  int writes = 0;
  options.fault_hook = [&writes](const WalFaultContext& ctx) {
    if (ctx.op != WalFaultOp::kWrite || ctx.is_header) {
      return WalFaultAction::kProceed;
    }
    return ++writes == 4 ? WalFaultAction::kShortWrite
                         : WalFaultAction::kProceed;
  };
  {
    WriteAheadLog wal(dir, "log", options);
    ASSERT_TRUE(wal.Open());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(wal.Append(ObsRecord(i)));
    EXPECT_FALSE(wal.Append(ObsRecord(3)));  // torn on disk
    EXPECT_FALSE(wal.ok());
  }
  const Replayed replay = Replay(dir, "log");
  EXPECT_FALSE(replay.stats.clean());
  EXPECT_EQ(replay.records.size(), 3u);

  // A fresh (un-faulted) open truncates the torn bytes and appends cleanly.
  {
    WriteAheadLog wal(dir, "log");
    ASSERT_TRUE(wal.Open());
    EXPECT_GT(wal.stats().truncated_tail_bytes, 0u);
    ASSERT_TRUE(wal.Append(ObsRecord(3)));
  }
  const Replayed after = Replay(dir, "log");
  EXPECT_TRUE(after.stats.clean());
  EXPECT_EQ(after.records.size(), 4u);
}

// --- Batched appends ------------------------------------------------------

size_t FrameBytes(const WalRecord& record) {
  std::vector<uint8_t> payload;
  EncodeWalRecord(record, &payload);
  return kWalRecordFrameBytes + payload.size();
}

// Every file of `dir`, by name.
std::vector<std::pair<std::string, std::vector<uint8_t>>> DirFiles(
    const std::string& dir) {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(ReadFileBytes(entry.path().string(), &bytes));
    files.emplace_back(entry.path().filename().string(), std::move(bytes));
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(WalBatchTest, BatchedAppendsWriteTheSameFilesAsPerRecordAppends) {
  // Mixed record sizes (a refit marker every 17th record), and a segment
  // size that seals every ~11 observations, so seals fall mid-batch.
  std::vector<WalRecord> records;
  for (int i = 0; i < 150; ++i) {
    WalRecord rec = ObsRecord(i);
    if (i % 17 == 5) {
      rec.type = WalRecordType::kRefitMarker;
      rec.refit = {OpType::kSort, Resource::kIo, static_cast<uint64_t>(i),
                   0.5 * i, 3};
    }
    records.push_back(rec);
  }
  const size_t batches[] = {32, 32, 1, 50, 35};  // sums to 150
  for (const auto sync : {WalOptions::SyncPolicy::kOnSeal,
                          WalOptions::SyncPolicy::kEveryAppend}) {
    const bool every = sync == WalOptions::SyncPolicy::kEveryAppend;
    WalOptions options;
    options.sync = sync;
    options.segment_bytes =
        kWalFileHeaderBytes + 10 * FrameBytes(records[0]) + 100;
    const std::string one_dir = FreshDir("resest_wal_batch_one");
    const std::string batch_dir = FreshDir("resest_wal_batch_many");
    WalStats one_stats, batch_stats;
    {
      WriteAheadLog wal(one_dir, "log", options);
      ASSERT_TRUE(wal.Open());
      for (const WalRecord& rec : records) ASSERT_TRUE(wal.Append(rec));
      one_stats = wal.stats();
    }
    {
      WriteAheadLog wal(batch_dir, "log", options);
      ASSERT_TRUE(wal.Open());
      size_t next = 0;
      for (size_t batch : batches) {
        ASSERT_TRUE(wal.Append(records.data() + next, batch));
        next += batch;
      }
      ASSERT_EQ(next, records.size());
      batch_stats = wal.stats();
    }
    EXPECT_GT(batch_stats.segments_sealed, 10u) << every;
    EXPECT_EQ(batch_stats.segments_sealed, one_stats.segments_sealed) << every;
    EXPECT_EQ(batch_stats.records_appended, one_stats.records_appended);
    EXPECT_EQ(batch_stats.bytes_appended, one_stats.bytes_appended);
    // kEveryAppend still fsyncs every record (plus once per seal).
    EXPECT_EQ(batch_stats.fsyncs, one_stats.fsyncs) << every;
    if (every) {
      EXPECT_EQ(batch_stats.fsyncs,
                records.size() + batch_stats.segments_sealed);
    }
    EXPECT_EQ(batch_stats.append_failures, 0u);
    const auto one_files = DirFiles(one_dir);
    const auto batch_files = DirFiles(batch_dir);
    ASSERT_EQ(batch_files.size(), one_files.size()) << every;
    for (size_t f = 0; f < one_files.size(); ++f) {
      EXPECT_EQ(batch_files[f].first, one_files[f].first);
      EXPECT_TRUE(batch_files[f].second == one_files[f].second)
          << batch_files[f].first << " differs (sync every append: " << every
          << ")";
    }
    const Replayed replay = Replay(batch_dir, "log");
    EXPECT_TRUE(replay.stats.clean());
    EXPECT_EQ(replay.records.size(), records.size());
  }
}

TEST(WalBatchTest, ABatchIsOneWriteUntilASealEndsItsRun) {
  const std::string dir = FreshDir("resest_wal_batch_runs");
  const size_t frame = FrameBytes(ObsRecord(0));
  std::vector<size_t> record_writes;
  WalOptions options;
  // The 40th record fills the first file exactly: it seals there.
  options.segment_bytes = kWalFileHeaderBytes + 40 * frame;
  options.fault_hook = [&record_writes](const WalFaultContext& ctx) {
    if (ctx.op == WalFaultOp::kWrite && !ctx.is_header) {
      record_writes.push_back(ctx.bytes);
    }
    return WalFaultAction::kProceed;
  };
  std::vector<WalRecord> records;
  for (int i = 0; i < 64; ++i) records.push_back(ObsRecord(i));
  WriteAheadLog wal(dir, "log", options);
  ASSERT_TRUE(wal.Open());
  ASSERT_TRUE(wal.Append(records.data(), 32));
  ASSERT_TRUE(wal.Append(records.data() + 32, 32));
  EXPECT_EQ(record_writes,
            (std::vector<size_t>{32 * frame, 8 * frame, 24 * frame}));
  EXPECT_EQ(wal.stats().segments_sealed, 1u);
  EXPECT_EQ(wal.stats().records_appended, 64u);
}

TEST(WalFaultTest, FailedBatchIsStickyAndCountsEveryRecord) {
  // The WAL alone: the 2nd record write (the second 32-record batch)
  // fails without touching the file.
  {
    const std::string dir = FreshDir("resest_wal_batch_fail");
    WalOptions options;
    int writes = 0;
    options.fault_hook = [&writes](const WalFaultContext& ctx) {
      if (ctx.op != WalFaultOp::kWrite || ctx.is_header) {
        return WalFaultAction::kProceed;
      }
      return ++writes == 2 ? WalFaultAction::kFail : WalFaultAction::kProceed;
    };
    std::vector<WalRecord> records;
    for (int i = 0; i < 32; ++i) records.push_back(ObsRecord(i));
    WriteAheadLog wal(dir, "log", options);
    ASSERT_TRUE(wal.Open());
    ASSERT_TRUE(wal.Append(records.data(), 32));
    EXPECT_FALSE(wal.Append(records.data(), 32));
    EXPECT_FALSE(wal.ok());
    EXPECT_EQ(wal.stats().append_failures, 32u);
    EXPECT_EQ(wal.stats().records_appended, 32u);
    EXPECT_FALSE(wal.Append(records.data(), 5));  // sticky: fails fast
    EXPECT_EQ(wal.stats().append_failures, 37u);
    const Replayed replay = Replay(dir, "log");
    EXPECT_TRUE(replay.stats.clean());
    EXPECT_EQ(replay.records.size(), 32u);
  }
  // Through the trainer: a batch split by a seal whose second run fails.
  // The first run's 10 rows are written; the other 22 are counted, and
  // memory still takes all 32.
  {
    const std::string dir = FreshDir("resest_wal_batch_fail_trainer");
    std::vector<ObservationRow> rows(32);
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i].op = OpType::kSort;
      rows[i].resource = Resource::kCpu;
      rows[i].features[0] = static_cast<double>(i);
      rows[i].label = 1.0 + static_cast<double>(i);
    }
    WalOptions options;
    options.segment_bytes =
        kWalFileHeaderBytes + 10 * FrameBytes(ObsRecord(0));
    int writes = 0;
    options.fault_hook = [&writes](const WalFaultContext& ctx) {
      if (ctx.op != WalFaultOp::kWrite || ctx.is_header) {
        return WalFaultAction::kProceed;
      }
      return ++writes == 2 ? WalFaultAction::kFail : WalFaultAction::kProceed;
    };
    IncrementalTrainer trainer(TrainOptions{});
    ASSERT_TRUE(trainer.EnableDurability(dir, "log", options));
    trainer.Append(rows.data(), rows.size());
    DurabilityStats stats = trainer.durability_stats();
    EXPECT_FALSE(stats.wal_ok);
    EXPECT_EQ(stats.wal.records_appended, 10u);
    EXPECT_EQ(stats.wal.segments_sealed, 1u);
    EXPECT_EQ(stats.wal.append_failures, 22u);
    EXPECT_EQ(trainer.LogStats(OpType::kSort, Resource::kCpu).rows, 32u);
    trainer.Append(rows.data(), 4);  // sticky: every row counts
    stats = trainer.durability_stats();
    EXPECT_EQ(stats.wal.append_failures, 26u);
    const Replayed replay = Replay(dir, "log");
    EXPECT_TRUE(replay.stats.clean());
    EXPECT_EQ(replay.records.size(), 10u);
  }
}

TEST(WalRecoveryTest, MissingDirectoryIsACleanEmptyReplay) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "resest_wal_never_created";
  std::filesystem::remove_all(dir);
  const Replayed replay = Replay(dir.string(), "log");
  EXPECT_TRUE(replay.stats.clean());
  EXPECT_TRUE(replay.records.empty());
}

}  // namespace
}  // namespace resest
