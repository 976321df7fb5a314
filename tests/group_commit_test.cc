// Tests for OperationLog group commit: batching/linger knobs, durable
// acks, failure poisoning, the v2 full-record checksum, and a
// TSan-targeted multi-writer stress.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/oplog.h"
#include "obs/metrics.h"

namespace promises {
namespace {

class TempLogFile {
 public:
  explicit TempLogFile(const std::string& tag)
      : path_("/tmp/promises_gclog_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log") {
    std::remove(path_.c_str());
  }
  ~TempLogFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(GroupCommitTest, SyncPathIsDurableImmediately) {
  TempLogFile file("sync");
  SimulatedClock clock(500);
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  // No writer running: AppendOperation degrades to the sync path.
  auto seq = log.AppendOperation(&clock, "<a/>", 7);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(*seq, 1u);
  EXPECT_TRUE(log.WaitDurable(*seq).ok());
  log.Close();

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].sequence, 1u);
  EXPECT_EQ((*records)[0].timestamp, 500);
  EXPECT_EQ((*records)[0].promise_id, 7u);
  EXPECT_EQ((*records)[0].payload, "<a/>");
}

TEST(GroupCommitTest, FullBatchFlushesAsOneGroup) {
  TempLogFile file("batch");
  SimulatedClock clock(0);  // never advanced: the linger cannot expire
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  GroupCommitConfig config;
  config.mode = DurabilityMode::kGroup;
  config.max_batch = 8;
  config.max_delay_ms = 1'000'000;  // effectively: flush only when full
  ASSERT_TRUE(log.StartGroupCommit(config, &clock).ok());

  Counter* groups =
      MetricsRegistry::Global().GetCounter("promises_oplog_groups_total");
  uint64_t groups_before = groups->Value();

  // Fill exactly one batch from concurrent committers; the writer must
  // coalesce all 8 records into a single flush.
  std::vector<std::thread> committers;
  std::atomic<int> failures{0};
  for (int i = 0; i < 8; ++i) {
    committers.emplace_back([&log, &clock, &failures, i] {
      auto seq = log.AppendOperation(
          &clock, "<r i=\"" + std::to_string(i) + "\"/>", 0);
      if (!seq.ok() || !log.WaitDurable(*seq).ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& t : committers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(groups->Value(), groups_before + 1);
  log.Close();

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 8u);
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].sequence, i + 1);  // dense, monotone
  }
}

TEST(GroupCommitTest, MaxDelayLingerFlushesOnInjectedClockAdvance) {
  TempLogFile file("linger");
  SimulatedClock clock(0);
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  GroupCommitConfig config;
  config.mode = DurabilityMode::kGroup;
  config.max_batch = 1024;  // never fills
  config.max_delay_ms = 50;
  ASSERT_TRUE(log.StartGroupCommit(config, &clock).ok());

  auto seq = log.AppendOperation(&clock, "<lingering/>", 0);
  ASSERT_TRUE(seq.ok());
  // The group is held open while the injected clock stands still;
  // advancing it past the delay releases the flush.
  std::thread waiter([&log, &seq] {
    EXPECT_TRUE(log.WaitDurable(*seq).ok());
  });
  clock.Advance(51);
  waiter.join();
  log.Close();
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

TEST(GroupCommitTest, AsyncModeAcksWithoutWaitingAndFlushesOnClose) {
  TempLogFile file("async");
  SimulatedClock clock(0);
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  GroupCommitConfig config;
  config.mode = DurabilityMode::kAsync;
  config.max_batch = 1024;
  config.max_delay_ms = 1'000'000;  // nothing forces a flush...
  ASSERT_TRUE(log.StartGroupCommit(config, &clock).ok());
  for (int i = 0; i < 5; ++i) {
    auto seq = log.AppendOperation(&clock, "<fire-and-forget/>", 0);
    ASSERT_TRUE(seq.ok());
    EXPECT_TRUE(log.WaitDurable(*seq).ok());  // returns immediately
  }
  log.Close();  // ...except the drain on close
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 5u);
}

TEST(GroupCommitTest, TornGroupWriteFailsCommittersAndPoisonsLog) {
  TempLogFile file("torn_group");
  SimulatedClock clock(0);
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  ASSERT_TRUE(log.Append(1, "<durable/>").ok());
  GroupCommitConfig config;
  config.mode = DurabilityMode::kGroup;
  ASSERT_TRUE(log.StartGroupCommit(config, &clock).ok());

  log.InjectTornWrite(4);  // the whole next group tears after 4 bytes
  auto seq = log.AppendOperation(&clock, "<lost/>", 0);
  ASSERT_TRUE(seq.ok());  // sequencing succeeded...
  Status st = log.WaitDurable(*seq);
  ASSERT_FALSE(st.ok());  // ...durability did not
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();

  // The log is poisoned: no record may land past the torn tail, where
  // the recovery scan could never reach it.
  EXPECT_FALSE(log.AppendOperation(&clock, "<after/>", 0).ok());
  log.Close();

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "<durable/>");
}

TEST(GroupCommitTest, DropToSyncFallbackAfterWriterStops) {
  TempLogFile file("fallback");
  SimulatedClock clock(0);
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  GroupCommitConfig config;
  config.mode = DurabilityMode::kGroup;
  ASSERT_TRUE(log.StartGroupCommit(config, &clock).ok());
  auto s1 = log.AppendOperation(&clock, "<grouped/>", 0);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(log.WaitDurable(*s1).ok());
  log.StopGroupCommit();
  // Appends keep working synchronously; sequence numbering continues.
  auto s2 = log.AppendOperation(&clock, "<synced/>", 0);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, *s1 + 1);
  EXPECT_TRUE(log.WaitDurable(*s2).ok());
  log.Close();
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

// --- Record format: v2 checksum coverage ---------------------------------

TEST(GroupCommitTest, CorruptedTimestampFieldFailsVerification) {
  // A checksum over the payload alone would let a flipped digit in the
  // timestamp header replay with a wrong clock. v2 folds every header
  // field into the hash.
  TempLogFile file("hdr_corrupt");
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    ASSERT_TRUE(log.Append(123456, "<a/>").ok());
  }
  // Rewrite the file with the timestamp digits tampered.
  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  std::FILE* f = std::fopen(file.path().c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(4096, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  size_t pos = contents.find("123456");
  ASSERT_NE(pos, std::string::npos);
  contents[pos] = '9';
  f = std::fopen(file.path().c_str(), "wb");
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);

  records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 0u);  // header tampering is detected
}

TEST(GroupCommitTest, SequenceRegressionEndsScan) {
  TempLogFile file("seq_regress");
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(file.path()).ok());
    ASSERT_TRUE(log.Append(1, "<a/>").ok());
    ASSERT_TRUE(log.Append(2, "<b/>").ok());
  }
  // Duplicate the first (seq=1) line after the second: a regressed
  // sequence must end the scan even though its checksum is intact.
  std::FILE* f = std::fopen(file.path().c_str(), "rb");
  std::string contents(4096, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  std::string first_line = contents.substr(0, contents.find('\n') + 1);
  f = std::fopen(file.path().c_str(), "ab");
  std::fwrite(first_line.data(), 1, first_line.size(), f);
  std::fclose(f);

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

// --- Multi-writer stress (TSan target) ----------------------------------

TEST(GroupCommitConcurrencyTest, MultiWriterStressKeepsEveryAckedRecord) {
  TempLogFile file("stress");
  SystemClock clock;
  OperationLog log;
  ASSERT_TRUE(log.Open(file.path()).ok());
  GroupCommitConfig config;
  config.mode = DurabilityMode::kGroup;
  config.max_batch = 32;
  config.queue_capacity = 64;  // small: exercises backpressure
  ASSERT_TRUE(log.StartGroupCommit(config, &clock).ok());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> acked{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&log, &clock, &acked, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto seq = log.AppendOperation(
            &clock,
            "<op t=\"" + std::to_string(t) + "\" i=\"" + std::to_string(i) +
                "\"/>",
            static_cast<uint64_t>(t * kOpsPerThread + i + 1));
        if (seq.ok() && log.WaitDurable(*seq).ok()) {
          acked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  log.Close();
  EXPECT_EQ(acked.load(), kThreads * kOpsPerThread);

  auto records = OperationLog::ReadAll(file.path());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), static_cast<size_t>(kThreads * kOpsPerThread));
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].sequence, i + 1);  // dense and monotone
  }
}

}  // namespace
}  // namespace promises
