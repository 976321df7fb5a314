#include "core/oplog.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace promises {

namespace {

struct OplogMetrics {
  Counter* records_total;
  Counter* groups_total;
  Counter* append_errors_total;
  Counter* truncations_total;
  Counter* compacted_bytes_total;
  Counter* scan_discarded_bytes_total;
  // The registry has no label support: one counter per stop reason,
  // reason encoded in the name (oplog_scan_stopped_total{reason}).
  Counter* scan_stopped_eof;
  Counter* scan_stopped_torn_tail;
  Counter* scan_stopped_bad_record;
  Counter* scan_stopped_sequence_regression;
  Gauge* queue_depth;
  Histogram* group_size;
  Histogram* commit_wait_us;
};

OplogMetrics& Metrics() {
  static OplogMetrics m = [] {
    auto& reg = MetricsRegistry::Global();
    return OplogMetrics{
        reg.GetCounter("promises_oplog_records_total"),
        reg.GetCounter("promises_oplog_groups_total"),
        reg.GetCounter("promises_oplog_append_errors_total"),
        reg.GetCounter("promises_oplog_truncations_total"),
        reg.GetCounter("promises_oplog_compacted_bytes_total"),
        reg.GetCounter("promises_oplog_scan_discarded_bytes_total"),
        reg.GetCounter("promises_oplog_scan_stopped_total_eof"),
        reg.GetCounter("promises_oplog_scan_stopped_total_torn_tail"),
        reg.GetCounter("promises_oplog_scan_stopped_total_bad_record"),
        reg.GetCounter(
            "promises_oplog_scan_stopped_total_sequence_regression"),
        reg.GetGauge("promises_oplog_queue_depth"),
        reg.GetHistogram("promises_oplog_group_size",
                         {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
        reg.GetHistogram("promises_oplog_commit_wait_us"),
    };
  }();
  return m;
}

Counter* StopReasonCounter(ScanStopReason reason) {
  switch (reason) {
    case ScanStopReason::kEndOfFile: return Metrics().scan_stopped_eof;
    case ScanStopReason::kTornTail: return Metrics().scan_stopped_torn_tail;
    case ScanStopReason::kBadRecord: return Metrics().scan_stopped_bad_record;
    case ScanStopReason::kSequenceRegression:
      return Metrics().scan_stopped_sequence_regression;
  }
  return Metrics().scan_stopped_eof;
}

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t FnvFold(uint32_t sum, std::string_view bytes) {
  for (unsigned char c : bytes) {
    sum ^= c;
    sum *= 16777619u;
  }
  return sum;
}

enum class ParseStatus { kOk, kBadRecord, kSequenceRegression };

// Parses one "v2|" log line given the sequence of the previous intact
// record.
ParseStatus ParseLine(std::string_view line, uint64_t prev_sequence,
                      LogRecord* out) {
  if (line.rfind("v2|", 0) != 0) return ParseStatus::kBadRecord;
  line.remove_prefix(3);
  constexpr size_t kFields = 5;  // separators before the payload
  size_t cuts[kFields];
  size_t pos = 0;
  for (size_t i = 0; i < kFields; ++i) {
    pos = line.find('|', pos);
    if (pos == std::string_view::npos) return ParseStatus::kBadRecord;
    cuts[i] = pos++;
  }
  auto field = [&](size_t i) {
    size_t begin = i == 0 ? 0 : cuts[i - 1] + 1;
    return line.substr(begin, cuts[i] - begin);
  };
  Result<int64_t> length = ParseInt64(field(0));
  Result<int64_t> checksum = ParseInt64(field(1));
  Result<int64_t> sequence = ParseInt64(field(2));
  Result<int64_t> timestamp = ParseInt64(field(3));
  Result<int64_t> promise_id = ParseInt64(field(4));
  if (!length.ok() || !checksum.ok() || !sequence.ok() || !timestamp.ok() ||
      !promise_id.ok()) {
    return ParseStatus::kBadRecord;
  }
  std::string_view payload = line.substr(cuts[kFields - 1] + 1);
  if (static_cast<int64_t>(payload.size()) != *length) {
    return ParseStatus::kBadRecord;
  }
  std::string body(payload);
  if (OperationLog::RecordChecksum(body.size(),
                                   static_cast<uint64_t>(*sequence),
                                   *timestamp,
                                   static_cast<uint64_t>(*promise_id),
                                   body) != static_cast<uint32_t>(*checksum)) {
    return ParseStatus::kBadRecord;
  }
  // Sequence regression means the tail was written against a state
  // recovery cannot have reached; treat it as corruption.
  if (static_cast<uint64_t>(*sequence) <= prev_sequence) {
    return ParseStatus::kSequenceRegression;
  }
  out->sequence = static_cast<uint64_t>(*sequence);
  out->timestamp = *timestamp;
  out->promise_id = static_cast<uint64_t>(*promise_id);
  out->payload = std::move(body);
  return ParseStatus::kOk;
}

// Compaction marker checksum: FNV over the three numeric fields.
uint32_t MarkerChecksum(uint64_t lsn, Timestamp timestamp,
                        uint64_t watermark) {
  return OperationLog::Checksum(std::to_string(lsn) + "|" +
                                std::to_string(timestamp) + "|" +
                                std::to_string(watermark));
}

std::string EncodeMarker(uint64_t lsn, Timestamp timestamp,
                         uint64_t watermark) {
  return "trunc|" + std::to_string(lsn) + "|" + std::to_string(timestamp) +
         "|" + std::to_string(watermark) + "|" +
         std::to_string(MarkerChecksum(lsn, timestamp, watermark)) + "\n";
}

// Parses `trunc|<lsn>|<timestamp>|<watermark>|<checksum>`. Only valid
// at file offset zero; anywhere else it is an ordinary bad record.
bool ParseMarker(std::string_view line, uint64_t* lsn, Timestamp* timestamp,
                 uint64_t* watermark) {
  if (line.rfind("trunc|", 0) != 0) return false;
  auto fields = Split(line.substr(6), '|');
  if (fields.size() != 4) return false;
  Result<int64_t> l = ParseInt64(fields[0]);
  Result<int64_t> ts = ParseInt64(fields[1]);
  Result<int64_t> wm = ParseInt64(fields[2]);
  Result<int64_t> sum = ParseInt64(fields[3]);
  if (!l.ok() || !ts.ok() || !wm.ok() || !sum.ok()) return false;
  if (MarkerChecksum(static_cast<uint64_t>(*l), *ts,
                     static_cast<uint64_t>(*wm)) !=
      static_cast<uint32_t>(*sum)) {
    return false;
  }
  *lsn = static_cast<uint64_t>(*l);
  *timestamp = *ts;
  *watermark = static_cast<uint64_t>(*wm);
  return true;
}

// fsync the file at `path` (data + metadata: a truncation changes the
// size) and then its directory, so the change survives a crash.
Status SyncFileAndDir(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::Unavailable("cannot open '" + path +
                               "' for fsync: " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    Status st = Status::Unavailable("fsync('" + path +
                                    "') failed: " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  ::close(fd);
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0) {
    return Status::Unavailable("cannot open directory '" + dir +
                               "' for fsync: " + std::strerror(errno));
  }
  if (::fsync(dfd) != 0) {
    Status st = Status::Unavailable("fsync('" + dir +
                                    "') failed: " + std::strerror(errno));
    ::close(dfd);
    return st;
  }
  ::close(dfd);
  return Status::OK();
}

std::string ReadWholeFile(std::FILE* f) {
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  return contents;
}

// Single streaming pass over the log file at `path`: intact records
// are appended to `records` (when non-null) and the stats report the
// clean-prefix length, stop reason and discarded bytes. Missing file:
// exists=false, zero records. A compaction marker at offset zero
// seeds the sequence base / timestamp / promise-id watermark.
LogScanStats ScanLog(const std::string& path,
                     std::vector<LogRecord>* records) {
  LogScanStats stats;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return stats;
  stats.exists = true;
  std::string contents = ReadWholeFile(f);
  std::fclose(f);
  stats.total_bytes = contents.size();

  size_t pos = 0;
  bool at_offset_zero = true;
  while (pos < contents.size()) {
    size_t eol = contents.find('\n', pos);
    if (eol == std::string::npos) {
      stats.stop_reason = ScanStopReason::kTornTail;
      break;
    }
    std::string_view line(contents.data() + pos, eol - pos);
    if (at_offset_zero && line.rfind("trunc|", 0) == 0) {
      uint64_t lsn = 0, watermark = 0;
      Timestamp timestamp = 0;
      if (!ParseMarker(line, &lsn, &timestamp, &watermark)) {
        stats.stop_reason = ScanStopReason::kBadRecord;
        break;
      }
      stats.base_sequence = lsn;
      stats.last_sequence = lsn;
      stats.last_timestamp = timestamp;
      stats.max_promise_id = watermark;
      at_offset_zero = false;
      pos = eol + 1;
      stats.valid_bytes = pos;
      continue;
    }
    at_offset_zero = false;
    LogRecord record;
    ParseStatus parsed = ParseLine(line, stats.last_sequence, &record);
    if (parsed != ParseStatus::kOk) {
      stats.stop_reason = parsed == ParseStatus::kSequenceRegression
                              ? ScanStopReason::kSequenceRegression
                              : ScanStopReason::kBadRecord;
      break;
    }
    stats.last_sequence = record.sequence;
    stats.last_timestamp = std::max(stats.last_timestamp, record.timestamp);
    stats.max_promise_id = std::max(stats.max_promise_id, record.promise_id);
    if (records != nullptr) records->push_back(std::move(record));
    pos = eol + 1;
    stats.valid_bytes = pos;
  }
  stats.discarded_bytes = stats.total_bytes - stats.valid_bytes;

  // Is the stop a torn tail or mid-log corruption? A record that
  // regressed the sequence is itself intact evidence; after a bad
  // record, look for any later checksum-valid line (sequence
  // continuity deliberately ignored: intact bytes past the stop point
  // are the signal, whatever their numbering).
  if (stats.stop_reason == ScanStopReason::kSequenceRegression) {
    stats.valid_beyond_stop = true;
  } else if (stats.stop_reason == ScanStopReason::kBadRecord) {
    size_t scan_pos = contents.find('\n', stats.valid_bytes);
    while (scan_pos != std::string::npos && !stats.valid_beyond_stop) {
      ++scan_pos;
      size_t eol = contents.find('\n', scan_pos);
      if (eol == std::string::npos) break;
      std::string_view line(contents.data() + scan_pos, eol - scan_pos);
      LogRecord ignored;
      if (ParseLine(line, 0, &ignored) == ParseStatus::kOk) {
        stats.valid_beyond_stop = true;
      }
      scan_pos = eol;
    }
  }

  StopReasonCounter(stats.stop_reason)->Increment();
  if (stats.discarded_bytes > 0) {
    Metrics().scan_discarded_bytes_total->Increment(
        static_cast<int64_t>(stats.discarded_bytes));
  }
  return stats;
}

}  // namespace

std::string_view ScanStopReasonToString(ScanStopReason reason) {
  switch (reason) {
    case ScanStopReason::kEndOfFile: return "eof";
    case ScanStopReason::kTornTail: return "torn_tail";
    case ScanStopReason::kBadRecord: return "bad_record";
    case ScanStopReason::kSequenceRegression: return "sequence_regression";
  }
  return "unknown";
}

OperationLog::~OperationLog() { Close(); }

Status OperationLog::Open(const std::string& path,
                          bool allow_mid_log_corruption) {
  Close();
  return OpenScanned(path, ScanLog(path, nullptr), allow_mid_log_corruption);
}

Status OperationLog::Open(const std::string& path, const LogScanStats& scan,
                          bool allow_mid_log_corruption) {
  Close();
  // The caller's scan stands in for a fresh one only while the file is
  // still the one it read; any change in existence or size rescans.
  struct stat st {};
  const bool exists = ::stat(path.c_str(), &st) == 0;
  if (exists != scan.exists ||
      (exists && static_cast<size_t>(st.st_size) != scan.total_bytes)) {
    return OpenScanned(path, ScanLog(path, nullptr), allow_mid_log_corruption);
  }
  return OpenScanned(path, scan, allow_mid_log_corruption);
}

Status OperationLog::OpenScanned(const std::string& path,
                                 const LogScanStats& scan,
                                 bool allow_mid_log_corruption) {
  // Truncate any torn tail before appending: a record written after a
  // partial line would be unreachable to recovery (the scan stops at
  // the tear), silently losing committed operations.
  if (scan.exists && scan.valid_beyond_stop && !allow_mid_log_corruption) {
    return Status::DataLoss(
        "log '" + path + "' scan stopped (" +
        std::string(ScanStopReasonToString(scan.stop_reason)) + ", " +
        std::to_string(scan.discarded_bytes) +
        " bytes discarded) with checksum-valid records beyond the stop "
        "point: mid-log corruption, refusing to truncate over it");
  }
  if (scan.exists && scan.total_bytes > scan.valid_bytes) {
    if (::truncate(path.c_str(), static_cast<off_t>(scan.valid_bytes)) != 0) {
      return Status::Unavailable("cannot truncate torn log '" + path +
                                 "': " + std::strerror(errno));
    }
    // Make the truncation itself durable: without the fsync a crash
    // after truncate-then-append can resurrect the discarded torn
    // bytes under the new records and corrupt the next recovery.
    PROMISES_RETURN_IF_ERROR(SyncFileAndDir(path));
  }
  std::lock_guard<std::mutex> lock(mu_);
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Unavailable("cannot open log '" + path +
                               "': " + std::strerror(errno));
  }
  path_ = path;
  next_sequence_ = scan.last_sequence + 1;
  durable_sequence_ = scan.last_sequence;
  promise_id_watermark_ = scan.max_promise_id;
  last_timestamp_ = scan.last_timestamp;
  failed_ = Status::OK();
  return Status::OK();
}

void OperationLog::Close() {
  StopGroupCommit();
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool OperationLog::IsOpen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_ != nullptr;
}

void OperationLog::Abandon() {
  bool join_writer = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Poison first: blocked appenders and WaitDurable callers must see
    // a failure, not a success, for the records the crash ate — their
    // clients re-send and the recovered world re-executes them.
    failed_ = Status::Unavailable("log abandoned (simulated crash)");
    queue_.clear();
    if (writer_running_) {
      stopping_ = true;
      join_writer = true;
    }
  }
  work_cv_.notify_all();
  durable_cv_.notify_all();
  space_cv_.notify_all();
  if (join_writer && writer_.joinable()) writer_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    writer_running_ = false;
    stopping_ = false;
    config_.mode = DurabilityMode::kSync;
    if (file_ != nullptr) {
      // No unflushed stdio data can exist here: every written group
      // ends in fflush, and the queue above was dropped unwritten.
      std::fclose(file_);
      file_ = nullptr;
    }
  }
  durable_cv_.notify_all();
  space_cv_.notify_all();
}

Status OperationLog::StartGroupCommit(const GroupCommitConfig& config,
                                      Clock* clock) {
  if (clock == nullptr) {
    return Status::InvalidArgument("group commit needs a clock");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("operation log is not open");
  }
  if (writer_running_) {
    return Status::FailedPrecondition("group-commit writer already running");
  }
  config_ = config;
  config_.max_batch = std::max<size_t>(1, config_.max_batch);
  config_.queue_capacity = std::max<size_t>(1, config_.queue_capacity);
  clock_ = clock;
  if (config_.mode == DurabilityMode::kSync) return Status::OK();
  stopping_ = false;
  writer_running_ = true;
  writer_ = std::thread([this] { WriterLoop(); });
  return Status::OK();
}

void OperationLog::StopGroupCommit() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!writer_running_) {
      config_.mode = DurabilityMode::kSync;
      return;
    }
    stopping_ = true;
  }
  work_cv_.notify_all();
  writer_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    writer_running_ = false;
    stopping_ = false;
    config_.mode = DurabilityMode::kSync;
  }
  durable_cv_.notify_all();
  space_cv_.notify_all();
}

uint32_t OperationLog::Checksum(const std::string& payload) {
  return FnvFold(2166136261u, payload);  // FNV-1a
}

uint32_t OperationLog::RecordChecksum(size_t length, uint64_t sequence,
                                      Timestamp timestamp,
                                      uint64_t promise_id,
                                      const std::string& payload) {
  uint32_t sum = FnvFold(2166136261u, std::to_string(length));
  sum = FnvFold(sum, "|");
  sum = FnvFold(sum, std::to_string(sequence));
  sum = FnvFold(sum, "|");
  sum = FnvFold(sum, std::to_string(timestamp));
  sum = FnvFold(sum, "|");
  sum = FnvFold(sum, std::to_string(promise_id));
  sum = FnvFold(sum, "|");
  return FnvFold(sum, payload);
}

std::string OperationLog::EncodeRecord(uint64_t sequence,
                                       Timestamp timestamp,
                                       uint64_t promise_id,
                                       const std::string& payload) {
  return "v2|" + std::to_string(payload.size()) + "|" +
         std::to_string(
             RecordChecksum(payload.size(), sequence, timestamp, promise_id,
                            payload)) +
         "|" + std::to_string(sequence) + "|" + std::to_string(timestamp) +
         "|" + std::to_string(promise_id) + "|" + payload + "\n";
}

Status OperationLog::WriteBuffer(const std::string& buf,
                                 bool use_fdatasync) {
  size_t torn = torn_write_bytes_.exchange(kNoTornWrite,
                                           std::memory_order_acq_rel);
  if (torn != kNoTornWrite) {
    size_t bytes = std::min(torn, buf.size());
    if (bytes > 0) std::fwrite(buf.data(), 1, bytes, file_);
    std::fflush(file_);
    return Status::Unavailable("injected crash mid-append (" +
                               std::to_string(bytes) + " of " +
                               std::to_string(buf.size()) +
                               " bytes reached the log)");
  }
  if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size()) {
    return Status::Unavailable("log append failed");
  }
  if (std::fflush(file_) != 0) {
    return Status::Unavailable("log flush failed");
  }
  if (use_fdatasync && ::fdatasync(fileno(file_)) != 0) {
    return Status::Unavailable(std::string("log fdatasync failed: ") +
                               std::strerror(errno));
  }
  return Status::OK();
}

Result<uint64_t> OperationLog::AppendSyncLocked(Timestamp timestamp,
                                                uint64_t promise_id,
                                                const std::string& payload) {
  uint64_t sequence = next_sequence_++;
  last_timestamp_ = std::max(last_timestamp_, timestamp);
  promise_id_watermark_ = std::max(promise_id_watermark_, promise_id);
  Status st = WriteBuffer(EncodeRecord(sequence, timestamp, promise_id,
                                       payload),
                          config_.use_fdatasync);
  if (!st.ok()) {
    // Poison the log: any record written after a torn tail would be
    // unreachable to recovery's prefix scan.
    failed_ = st;
    Metrics().append_errors_total->Increment();
    return st;
  }
  durable_sequence_ = sequence;
  Metrics().records_total->Increment();
  Metrics().groups_total->Increment();
  Metrics().group_size->Observe(1);
  return sequence;
}

Result<uint64_t> OperationLog::EnqueueLocked(
    std::unique_lock<std::mutex>& lock, Timestamp timestamp,
    uint64_t promise_id, const std::string& payload) {
  space_cv_.wait(lock, [this] {
    return queue_.size() < config_.queue_capacity || !failed_.ok() ||
           !writer_running_;
  });
  if (!failed_.ok()) return failed_;
  if (!writer_running_) {
    // Drop-to-sync fallback: the writer stopped while we waited.
    return AppendSyncLocked(timestamp, promise_id, payload);
  }
  uint64_t sequence = next_sequence_++;
  last_timestamp_ = std::max(last_timestamp_, timestamp);
  promise_id_watermark_ = std::max(promise_id_watermark_, promise_id);
  queue_.push_back(Pending{sequence,
                           EncodeRecord(sequence, timestamp, promise_id,
                                        payload),
                           clock_->Now()});
  Metrics().queue_depth->Set(static_cast<int64_t>(queue_.size()));
  // Wake the writer only at the transitions it acts on: work arriving
  // on an empty queue, or a batch filling during the formation window.
  // Intermediate enqueues would wake it just to re-check a predicate
  // that cannot have flipped — pure scheduling overhead on the commit
  // path.
  if (queue_.size() == 1 || queue_.size() >= config_.max_batch) {
    work_cv_.notify_one();
  }
  return sequence;
}

Status OperationLog::Append(Timestamp timestamp,
                            const std::string& payload) {
  if (payload.find('\n') != std::string::npos) {
    return Status::InvalidArgument("log payload must be single-line");
  }
  uint64_t sequence = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (file_ == nullptr) {
      return Status::FailedPrecondition("operation log is not open");
    }
    if (!failed_.ok()) return failed_;
    Result<uint64_t> seq =
        writer_running_ ? EnqueueLocked(lock, timestamp, /*promise_id=*/0,
                                        payload)
                        : AppendSyncLocked(timestamp, /*promise_id=*/0,
                                           payload);
    PROMISES_RETURN_IF_ERROR(seq.status());
    sequence = *seq;
  }
  return WaitDurable(sequence);
}

Result<uint64_t> OperationLog::AppendOperation(Clock* clock,
                                               const std::string& payload,
                                               uint64_t promise_id) {
  if (payload.find('\n') != std::string::npos) {
    return Status::InvalidArgument("log payload must be single-line");
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("operation log is not open");
  }
  if (!failed_.ok()) return failed_;
  // The timestamp is read inside the sequencing critical section so
  // it is monotone in log order — replay advances the clock per
  // record and must never travel backwards.
  Timestamp now = clock != nullptr ? clock->Now() : 0;
  return writer_running_ ? EnqueueLocked(lock, now, promise_id, payload)
                         : AppendSyncLocked(now, promise_id, payload);
}

Status OperationLog::WaitDurable(uint64_t sequence) {
  int64_t start_us = SteadyNowUs();
  std::unique_lock<std::mutex> lock(mu_);
  if (config_.mode == DurabilityMode::kAsync) {
    // Fire-and-forget: the caller explicitly opted out of the ack.
    return Status::OK();
  }
  durable_cv_.wait(lock, [this, sequence] {
    return durable_sequence_ >= sequence || !failed_.ok() ||
           !writer_running_;
  });
  Metrics().commit_wait_us->Observe(SteadyNowUs() - start_us);
  if (durable_sequence_ >= sequence) return Status::OK();
  if (!failed_.ok()) return failed_;
  return Status::Unavailable("group-commit writer stopped before record " +
                             std::to_string(sequence) + " became durable");
}

void OperationLog::KickFlush() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Nothing queued means everything sequenced is written or in the
    // writer's hands already; setting the kick would only rob the NEXT
    // group of its formation window.
    if (!writer_running_ || queue_.empty()) return;
    kick_ = true;
  }
  work_cv_.notify_all();
}

Result<LogCut> OperationLog::CutPoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("operation log is not open");
  }
  if (!failed_.ok()) return failed_;
  LogCut cut;
  cut.sequence = next_sequence_ - 1;
  cut.last_timestamp = last_timestamp_;
  cut.promise_id_watermark = promise_id_watermark_;
  return cut;
}

Status OperationLog::TruncateBefore(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("operation log is not open");
  }
  if (!failed_.ok()) return failed_;
  if (lsn > durable_sequence_) {
    return Status::FailedPrecondition(
        "cannot compact before LSN " + std::to_string(lsn) +
        ": durable prefix ends at " + std::to_string(durable_sequence_));
  }
  // Quiesce the writer's unlocked IO window. Queued records are
  // untouched — they all have sequence > durable_sequence_ >= lsn.
  durable_cv_.wait(lock, [this] { return !io_in_flight_; });
  if (!failed_.ok()) return failed_;

  std::FILE* in = std::fopen(path_.c_str(), "rb");
  if (in == nullptr) {
    return Status::Unavailable("cannot reread log '" + path_ +
                               "': " + std::strerror(errno));
  }
  std::string contents = ReadWholeFile(in);
  std::fclose(in);

  // Walk the records to find the tail offset and the marker fields:
  // the marker inherits the max timestamp and promise-id watermark of
  // everything it swallows (plus a previous marker's).
  uint64_t base = 0, watermark = 0;
  Timestamp base_ts = 0;
  size_t pos = 0;
  size_t eol = contents.find('\n');
  if (eol != std::string::npos) {
    std::string_view first(contents.data(), eol);
    if (ParseMarker(first, &base, &base_ts, &watermark)) pos = eol + 1;
  }
  if (lsn <= base) return Status::OK();  // already compacted past lsn
  uint64_t prev_sequence = base;
  Timestamp marker_ts = base_ts;
  size_t tail_offset = contents.size();
  while (pos < contents.size()) {
    eol = contents.find('\n', pos);
    if (eol == std::string::npos) {
      return Status::Internal("open log has a torn tail during compaction");
    }
    std::string_view line(contents.data() + pos, eol - pos);
    LogRecord record;
    if (ParseLine(line, prev_sequence, &record) != ParseStatus::kOk) {
      return Status::Internal("open log has a bad record during compaction");
    }
    if (record.sequence > lsn) {
      tail_offset = pos;
      break;
    }
    prev_sequence = record.sequence;
    marker_ts = std::max(marker_ts, record.timestamp);
    watermark = std::max(watermark, record.promise_id);
    pos = eol + 1;
    tail_offset = pos;
  }

  const std::string tmp_path = path_ + ".compact.tmp";
  std::FILE* out = std::fopen(tmp_path.c_str(), "wb");
  if (out == nullptr) {
    return Status::Unavailable("cannot create '" + tmp_path +
                               "': " + std::strerror(errno));
  }
  std::string marker = EncodeMarker(lsn, marker_ts, watermark);
  bool wrote =
      std::fwrite(marker.data(), 1, marker.size(), out) == marker.size() &&
      (tail_offset >= contents.size() ||
       std::fwrite(contents.data() + tail_offset, 1,
                   contents.size() - tail_offset,
                   out) == contents.size() - tail_offset);
  if (!wrote || std::fflush(out) != 0 || ::fsync(fileno(out)) != 0) {
    std::fclose(out);
    std::remove(tmp_path.c_str());
    return Status::Unavailable("cannot write compacted log '" + tmp_path +
                               "': " + std::strerror(errno));
  }
  std::fclose(out);
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Unavailable("cannot install compacted log: " +
                               std::string(std::strerror(errno)));
  }
  Status sync_st = SyncFileAndDir(path_);
  if (!sync_st.ok()) {
    // The rename already landed; appending to the old inode would
    // silently lose records. Poison until reopened.
    failed_ = sync_st;
    return failed_;
  }

  // Swap the append handle onto the new inode. Sequencing state is
  // untouched: the cut names the same LSNs before and after.
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    failed_ = Status::Unavailable("cannot reopen compacted log '" + path_ +
                                  "': " + std::strerror(errno));
    return failed_;
  }
  Metrics().truncations_total->Increment();
  Metrics().compacted_bytes_total->Increment(
      static_cast<int64_t>(tail_offset));
  return Status::OK();
}

void OperationLog::WriterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    if (!failed_.ok()) {
      // A previous group failed: every queued record is past the torn
      // tail and must be reported lost, not written.
      queue_.clear();
      Metrics().queue_depth->Set(0);
      durable_cv_.notify_all();
      space_cv_.notify_all();
      work_cv_.wait(lock, [this] { return stopping_; });
      return;
    }
    // Linger: grow the group until it is full or the oldest queued
    // record has waited max_delay_ms on the injected clock. The
    // wait_for quantum is real time so a SimulatedClock advanced by
    // another thread is noticed promptly.
    while (!stopping_ && !kick_ && config_.max_delay_ms > 0 &&
           queue_.size() < config_.max_batch &&
           clock_->Now() - queue_.front().enqueued_at < config_.max_delay_ms) {
      work_cv_.wait_for(lock, std::chrono::microseconds(200));
    }
    // Batch-formation grace: committers racing the flush get a short
    // real-time window to join the group before the sync is paid. A
    // batch filling up notifies work_cv_ and ends the window early,
    // as does a KickFlush batch-boundary signal.
    if (config_.group_window_us > 0) {
      int64_t deadline = SteadyNowUs() + config_.group_window_us;
      int64_t remaining = config_.group_window_us;
      while (!stopping_ && !kick_ && queue_.size() < config_.max_batch &&
             remaining > 0) {
        work_cv_.wait_for(lock, std::chrono::microseconds(remaining));
        remaining = deadline - SteadyNowUs();
      }
    }
    size_t n = std::min(queue_.size(), config_.max_batch);
    std::string buf;
    uint64_t last_sequence = 0;
    for (size_t i = 0; i < n; ++i) {
      buf += queue_.front().encoded;
      last_sequence = queue_.front().sequence;
      queue_.pop_front();
    }
    // A kick covers everything queued at the boundary; once the queue
    // drains the next group forms (and lingers) normally.
    if (queue_.empty()) kick_ = false;
    Metrics().queue_depth->Set(static_cast<int64_t>(queue_.size()));
    io_in_flight_ = true;
    lock.unlock();
    Status st = WriteBuffer(buf, config_.use_fdatasync);
    lock.lock();
    io_in_flight_ = false;
    if (st.ok()) {
      durable_sequence_ = last_sequence;
      Metrics().records_total->Increment(n);
      Metrics().groups_total->Increment();
      Metrics().group_size->Observe(static_cast<int64_t>(n));
    } else {
      failed_ = st;
      Metrics().append_errors_total->Increment();
      queue_.clear();
      Metrics().queue_depth->Set(0);
    }
    durable_cv_.notify_all();
    space_cv_.notify_all();
    if (stopping_ && (queue_.empty() || !failed_.ok())) return;
  }
}

Result<std::vector<LogRecord>> OperationLog::ReadAll(
    const std::string& path) {
  std::vector<LogRecord> records;
  LogScanStats scan = ScanLog(path, &records);
  if (!scan.exists) {
    return Status::NotFound("no log at '" + path + "'");
  }
  return records;
}

Result<std::vector<LogRecord>> OperationLog::ReadForRecovery(
    const std::string& path, LogScanStats* stats,
    bool allow_mid_log_corruption) {
  std::vector<LogRecord> records;
  LogScanStats scan = ScanLog(path, &records);
  if (stats != nullptr) *stats = scan;
  if (!scan.exists) {
    return Status::NotFound("no log at '" + path + "'");
  }
  if (scan.valid_beyond_stop && !allow_mid_log_corruption) {
    return Status::DataLoss(
        "log '" + path + "' scan stopped (" +
        std::string(ScanStopReasonToString(scan.stop_reason)) + ", " +
        std::to_string(scan.discarded_bytes) +
        " bytes discarded) with checksum-valid records beyond the stop "
        "point: refusing to recover past mid-log corruption");
  }
  return records;
}

}  // namespace promises
