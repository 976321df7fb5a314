// Tests for the compact command records the operation log carries:
// the codec's round trip over every part a record holds, its refusal
// of truncated or garbled payloads, and the idempotency window that
// replay rebuilds from them.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/command_record.h"
#include "core/promise_manager.h"
#include "predicate/parser.h"

namespace promises {
namespace {

// Separator-looking bytes every string field must survive.
const std::string kAwkward = "a|b:c\nd\\e";

Predicate MustParse(const std::string& text) {
  Result<Predicate> p = ParsePredicate(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.status().ToString();
  return std::move(p).value();
}

Envelope FullEnvelope() {
  Envelope env;
  env.message_id = MessageId(424242);
  env.from = "client " + kAwkward;
  env.to = "pm";
  env.deadline = 99;
  env.trace = TraceContext{1, 2, 3, 4, true};
  env.route = RouteHeader{2, 7};
  PromiseRequestHeader req;
  req.request_id = RequestId(17);
  req.predicates = {
      MustParse("quantity('pink|widget') >= 5"),
      MustParse("count('room' where floor >= 3 && view == true) >= 2"),
      MustParse("available('room', 'needs \\' escape: a|b')"),
      MustParse("count('room' where rate <= 99.5) >= 1"),
  };
  req.duration_ms = 30'000;
  req.release_on_grant = {PromiseId(3), PromiseId(11)};
  req.queue_if_unavailable = true;
  env.promise_request = std::move(req);
  env.release = ReleaseHeader{{PromiseId(5), PromiseId(6)}};
  env.environment =
      EnvironmentHeader{{{PromiseId(8), true}, {PromiseId(0), false}}};
  ActionBody action;
  action.service = "svc" + kAwkward;
  action.operation = "op:" + kAwkward;
  action.params = {
      {"flag", Value(true)},
      {"off", Value(false)},
      {"count", Value(int64_t{-42})},
      {"big", Value(int64_t{9'000'000'000'000})},
      {"rate", Value(0.1)},
      {"tiny", Value(-1e-300)},
      {"text", Value(kAwkward)},
      {"empty", Value(std::string())},
      {"numeric-looking", Value(std::string("42"))},
      {"key " + kAwkward, Value(int64_t{1})},
  };
  env.action = std::move(action);
  env.poll = PollHeader{123};
  return env;
}

void ExpectSameValue(const Value& a, const Value& b, const std::string& name) {
  ASSERT_EQ(a.type(), b.type()) << name;
  switch (a.type()) {
    case ValueType::kBool:
      EXPECT_EQ(a.as_bool(), b.as_bool()) << name;
      break;
    case ValueType::kInt:
      EXPECT_EQ(a.as_int(), b.as_int()) << name;
      break;
    case ValueType::kDouble:
      EXPECT_EQ(a.as_double(), b.as_double()) << name;  // bit-exact
      break;
    case ValueType::kString:
      EXPECT_EQ(a.as_string(), b.as_string()) << name;
      break;
  }
}

TEST(CommandRecordTest, EnvelopeRoundTripsEveryPart) {
  const Envelope original = FullEnvelope();
  const std::string payload = EncodeCommandRecord(original);
  EXPECT_EQ(payload.find('\n'), std::string::npos);

  Result<CommandRecord> decoded = DecodeCommandRecord(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->kind, CommandRecord::Kind::kEnvelope);
  const Envelope& env = decoded->envelope;
  EXPECT_EQ(env.message_id, original.message_id);
  EXPECT_EQ(env.from, original.from);

  ASSERT_TRUE(env.promise_request.has_value());
  const PromiseRequestHeader& req = *env.promise_request;
  EXPECT_EQ(req.request_id, original.promise_request->request_id);
  ASSERT_EQ(req.predicates.size(), original.promise_request->predicates.size());
  for (size_t i = 0; i < req.predicates.size(); ++i) {
    EXPECT_EQ(req.predicates[i].ToString(),
              original.promise_request->predicates[i].ToString());
  }
  EXPECT_EQ(req.duration_ms, 30'000);
  EXPECT_EQ(req.release_on_grant, original.promise_request->release_on_grant);
  EXPECT_TRUE(req.queue_if_unavailable);

  ASSERT_TRUE(env.release.has_value());
  EXPECT_EQ(env.release->promises, original.release->promises);

  ASSERT_TRUE(env.environment.has_value());
  ASSERT_EQ(env.environment->entries.size(), 2u);
  EXPECT_EQ(env.environment->entries[0].promise, PromiseId(8));
  EXPECT_TRUE(env.environment->entries[0].release_after);
  EXPECT_EQ(env.environment->entries[1].promise, PromiseId(0));
  EXPECT_FALSE(env.environment->entries[1].release_after);

  ASSERT_TRUE(env.action.has_value());
  EXPECT_EQ(env.action->service, original.action->service);
  EXPECT_EQ(env.action->operation, original.action->operation);
  ASSERT_EQ(env.action->params.size(), original.action->params.size());
  for (const auto& [name, value] : original.action->params) {
    auto it = env.action->params.find(name);
    ASSERT_NE(it, env.action->params.end()) << name;
    ExpectSameValue(value, it->second, name);
  }

  ASSERT_TRUE(env.poll.has_value());
  EXPECT_EQ(env.poll->ticket, 123u);

  // Transport-only headers never reach the log.
  EXPECT_EQ(env.deadline, 0);
  EXPECT_FALSE(env.trace.has_value());
  EXPECT_FALSE(env.route.has_value());
  EXPECT_TRUE(env.to.empty());
  EXPECT_FALSE(env.promise_response.has_value());
  EXPECT_FALSE(env.action_result.has_value());
}

TEST(CommandRecordTest, SparseEnvelopeRoundTrips) {
  Envelope original;
  original.from = "c1";
  original.release = ReleaseHeader{{PromiseId(9)}};
  Result<CommandRecord> decoded =
      DecodeCommandRecord(EncodeCommandRecord(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Envelope& env = decoded->envelope;
  EXPECT_FALSE(env.message_id.valid());
  EXPECT_EQ(env.from, "c1");
  EXPECT_FALSE(env.promise_request.has_value());
  EXPECT_FALSE(env.environment.has_value());
  EXPECT_FALSE(env.action.has_value());
  EXPECT_FALSE(env.poll.has_value());
  ASSERT_TRUE(env.release.has_value());
  EXPECT_EQ(env.release->promises, std::vector<PromiseId>{PromiseId(9)});
}

TEST(CommandRecordTest, ExternalEventsRoundTrip) {
  Result<CommandRecord> damage =
      DecodeCommandRecord(EncodeDamageRecord("stock" + kAwkward, 12));
  ASSERT_TRUE(damage.ok()) << damage.status().ToString();
  EXPECT_EQ(damage->kind, CommandRecord::Kind::kDamage);
  EXPECT_EQ(damage->cls, "stock" + kAwkward);
  EXPECT_EQ(damage->quantity, 12);

  const std::string loss_payload = EncodeLossRecord("room", "r" + kAwkward);
  EXPECT_EQ(loss_payload.find('\n'), std::string::npos);
  Result<CommandRecord> loss = DecodeCommandRecord(loss_payload);
  ASSERT_TRUE(loss.ok()) << loss.status().ToString();
  EXPECT_EQ(loss->kind, CommandRecord::Kind::kLose);
  EXPECT_EQ(loss->cls, "room");
  EXPECT_EQ(loss->instance, "r" + kAwkward);

  std::string from;
  uint64_t message_id = 0;
  EXPECT_FALSE(PeekCommandSender(loss_payload, &from, &message_id));
}

TEST(CommandRecordTest, PeekReadsTheDedupKeyAlone) {
  const Envelope original = FullEnvelope();
  std::string from;
  uint64_t message_id = 0;
  ASSERT_TRUE(
      PeekCommandSender(EncodeCommandRecord(original), &from, &message_id));
  EXPECT_EQ(from, original.from);
  EXPECT_EQ(message_id, original.message_id.value());
}

TEST(CommandRecordTest, RecordsSurviveTheLogFile) {
  const std::string path = "/tmp/promises_command_record_" +
                           std::to_string(reinterpret_cast<uintptr_t>(&path));
  std::remove(path.c_str());
  const std::string payload = EncodeCommandRecord(FullEnvelope());
  {
    OperationLog log;
    ASSERT_TRUE(log.Open(path).ok());
    ASSERT_TRUE(log.Append(5, payload).ok());
    ASSERT_TRUE(log.Append(6, EncodeLossRecord("room", "x\ny")).ok());
  }
  auto records = OperationLog::ReadAll(path);
  std::remove(path.c_str());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].payload, payload);
  Result<CommandRecord> loss = DecodeCommandRecord((*records)[1].payload);
  ASSERT_TRUE(loss.ok());
  EXPECT_EQ(loss->instance, "x\ny");
}

TEST(CommandRecordTest, TruncatedPayloadsAreRefused) {
  const std::string payload = EncodeCommandRecord(FullEnvelope());
  // Every cut decodes to an error or to a shorter, well-formed record
  // (sections are optional); none may crash. A cut inside the last
  // field, or inside any field of a fixed-shape record, is an error.
  for (size_t n = 0; n < payload.size(); ++n) {
    Result<CommandRecord> r = DecodeCommandRecord(payload.substr(0, n));
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsDataLoss()) << n;
    }
  }
  EXPECT_FALSE(DecodeCommandRecord(payload.substr(0, payload.size() - 1)).ok());
  EXPECT_FALSE(DecodeCommandRecord("").ok());
  const std::string damage = EncodeDamageRecord("stock", 3);
  for (size_t n = 0; n < damage.size(); ++n) {
    Result<CommandRecord> r = DecodeCommandRecord(damage.substr(0, n));
    EXPECT_FALSE(r.ok()) << "prefix of " << n << " bytes decoded";
    EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  }
}

TEST(CommandRecordTest, GarbledPayloadsAreRefused) {
  const std::vector<std::string> garbled = {
      "X",                        // unknown record kind
      "E2:c11:7Z",                // unknown section tag
      "E2:c1x:7",                 // length prefix is not a number
      "E2:c11:7V9:999999999",     // count beyond the record
      "E2:c11:7V1:1",             // count promises an id that is absent
      "E2:c11:7P1:x",             // ticket is not a number
      "E2:c11:7P2:-1",            // negative unsigned field
      "E2:c11:7N1:11:11:2",       // release-after flag is not 0/1
      "E2:c11:7A1:s1:o1:11:k3:q:1",  // unknown value type tag
      "E2:c11:7A1:s1:o1:11:k5:i:1x",  // malformed int value
      "E2:c11:7A1:s1:o1:11:k5:d:zz",  // malformed double value
      "E2:c11:7Q1:11:18:quantity1:01:01:0",  // unparsable predicate
      "D5:stock1:3extra",         // trailing bytes
      "L4:room",                  // missing instance id
      "E2:c11:7\\",               // record ends inside an escape
      "E2:c11:7\\x",              // unknown escape
  };
  for (const std::string& payload : garbled) {
    Result<CommandRecord> r = DecodeCommandRecord(payload);
    EXPECT_FALSE(r.ok()) << payload;
    EXPECT_TRUE(r.status().IsDataLoss()) << payload;
  }
  // Random byte damage: decoding must fail cleanly or produce some
  // record, never crash.
  const std::string payload = EncodeCommandRecord(FullEnvelope());
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    std::string damaged = payload;
    const int64_t flips = rng.UniformInt(1, 3);
    for (int64_t f = 0; f < flips; ++f) {
      const int64_t last = static_cast<int64_t>(damaged.size()) - 1;
      damaged[static_cast<size_t>(rng.UniformInt(0, last))] =
          static_cast<char>(rng.UniformInt(0, 255));
    }
    Result<CommandRecord> r = DecodeCommandRecord(damaged);
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsDataLoss());
    }
  }
}

// --- The idempotency window replay rebuilds ---------------------------

constexpr size_t kDedupCapacity = 8;

struct DedupWorld {
  SimulatedClock clock{0};
  TransactionManager tm{100};
  ResourceManager rm;
  std::unique_ptr<PromiseManager> pm;

  DedupWorld() {
    (void)rm.CreatePool("stock", 1'000'000);
    PromiseManagerConfig config;
    config.name = "dedup-window";
    config.default_duration_ms = 600'000;
    config.dedup_capacity = kDedupCapacity;
    pm = std::make_unique<PromiseManager>(config, &clock, &rm, &tm);
  }
};

Envelope Grant(uint64_t message_id) {
  Envelope env;
  env.message_id = MessageId(message_id);
  env.from = "retrier";
  env.to = "dedup-window";
  PromiseRequestHeader req;
  req.request_id = RequestId(message_id);
  req.predicates.push_back(Predicate::Quantity("stock", CompareOp::kGe, 1));
  env.promise_request = std::move(req);
  return env;
}

// Runs `before_cut` grants, optionally checkpoints (compacting the log),
// runs `tail` more, then recovers a twin. Retrying every message id on
// both managers in the same order must behave identically: the same
// ids are answered from the table (with the original reply), the same
// ids re-execute.
void ExpectRecoveredWindowMatches(int before_cut, int tail, bool checkpoint) {
  const std::string tag = std::to_string(before_cut) + "_" +
                          std::to_string(tail) + "_" +
                          std::to_string(reinterpret_cast<uintptr_t>(&tag));
  const std::string log_path = "/tmp/promises_dedup_window_" + tag + ".log";
  const std::string ckpt_path = "/tmp/promises_dedup_window_" + tag + ".ckpt";
  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());

  DedupWorld original;
  OperationLog log;
  ASSERT_TRUE(log.Open(log_path).ok());
  ASSERT_TRUE(original.pm->AttachLog(&log).ok());
  std::vector<Envelope> replies;
  const int total = before_cut + tail;
  for (int i = 1; i <= total; ++i) {
    if (checkpoint && i == before_cut + 1) {
      CheckpointWriter writer(original.pm.get(), &log, ckpt_path);
      ASSERT_TRUE(writer.RunOnce().ok());
    }
    auto reply = original.pm->Handle(Grant(static_cast<uint64_t>(i)));
    ASSERT_TRUE(reply.ok());
    replies.push_back(*reply);
  }
  log.Close();

  DedupWorld recovered;
  RecoveryReport report;
  ASSERT_TRUE(RecoverWithCheckpoint(recovered.pm.get(), &recovered.clock,
                                    ckpt_path, log_path, {}, &report)
                  .ok());
  EXPECT_EQ(report.used_checkpoint, checkpoint);
  EXPECT_EQ(report.tail_records,
            static_cast<size_t>(checkpoint ? tail : total));
  EXPECT_EQ(recovered.pm->active_promises(), original.pm->active_promises());

  // Newest first, so the retries themselves evict nothing that is still
  // to be checked.
  size_t answered = 0;
  for (int i = total; i >= 1; --i) {
    const uint64_t before_orig = original.pm->stats().duplicates_replayed;
    const uint64_t before_rec = recovered.pm->stats().duplicates_replayed;
    auto from_original = original.pm->Handle(Grant(static_cast<uint64_t>(i)));
    auto from_recovered =
        recovered.pm->Handle(Grant(static_cast<uint64_t>(i)));
    ASSERT_TRUE(from_original.ok() && from_recovered.ok());
    const bool orig_hit =
        original.pm->stats().duplicates_replayed > before_orig;
    const bool rec_hit =
        recovered.pm->stats().duplicates_replayed > before_rec;
    EXPECT_EQ(orig_hit, rec_hit) << "message " << i;
    if (rec_hit) {
      ++answered;
      EXPECT_EQ(from_recovered->ToXml(),
                replies[static_cast<size_t>(i - 1)].ToXml())
          << "message " << i;
    }
    if (static_cast<size_t>(total - i) < kDedupCapacity) {
      EXPECT_TRUE(rec_hit) << "message " << i << " fell out of the window";
    }
  }
  EXPECT_EQ(answered, std::min<size_t>(static_cast<size_t>(total),
                                       kDedupCapacity));
  std::remove(log_path.c_str());
  std::remove(ckpt_path.c_str());
}

TEST(DedupWindowReplayTest, TailShorterThanTheWindow) {
  ExpectRecoveredWindowMatches(0, 5, /*checkpoint=*/false);
}

TEST(DedupWindowReplayTest, TailLongerThanTheWindow) {
  ExpectRecoveredWindowMatches(0, 3 * static_cast<int>(kDedupCapacity),
                               /*checkpoint=*/false);
}

TEST(DedupWindowReplayTest, ShortTailKeepsCheckpointEntries) {
  ExpectRecoveredWindowMatches(6, 3, /*checkpoint=*/true);
}

TEST(DedupWindowReplayTest, LongTailEvictsCheckpointEntries) {
  ExpectRecoveredWindowMatches(6, 2 * static_cast<int>(kDedupCapacity),
                               /*checkpoint=*/true);
}

}  // namespace
}  // namespace promises
