#include "core/command_record.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/string_util.h"
#include "predicate/parser.h"

namespace promises {

namespace {

void EncodeFlag(std::string* out, bool flag) {
  EncodeField(out, flag ? "1" : "0");
}

Result<bool> DecodeFlag(std::string_view* cursor) {
  PROMISES_ASSIGN_OR_RETURN(uint64_t flag, DecodeU64(cursor));
  if (flag > 1) return Status::DataLoss("malformed flag field");
  return flag == 1;
}

// Counts bound the loops that follow them; a garbled count cannot make
// a decoder allocate or spin, because each element consumes at least
// one byte of the payload.
Result<uint64_t> DecodeCount(std::string_view* cursor) {
  PROMISES_ASSIGN_OR_RETURN(uint64_t n, DecodeU64(cursor));
  if (n > cursor->size()) {
    return Status::DataLoss("element count " + std::to_string(n) +
                            " exceeds the remaining record");
  }
  return n;
}

std::string EscapeRecord(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (char c : raw) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeRecord(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\') {
      out += escaped[i];
      continue;
    }
    if (++i == escaped.size()) {
      return Status::DataLoss("record ends inside an escape");
    }
    if (escaped[i] == '\\') {
      out += '\\';
    } else if (escaped[i] == 'n') {
      out += '\n';
    } else {
      return Status::DataLoss("unknown escape in record");
    }
  }
  return out;
}

std::string Finish(std::string raw) {
  if (raw.find_first_of("\\\n") == std::string::npos) return raw;
  return EscapeRecord(raw);
}

Status DecodeRequest(std::string_view* cursor, PromiseRequestHeader* req) {
  PROMISES_ASSIGN_OR_RETURN(uint64_t request_id, DecodeU64(cursor));
  req->request_id = RequestId(request_id);
  PROMISES_ASSIGN_OR_RETURN(uint64_t npreds, DecodeCount(cursor));
  req->predicates.reserve(npreds);
  for (uint64_t i = 0; i < npreds; ++i) {
    PROMISES_ASSIGN_OR_RETURN(std::string text, DecodeField(cursor));
    PROMISES_ASSIGN_OR_RETURN(Predicate p, ParsePredicate(text));
    req->predicates.push_back(std::move(p));
  }
  PROMISES_ASSIGN_OR_RETURN(req->duration_ms, DecodeI64(cursor));
  PROMISES_ASSIGN_OR_RETURN(uint64_t nback, DecodeCount(cursor));
  for (uint64_t i = 0; i < nback; ++i) {
    PROMISES_ASSIGN_OR_RETURN(uint64_t id, DecodeU64(cursor));
    req->release_on_grant.push_back(PromiseId(id));
  }
  PROMISES_ASSIGN_OR_RETURN(req->queue_if_unavailable, DecodeFlag(cursor));
  return Status::OK();
}

Status DecodeEnvelopeSections(std::string_view* cursor, Envelope* env) {
  while (!cursor->empty()) {
    char tag = cursor->front();
    cursor->remove_prefix(1);
    switch (tag) {
      case 'Q': {
        PromiseRequestHeader req;
        PROMISES_RETURN_IF_ERROR(DecodeRequest(cursor, &req));
        env->promise_request = std::move(req);
        break;
      }
      case 'V': {
        ReleaseHeader release;
        PROMISES_ASSIGN_OR_RETURN(uint64_t n, DecodeCount(cursor));
        for (uint64_t i = 0; i < n; ++i) {
          PROMISES_ASSIGN_OR_RETURN(uint64_t id, DecodeU64(cursor));
          release.promises.push_back(PromiseId(id));
        }
        env->release = std::move(release);
        break;
      }
      case 'N': {
        EnvironmentHeader environment;
        PROMISES_ASSIGN_OR_RETURN(uint64_t n, DecodeCount(cursor));
        for (uint64_t i = 0; i < n; ++i) {
          EnvironmentHeader::Entry entry;
          PROMISES_ASSIGN_OR_RETURN(uint64_t id, DecodeU64(cursor));
          entry.promise = PromiseId(id);
          PROMISES_ASSIGN_OR_RETURN(entry.release_after, DecodeFlag(cursor));
          environment.entries.push_back(entry);
        }
        env->environment = std::move(environment);
        break;
      }
      case 'A': {
        ActionBody action;
        PROMISES_ASSIGN_OR_RETURN(action.service, DecodeField(cursor));
        PROMISES_ASSIGN_OR_RETURN(action.operation, DecodeField(cursor));
        PROMISES_ASSIGN_OR_RETURN(uint64_t n, DecodeCount(cursor));
        for (uint64_t i = 0; i < n; ++i) {
          PROMISES_ASSIGN_OR_RETURN(std::string name, DecodeField(cursor));
          PROMISES_ASSIGN_OR_RETURN(Value value, DecodeValue(cursor));
          action.params[std::move(name)] = std::move(value);
        }
        env->action = std::move(action);
        break;
      }
      case 'P': {
        PollHeader poll;
        PROMISES_ASSIGN_OR_RETURN(poll.ticket, DecodeU64(cursor));
        env->poll = poll;
        break;
      }
      default:
        return Status::DataLoss(std::string("unknown section tag '") + tag +
                                "'");
    }
  }
  return Status::OK();
}

Result<CommandRecord> DecodeRaw(std::string_view cursor) {
  if (cursor.empty()) return Status::DataLoss("empty record");
  char kind = cursor.front();
  cursor.remove_prefix(1);
  CommandRecord record;
  switch (kind) {
    case 'E': {
      record.kind = CommandRecord::Kind::kEnvelope;
      PROMISES_ASSIGN_OR_RETURN(record.envelope.from, DecodeField(&cursor));
      PROMISES_ASSIGN_OR_RETURN(uint64_t message_id, DecodeU64(&cursor));
      record.envelope.message_id = MessageId(message_id);
      PROMISES_RETURN_IF_ERROR(
          DecodeEnvelopeSections(&cursor, &record.envelope));
      return record;
    }
    case 'D': {
      record.kind = CommandRecord::Kind::kDamage;
      PROMISES_ASSIGN_OR_RETURN(record.cls, DecodeField(&cursor));
      PROMISES_ASSIGN_OR_RETURN(record.quantity, DecodeI64(&cursor));
      break;
    }
    case 'L': {
      record.kind = CommandRecord::Kind::kLose;
      PROMISES_ASSIGN_OR_RETURN(record.cls, DecodeField(&cursor));
      PROMISES_ASSIGN_OR_RETURN(record.instance, DecodeField(&cursor));
      break;
    }
    default:
      return Status::DataLoss(std::string("unknown record kind '") + kind +
                              "'");
  }
  if (!cursor.empty()) return Status::DataLoss("trailing bytes after record");
  return record;
}

}  // namespace

void EncodeU64(std::string* out, uint64_t v) {
  EncodeField(out, std::to_string(v));
}

void EncodeI64(std::string* out, int64_t v) {
  EncodeField(out, std::to_string(v));
}

Result<int64_t> DecodeI64(std::string_view* cursor) {
  PROMISES_ASSIGN_OR_RETURN(std::string field, DecodeField(cursor));
  Result<int64_t> v = ParseInt64(field);
  if (!v.ok()) {
    return Status::DataLoss("malformed integer field: '" + field + "'");
  }
  return v;
}

Result<uint64_t> DecodeU64(std::string_view* cursor) {
  PROMISES_ASSIGN_OR_RETURN(int64_t v, DecodeI64(cursor));
  if (v < 0) return Status::DataLoss("negative value in unsigned field");
  return static_cast<uint64_t>(v);
}

void EncodeValue(std::string* out, const Value& v) {
  std::string repr;
  switch (v.type()) {
    case ValueType::kBool:
      repr = v.as_bool() ? "b:1" : "b:0";
      break;
    case ValueType::kInt:
      repr = "i:" + std::to_string(v.as_int());
      break;
    case ValueType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "d:%.17g", v.as_double());
      repr = buf;
      break;
    }
    case ValueType::kString:
      repr = "s:" + v.as_string();
      break;
  }
  EncodeField(out, repr);
}

Result<Value> DecodeValue(std::string_view* cursor) {
  std::string field;
  PROMISES_ASSIGN_OR_RETURN(field, DecodeField(cursor));
  if (field.size() < 2 || field[1] != ':') {
    return Status::DataLoss("malformed value field");
  }
  std::string body = field.substr(2);
  switch (field[0]) {
    case 'b':
      return Value(body == "1");
    case 'i': {
      Result<int64_t> i = ParseInt64(body);
      if (!i.ok()) return Status::DataLoss("malformed int value: " + body);
      return Value(*i);
    }
    case 'd': {
      char* end = nullptr;
      double d = std::strtod(body.c_str(), &end);
      if (end == body.c_str() || *end != '\0') {
        return Status::DataLoss("malformed double value: " + body);
      }
      return Value(d);
    }
    case 's':
      return Value(std::move(body));
  }
  return Status::DataLoss("unknown value type tag: " + field);
}

std::string EncodeCommandRecord(const Envelope& request) {
  std::string out = "E";
  EncodeField(&out, request.from);
  EncodeU64(&out, request.message_id.value());
  if (request.promise_request) {
    const PromiseRequestHeader& pr = *request.promise_request;
    out += 'Q';
    EncodeU64(&out, pr.request_id.value());
    EncodeU64(&out, pr.predicates.size());
    for (const Predicate& p : pr.predicates) EncodeField(&out, p.ToString());
    EncodeI64(&out, pr.duration_ms);
    EncodeU64(&out, pr.release_on_grant.size());
    for (PromiseId id : pr.release_on_grant) EncodeU64(&out, id.value());
    EncodeFlag(&out, pr.queue_if_unavailable);
  }
  if (request.release) {
    out += 'V';
    EncodeU64(&out, request.release->promises.size());
    for (PromiseId id : request.release->promises) EncodeU64(&out, id.value());
  }
  if (request.environment) {
    out += 'N';
    EncodeU64(&out, request.environment->entries.size());
    for (const EnvironmentHeader::Entry& e : request.environment->entries) {
      EncodeU64(&out, e.promise.value());
      EncodeFlag(&out, e.release_after);
    }
  }
  if (request.action) {
    out += 'A';
    EncodeField(&out, request.action->service);
    EncodeField(&out, request.action->operation);
    EncodeU64(&out, request.action->params.size());
    for (const auto& [name, value] : request.action->params) {
      EncodeField(&out, name);
      EncodeValue(&out, value);
    }
  }
  if (request.poll) {
    out += 'P';
    EncodeU64(&out, request.poll->ticket);
  }
  return Finish(std::move(out));
}

std::string EncodeDamageRecord(const std::string& cls, int64_t quantity) {
  std::string out = "D";
  EncodeField(&out, cls);
  EncodeI64(&out, quantity);
  return Finish(std::move(out));
}

std::string EncodeLossRecord(const std::string& cls,
                             const std::string& instance) {
  std::string out = "L";
  EncodeField(&out, cls);
  EncodeField(&out, instance);
  return Finish(std::move(out));
}

bool PeekCommandSender(std::string_view payload, std::string* from,
                       uint64_t* message_id) {
  std::string unescaped;
  if (payload.find('\\') != std::string_view::npos) {
    Result<std::string> raw = UnescapeRecord(payload);
    if (!raw.ok()) return false;
    unescaped = std::move(*raw);
    payload = unescaped;
  }
  if (payload.empty() || payload.front() != 'E') return false;
  payload.remove_prefix(1);
  Result<std::string> sender = DecodeField(&payload);
  if (!sender.ok()) return false;
  Result<uint64_t> id = DecodeU64(&payload);
  if (!id.ok()) return false;
  *from = std::move(*sender);
  *message_id = *id;
  return true;
}

Result<CommandRecord> DecodeCommandRecord(std::string_view payload) {
  std::string unescaped;
  if (payload.find('\\') != std::string_view::npos) {
    PROMISES_ASSIGN_OR_RETURN(unescaped, UnescapeRecord(payload));
    payload = unescaped;
  }
  Result<CommandRecord> record = DecodeRaw(payload);
  if (!record.ok() && !record.status().IsDataLoss()) {
    // Field-level errors (a truncated length prefix, an unparsable
    // predicate) all mean the same thing to a reader of the log.
    return Status::DataLoss("bad command record: " +
                            record.status().message());
  }
  return record;
}

}  // namespace promises
