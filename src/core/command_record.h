// Compact command records: the operation log's payload format.
//
// Every operation the promise manager commits is logged as a command
// record that holds exactly what replay needs to re-execute it, and
// nothing a transport added on the way in (no deadline, trace or route
// header). Following the EncodeNode/DecodeNode idiom of Felis's
// PromiseRoutine, a record is encoded once, compactly, from the
// operation's own parts and decoded without a document parser: it is a
// sequence of length-prefixed fields (EncodeField, `<len>:<bytes>`),
// so any field may carry any byte.
//
// Layout (fields in order; [x] optional, each section introduced by a
// one-byte tag):
//
//   'E' from message-id [sections...]       an envelope's operation
//       'Q' request-id n-predicates predicate-text... duration
//           n-handbacks promise-id... queue-flag
//       'V' n-ids promise-id...              <release>
//       'N' n-entries (promise-id release-after-flag)...   <environment>
//       'A' service operation n-params (name typed-value)...  <action>
//       'P' ticket                           <poll>
//   'D' class quantity                       external damage
//   'L' class instance-id                    instance lost
//
// Predicates travel in their textual form (ParsePredicate reads it
// back); action parameters carry an explicit type tag (Value::FromText
// is lossy). The log scanner splits records on '\n', so an encoded
// record that contains a newline or a backslash is escaped as a whole
// ('\\' -> "\\\\", '\n' -> "\\n"); records without either byte — the
// common case — are stored as encoded.

#ifndef PROMISES_CORE_COMMAND_RECORD_H_
#define PROMISES_CORE_COMMAND_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "protocol/message.h"
#include "resource/value.h"

namespace promises {

/// One decoded log record.
struct CommandRecord {
  enum class Kind { kEnvelope, kDamage, kLose };
  Kind kind = Kind::kEnvelope;
  /// kEnvelope: the operation's envelope. Only the parts a record
  /// carries are set (from, message id, promise request, release,
  /// environment, action, poll).
  Envelope envelope;
  /// kDamage / kLose: the resource class hit by the external event.
  std::string cls;
  int64_t quantity = 0;  ///< kDamage: units destroyed
  std::string instance;  ///< kLose: the instance withdrawn
};

/// Encodes the replay-relevant parts of `request`.
std::string EncodeCommandRecord(const Envelope& request);
/// Encodes an external-damage event (ReportExternalDamage).
std::string EncodeDamageRecord(const std::string& cls, int64_t quantity);
/// Encodes an instance-lost event (ReportInstanceLost).
std::string EncodeLossRecord(const std::string& cls,
                             const std::string& instance);

/// Reads only the sender and message id of an envelope record (the
/// dedup key replay needs before it decodes anything else). False for
/// external events and for records it cannot read.
bool PeekCommandSender(std::string_view payload, std::string* from,
                       uint64_t* message_id);

/// Inverse of the encoders. kDataLoss on a truncated or garbled
/// payload (never crashes, whatever the bytes).
Result<CommandRecord> DecodeCommandRecord(std::string_view payload);

// Typed length-prefixed fields, shared with the checkpoint format.

void EncodeU64(std::string* out, uint64_t v);
void EncodeI64(std::string* out, int64_t v);
Result<uint64_t> DecodeU64(std::string_view* cursor);
Result<int64_t> DecodeI64(std::string_view* cursor);
/// A Value with an explicit type tag: `b:1`, `i:42`, `d:0.5`, `s:text`.
void EncodeValue(std::string* out, const Value& v);
Result<Value> DecodeValue(std::string_view* cursor);

}  // namespace promises

#endif  // PROMISES_CORE_COMMAND_RECORD_H_
