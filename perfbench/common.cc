#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "service/services.h"

namespace perfbench {

double NowUs() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1e3;
}

double SecondsSince(double start_us) {
  return (NowUs() - start_us) / 1e6;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTicks ReadCpuTicks() {
  CpuTicks out;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && stat; ++field) {
    uint64_t v = 0;
    stat >> v;
    out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Checker

void Checker::Record(const std::string& name, bool holds,
                     const std::string& what) {
  std::lock_guard<std::mutex> lk(mu_);
  ++evaluated_[name];
  if (!holds && violations_.size() < 32) {
    violations_.push_back(name + (what.empty() ? "" : ": " + what));
  }
}

void Checker::Equal(const std::string& name, int64_t observed,
                    int64_t expected, const std::string& what) {
  if (skewed(name)) ++expected;
  Record(name, observed == expected,
         what + " observed " + std::to_string(observed) + ", expected " +
             std::to_string(expected));
}

void Checker::AtMost(const std::string& name, int64_t observed, int64_t limit,
                     const std::string& what) {
  if (skewed(name)) limit = observed - 1;
  Record(name, observed <= limit,
         what + " observed " + std::to_string(observed) + " > limit " +
             std::to_string(limit));
}

void Checker::True(const std::string& name, bool holds,
                   const std::string& what) {
  Record(name, skewed(name) ? !holds : holds, what);
}

std::vector<std::string> Checker::violations() const {
  std::lock_guard<std::mutex> lk(mu_);
  return violations_;
}

std::vector<std::string> Checker::names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  for (const auto& [name, count] : evaluated_) out.push_back(name);
  return out;
}

// ---------------------------------------------------------------------------
// TraceSink

void TraceSink::RecordHandle(const Envelope& request, double us) {
  std::lock_guard<std::mutex> lk(mu);
  handle_by_message[{request.from, request.message_id.value()}] = us;
}

// ---------------------------------------------------------------------------
// WireClient

WireClient::WireClient(std::string name, std::string manager)
    : name_(std::move(name)), manager_(std::move(manager)) {}

Status WireClient::Connect(uint16_t port) { return channel_.Connect(port); }

Envelope WireClient::NewEnvelope() {
  Envelope e;
  e.message_id = MessageId(++next_message_);
  e.from = name_;
  e.to = manager_;
  return e;
}

Result<Envelope> WireClient::Call(const Envelope& request) {
  if (sink_ == nullptr) return channel_.Call(request);
  const double t0 = NowUs();
  Result<Envelope> reply = channel_.Call(request);
  const double call = NowUs() - t0;
  if (!reply.ok()) return reply;
  constexpr size_t kSampleEnvelopes = 4096;
  bool keep = false;
  {
    std::lock_guard<std::mutex> lk(sink_->mu);
    ++sink_->envelopes;
    sink_->call_us.push_back(call);
    auto it = sink_->handle_by_message.find(
        {request.from, request.message_id.value()});
    if (it != sink_->handle_by_message.end()) {
      sink_->handle_us.push_back(it->second);
      sink_->wire_us.push_back(call - it->second);
      sink_->handle_by_message.erase(it);
    }
    keep = sink_->sample.size() < kSampleEnvelopes;
    if (keep) {
      sink_->sample.push_back(request);
      sink_->sample.push_back(*reply);
    }
  }
  if (keep) {
    const uint64_t bytes = request.ToXml().size() + reply->ToXml().size();
    std::lock_guard<std::mutex> lk(sink_->mu);
    sink_->sampled_bytes += bytes;
    sink_->sampled_envelopes += 2;
  }
  return reply;
}

Result<PromiseId> WireClient::Grant(std::vector<Predicate> predicates) {
  Envelope request = NewEnvelope();
  PromiseRequestHeader header;
  header.request_id = RequestId(request.message_id.value());
  header.duration_ms = kPromiseMs;
  header.predicates = std::move(predicates);
  request.promise_request = std::move(header);
  PROMISES_ASSIGN_OR_RETURN(Envelope reply, Call(request));
  if (!reply.promise_response.has_value()) {
    return Status::Internal("grant reply without a promise response");
  }
  if (reply.promise_response->result != PromiseResultCode::kAccepted) {
    return Status::FailedPrecondition("grant rejected: " +
                                      reply.promise_response->reason);
  }
  return reply.promise_response->promise_id;
}

Result<std::map<std::string, Value>> WireClient::Act(
    ActionBody action, std::vector<PromiseId> release_after) {
  Envelope request = NewEnvelope();
  if (!release_after.empty()) {
    EnvironmentHeader env;
    for (PromiseId id : release_after) env.entries.push_back({id, true});
    request.environment = std::move(env);
  }
  request.action = std::move(action);
  PROMISES_ASSIGN_OR_RETURN(Envelope reply, Call(request));
  if (!reply.action_result.has_value()) {
    return Status::Internal("action reply without a result");
  }
  if (!reply.action_result->ok) {
    return Status::FailedPrecondition("action failed: " + reply.action_result->error);
  }
  return std::move(reply.action_result->outputs);
}

Status WireClient::Release(std::vector<PromiseId> ids) {
  Envelope request = NewEnvelope();
  request.release = ReleaseHeader{std::move(ids)};
  return Call(request).status();
}

// ---------------------------------------------------------------------------
// DirectClient

DirectClient::DirectClient(PromiseManager* pm, const std::string& name)
    : pm_(pm), client_(pm->ClientFor(name)) {}

Result<PromiseId> DirectClient::Grant(std::vector<Predicate> predicates) {
  const double t0 = NowUs();
  Result<GrantOutcome> outcome =
      pm_->RequestPromise(client_, std::move(predicates), kPromiseMs);
  grant_us.push_back(NowUs() - t0);
  if (!outcome.ok()) return outcome.status();
  if (!outcome->accepted) {
    return Status::FailedPrecondition("grant rejected: " + outcome->reason);
  }
  return outcome->promise_id;
}

Result<std::map<std::string, Value>> DirectClient::Act(
    ActionBody action, std::vector<PromiseId> release_after) {
  EnvironmentHeader env;
  for (PromiseId id : release_after) env.entries.push_back({id, true});
  const double t0 = NowUs();
  Result<ActionOutcome> outcome = pm_->Execute(client_, action, env);
  action_us.push_back(NowUs() - t0);
  if (!outcome.ok()) return outcome.status();
  if (!outcome->ok) return Status::FailedPrecondition("action failed: " + outcome->error);
  return std::move(outcome->outputs);
}

Status DirectClient::Release(std::vector<PromiseId> ids) {
  const double t0 = NowUs();
  Status st = pm_->Release(client_, ids);
  release_us.push_back(NowUs() - t0);
  return st;
}

void RegisterServices(PromiseManager& pm) {
  pm.RegisterService("inventory", MakeInventoryService());
  pm.RegisterService("booking", MakeBookingService());
}

}  // namespace perfbench
