// Shared pieces of the serving-stack benchmark: statistics, the client
// side of the wire, the direct-API executor and the benchmark's own
// timing hooks (the program's tracer stays off throughout).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/promise_manager.h"
#include "protocol/message.h"
#include "protocol/tcp_transport.h"

namespace perfbench {

using namespace promises;  // NOLINT: the benchmark spans the whole library

/// Promise lifetime for every request: long enough that nothing expires
/// during a run, so expiry never changes what a workload does.
constexpr DurationMs kPromiseMs = 3'000'000;

/// Steady-clock time in microseconds, with nanosecond resolution.
double NowUs();
double SecondsSince(double start_us);

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);
/// Nearest-rank percentile `p` in [0, 1] of `v` (0 when empty).
double Percentile(std::vector<double> v, double p);

/// Peak resident set of this process in MB.
double PeakRssMb();

/// Host CPU time stolen by the hypervisor, and all CPU time, in clock
/// ticks since boot (both 0 when /proc/stat is unreadable). A run
/// reports the stolen share of its measured phase as a reference.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// Sum of the regular file sizes directly under `dir`.
uint64_t DirBytes(const std::string& dir);

/// Collects a set of violated checks. A check whose name equals the
/// skewed name is given a deliberately wrong expectation, so the smoke
/// self-test can show that every check is able to fail.
class Checker {
 public:
  explicit Checker(std::string skew = "") : skew_(std::move(skew)) {}

  void Equal(const std::string& name, int64_t observed, int64_t expected,
             const std::string& what = "");
  void AtMost(const std::string& name, int64_t observed, int64_t limit,
              const std::string& what = "");
  /// `holds` is the check's verdict; the skewed expectation is its
  /// opposite.
  void True(const std::string& name, bool holds, const std::string& what);

  std::vector<std::string> violations() const;
  /// Names of the checks that were evaluated at least once.
  std::vector<std::string> names() const;

 private:
  bool skewed(const std::string& name) const { return name == skew_; }
  void Record(const std::string& name, bool holds, const std::string& what);

  std::string skew_;
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> evaluated_;
  std::vector<std::string> violations_;
};

/// Timings the traced run takes at the layer boundaries it can see from
/// outside the program: the client's Call, the server's handler, and the
/// envelopes themselves (kept for offline codec timing).
struct TraceSink {
  std::mutex mu;
  std::map<std::pair<std::string, uint64_t>, double> handle_by_message;
  std::vector<double> call_us;
  std::vector<double> wire_us;
  std::vector<double> handle_us;
  std::vector<Envelope> sample;  ///< requests and replies, for codec timing
  uint64_t sampled_bytes = 0;
  uint64_t sampled_envelopes = 0;
  uint64_t envelopes = 0;

  void RecordHandle(const Envelope& request, double us);
};

/// One client's view of a promise manager: grant, act, release. The
/// workloads are written once against this and run over the wire or
/// against the direct API.
class Executor {
 public:
  virtual ~Executor() = default;
  /// Accepted promise, or an error (a rejection is an error here: no
  /// workload issues a request it expects to be refused).
  virtual Result<PromiseId> Grant(std::vector<Predicate> predicates) = 0;
  /// Runs `action` under `release_after` (each released on success).
  virtual Result<std::map<std::string, Value>> Act(
      ActionBody action, std::vector<PromiseId> release_after) = 0;
  virtual Status Release(std::vector<PromiseId> ids) = 0;
};

/// Executor over TcpClientChannel and the XML envelopes of §6.
class WireClient : public Executor {
 public:
  WireClient(std::string name, std::string manager);
  Status Connect(uint16_t port);
  /// When set, every Call is timed into `sink`.
  void set_sink(TraceSink* sink) { sink_ = sink; }

  Result<PromiseId> Grant(std::vector<Predicate> predicates) override;
  Result<std::map<std::string, Value>> Act(
      ActionBody action, std::vector<PromiseId> release_after) override;
  Status Release(std::vector<PromiseId> ids) override;

 private:
  Envelope NewEnvelope();
  Result<Envelope> Call(const Envelope& request);

  std::string name_;
  std::string manager_;
  uint64_t next_message_ = 0;
  TcpClientChannel channel_;
  TraceSink* sink_ = nullptr;
};

/// Executor over PromiseManager::RequestPromise / Execute / Release,
/// timing each call kind (no wire, no log).
class DirectClient : public Executor {
 public:
  DirectClient(PromiseManager* pm, const std::string& name);

  Result<PromiseId> Grant(std::vector<Predicate> predicates) override;
  Result<std::map<std::string, Value>> Act(
      ActionBody action, std::vector<PromiseId> release_after) override;
  Status Release(std::vector<PromiseId> ids) override;

  std::vector<double> grant_us;
  std::vector<double> action_us;
  std::vector<double> release_us;

 private:
  PromiseManager* pm_;
  ClientId client_;
};

/// Registers the application services every workload uses.
void RegisterServices(PromiseManager& pm);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
