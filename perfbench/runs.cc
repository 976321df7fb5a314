#include "runs.h"

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "common.h"
#include "core/checkpoint.h"
#include "core/oplog.h"
#include "matching/bipartite.h"
#include "obs/metrics.h"
#include "predicate/evaluator.h"
#include "predicate/parser.h"
#include "service/lifecycle.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr const char* kManager = "pm";
constexpr int kSetups = 9;  ///< set-ups per run; setup_s is their median
/// Timed restarts per set-up (checkout, room-hold) and after restart's
/// tail; recovery_s is the median of all of them.
constexpr int kSetupRestarts = 3;
constexpr int kTailRestarts = 7;

// ---------------------------------------------------------------------------
// Load generation

using Clients = std::vector<std::unique_ptr<WireClient>>;

Status ConnectClients(uint16_t port, int n, Clients* clients) {
  if (clients->empty()) {
    for (int c = 0; c < n; ++c) {
      clients->push_back(std::make_unique<WireClient>(
          "client-" + std::to_string(c), kManager));
    }
  }
  for (auto& client : *clients) PROMISES_RETURN_IF_ERROR(client->Connect(port));
  return Status::OK();
}

/// Runs fn(client) on one thread per client and joins them all.
std::vector<Status> OnEveryClient(int n, const std::function<Status(int)>& fn) {
  std::vector<Status> out(static_cast<size_t>(n));
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] { out[static_cast<size_t>(c)] = fn(c); });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

/// Closed-loop load: per-round rates, per-operation latencies, counts.
struct Phase {
  std::vector<double> round_rates;
  std::vector<double> latency_us;
  uint64_t ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  void Fail(const Status& st) {
    ++failed;
    if (first_error.empty()) first_error = st.ToString();
  }
};

/// Closed-loop rounds: every client runs `ops` business operations back
/// to back, with no think time, then waits for the others. Client
/// threads live across rounds (fresh threads per round would vary the
/// allocator's arenas, and with them peak memory, from run to run).
/// `next(round)` is asked before each round whether to run it; `after`
/// runs between rounds, with every client idle. A client stops a round
/// at its first failure.
void RunRounds(Workload& w, Clients& clients, int ops,
               const std::function<bool(int round)>& next,
               const std::function<void(double rate, uint64_t ops)>& after,
               Phase* phase) {
  const size_t n = clients.size();
  std::barrier sync(static_cast<std::ptrdiff_t>(n + 1));
  bool stop = false;
  std::vector<std::vector<double>> latencies(n);
  std::vector<Status> statuses(n);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        sync.arrive_and_wait();  // round start (or stop)
        if (stop) return;
        latencies[c].clear();
        statuses[c] = Status::OK();
        for (int i = 0; i < ops && statuses[c].ok(); ++i) {
          const double s = NowUs();
          statuses[c] = w.Step(*clients[c], static_cast<int>(c));
          latencies[c].push_back(NowUs() - s);
        }
        sync.arrive_and_wait();  // round end
      }
    });
  }
  for (int round = 0;; ++round) {
    if (!next(round)) break;
    const double t0 = NowUs();
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    const double elapsed = SecondsSince(t0);
    uint64_t completed = 0;
    for (size_t c = 0; c < n; ++c) {
      completed += latencies[c].size() - (statuses[c].ok() ? 0 : 1);
      phase->attempted += latencies[c].size();
      phase->latency_us.insert(phase->latency_us.end(), latencies[c].begin(),
                               latencies[c].end());
      if (!statuses[c].ok()) phase->Fail(statuses[c]);
    }
    phase->ops += completed;
    const double rate = static_cast<double>(completed) / elapsed;
    phase->round_rates.push_back(rate);
    after(rate, completed);
  }
  stop = true;
  sync.arrive_and_wait();
  for (std::thread& t : threads) t.join();
}

/// `rounds` rounds with nothing between them.
void Rounds(Workload& w, Clients& clients, int ops, int rounds, Phase* phase) {
  RunRounds(
      w, clients, ops, [&](int round) { return round < rounds; },
      [](double, uint64_t) {}, phase);
}

void FailAll(const std::vector<Status>& statuses, Phase* phase) {
  for (const Status& st : statuses) {
    if (!st.ok()) phase->Fail(st);
  }
}

// ---------------------------------------------------------------------------
// Nodes

/// Group commit as the serving stack runs it, minus the flush to disk:
/// each group is written to the kernel, fdatasync is not called. The
/// benchmark may write only inside its checkout, where no memory-backed
/// directory exists, and fdatasync on the shared virtual disk it was
/// built on (p50 ~90 us, p99 0.4-0.9 ms) moved checkout throughput by
/// +-20% between runs of one seed. Without the flush the durable files
/// sit in kernel memory, as they would on a tmpfs data directory.
GroupCommitConfig BenchGroupCommit() {
  GroupCommitConfig gc;
  gc.mode = DurabilityMode::kGroup;
  gc.use_fdatasync = false;
  return gc;
}

ServerLifecycleOptions LifecycleOptions(const Workload& w,
                                        const std::string& dir) {
  ServerLifecycleOptions o;
  o.data_dir = dir;
  o.name = "node";
  o.manager.name = kManager;
  o.group_commit = BenchGroupCommit();
  o.define_resources = [&w](ResourceManager& rm) { w.DefineResources(rm); };
  o.configure_manager = [](PromiseManager& pm) { RegisterServices(pm); };
  return o;
}

std::string FreshDir(const std::string& root, const std::string& leaf) {
  const std::string dir = root + "/" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The serving stack ServerLifecycle runs, assembled from its public
/// parts so the traced run can pass a timing handler to
/// TcpEndpointServer::Start.
class AssembledNode {
 public:
  AssembledNode(const Workload& w, std::string dir, TraceSink* sink)
      : workload_(w), dir_(std::move(dir)), sink_(sink) {}
  ~AssembledNode() { Kill(); }
  AssembledNode(const AssembledNode&) = delete;
  AssembledNode& operator=(const AssembledNode&) = delete;

  Status Start() {
    PromiseManagerConfig config;
    config.name = kManager;
    pm_ = std::make_unique<PromiseManager>(config, &clock_, &rm_, &tm_);
    workload_.DefineResources(rm_);
    RegisterServices(*pm_);
    PROMISES_RETURN_IF_ERROR(oplog_.Open(log_path()));
    PROMISES_RETURN_IF_ERROR(
        oplog_.StartGroupCommit(BenchGroupCommit(), &clock_));
    PROMISES_RETURN_IF_ERROR(pm_->AttachLog(&oplog_));
    clock_.Run();
    TcpServerOptions options;
    options.clock = &clock_;
    PROMISES_RETURN_IF_ERROR(server_.Start(
        0,
        [this](const Envelope& request) -> Result<Envelope> {
          if (!timing_.load(std::memory_order_acquire)) {
            return pm_->Handle(request);
          }
          const double t0 = NowUs();
          Result<Envelope> reply = pm_->Handle(request);
          sink_->RecordHandle(request, NowUs() - t0);
          return reply;
        },
        options));
    running_ = true;
    return Status::OK();
  }

  /// Simulated crash: sockets torn down, the log abandoned mid-group.
  void Kill() {
    if (!running_) return;
    server_.Stop();
    oplog_.Abandon();
    running_ = false;
  }

  /// Fuzzy checkpoint installed at `path`; with `compact` the log prefix
  /// before the cut is dropped, as CheckpointWriter does.
  Status Checkpoint(const std::string& path, bool compact) {
    if (compact) {
      CheckpointWriter writer(pm_.get(), &oplog_, path);
      return writer.RunOnce().status();
    }
    PROMISES_ASSIGN_OR_RETURN(CheckpointData data, pm_->CaptureCheckpoint());
    PROMISES_RETURN_IF_ERROR(oplog_.WaitDurable(data.cut_lsn));
    return WriteCheckpointFile(path, data);
  }

  void set_timing(bool on) { timing_.store(on, std::memory_order_release); }
  uint16_t port() const { return server_.port(); }
  PromiseManager& pm() { return *pm_; }
  ResourceManager& rm() { return rm_; }
  std::string log_path() const { return dir_ + "/node.oplog"; }

 private:
  const Workload& workload_;
  std::string dir_;
  TraceSink* sink_;
  std::atomic<bool> timing_{false};
  bool running_ = false;
  WarmStartClock clock_;
  ResourceManager rm_;
  TransactionManager tm_{250};
  OperationLog oplog_;
  std::unique_ptr<PromiseManager> pm_;
  TcpEndpointServer server_;
};

/// A promise manager with no log and no wire, for direct-API timings
/// and offline recovery.
struct OfflineWorld {
  explicit OfflineWorld(const Workload& w) {
    PromiseManagerConfig config;
    config.name = kManager;
    pm = std::make_unique<PromiseManager>(config, &clock, &rm, &tm);
    w.DefineResources(rm);
    RegisterServices(*pm);
  }
  SimulatedClock clock;
  ResourceManager rm;
  TransactionManager tm{250};
  std::unique_ptr<PromiseManager> pm;
};

void CollectChecks(const Checker& checker, RunReport* report) {
  report->violations = checker.violations();
  report->checks = checker.names();
}

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

void AddLatencyNotes(const Phase& phase, RunReport* report) {
  report->notes.push_back(
      "round rates q1 " + Fixed(Percentile(phase.round_rates, 0.25), 1) +
      ", median " + Fixed(Median(phase.round_rates), 1) + ", q3 " +
      Fixed(Percentile(phase.round_rates, 0.75), 1) + " ops/s");
  report->notes.push_back(
      "latency_p99_ms " + Fixed(Percentile(phase.latency_us, 0.99) / 1000, 4) +
      " over " + std::to_string(phase.latency_us.size()) + " operations, " +
      std::to_string(phase.round_rates.size()) + " rounds");
}

}  // namespace

// ---------------------------------------------------------------------------
// End to end

RunReport RunEndToEnd(const RunOptions& o) {
  RunReport report;
  std::unique_ptr<Workload> w =
      MakeWorkload(o.workload, o.seed, o.clients, o.smoke);
  Checker checker(o.skew);
  w->set_checker(&checker);
  const Plan& plan = w->plan();
  const bool restart = plan.rounds_before_cut > 0;
  auto fail = [&](const std::string& what, const Status& st) {
    report.ok = false;
    report.error = what + ": " + st.ToString();
    return report;
  };

  std::vector<double> setup_s;
  std::vector<double> recovery_s;
  Phase setup;
  std::unique_ptr<ServerLifecycle> node;
  Clients clients;
  std::string dir;
  const int setups = o.smoke ? 1 : kSetups;
  for (int rep = 0; rep < setups; ++rep) {
    if (node != nullptr) {
      node->KillHard();
      node.reset();
      std::filesystem::remove_all(dir);
    }
    dir = FreshDir(o.data_dir, "setup-" + std::to_string(rep));
    clients.clear();
    const double t0 = NowUs();
    node = std::make_unique<ServerLifecycle>(LifecycleOptions(*w, dir));
    Status st = node->Start();
    if (!st.ok()) return fail("boot", st);
    w->Reset(rep);
    st = ConnectClients(node->port(), w->clients(), &clients);
    if (!st.ok()) return fail("connect", st);
    FailAll(OnEveryClient(w->clients(),
                          [&](int c) {
                            return w->Prepare(*clients[static_cast<size_t>(c)],
                                              c);
                          }),
            &setup);
    Rounds(*w, clients, plan.warmup_ops, 1, &setup);
    setup_s.push_back(SecondsSince(t0));
    if (restart) continue;
    // checkout and room-hold: a short log with no checkpoint.
    for (int r = 0; r < kSetupRestarts; ++r) {
      node->KillHard();
      const double r0 = NowUs();
      st = node->Start();
      recovery_s.push_back(SecondsSince(r0));
      if (!st.ok()) return fail("restart", st);
    }
    st = ConnectClients(node->port(), w->clients(), &clients);
    if (!st.ok()) return fail("reconnect", st);
  }

  Phase phase;
  // Durable bytes and committed operations of the measured node.
  // checkout and room-hold count them from the start of the measured
  // phase, whose length follows the host's speed, so that the set-up's
  // fixed share (room-hold's standing holds) does not enter the ratio;
  // restart's history has a fixed length and counts from the empty
  // directory.
  uint64_t durable_bytes = 0;
  uint64_t committed = 0;
  const CpuTicks ticks_before = ReadCpuTicks();
  const double measure_start = NowUs();
  auto check = [&] {
    w->Check(*node->manager(), *node->resources(), &checker);
  };
  if (!restart) {
    const uint64_t bytes_before = DirBytes(dir);
    const uint64_t committed_before = w->committed();
    RunRounds(
        *w, clients, plan.round_ops,
        [&](int round) {
          return round == 0 || SecondsSince(measure_start) < o.seconds;
        },
        [&](double, uint64_t) { check(); }, &phase);
    node->KillHard();
    durable_bytes = DirBytes(dir) - bytes_before;
    committed = w->committed() - committed_before;
  } else {
    Rounds(*w, clients, plan.round_ops, plan.rounds_before_cut, &phase);
    check();
    node->StopGraceful();  // the checkpoint cut
    Status st = node->Start();
    if (!st.ok()) return fail("restart after the cut", st);
    st = ConnectClients(node->port(), w->clients(), &clients);
    if (!st.ok()) return fail("reconnect", st);
    Rounds(*w, clients, plan.round_ops, plan.rounds_after_cut, &phase);
    // Timed restarts over the same durable state.
    for (int r = 0; r < kTailRestarts; ++r) {
      node->KillHard();
      if (r == 0) {
        durable_bytes = DirBytes(dir);
        committed = w->committed();
      }
      const double r0 = NowUs();
      st = node->Start();
      recovery_s.push_back(SecondsSince(r0));
      if (!st.ok()) return fail("timed restart", st);
    }
    check();
    st = ConnectClients(node->port(), w->clients(), &clients);
    if (!st.ok()) return fail("reconnect", st);
    FailAll(OnEveryClient(w->clients(),
                          [&](int c) {
                            return w->Finish(*clients[static_cast<size_t>(c)],
                                             c);
                          }),
            &phase);
    check();
    node->KillHard();
  }
  const CpuTicks ticks_after = ReadCpuTicks();
  node.reset();
  std::filesystem::remove_all(dir);

  report.attempted = setup.attempted + phase.attempted;
  report.failed = setup.failed + phase.failed;
  if (!setup.first_error.empty()) report.notes.push_back("setup failure: " + setup.first_error);
  if (!phase.first_error.empty()) report.notes.push_back("failure: " + phase.first_error);
  report.metrics = {
      {"throughput_ops_s", Median(phase.round_rates), "ops/s"},
      {"latency_p50_ms", Median(phase.latency_us) / 1000, "ms"},
      {"setup_s", Median(setup_s), "s"},
      {"recovery_s", Median(recovery_s), "s"},
      {"durable_bytes_per_op",
       committed > 0 ? static_cast<double>(durable_bytes) /
                           static_cast<double>(committed)
                     : 0,
       "B"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  AddLatencyNotes(phase, &report);
  if (ticks_after.total > ticks_before.total) {
    report.notes.push_back(
        "host steal " +
        Fixed(100.0 * static_cast<double>(ticks_after.steal - ticks_before.steal) /
                  static_cast<double>(ticks_after.total - ticks_before.total),
              2) +
        "% of CPU time during the measured phase");
  }
  report.notes.push_back("recoveries " + std::to_string(recovery_s.size()) +
                         ", committed operations behind durable_bytes_per_op " +
                         std::to_string(committed));
  CollectChecks(checker, &report);
  return report;
}

// ---------------------------------------------------------------------------
// Traced

namespace {

/// Matching-layer and predicate-matching timings over a hold/release
/// sequence on the room-hold catalog.
void TimeMatching(const std::vector<HoldEvent>& events,
                  std::vector<double>* match_us,
                  std::vector<double>* add_demand_us) {
  RoomHoldWorkload hotel(1, 1, Plan{});
  ResourceManager rm;
  hotel.DefineResources(rm);
  Result<std::vector<InstanceView>> rooms = rm.ExportInstances("room");
  if (!rooms.ok()) return;
  const Schema* schema = rm.GetSchema("room");
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < rooms->size(); ++i) index[(*rooms)[i].id] = i;
  IncrementalMatcher matcher(rooms->size());
  for (const HoldEvent& e : events) {
    switch (e.kind) {
      case HoldEvent::kAdd: {
        const Predicate pred = RoomHoldWorkload::CategoryPredicate(e.category);
        double t0 = NowUs();
        Result<std::vector<size_t>> candidates =
            MatchingInstances(pred, *rooms, schema);
        match_us->push_back(NowUs() - t0);
        if (!candidates.ok()) break;
        t0 = NowUs();
        (void)matcher.AddDemand(e.demand, *candidates);
        add_demand_us->push_back(NowUs() - t0);
        break;
      }
      case HoldEvent::kRemove:
        matcher.RemoveDemand(e.demand);
        break;
      case HoldEvent::kTake:
        (void)matcher.DisableRight(index[e.room]);
        break;
      case HoldEvent::kFree:
        matcher.EnableRight(index[e.room]);
        break;
    }
  }
}

struct LockCounters {
  uint64_t waits = 0;
  int64_t wait_us = 0;
};

LockCounters ReadLockCounters() {
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  LockCounters out;
  out.waits = snap.CounterValue("promises_lock_waits_total");
  for (const auto& h : snap.histograms) {
    if (h.name.rfind("promises_lock_wait_stripe_", 0) == 0) {
      out.wait_us += h.sum_us;
    }
  }
  return out;
}

}  // namespace

RunReport RunTraced(const RunOptions& o) {
  RunReport report;
  std::unique_ptr<Workload> w =
      MakeWorkload(o.workload, o.seed, o.clients, false);
  Checker checker;
  w->set_checker(&checker);
  const Plan& plan = w->plan();
  const bool restart = plan.rounds_before_cut > 0;
  auto fail = [&](const std::string& what, const Status& st) {
    report.ok = false;
    report.error = what + ": " + st.ToString();
    return report;
  };
  std::vector<Metric>& m = report.metrics;

  // resource: catalog definition into fresh resource managers.
  {
    std::vector<double> build_s;
    for (int i = 0; i < 5; ++i) {
      ResourceManager rm;
      const double t0 = NowUs();
      w->DefineResources(rm);
      build_s.push_back(SecondsSince(t0));
    }
    m.push_back({"resource.catalog_build_s", Median(build_s), "s"});
  }
  // service: cold ServerLifecycle::Start on an empty data directory.
  {
    std::vector<double> boot_s;
    for (int i = 0; i < 3; ++i) {
      const std::string dir = FreshDir(o.data_dir, "boot");
      ServerLifecycle node(LifecycleOptions(*w, dir));
      const double t0 = NowUs();
      Status st = node.Start();
      boot_s.push_back(SecondsSince(t0));
      if (!st.ok()) return fail("boot", st);
      node.KillHard();
    }
    std::filesystem::remove_all(o.data_dir + "/boot");
    m.push_back({"service.boot_s", Median(boot_s), "s"});
  }

  // Live phase on the assembled stack: rounds alternate between timing
  // off and on, so the tracing overhead is measured on the same node
  // over the same stretch of time.
  const std::string dir = FreshDir(o.data_dir, "traced");
  TraceSink sink;
  Phase setup;
  Phase phase;
  Phase plain;
  Phase traced;
  uint64_t committed = 0;
  {
    AssembledNode node(*w, dir, &sink);
    Status st = node.Start();
    if (!st.ok()) return fail("boot", st);
    w->Reset(0);
    Clients clients;
    st = ConnectClients(node.port(), w->clients(), &clients);
    if (!st.ok()) return fail("connect", st);
    FailAll(OnEveryClient(w->clients(),
                          [&](int c) {
                            return w->Prepare(*clients[static_cast<size_t>(c)],
                                              c);
                          }),
            &setup);
    Rounds(*w, clients, plan.warmup_ops, 1, &setup);

    int round = 0;
    bool timed = false;
    auto next = [&](auto more) {
      return [&, more](int r) {
        if (!more(r)) return false;
        timed = round++ % 2 == 1;
        node.set_timing(timed);
        for (auto& client : clients) client->set_sink(timed ? &sink : nullptr);
        return true;
      };
    };
    auto after = [&](double rate, uint64_t ops) {
      Phase& side = timed ? traced : plain;
      side.round_rates.push_back(rate);
      side.ops += ops;
      w->Check(node.pm(), node.rm(), &checker);
    };
    const double measure_start = NowUs();
    if (!restart) {
      RunRounds(*w, clients, plan.round_ops, next([&](int r) {
                  return r < 2 || SecondsSince(measure_start) < o.seconds;
                }),
                after, &phase);
      st = node.Checkpoint(dir + "/node.ckpt", /*compact=*/false);
    } else {
      RunRounds(*w, clients, plan.round_ops,
                next([&](int r) { return r < plan.rounds_before_cut; }), after,
                &phase);
      st = node.Checkpoint(dir + "/node.ckpt", /*compact=*/true);
      RunRounds(*w, clients, plan.round_ops,
                next([&](int r) { return r < plan.rounds_after_cut; }), after,
                &phase);
    }
    if (!st.ok()) return fail("checkpoint", st);
    node.set_timing(false);
    committed = w->committed();
    node.Kill();
  }

  // protocol
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  std::vector<std::string> predicate_texts;
  for (const Envelope& e : sink.sample) {
    double t0 = NowUs();
    const std::string xml = e.ToXml();
    encode_us.push_back(NowUs() - t0);
    t0 = NowUs();
    Result<Envelope> parsed = Envelope::FromXml(xml);
    decode_us.push_back(NowUs() - t0);
    if (!parsed.ok()) return fail("decode", parsed.status());
    if (e.promise_request.has_value()) {
      std::string text;
      for (const Predicate& p : e.promise_request->predicates) {
        text += (text.empty() ? "" : "; ") + p.ToString();
      }
      predicate_texts.push_back(text);
    }
  }
  const double envelopes_per_op =
      static_cast<double>(sink.envelopes) /
      static_cast<double>(std::max<uint64_t>(traced.ops, 1));
  m.push_back({"protocol.call_us", Median(sink.call_us), "us"});
  m.push_back({"protocol.wire_us", Median(sink.wire_us), "us"});
  m.push_back({"protocol.encode_us", Median(encode_us), "us"});
  m.push_back({"protocol.decode_us", Median(decode_us), "us"});
  m.push_back({"protocol.bytes_per_op",
               static_cast<double>(sink.sampled_bytes) /
                   static_cast<double>(
                       std::max<uint64_t>(sink.sampled_envelopes, 1)) *
                   envelopes_per_op,
               "B"});
  m.push_back({"core.handle_us", Median(sink.handle_us), "us"});

  // core: direct API on the workload's own requests, no wire, no log.
  {
    std::unique_ptr<Workload> direct_w = MakeWorkload(o.workload, o.seed, 1, false);
    Checker direct_checker;
    direct_w->set_checker(&direct_checker);
    OfflineWorld world(*direct_w);
    DirectClient direct(world.pm.get(), "direct");
    direct_w->Reset(0);
    Status st = direct_w->Prepare(direct, 0);
    const int steps = plan.round_ops * w->clients() * 4;
    for (int i = 0; st.ok() && i < steps; ++i) st = direct_w->Step(direct, 0);
    if (st.ok()) st = direct_w->Finish(direct, 0);
    if (!st.ok()) return fail("direct API", st);
    // Workloads without explicit releases: release fresh grants of
    // their own request kind.
    Rng rng(o.seed);
    while (st.ok() && direct.release_us.size() < 500) {
      Result<PromiseId> id = direct.Grant({direct_w->SamplePredicate(rng)});
      st = id.ok() ? direct.Release({*id}) : id.status();
    }
    if (!st.ok()) return fail("direct API release", st);
    m.push_back({"core.grant_us", Median(direct.grant_us), "us"});
    m.push_back({"core.action_us", Median(direct.action_us), "us"});
    m.push_back({"core.release_us", Median(direct.release_us), "us"});
  }

  // core: the log and recovery, timed separately on a copy of the files
  // left at the kill.
  const std::string copy = FreshDir(o.data_dir, "copy");
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::copy(entry.path(), copy + "/" + entry.path().filename().string());
  }
  std::filesystem::remove_all(dir);
  LogScanStats scan{};
  double t0 = NowUs();
  Result<std::vector<LogRecord>> records =
      OperationLog::ReadForRecovery(copy + "/node.oplog", &scan);
  const double log_scan_s = SecondsSince(t0);
  if (!records.ok()) return fail("log scan", records.status());
  {
    // Re-append the workload's own records into a fresh log, one
    // appender per client, as the serving path does.
    OperationLog log;
    SimulatedClock clock;
    Status st = log.Open(copy + "/reappend.oplog");
    if (st.ok()) st = log.StartGroupCommit(BenchGroupCommit(), &clock);
    if (!st.ok()) return fail("re-append log", st);
    const size_t limit = std::min<size_t>(records->size(), 20'000);
    std::vector<std::vector<double>> append_us(static_cast<size_t>(w->clients()));
    std::vector<std::vector<double>> durable_us(static_cast<size_t>(w->clients()));
    FailAll(OnEveryClient(w->clients(),
                          [&](int c) -> Status {
                            for (size_t i = static_cast<size_t>(c); i < limit;
                                 i += static_cast<size_t>(w->clients())) {
                              const LogRecord& r = (*records)[i];
                              double a0 = NowUs();
                              PROMISES_ASSIGN_OR_RETURN(
                                  uint64_t seq,
                                  log.AppendOperation(&clock, r.payload,
                                                      r.promise_id));
                              double a1 = NowUs();
                              PROMISES_RETURN_IF_ERROR(log.WaitDurable(seq));
                              append_us[static_cast<size_t>(c)].push_back(
                                  a1 - a0);
                              durable_us[static_cast<size_t>(c)].push_back(
                                  NowUs() - a1);
                            }
                            return Status::OK();
                          }),
            &phase);
    log.StopGroupCommit();
    log.Close();
    std::vector<double> all_append;
    std::vector<double> all_durable;
    for (int c = 0; c < w->clients(); ++c) {
      const size_t i = static_cast<size_t>(c);
      all_append.insert(all_append.end(), append_us[i].begin(), append_us[i].end());
      all_durable.insert(all_durable.end(), durable_us[i].begin(), durable_us[i].end());
    }
    m.push_back({"core.log_append_us", Median(all_append), "us"});
    m.push_back({"core.log_durable_us", Median(all_durable), "us"});
  }
  m.push_back({"core.log_records_per_op",
               static_cast<double>(scan.last_sequence) /
                   static_cast<double>(std::max<uint64_t>(committed, 1)),
               "count"});
  m.push_back({"core.log_scan_s", log_scan_s, "s"});
  {
    OfflineWorld restored(*w);
    t0 = NowUs();
    Result<CheckpointData> data = LoadCheckpointFile(copy + "/node.ckpt");
    Status st = data.ok() ? restored.pm->RestoreCheckpoint(*data, &restored.clock)
                          : data.status();
    const double restore_s = SecondsSince(t0);
    if (!st.ok()) return fail("checkpoint restore", st);
    m.push_back({"core.checkpoint_restore_s", restore_s, "s"});

    // Recovery replays what lies beyond the checkpoint it uses: the
    // tail for restart, the whole log for the others (no checkpoint).
    std::vector<LogRecord> tail;
    for (const LogRecord& r : *records) {
      if (!restart || r.sequence > data->cut_lsn) tail.push_back(r);
    }
    OfflineWorld fresh(*w);
    OfflineWorld& target = restart ? restored : fresh;
    t0 = NowUs();
    st = target.pm->ReplayLog(tail, &target.clock);
    const double replay_s = SecondsSince(t0);
    if (!st.ok()) return fail("replay", st);
    m.push_back({"core.replay_s", replay_s, "s"});
    m.push_back({"core.replay_records", static_cast<double>(tail.size()), "count"});
    if (restart) w->Check(*target.pm, target.rm, &checker);
  }
  std::filesystem::remove_all(copy);

  // predicate
  {
    std::vector<double> parse_us;
    for (const std::string& text : predicate_texts) {
      const double p0 = NowUs();
      Result<std::vector<Predicate>> parsed = ParsePredicateList(text);
      parse_us.push_back(NowUs() - p0);
      if (!parsed.ok()) return fail("predicate parse", parsed.status());
    }
    m.push_back({"predicate.parse_us", Median(parse_us), "us"});
  }
  // predicate matching and the matching layer replay room-hold's
  // hold/release sequence: this run's own for room-hold, otherwise a
  // short direct-API room-hold run on the same seed.
  {
    std::vector<HoldEvent> events = w->HoldEvents();
    if (events.empty()) {
      std::unique_ptr<Workload> hotel = MakeWorkload("room-hold", o.seed, 1, false);
      Checker hotel_checker;
      hotel->set_checker(&hotel_checker);
      OfflineWorld world(*hotel);
      DirectClient direct(world.pm.get(), "direct");
      hotel->Reset(0);
      Status st = hotel->Prepare(direct, 0);
      for (int i = 0; st.ok() && i < 200; ++i) {
        st = hotel->Step(direct, 0);
      }
      if (!st.ok()) return fail("reference room-hold sequence", st);
      events = hotel->HoldEvents();
    }
    std::vector<double> match_us;
    std::vector<double> add_demand_us;
    TimeMatching(events, &match_us, &add_demand_us);
    m.push_back({"predicate.match_instances_us", Median(match_us), "us"});
    m.push_back({"matching.add_demand_us", Median(add_demand_us), "us"});
  }
  // txn: the one connection of the live phase never waits on a lock.
  // Two callers on the process's one CPU run the workload's own steps
  // through the direct API against one manager; one waits whenever the
  // other is preempted inside a stripe it needs, so the waits grow with
  // how long and how widely the stripes are held.
  {
    constexpr int kCallers = 2;
    std::unique_ptr<Workload> pair =
        MakeWorkload(o.workload, o.seed, kCallers, false);
    Checker pair_checker;
    pair->set_checker(&pair_checker);
    OfflineWorld world(*pair);
    std::vector<std::unique_ptr<DirectClient>> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.push_back(std::make_unique<DirectClient>(
          world.pm.get(), "caller-" + std::to_string(c)));
    }
    pair->Reset(0);
    const int steps = pair->plan().round_ops * 10;
    const LockCounters before = ReadLockCounters();
    FailAll(OnEveryClient(kCallers,
                          [&](int c) -> Status {
                            DirectClient& ex = *callers[static_cast<size_t>(c)];
                            PROMISES_RETURN_IF_ERROR(pair->Prepare(ex, c));
                            for (int i = 0; i < steps; ++i) {
                              PROMISES_RETURN_IF_ERROR(pair->Step(ex, c));
                            }
                            return Status::OK();
                          }),
            &phase);
    const LockCounters after = ReadLockCounters();
    const double ops =
        static_cast<double>(std::max<uint64_t>(pair->committed(), 1));
    m.push_back({"txn.lock_waits_per_op",
                 static_cast<double>(after.waits - before.waits) / ops, "count"});
    m.push_back({"txn.lock_wait_us",
                 static_cast<double>(after.wait_us - before.wait_us) / ops, "us"});
  }
  // Tracing overhead: throughput lost by the timed rounds.
  const double plain_rate = Median(plain.round_rates);
  const double traced_rate = Median(traced.round_rates);
  m.push_back({"trace.overhead_pct",
               plain_rate > 0 ? (plain_rate - traced_rate) / plain_rate * 100 : 0,
               "%"});
  report.notes.push_back("untraced rounds " + Fixed(plain_rate, 1) +
                         " ops/s, traced rounds " + Fixed(traced_rate, 1) +
                         " ops/s");
  // Failures of the offline steps (re-append, lock probe) count too.
  report.attempted = setup.attempted + phase.attempted;
  report.failed = setup.failed + phase.failed;
  if (!setup.first_error.empty()) report.notes.push_back("setup failure: " + setup.first_error);
  if (!phase.first_error.empty()) report.notes.push_back("failure: " + phase.first_error);
  CollectChecks(checker, &report);
  return report;
}

}  // namespace perfbench
