// Serving-stack benchmark for the promise manager.
//
//   perfbench --workload checkout|room-hold|restart --seed N --seconds S
//             --trace 0|1 --data-dir DIR
//   perfbench --self-test --data-dir DIR
//
// A run prints reference lines, then one JSON object as its last line:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. The exit code is
// nonzero when a correctness check fails or the stack cannot be driven.
// See README.md for the workloads and the metrics.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "runs.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunReport;

const char* const kWorkloads[] = {"checkout", "room-hold", "restart"};

void PrintJson(const RunReport& r) {
  std::string out = "{\"correct\": ";
  out += r.violations.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", r.metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + r.metrics[i].name +
           "\": {\"value\": " + value + ", \"unit\": \"" + r.metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Runs each workload in smoke mode once clean (every check must pass)
/// and once per check with that check's expectation skewed (it must
/// fail).
int SelfTest(RunOptions base) {
  base.smoke = true;
  base.seconds = 0;
  bool all = true;
  for (const char* workload : kWorkloads) {
    base.workload = workload;
    base.skew.clear();
    RunReport clean = perfbench::RunEndToEnd(base);
    const bool clean_ok =
        clean.ok && clean.violations.empty() && clean.failed == 0;
    std::printf("%-10s %-36s %s\n", workload, "(all checks, true expectations)",
                clean_ok ? "pass" : "FAIL");
    if (!clean_ok) {
      all = false;
      if (!clean.ok) std::printf("  %s\n", clean.error.c_str());
      for (const std::string& v : clean.violations) std::printf("  %s\n", v.c_str());
      continue;
    }
    for (const std::string& check : clean.checks) {
      base.skew = check;
      RunReport skewed = perfbench::RunEndToEnd(base);
      const bool caught = std::any_of(
          skewed.violations.begin(), skewed.violations.end(),
          [&](const std::string& v) { return v.rfind(check, 0) == 0; });
      std::printf("%-10s %-36s %s\n", workload, check.c_str(),
                  caught ? "fails as it should" : "DID NOT FAIL");
      all = all && caught;
    }
  }
  std::printf("self-test %s\n", all ? "passed" : "FAILED");
  return all ? 0 : 1;
}

/// Pins this process — server, clients and log writer alike — to the
/// highest-numbered CPU it may run on, and returns the number of CPUs
/// it may run on afterwards (1, unless pinning failed). On a shared
/// virtual machine every hand-off between threads on different vCPUs
/// may wait for the host to schedule a halted vCPU; that wait, not the
/// stack, decided the figures (checkout throughput spread 98% over five
/// runs unpinned, 8% pinned).
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) return 1;
    break;
  }
  return CPU_COUNT(&allowed);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload checkout|room-hold|restart "
               "--seed N --seconds S --trace 0|1 --data-dir DIR\n"
               "       perfbench --self-test --data-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  bool trace = false;
  bool self_test = false;
  std::string root;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else if (arg == "--data-dir" && has_value) {
      root = argv[++i];
    } else {
      return Usage();
    }
  }
  if (root.empty()) return Usage();
  // The load comes from this one process, before any thread starts: one
  // connection per CPU the process may run on, and at most four. Pinned,
  // that is one connection, so no client waits in the run queue behind
  // another client or the server.
  o.clients = std::clamp(PinToOneCpu(), 1, 4);
  o.data_dir = root + "/run-" + std::to_string(::getpid());
  std::filesystem::remove_all(o.data_dir);
  std::filesystem::create_directories(o.data_dir);

  int code = 0;
  if (self_test) {
    code = SelfTest(o);
  } else if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                       o.workload) == std::end(kWorkloads) ||
             o.seconds < 1) {
    code = Usage();
  } else {
    RunReport r = trace ? perfbench::RunTraced(o) : perfbench::RunEndToEnd(o);
    for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
    if (!r.ok) {
      std::fprintf(stderr, "perfbench: %s\n", r.error.c_str());
      code = 1;
    } else {
      for (const std::string& v : r.violations) {
        std::fprintf(stderr, "check failed: %s\n", v.c_str());
      }
      std::fflush(stdout);
      PrintJson(r);
      code = r.violations.empty() ? 0 : 1;
    }
  }
  std::filesystem::remove_all(o.data_dir);
  return code;
}
