// The two kinds of run: end to end over ServerLifecycle with the
// benchmark's timing off, and traced over the same stack assembled from
// its public parts, with per-layer timings taken from outside.

#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int clients = 1;  ///< connections: one per CPU the process may run on
  std::string data_dir;  ///< fresh, private to this run; removed afterwards
  bool smoke = false;    ///< tiny counts, one set-up (the self-test)
  std::string skew;      ///< check given a wrong expectation (self-test)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool ok = true;  ///< false when the stack could not be driven at all
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;       ///< reference figures, one per line
  std::vector<std::string> violations;  ///< failed correctness checks
  std::vector<std::string> checks;      ///< checks evaluated
};

RunReport RunEndToEnd(const RunOptions& options);
RunReport RunTraced(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
