#pragma once
// Execution report of one distributed application run: the virtual-time and
// energy numbers that every evaluation figure (9, 10) is built from.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "machine/energy_model.hpp"

namespace pglb {

struct MachineActivity {
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  double idle_seconds = 0.0;
  double ops = 0.0;
  double joules = 0.0;
};

/// One superstep of the schedule, for straggler analysis.
struct SuperstepTrace {
  double window_seconds = 0.0;    ///< barrier-to-barrier duration
  double exchange_seconds = 0.0;  ///< shared mirror-exchange portion
  MachineId straggler = 0;        ///< machine whose compute defined the window
  double total_ops = 0.0;
};

struct ExecReport {
  std::string app_name;
  double makespan_seconds = 0.0;   ///< virtual wall-clock of the whole run
  double total_joules = 0.0;
  int supersteps = 0;
  bool converged = false;
  double total_ops = 0.0;
  std::vector<MachineActivity> per_machine;
  /// Chronological per-superstep schedule (synchronous apps; empty for
  /// asynchronous execution, which has no barriers to trace).
  std::vector<SuperstepTrace> trace;

  /// Fraction of synchronous supersteps stalled by the given machine.
  double straggler_fraction(MachineId machine) const noexcept;

  /// Fraction of aggregate machine-time spent idling at barriers — the
  /// imbalance waste the paper's method removes.
  double idle_fraction() const noexcept;

  std::string summary() const;
};

/// The reports of one application run, one per cluster lane (ClusterLanes);
/// every app's output carries them.  `report` is lane 0 — the whole story of
/// an ordinary one-cluster run.
struct RunReports {
  ExecReport report;
  std::vector<ExecReport> other_lanes;  ///< lanes 1.., in lane order

  /// Store VirtualClusterExecutor::finish_lanes()'s reports.
  void set_lanes(std::vector<ExecReport> lanes);

  const ExecReport& lane(std::size_t i) const { return i == 0 ? report : other_lanes.at(i - 1); }
};

/// Bridge a run's synchronous superstep schedule into the span tracer as
/// virtual-time spans on track `track` of the "virtual cluster" process
/// (pid 2 of the Chrome trace): one "superstep" span per barrier window
/// (arg = straggler machine) with a nested "exchange" span for the
/// mirror-sync tail.  No-op when tracing is disabled or the trace is empty
/// (asynchronous apps record no barriers).
void append_trace_spans(const ExecReport& report, std::int32_t track = 0);

}  // namespace pglb
