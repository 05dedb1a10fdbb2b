#pragma once
// Workload entry points of the perfbench driver (see perfbench/README.md).

#include <string>

#include "harness.hpp"

namespace perfbench {

Outcome run_pipeline(const Options& options);
Outcome run_plan_cold(const Options& options);
Outcome run_plan_warm(const Options& options);
Outcome run_plan_delta(const Options& options);

/// Child role of pipeline_run: one staged run plus run_flow on `graph_path`,
/// printed as one JSON line (run under PGLB_THREADS=1 by the parent).
int pipeline_child(const std::string& graph_path);

}  // namespace perfbench
