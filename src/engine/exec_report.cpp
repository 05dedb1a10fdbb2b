#include "engine/exec_report.hpp"

#include <cmath>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"

namespace pglb {

double ExecReport::straggler_fraction(MachineId machine) const noexcept {
  if (trace.empty()) return 0.0;
  std::size_t stalls = 0;
  for (const SuperstepTrace& step : trace) {
    if (step.straggler == machine) ++stalls;
  }
  return static_cast<double>(stalls) / static_cast<double>(trace.size());
}

double ExecReport::idle_fraction() const noexcept {
  double busy = 0.0, idle = 0.0;
  for (const MachineActivity& a : per_machine) {
    busy += a.compute_seconds + a.comm_seconds;
    idle += a.idle_seconds;
  }
  const double total = busy + idle;
  return total > 0.0 ? idle / total : 0.0;
}

void RunReports::set_lanes(std::vector<ExecReport> lanes) {
  if (lanes.empty()) throw std::invalid_argument("RunReports::set_lanes: no lanes");
  report = std::move(lanes.front());
  other_lanes.assign(std::make_move_iterator(lanes.begin() + 1),
                     std::make_move_iterator(lanes.end()));
}

void append_trace_spans(const ExecReport& report, std::int32_t track) {
  if (!tracing_enabled() || report.trace.empty()) return;
  Tracer& tracer = Tracer::instance();
  auto to_ns = [](double seconds) {
    return static_cast<std::uint64_t>(std::llround(seconds * 1e9));
  };
  double t = 0.0;
  for (const SuperstepTrace& step : report.trace) {
    const std::uint64_t start = to_ns(t);
    const std::uint64_t end = to_ns(t + step.window_seconds);
    tracer.emit_complete("superstep", "virtual", start, end,
                         static_cast<std::uint64_t>(step.straggler), track);
    const std::uint64_t exchange_start = to_ns(t + step.window_seconds - step.exchange_seconds);
    tracer.emit_complete("exchange", "virtual", exchange_start, end, kTraceNoArg, track);
    t += step.window_seconds;
  }
}

std::string ExecReport::summary() const {
  std::ostringstream os;
  os << app_name << ": makespan=" << makespan_seconds << "s, energy=" << total_joules
     << "J, supersteps=" << supersteps << ", idle=" << idle_fraction() * 100.0 << "%";
  return os.str();
}

}  // namespace pglb
