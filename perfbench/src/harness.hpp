#pragma once
// Shared machinery of the perfbench driver: the span recorder behind the
// traced run, sample statistics, the result record every workload fills,
// provenance, and child-process helpers.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public API; the library itself is never instrumented for this.
// Timing is always on (stage durations feed the end-to-end numbers);
// recording into the span store happens only in a traced run.

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// --- clock ------------------------------------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// --- spans ------------------------------------------------------------------

struct Span {
  const char* name = nullptr;  ///< "<layer>.<call>"; static storage
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    ///< index into the store, -1 = root
  std::uint64_t request = 0;   ///< request / iteration id
  std::uint32_t thread = 0;
};

/// Process-wide span store.  A mutex guards it: spans are per call into the
/// library (at most a few thousand per second), not per inner-loop step.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::int64_t open(const char* name, std::uint64_t request, std::uint64_t start_ns);
  void close(std::int64_t index, std::uint64_t end_ns);

  std::vector<Span> snapshot() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII stage timer: always measures, records a span when tracing is on.
/// Nested spans on one thread become children of the enclosing one.
class Stage {
 public:
  explicit Stage(const char* name, std::uint64_t request = 0);
  ~Stage();
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Close early and return the duration (idempotent).
  double stop();

 private:
  std::uint64_t start_ns_;
  std::int64_t index_ = -1;
  bool open_ = true;
  double seconds_ = 0.0;
};

/// Self time per layer (span duration minus its children), summed.
std::vector<std::pair<std::string, double>> layer_self_seconds(
    const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" events, one tid per recording thread).
void write_chrome_trace(const std::vector<Span>& spans, const std::string& path);

// --- statistics -------------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// The highest of the standard percentiles (99, 90, 50) that leaves at least
/// 10 samples beyond it, with its value — or p50 when even that is too few.
struct Percentile {
  double q = 0.5;
  double value = 0.0;
};
Percentile tail_percentile(const std::vector<double>& values);

/// "<label>: N samples, p50 X <unit>, pQQ Y <unit>" with the tail percentile
/// above — how every timing is reported alongside its sample count.
std::string timing_note(const std::string& label, const std::vector<double>& values,
                        const std::string& unit);

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::string mismatch;  ///< first mismatch, empty when correct
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// BENCHMARK.json's end-to-end metrics (same names for every workload).
  std::vector<Metric> e2e;
  /// The workload's own end-to-end metrics, by the names users know them.
  std::vector<Metric> named;
  /// Per-layer metrics from the traced run.
  std::vector<Metric> layers;
  /// Free-form context lines printed before the result.
  std::vector<std::string> notes;

  void fail(const std::string& what);
  void add_e2e(std::string name, double value, std::string unit);
  void add_named(std::string name, double value, std::string unit);
  void add_layer(std::string name, double value, std::string unit);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< scratch inputs and traces live here
  std::string serve_path;  ///< pglb_serve binary
  std::string self_path;   ///< this binary, for child checks
};

/// Peak resident set in MB of this process and its largest reaped child.
double peak_rss_mb();
/// Peak resident set (VmHWM) in MB of live process `pid` (0 when unreadable).
double process_peak_rss_mb(int pid);

/// CPU time (user + system, all threads) of this process, in seconds.
double self_cpu_seconds();
/// CPU time (user + system, all threads) of process `pid`, from
/// /proc/<pid>/stat, in seconds (0 when unreadable).
double process_cpu_seconds(int pid);

/// Restrict every thread of process `pid` (0 = this process) to `cpus`.
/// Threads created later inherit their creator's mask.  Throws when a live
/// thread cannot be moved.
void set_process_affinity(int pid, const cpu_set_t& cpus);

/// Run `argv` with `env_overrides` ("K=V") added, capture stdout, wait.
/// Returns the exit status (-1 when it could not start).
int run_child(const std::vector<std::string>& argv,
              const std::vector<std::string>& env_overrides, std::string* out);

/// Provenance line: host, compiler, build, threads, seed, input size, and
/// the replica count with each replica's request workers and pool threads.
std::string provenance_json(const Options& options, std::uint64_t input_bytes,
                            int replicas, int workers, int pool_threads);
/// Non-empty reason when the build must not report numbers.
std::string build_refusal();
/// L3 size in bytes (0 when unknown).
std::uint64_t l3_bytes();

/// JSON number with every digit kept ("%.17g", NaN/inf become 0).
std::string json_number(double value);

}  // namespace perfbench
