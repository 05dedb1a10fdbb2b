// plan_fleet_cold and plan_fleet_warm: the service read path through a
// Router in front of two pglb_serve replicas (see fleet.hpp).
//
//  * cold: one client in a closed loop over a seeded list of distinct profile
//    keys (machine-class set x app x alpha), so every request misses and
//    profiles; alpha 2.8 sits outside the default proxy coverage, so proxy
//    generation runs too.
//  * warm: a hot set of cached keys.  Rounds of one client back to back on
//    one CPU (the gated latency) and of closed-loop saturation, then an open
//    loop at a fixed ladder of rates from four senders, each request timed
//    from when it was due; operator probes on fresh connections run during
//    the reference rung.

#include "fleet.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/proxy_suite.hpp"
#include "fleet/hashing.hpp"
#include "machine/catalog.hpp"
#include "util/hash.hpp"
#include "util/portfile.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pglb;

// --- fleet ------------------------------------------------------------------

double replica_proxy_scale() { return std::stod(std::to_string(kReplicaProxyScale)); }

std::unique_ptr<Planner> make_mirror_planner(unsigned threads, ServiceMetrics* metrics) {
  PlannerOptions options;
  options.proxy_scale = replica_proxy_scale();
  options.threads = threads;
  return std::make_unique<Planner>(options, metrics);
}

Fleet::Fleet(const Options& options) {
  spawn_.serve_path = options.serve_path;
  spawn_.threads = kReplicaWorkers;
  spawn_.scale = kReplicaProxyScale;
  spawn_.port_dir = options.work_dir + "/ports";
  std::filesystem::create_directories(spawn_.port_dir);
  try {
    // The children inherit the environment: size their pools, then restore.
    const char* prior = std::getenv("PGLB_THREADS");
    const std::string saved = prior != nullptr ? prior : "";
    setenv("PGLB_THREADS", std::to_string(kReplicaPoolThreads).c_str(), 1);
    for (int k = 0; k < kReplicas; ++k) {
      names_.push_back("r" + std::to_string(k));
      children_.push_back(spawn_serve(spawn_, 0, names_.back()));
    }
    if (prior != nullptr) {
      setenv("PGLB_THREADS", saved.c_str(), 1);
    } else {
      unsetenv("PGLB_THREADS");
    }
    // Poll the port files every 100 us (pglb_serve publishes its port after
    // listen()), so set-up time is not quantized by a coarse poll.
    for (int k = 0; k < kReplicas; ++k) {
      const std::string path = spawn_.port_dir + "/" + names_[k] + ".port";
      const std::uint64_t deadline = now_ns() + 30'000'000'000ull;
      while (true) {
        if (const auto port = read_port_file(path)) {
          children_[k].port = *port;
          break;
        }
        if (now_ns() > deadline) throw std::runtime_error("replica did not publish " + path);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    // No hedging, and no straggler re-weighting: on a shared 4-core host its
    // trigger (a replica's latency EWMA above 4x its peers') fires on
    // scheduling noise, moving hot keys to a replica that does not hold
    // them (cache misses in the warm phase) and delta bases to one that
    // does not know them (typed errors).  Both would make the workloads
    // measure the trigger's luck instead of the request path.
    RouterOptions router_options;
    router_options.hedge_delay_ms = 0;
    router_options.fleet.straggler_factor = 1e9;
    router_ = std::make_unique<Router>(router_options, &router_metrics_);
    for (int k = 0; k < kReplicas; ++k) {
      backends_.push_back(std::make_shared<TcpBackend>(
          names_[k], children_[k].port, "127.0.0.1", WireMode::kBinary, &router_metrics_));
      router_->add_backend(backends_.back());
    }
    router_->start();
  } catch (...) {
    stop();
    throw;
  }
}

Fleet::~Fleet() { stop(); }

void Fleet::stop() {
  if (router_) router_->stop();
  router_.reset();
  backends_.clear();
  for (ServeChild& child : children_) {
    if (child.pid > 0) kill(child.pid, SIGTERM);
  }
  for (ServeChild& child : children_) {
    if (child.pid > 0) {
      int status = 0;
      while (waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    child.pid = -1;
  }
}

double Fleet::replica_cpu_seconds() const {
  double sum = 0.0;
  for (const ServeChild& child : children_) sum += process_cpu_seconds(child.pid);
  return sum;
}

double Fleet::replica_peak_rss_mb() const {
  double peak = 0.0;
  for (const ServeChild& child : children_) {
    peak = std::max(peak, process_peak_rss_mb(child.pid));
  }
  return peak;
}

void Fleet::set_replica_affinity(const cpu_set_t& cpus) const {
  for (const ServeChild& child : children_) set_process_affinity(child.pid, cpus);
}

std::size_t Fleet::home_of(const PlanRequest& request) const {
  return rank_backends(routing_key(request), names_).front();
}

std::vector<JsonValue> Fleet::replica_metrics() {
  std::vector<JsonValue> out;
  for (const auto& backend : backends_) {
    out.push_back(parse_json(backend->submit(R"({"type":"metrics","id":"bench"})").get()));
  }
  return out;
}

TcpBackend::Stats Fleet::wire_stats() const {
  TcpBackend::Stats sum;
  for (const auto& backend : backends_) {
    const TcpBackend::Stats s = backend->stats();
    sum.requests += s.requests;
    sum.batches += s.batches;
    sum.messages += s.messages;
    sum.reconnects += s.reconnects;
  }
  return sum;
}

bool typed_failure(const std::string& response) {
  return response.find("\"status\":\"ok\"") == std::string::npos;
}

namespace {

// --- replica metrics responses ----------------------------------------------

/// The number at `path` in a replica `metrics` response (0 when absent), e.g.
/// {"counters", "profile_runs"} or {"stages", "parse", "p50_us"}.
double number_at(const JsonValue& metrics, std::initializer_list<const char*> path) {
  const JsonValue* v = &metrics;
  for (const char* key : path) {
    v = v->is_object() ? v->find(key) : nullptr;
    if (v == nullptr) return 0.0;
  }
  return v->is_number() ? v->as_number() : 0.0;
}

/// `number_at` summed over replicas, `after` minus `before` (an empty
/// `before` gives the replicas' lifetime totals).
double fleet_delta(const std::vector<JsonValue>& before, const std::vector<JsonValue>& after,
                   std::initializer_list<const char*> path) {
  double sum = 0.0;
  for (std::size_t k = 0; k < after.size(); ++k) {
    sum += number_at(after[k], path) - (k < before.size() ? number_at(before[k], path) : 0.0);
  }
  return sum;
}

/// `number_at` averaged over replicas.
double fleet_mean(const std::vector<JsonValue>& after, std::initializer_list<const char*> path) {
  return fleet_delta({}, after, path) / static_cast<double>(after.size());
}

// --- request mix ------------------------------------------------------------

/// Request alphas: the three default proxies plus one above their coverage,
/// which makes each replica generate a proxy on first use.  One such alpha
/// only: an on-demand proxy's seed is its index in the suite, so with one
/// extra proxy every replica (and the in-process mirror) builds the same
/// graph whatever the routing order.  (Proxies below the covered range are
/// dense enough that one coloring or triangle-count cell takes seconds.)
constexpr double kAlphas[] = {1.95, 2.1, 2.3, 2.8};
constexpr std::size_t kPairs = 24;  // kApps x kAlphas
constexpr AppKind kApps[] = {AppKind::kPageRank,       AppKind::kColoring,
                             AppKind::kConnectedComponents, AppKind::kTriangleCount,
                             AppKind::kSssp,           AppKind::kKCore};

/// Distinct profile keys (three machine classes x app x alpha) as request
/// lines with seeded graph sizes, in rounds of kPairs.
std::vector<std::string> distinct_requests(std::uint64_t seed, const char* prefix) {
  std::vector<std::string> classes;
  for (const MachineSpec& m : table1_machines()) classes.push_back(m.name);
  for (const char* extra : {"xeon_server_s", "xeon_server_l"}) {
    if (std::find(classes.begin(), classes.end(), extra) == classes.end()) {
      classes.push_back(extra);
    }
  }
  std::vector<std::vector<std::string>> subsets;
  const std::size_t n = classes.size();
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (__builtin_popcount(mask) != 3) continue;
    std::vector<std::string> subset;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) subset.push_back(classes[i]);
    }
    subsets.push_back(subset);
  }
  struct Key {
    std::size_t subset;
    AppKind app;
    double alpha;
  };
  // Stratified: every round visits each (app, alpha) pair once, in a seeded
  // order, each pair taking its next three-class set from a seeded
  // permutation.  Every round then costs the same mix of apps, alphas and
  // cells, so a round's mean latency is comparable across rounds and seeds.
  std::vector<Key> pairs;
  for (const AppKind app : kApps) {
    for (const double alpha : kAlphas) pairs.push_back({0, app, alpha});
  }
  std::vector<std::size_t> triples(subsets.size());
  for (std::size_t i = 0; i < subsets.size(); ++i) triples[i] = i;
  Rng rng(seed);
  std::vector<std::vector<std::size_t>> order;  // [pair] -> seeded triples
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    rng.shuffle(std::span<std::size_t>(triples));
    order.push_back(triples);
  }
  std::vector<std::size_t> pair_order(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) pair_order[i] = i;
  std::vector<Key> keys;
  for (std::size_t round = 0; round < triples.size(); ++round) {
    rng.shuffle(std::span<std::size_t>(pair_order));
    for (const std::size_t p : pair_order) {
      keys.push_back({order[p][round], pairs[p].app, pairs[p].alpha});
    }
  }
  std::vector<std::string> lines;
  lines.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    PlanRequest request;
    request.id = prefix + std::to_string(i);
    request.app = keys[i].app;
    for (const std::string& name : subsets[keys[i].subset]) {
      const int copies = 1 + static_cast<int>(rng.next_below(2));
      for (int c = 0; c < copies; ++c) request.machines.push_back(name);
    }
    request.alpha = keys[i].alpha;
    request.vertices = 100'000 + rng.next_below(9'900'000);
    request.edges = request.vertices * (5 + rng.next_below(16));
    lines.push_back(serialize_request(request));
  }
  return lines;
}

/// Replay `lines` through in-process mirror planners and compare every
/// response byte for byte.  kCheckThreads single-threaded planners share the
/// lines round-robin (plans are bit-identical at any thread count, and every
/// planner grows the same on-demand proxy).  A mirror proxy suite times
/// on-demand proxy generation.  Each mirror resolves a line's proxy before
/// its timed plan, so a plan that misses the cache times its profile cells
/// (one per machine class, run one after another) and not proxy generation.
struct MirrorCheck {
  std::size_t mismatches = 0;
  std::string first;
  std::vector<double> proxy_gen_s;
  double profile_s = 0.0;           ///< timed plans that ran profile cells
  std::uint64_t profile_cells = 0;  ///< the cells those plans ran
};

constexpr int kCheckThreads = 4;

MirrorCheck check_against_mirror(const std::vector<std::string>& lines,
                                 const std::vector<std::string>& responses) {
  MirrorCheck check;
  std::vector<PlanRequest> requests;
  ProxySuite suite(replica_proxy_scale());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    requests.push_back(parse_plan_request(lines[i]));
    const std::size_t before = suite.proxies().size();
    Stage s("core.proxy_gen", i);
    suite.ensure_coverage(requests.back().alpha.value_or(2.1));
    if (suite.proxies().size() > before) check.proxy_gen_s.push_back(s.stop());
  }
  std::mutex mutex;
  std::vector<std::thread> threads;
  for (int t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto mismatch = [&](const std::string& what) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (check.mismatches++ == 0) check.first = what;
      };
      try {
        ServiceMetrics metrics;
        const std::unique_ptr<Planner> mirror = make_mirror_planner(1, &metrics);
        double profile_s = 0.0;
        std::uint64_t profile_cells = 0;
        for (std::size_t i = static_cast<std::size_t>(t); i < lines.size();
             i += kCheckThreads) {
          (void)mirror->profile_key(requests[i]);
          const std::uint64_t cells_before = metrics.counter("profile_runs");
          Stage s("service.planner_plan", i);
          const std::string expected = serialize_response(mirror->plan(requests[i]));
          const double seconds = s.stop();
          if (const std::uint64_t cells = metrics.counter("profile_runs") - cells_before) {
            profile_s += seconds;
            profile_cells += cells;
          }
          if (expected != responses[i]) {
            mismatch("routed plan differs from in-process Planner::plan:\n  routed: " +
                     responses[i] + "\n  local:  " + expected);
          }
        }
        const std::lock_guard<std::mutex> lock(mutex);
        check.profile_s += profile_s;
        check.profile_cells += profile_cells;
      } catch (const std::exception& e) {
        mismatch(std::string("in-process planning failed: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return check;
}

/// Set-up repeated `repeats` times for a median; the last fleet stays up.
template <typename Make>
auto timed_setups(int repeats, Make make, std::vector<double>& setups) {
  for (int r = 0;; ++r) {
    const std::uint64_t start = now_ns();
    auto made = make();
    setups.push_back(seconds_since(start));
    if (r + 1 == repeats) return made;
  }
}

}  // namespace

void add_service_layers(Outcome& outcome, const std::vector<JsonValue>& before,
                        const std::vector<JsonValue>& after, Fleet& fleet,
                        std::size_t typed_failures) {
  const double hits = fleet_delta(before, after, {"counters", "profile_cache_hits"});
  const double misses = fleet_delta(before, after, {"counters", "profile_cache_misses"});
  outcome.add_layer("core.profile_cells", fleet_delta(before, after, {"counters", "profile_runs"}),
                    "count");
  outcome.add_layer("service.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
                    "ratio");
  outcome.add_layer("service.cache_lookups", hits + misses, "count");
  outcome.add_layer("service.cache_evictions",
                    fleet_delta(before, after, {"gauges", "cache.evictions"}), "count");
  outcome.add_layer("service.parse_us", fleet_mean(after, {"stages", "parse", "p50_us"}), "us");
  outcome.add_layer("service.serialize_us", fleet_mean(after, {"stages", "serialize", "p50_us"}),
                    "us");
  outcome.add_layer("service.total_p50_us", fleet_mean(after, {"stages", "total", "p50_us"}),
                    "us");
  outcome.add_layer("service.typed_failures", static_cast<double>(typed_failures), "count");
  const TcpBackend::Stats wire = fleet.wire_stats();
  outcome.add_layer("wire.frames_per_sendmsg",
                    wire.batches > 0 ? static_cast<double>(wire.messages) /
                                           static_cast<double>(wire.batches)
                                     : 0.0,
                    "ratio");
  outcome.add_layer("wire.reconnects",
                    static_cast<double>(wire.reconnects) - static_cast<double>(kReplicas),
                    "count");
  outcome.add_layer("fleet.hedges", static_cast<double>(fleet.router_counter("router.hedges")),
                    "count");
  outcome.add_layer("fleet.failovers",
                    static_cast<double>(fleet.router_counter("router.failovers")), "count");
  outcome.add_layer("fleet.stragglers",
                    static_cast<double>(fleet.router_counter("router.stragglers")), "count");
}

// --- cold -------------------------------------------------------------------

Outcome run_plan_cold(const Options& options) {
  Outcome outcome;
  const std::vector<std::string> lines = distinct_requests(options.seed, "c");
  std::vector<double> setups;
  // A fleet spawns in about 15 ms, so nine spawns cost little and steady
  // the median against millisecond scheduling noise.
  auto fleet = timed_setups(9, [&] { return std::make_unique<Fleet>(options); }, setups);

  Tracer& tracer = Tracer::instance();
  const std::vector<JsonValue> before = fleet->replica_metrics();
  const double cpu_before = fleet->replica_cpu_seconds();
  std::vector<std::string> responses;
  std::vector<double> latency_ms, untraced_ms, traced_ms;
  std::size_t typed = 0;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const double elapsed = seconds_since(start);
    if (elapsed >= options.seconds) break;
    tracer.set_enabled(options.trace && elapsed >= options.seconds / 2);
    Stage s("fleet.route", i);
    responses.push_back(fleet->route(lines[i]));
    const double ms = s.stop() * 1e3;
    latency_ms.push_back(ms);
    (tracer.enabled() ? traced_ms : untraced_ms).push_back(ms);
    if (typed_failure(responses.back())) ++typed;
  }
  tracer.set_enabled(false);
  const double cpu_s = fleet->replica_cpu_seconds() - cpu_before;
  const double rss_mb = fleet->replica_peak_rss_mb();
  const std::vector<JsonValue> after = fleet->replica_metrics();
  outcome.attempted = responses.size();
  outcome.failed = typed;
  if (responses.size() == lines.size()) {
    outcome.notes.push_back("warning: the distinct-key list ran out before --seconds");
  }

  // Correctness: every routed plan equals an in-process plan of its line.
  const std::vector<std::string> sent(lines.begin(),
                                      lines.begin() + static_cast<long>(responses.size()));
  tracer.set_enabled(options.trace);
  const MirrorCheck check = check_against_mirror(sent, responses);
  tracer.set_enabled(false);
  if (check.mismatches > 0) {
    outcome.failed += check.mismatches;
    outcome.fail(check.first);
  }

  // Per complete round (one plan of every app x alpha pair): mean latency.
  std::vector<double> round_ms, round_rates;
  for (std::size_t begin = 0; begin + kPairs <= latency_ms.size(); begin += kPairs) {
    double sum = 0.0;
    for (std::size_t i = begin; i < begin + kPairs; ++i) sum += latency_ms[i];
    round_ms.push_back(sum / kPairs);
    round_rates.push_back(1e3 * kPairs / sum);
  }
  if (round_ms.empty()) outcome.fail("not one complete round of cold plans");
  outcome.add_e2e("setup_s", median(setups), "s");
  outcome.add_e2e("latency_ms", median(round_ms), "ms");
  outcome.add_e2e("cpu_ms_per_op", cpu_s * 1e3 / static_cast<double>(responses.size()), "ms");
  outcome.add_e2e("peak_rss_mb", rss_mb, "MB");
  add_service_layers(outcome, before, after, *fleet, typed);
  fleet->stop();

  outcome.add_named("cold_plan_mean_ms", median(round_ms), "ms");
  outcome.add_named("cold_plans_per_s", median(round_rates), "1/s");
  outcome.add_named("cold_plan_p50_ms", median(latency_ms), "ms");
  outcome.add_named("cold_plan_p90_ms", quantile(latency_ms, 0.9), "ms");
  outcome.notes.push_back(timing_note("cold plan", latency_ms, "ms"));
  // The measured phase's cells, timed on the in-process mirror: the
  // replicas expose only a p50 per stage, not the sum behind a mean.
  outcome.add_layer("core.profile_cell_ms",
                    check.profile_cells > 0
                        ? check.profile_s * 1e3 / static_cast<double>(check.profile_cells)
                        : 0.0,
                    "ms");
  double gen_ms = 0.0;
  for (const double s : check.proxy_gen_s) gen_ms += s * 1e3;
  outcome.add_layer("core.proxies_generated", static_cast<double>(check.proxy_gen_s.size()),
                    "count");
  outcome.add_layer("core.proxy_gen_ms",
                    check.proxy_gen_s.empty()
                        ? 0.0
                        : gen_ms / static_cast<double>(check.proxy_gen_s.size()),
                    "ms");
  if (options.trace) {
    outcome.add_layer("driver.trace_overhead_ratio", median(traced_ms) / median(untraced_ms),
                      "ratio");
  }
  outcome.notes.push_back("provenance " +
                          provenance_json(options, 0, kReplicas, kReplicaWorkers, kReplicaPoolThreads));
  return outcome;
}

// --- warm -------------------------------------------------------------------

namespace {

/// The hot set is one stratified round of distinct_requests: every (app,
/// alpha) pair once.  Its set-up then plans the same mix of cells whatever
/// the seed; a partial second round would add a seeded few pairs whose cold
/// plans cost a few ms or hundreds.
constexpr std::size_t kHotKeys = kPairs;
constexpr int kSenders = 4;         // open-loop ladder
constexpr int kSaturationSenders = 2;  // one per replica
constexpr int kProbes = 3;
constexpr int kProbeDeadlineMs = 250;
constexpr double kWarmP99LimitUs = 5'000;
constexpr std::uint64_t kSpinNs = 200'000;

// Measured time, as shares of --seconds: kRounds rounds of one client back
// to back then kSaturationSenders closed-loop senders, then the open-loop
// ladder.
constexpr int kRounds = 5;
constexpr double kClosedShare = 0.1;       // per round, one client
constexpr double kSaturationShare = 0.03;  // per round, kSaturationSenders

struct Rung {
  double rate;      ///< requests per second offered
  double share;     ///< of the measured time
  bool reference;   ///< warm_plan_p50_us / p99_us and the probes
};
constexpr Rung kLadder[] = {{500, 0.04, false},
                            {1000, 0.13, true},
                            {2000, 0.06, false},
                            {4000, 0.06, false},
                            {8000, 0.06, false}};

/// What one sending phase saw.  Every response is compared with its key's
/// cold response; the first difference is kept.
struct SendResult {
  std::vector<double> latency_us;   ///< closed loop: per request; open: from due
  std::vector<double> lateness_us;  ///< open loop: from due time to send
  double rate = 0.0;                ///< closed loop: completed per second
  double finish_lag_s = 0.0;        ///< open loop: last answer after the end
  std::size_t mismatches = 0;
  std::size_t typed = 0;
  std::string first_mismatch;
};

/// Thread-safe response check shared by a phase's senders.
class ResponseCheck {
 public:
  void check(const std::string& response, const std::string& expected) {
    if (typed_failure(response)) typed_.fetch_add(1);
    if (response == expected || mismatches_.fetch_add(1) != 0) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    first_ = "warm: " + response + "\n  cold: " + expected;
  }
  void fill(SendResult& result) {
    result.mismatches = mismatches_.load();
    result.typed = typed_.load();
    const std::lock_guard<std::mutex> lock(mutex_);
    result.first_mismatch = first_;
  }

 private:
  std::atomic<std::size_t> mismatches_{0}, typed_{0};
  std::mutex mutex_;
  std::string first_;
};

/// One open-loop rung: request n is due at start + n / rate; sender t sends
/// every n = t (mod kSenders).
SendResult run_rung(Fleet& fleet, const std::vector<std::string>& hot,
                    const std::vector<std::string>& expected, double rate, double seconds,
                    std::uint64_t seed) {
  const std::size_t total = static_cast<std::size_t>(rate * seconds);
  SendResult result;
  result.latency_us.resize(total);
  result.lateness_us.resize(total);
  ResponseCheck responses;
  std::vector<std::uint64_t> last_done(kSenders, 0);
  const std::uint64_t start = now_ns() + 1'000'000;
  const double interval_ns = 1e9 / rate;
  std::vector<std::thread> senders;
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([&, t] {
      for (std::size_t n = static_cast<std::size_t>(t); n < total; n += kSenders) {
        const std::uint64_t due = start + static_cast<std::uint64_t>(n * interval_ns);
        // Sleep to just before the due time, then spin: a sleeping sender
        // wakes late by a scheduler quantum, which would count as latency.
        std::uint64_t now = now_ns();
        if (now + kSpinNs < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
        }
        while ((now = now_ns()) < due) {
        }
        const std::size_t key = hash_u64(n, seed) % hot.size();
        std::string response;
        {
          Stage s("fleet.route", n);
          response = fleet.route(hot[key]);
        }
        const std::uint64_t done = now_ns();
        result.latency_us[n] = static_cast<double>(done - due) / 1e3;
        result.lateness_us[n] = static_cast<double>(now - due) / 1e3;
        last_done[static_cast<std::size_t>(t)] = done;
        responses.check(response, expected[key]);
      }
    });
  }
  for (std::thread& s : senders) s.join();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t last = *std::max_element(last_done.begin(), last_done.end());
  result.finish_lag_s = last > end ? static_cast<double>(last - end) * 1e-9 : 0.0;
  responses.fill(result);
  return result;
}

/// `senders` clients, each sending its next request as soon as the last
/// one is answered, for `seconds`.
SendResult run_closed(Fleet& fleet, const std::vector<std::string>& hot,
                      const std::vector<std::string>& expected, int senders, double seconds,
                      std::uint64_t seed) {
  std::vector<std::vector<double>> latency(static_cast<std::size_t>(senders));
  ResponseCheck responses;
  const std::uint64_t start = now_ns();
  std::vector<std::thread> threads;
  for (int t = 0; t < senders; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t n = static_cast<std::size_t>(t); seconds_since(start) < seconds;
           n += static_cast<std::size_t>(senders)) {
        const std::size_t key = hash_u64(n, seed) % hot.size();
        Stage s("fleet.route", n);
        const std::string response = fleet.route(hot[key]);
        latency[static_cast<std::size_t>(t)].push_back(s.stop() * 1e6);
        responses.check(response, expected[key]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  SendResult result;
  for (const auto& l : latency) result.latency_us.insert(result.latency_us.end(), l.begin(), l.end());
  result.rate = static_cast<double>(result.latency_us.size()) / seconds_since(start);
  responses.fill(result);
  return result;
}

/// An operator `metrics` probe on a fresh connection with a short deadline.
bool probe(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  bool ok = false;
  const std::uint64_t deadline = now_ns() + kProbeDeadlineMs * 1'000'000ull;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) == 0) {
    const std::string line = "{\"type\":\"metrics\",\"id\":\"probe\"}\n";
    if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(line.size())) {
      std::string got;
      while (!ok) {
        const std::uint64_t now = now_ns();
        if (now >= deadline) break;
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, static_cast<int>((deadline - now) / 1'000'000 + 1)) <= 0) break;
        char buffer[4096];
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) break;
        got.append(buffer, static_cast<std::size_t>(n));
        ok = got.find('\n') != std::string::npos && got.find("\"counters\"") != std::string::npos;
      }
    }
  }
  ::close(fd);
  return ok;
}

}  // namespace

Outcome run_plan_warm(const Options& options) {
  Outcome outcome;
  std::vector<std::string> hot = distinct_requests(options.seed, "h");
  hot.resize(kHotKeys);
  // Set-up: the fleet plus the hot set's cold plans (each key misses once).
  std::vector<std::string> cold;
  std::vector<double> setups;
  auto fleet = timed_setups(
      3,
      [&] {
        auto made = std::make_unique<Fleet>(options);
        cold.clear();
        for (const std::string& line : hot) cold.push_back(made->route(line));
        return made;
      },
      setups);
  for (const std::string& c : cold) {
    if (typed_failure(c)) outcome.fail("hot-set cold plan failed: " + c);
  }

  const std::vector<JsonValue> before = fleet->replica_metrics();
  Tracer& tracer = Tracer::instance();
  const auto tally = [&](const SendResult& r) {
    outcome.attempted += r.latency_us.size();
    outcome.failed += r.mismatches + r.typed;
    if (r.mismatches > 0) outcome.fail(r.first_mismatch);
  };

  // The one-client rounds run with this process and the replicas on one CPU.
  // Spread over idle CPUs, every thread hand-off of a round trip wakes a
  // halted virtual CPU.  That wake-up is the hypervisor's cost, and it moved
  // one-client latency by 2x between runs minutes apart.  On one CPU a
  // hand-off is a context switch, and the round trip is the path's own work.
  cpu_set_t all_cpus, one_cpu;
  CPU_ZERO(&one_cpu);
  if (sched_getaffinity(0, sizeof(all_cpus), &all_cpus) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &all_cpus)) {
      CPU_SET(cpu, &one_cpu);
      break;
    }
  }
  const auto place = [&](const cpu_set_t& cpus) {
    set_process_affinity(0, cpus);
    fleet->set_replica_affinity(cpus);
  };

  // Closed-loop rounds.  A traced run traces every round but the first.
  std::vector<double> closed_us, untraced_us, traced_us, closed_rates, sat_rates;
  double closed_cpu_s = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    place(one_cpu);
    tracer.set_enabled(options.trace && round > 0);
    const double cpu_before = fleet->replica_cpu_seconds();
    const SendResult one = run_closed(*fleet, hot, cold, 1, kClosedShare * options.seconds,
                                      options.seed + static_cast<std::uint64_t>(round));
    tracer.set_enabled(false);
    closed_cpu_s += fleet->replica_cpu_seconds() - cpu_before;
    place(all_cpus);
    closed_us.insert(closed_us.end(), one.latency_us.begin(), one.latency_us.end());
    closed_rates.push_back(one.rate);
    auto& half = options.trace && round > 0 ? traced_us : untraced_us;
    half.insert(half.end(), one.latency_us.begin(), one.latency_us.end());
    tally(one);
    const SendResult sat = run_closed(*fleet, hot, cold, kSaturationSenders,
                                      kSaturationShare * options.seconds,
                                      options.seed + 100 + static_cast<std::uint64_t>(round));
    sat_rates.push_back(sat.rate);
    tally(sat);
  }

  // The open-loop ladder, with operator probes during the reference rung.
  SendResult reference;
  double warm_max_rps = 0.0;
  std::atomic<int> probes_ok{0};
  int rung_index = 0;
  for (const Rung& rung : kLadder) {
    ++rung_index;
    std::thread prober;
    const double seconds = rung.share * options.seconds;
    if (rung.reference) {
      prober = std::thread([&] {
        for (int p = 1; p <= kProbes; ++p) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(seconds * p / (kProbes + 1)));
          if (probe(fleet->port(0))) probes_ok.fetch_add(1);
        }
      });
    }
    SendResult r = run_rung(*fleet, hot, cold, rung.rate, seconds,
                            options.seed + static_cast<std::uint64_t>(rung_index));
    if (prober.joinable()) prober.join();
    const double p99 = quantile(r.latency_us, 0.99);
    const bool backlog = r.finish_lag_s > 0.1 * seconds;
    if (p99 <= kWarmP99LimitUs && !backlog) warm_max_rps = std::max(warm_max_rps, rung.rate);
    outcome.add_layer("driver.warm_p99_us_r" + std::to_string(rung_index), p99, "us");
    tally(r);
    if (rung.reference) reference = std::move(r);
  }
  const double rss_mb = fleet->replica_peak_rss_mb();
  const std::vector<JsonValue> after = fleet->replica_metrics();

  // Correctness: the cold plans equal in-process plans.  A warm-phase miss
  // is not an output error (the re-profiled plan is byte-identical, which
  // the response comparison above checks); it is reported, not failed.
  tracer.set_enabled(options.trace);
  const MirrorCheck check = check_against_mirror(hot, cold);
  const std::unique_ptr<Planner> mirror = make_mirror_planner(0);
  if (check.mismatches > 0) outcome.fail(check.first);
  const double warm_misses = fleet_delta(before, after, {"counters", "profile_cache_misses"});
  if (warm_misses != 0.0) {
    outcome.notes.push_back("note: the warm phase missed the profile cache " +
                            json_number(warm_misses) + " times");
  }

  // In-process cached Planner::plan on the workload's own lines.
  std::vector<double> planner_us;
  {
    std::vector<PlanRequest> requests;
    for (const std::string& line : hot) requests.push_back(parse_plan_request(line));
    for (const PlanRequest& request : requests) (void)mirror->plan(request);  // fill
    for (int round = 1; round <= 64; ++round) {
      for (const PlanRequest& request : requests) {
        Stage s("service.planner_plan", static_cast<std::uint64_t>(round));
        (void)mirror->plan(request);
        planner_us.push_back(s.stop() * 1e6);
      }
    }
  }

  tracer.set_enabled(false);
  const double closed_p50_us = median(closed_us);
  const double p50_us = median(reference.latency_us);
  add_service_layers(outcome, before, after, *fleet, 0);
  fleet->stop();

  outcome.add_e2e("setup_s", median(setups), "s");
  outcome.add_e2e("latency_ms", closed_p50_us / 1e3, "ms");
  outcome.add_e2e("cpu_ms_per_op", closed_cpu_s * 1e3 / static_cast<double>(closed_us.size()),
                  "ms");
  outcome.add_e2e("peak_rss_mb", rss_mb, "MB");

  outcome.add_named("warm_closed_p50_us", closed_p50_us, "us");
  outcome.add_named("warm_closed_p90_us", quantile(closed_us, 0.9), "us");
  outcome.add_named("warm_closed_rps", median(closed_rates), "1/s");
  outcome.add_named("warm_saturation_rps", median(sat_rates), "1/s");
  outcome.add_named("warm_plan_p50_us", p50_us, "us");
  outcome.add_named("warm_plan_p99_us", quantile(reference.latency_us, 0.99), "us");
  outcome.add_named("warm_max_rps", warm_max_rps, "1/s");
  outcome.add_named("probe_ok_ratio", static_cast<double>(probes_ok.load()) / kProbes, "ratio");

  outcome.add_layer("service.planner_warm_us", median(planner_us), "us");
  outcome.add_layer("fleet.route_overhead_us",
                    closed_p50_us - fleet_mean(after, {"stages", "total", "p50_us"}), "us");
  outcome.add_layer("driver.lateness_p99_us", quantile(reference.lateness_us, 0.99), "us");
  if (options.trace) {
    outcome.add_layer("driver.trace_overhead_ratio", median(traced_us) / median(untraced_us),
                      "ratio");
  }
  outcome.notes.push_back(timing_note("warm plan, one client", closed_us, "us"));
  outcome.notes.push_back(timing_note("warm plan at " + json_number(kLadder[1].rate) + "/s",
                                      reference.latency_us, "us"));
  outcome.notes.push_back("operator probes answered: " + std::to_string(probes_ok.load()) +
                          "/" + std::to_string(kProbes));
  outcome.notes.push_back("provenance " +
                          provenance_json(options, 0, kReplicas, kReplicaWorkers, kReplicaPoolThreads));
  return outcome;
}

}  // namespace perfbench
