// plan_delta: the service write path.  Two clients in a closed loop, each
// streaming seeded add/remove batches (8-64 edits) at its own named bases of
// 50k vertices through the Router + replica fleet of fleet.hpp, one client
// per replica.  Client 0's bases partition with hybrid, client 1's with
// hdrf; drift policy reprofile=auto.  A client stops streaming at a base
// once its churn reaches the budget and moves to its next base, so the drift
// policy never fires.  Each client gets enough bases to stream for --seconds
// at a batch rate well above today's, so a faster write path still streams
// for the whole measured phase.
//
// Correctness: every response is replayed through an in-process
// DeltaPlanner per replica and must match byte for byte; the client's
// LiveGraph mirror must match the live counts; and a final forced re-profile
// of each base must equal a from-scratch base of the mutated graph.

#include <algorithm>
#include <cmath>
#include <future>
#include <thread>

#include "core/drift.hpp"
#include "dynamic/delta_planner.hpp"
#include "dynamic/mutation.hpp"
#include "fleet.hpp"
#include "gen/chung_lu.hpp"
#include "partition/incremental.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pglb;
using dynamic::LiveGraph;
using dynamic::Mutation;

namespace {

constexpr int kClients = 2;
constexpr int kSetupRepeats = 3;
/// Base size: fixed |V| and |E| (a Chung-Lu power law, alpha 2.1), so the
/// per-batch cost, which scales with the base, does not move with the seed.
constexpr VertexId kBaseVertices = 50'000;
constexpr EdgeId kBaseEdges = 220'000;
constexpr double kChurnBudget = 0.03;
constexpr std::size_t kMinEdits = 8;
constexpr std::size_t kMaxEdits = 64;
/// Batches per second per client that the bases are sized for: 100, where
/// one client reaches about 40 on the 4-core reference host.
constexpr double kFastBatchRate = 100.0;

/// Bases per client so that a client streaming kFastBatchRate batches of
/// the mean size for `seconds` does not use up their churn budgets.
int bases_per_client(double seconds) {
  const double edits = seconds * kFastBatchRate * static_cast<double>(kMinEdits + kMaxEdits) / 2;
  const double per_base = kChurnBudget * static_cast<double>(kBaseEdges);
  return std::max(1, static_cast<int>(std::ceil(edits / per_base)));
}
const std::vector<std::string> kMachines = {"m4.2xlarge", "m4.2xlarge", "c4.2xlarge",
                                            "c4.2xlarge"};

PartitionerKind kind_of(int client) {
  return client % 2 == 0 ? PartitionerKind::kHybrid : PartitionerKind::kHdrf;
}

struct Base {
  std::string name;
  PartitionerKind kind = PartitionerKind::kHybrid;
  std::uint64_t seed = 0;
  std::string create_line;
  std::string create_response;
  LiveGraph mirror;              ///< client-side live graph
  std::uint64_t budget = 0;      ///< edits allowed before switching base
  std::uint64_t edits = 0;
  std::vector<std::string> lines, responses;  ///< the streamed batches
};

PlanRequest creation_request(const Base& base, const EdgeList& graph) {
  PlanRequest create;
  create.type = RequestType::kDelta;
  create.id = "create";
  create.base = base.name;
  create.app = AppKind::kPageRank;
  create.machines = kMachines;
  create.partitioner = base.kind;
  create.seed = base.seed;
  create.reprofile = ReprofileMode::kAuto;
  create.mutations.reserve(graph.num_vertices() + graph.edges().size());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    create.mutations.push_back(Mutation::add_vertex(v));
  }
  for (const Edge& e : graph.edges()) create.mutations.push_back(Mutation::add_edge(e.src, e.dst));
  return create;
}

struct DeltaSetup {
  std::unique_ptr<Fleet> fleet;
  std::vector<std::vector<Base>> clients;  ///< [client][base]
};

/// A base name whose rendezvous home is `replica`: each client's bases live
/// on its own replica, so creations and batches on one replica never
/// overlap and the two replicas carry one client each.
std::string name_on(const Fleet& fleet, const std::string& stem, std::size_t replica) {
  for (int suffix = 0;; ++suffix) {
    PlanRequest probe;
    probe.type = RequestType::kDelta;
    probe.base = stem + "_" + std::to_string(suffix);
    if (fleet.home_of(probe) == replica) return probe.base;
  }
}

/// Base `b` of client `c`, generated and mirrored client-side; the router
/// creates it on the client's replica.
Base prepare_base(const Fleet& fleet, int c, int b, std::uint64_t seed) {
  Base base;
  base.name = name_on(fleet, "d" + std::to_string(c) + "b" + std::to_string(b),
                      static_cast<std::size_t>(c % kReplicas));
  base.kind = kind_of(c);
  base.seed = hash_u64(static_cast<std::uint64_t>(c) << 32 | static_cast<std::uint64_t>(b), seed);
  ChungLuConfig config;
  config.num_vertices = kBaseVertices;
  config.target_edges = kBaseEdges;
  config.alpha = 2.1;
  config.seed = base.seed;
  const PlanRequest create = creation_request(base, generate_chung_lu(config));
  base.create_line = serialize_request(create);
  base.mirror.apply(create.mutations);
  base.budget = static_cast<std::uint64_t>(
      kChurnBudget * static_cast<double>(base.mirror.live_edge_count()));
  return base;
}

/// The fleet and every client's bases, one creating thread per client.  A
/// client prepares its next base while the replica creates the current one.
DeltaSetup make_setup(const Options& options) {
  DeltaSetup setup;
  setup.fleet = std::make_unique<Fleet>(options);
  setup.clients.resize(kClients);
  const int bases = bases_per_client(options.seconds);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> creators;
  for (int c = 0; c < kClients; ++c) {
    creators.emplace_back([&, c] {
      try {
        const Fleet& fleet = *setup.fleet;
        const auto prepare = [&](int b) {
          return std::async(std::launch::async, prepare_base, std::cref(fleet), c, b,
                            options.seed);
        };
        std::future<Base> next = prepare(0);
        for (int b = 0; b < bases; ++b) {
          Base base = next.get();
          if (b + 1 < bases) next = prepare(b + 1);
          base.create_response = setup.fleet->route(base.create_line);
          setup.clients[c].push_back(std::move(base));
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : creators) t.join();
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error("base creation: " + error);
  }
  return setup;
}

struct ClientStats {
  std::vector<double> latency_ms;
  std::vector<double> traced_ms, untraced_ms;
  std::vector<double> apply_us;
  std::vector<std::pair<std::uint64_t, std::size_t>> done;  ///< (end ns, edits)
  std::uint64_t edits = 0;
  std::uint64_t moved = 0;
  std::size_t reprofiles = 0;
  std::size_t typed = 0;
  std::size_t desyncs = 0;
  std::string first_problem;
};

void stream(DeltaSetup& setup, int client, double seconds, std::uint64_t start, bool trace,
            std::uint64_t seed, ClientStats& stats) {
  Tracer& tracer = Tracer::instance();
  std::uint64_t batch = 0;
  for (Base& base : setup.clients[client]) {
    while (base.edits < base.budget) {
      const double elapsed = seconds_since(start);
      if (elapsed >= seconds) return;
      const bool traced = trace && elapsed >= seconds / 2;
      const std::size_t edits =
          kMinEdits + hash_u64(batch, seed + client) % (kMaxEdits - kMinEdits + 1);
      PlanRequest update;
      update.type = RequestType::kDelta;
      update.id = "b" + std::to_string(base.lines.size());
      update.base = base.name;
      update.reprofile = ReprofileMode::kAuto;
      update.mutations = dynamic::generate_mutation_batch(base.mirror, base.seed,
                                                          base.lines.size(), edits);
      {
        const std::uint64_t t0 = now_ns();
        base.mirror.apply(update.mutations);
        stats.apply_us.push_back(seconds_since(t0) * 1e6);
      }
      base.lines.push_back(serialize_request(update));
      if (traced && !tracer.enabled()) tracer.set_enabled(true);
      std::string response;
      {
        Stage s("fleet.route", batch);
        response = setup.fleet->route(base.lines.back());
        const double ms = s.stop() * 1e3;
        stats.latency_ms.push_back(ms);
        (traced ? stats.traced_ms : stats.untraced_ms).push_back(ms);
      }
      ++batch;
      base.edits += update.mutations.size();
      stats.edits += update.mutations.size();
      stats.done.emplace_back(now_ns(), update.mutations.size());
      base.responses.push_back(response);
      const auto note = [&](const std::string& what) {
        if (stats.first_problem.empty()) stats.first_problem = what;
      };
      if (typed_failure(response)) {
        ++stats.typed;
        note("typed failure on " + base.name + ": " + response);
        continue;
      }
      const std::optional<DeltaInfo> info = parse_delta_block(response);
      if (!info || info->live_edges != base.mirror.live_edge_count() ||
          info->live_vertices != base.mirror.live_vertex_count()) {
        ++stats.desyncs;
        note("live-state desync on " + base.name + ": " + response);
        continue;
      }
      stats.moved += info->moved_edges;
      if (info->reprofiled) ++stats.reprofiles;
    }
  }
}

/// A Planner + DeltaPlanner configured like one replica.
struct Mirror {
  std::unique_ptr<Planner> planner = make_mirror_planner(0);
  dynamic::DeltaPlanner delta{*planner};
};

std::string plan_prefix(const std::string& line) {
  const std::size_t pos = line.find(",\"delta\":");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

struct ReplayStats {
  std::vector<double> handle_ms, drift_us, assign_hybrid_us, assign_hdrf_us;
  std::string first_problem;
  void fail(const std::string& what) {
    if (first_problem.empty()) first_problem = what;
  }
};

/// Force a re-profile of `base` (compacts and replays its assignment), then
/// create a from-scratch base of the same survivors: the two must agree on
/// the plan, the assignment digest and the live counts.
void check_forced_reprofile(Fleet& fleet, const Base& base, ReplayStats& stats) {
  PlanRequest force;
  force.type = RequestType::kDelta;
  force.id = "equiv";
  force.base = base.name;
  force.reprofile = ReprofileMode::kForce;
  const std::string forced = fleet.route(serialize_request(force));
  PlanRequest scratch;
  scratch.type = RequestType::kDelta;
  scratch.id = "equiv";
  scratch.base = name_on(fleet, base.name + "_scratch", fleet.home_of(force));
  scratch.app = AppKind::kPageRank;
  scratch.machines = kMachines;
  scratch.partitioner = base.kind;
  scratch.seed = base.seed;
  for (VertexId v = 0; v < base.mirror.num_vertices(); ++v) {
    if (base.mirror.vertex_alive(v)) scratch.mutations.push_back(Mutation::add_vertex(v));
  }
  for (std::size_t i = 0; i < base.mirror.slot_count(); ++i) {
    if (!base.mirror.dead(i)) {
      scratch.mutations.push_back(
          Mutation::add_edge(base.mirror.slot(i).src, base.mirror.slot(i).dst));
    }
  }
  const std::string fresh = fleet.route(serialize_request(scratch));
  const auto a = parse_delta_block(forced);
  const auto b = parse_delta_block(fresh);
  if (!a || !b || plan_prefix(forced) != plan_prefix(fresh) || a->digest != b->digest ||
      a->live_edges != b->live_edges || a->live_vertices != b->live_vertices) {
    stats.fail("forced re-profile of " + base.name +
               " differs from a from-scratch base:\n  forced:  " + forced +
               "\n  scratch: " + fresh);
  }
}

/// Replay `base`'s creation and stream through the in-process mirror and
/// compare every response byte for byte.  A traced run also times the
/// incremental partitioner and the drift check on a LiveGraph of its own.
void replay(Mirror& mirror, const Base& base, bool trace, ReplayStats& stats) {
  const auto handle = [&](const std::string& line, const std::string& routed) {
    Stage s("dynamic.handle");
    const std::string local = mirror.delta.handle(parse_plan_request(line));
    const double seconds = s.stop();
    if (local != routed) {
      stats.fail("routed delta differs from in-process DeltaPlanner:\n  routed: " + routed +
                 "\n  local:  " + local);
    }
    return seconds;
  };
  handle(base.create_line, base.create_response);
  for (std::size_t i = 0; i < base.lines.size(); ++i) {
    stats.handle_ms.push_back(handle(base.lines[i], base.responses[i]) * 1e3);
  }
  if (!trace || base.lines.empty()) return;

  LiveGraph graph;
  graph.apply(parse_plan_request(base.create_line).mutations);
  const std::vector<double> weights = parse_plan_response(base.create_response).weights;
  auto inc = IncrementalState::create(base.kind, weights, base.seed);
  inc->ensure_vertices(graph.num_vertices());
  std::vector<MachineId> owners;
  inc->assign_batch(graph.live_edge_list().edges(), owners);
  const ExactHistogram profiled = graph.live_total_degree();
  auto& assign_us =
      base.kind == PartitionerKind::kHybrid ? stats.assign_hybrid_us : stats.assign_hdrf_us;
  for (const std::string& line : base.lines) {
    const LiveGraph::BatchResult applied = graph.apply(parse_plan_request(line).mutations);
    inc->ensure_vertices(graph.num_vertices());
    std::vector<Edge> added;
    for (const std::size_t slot : applied.added_slots) added.push_back(graph.slot(slot));
    {
      Stage s("partition.assign_batch");
      inc->assign_batch(added, owners);
      assign_us.push_back(s.stop() * 1e6);
    }
    for (const std::size_t slot : applied.removed_slots) {
      if (slot < owners.size()) inc->retract(graph.slot(slot), owners[slot]);
    }
    {
      Stage s("core.drift");
      (void)histogram_distance(graph.live_total_degree(), profiled);
      stats.drift_us.push_back(s.stop() * 1e6);
    }
  }
}

}  // namespace

Outcome run_plan_delta(const Options& options) {
  Outcome outcome;
  std::vector<double> setups;
  DeltaSetup setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::uint64_t start = now_ns();
    setup = DeltaSetup{};
    setup = make_setup(options);
    setups.push_back(seconds_since(start));
  }
  for (const auto& bases : setup.clients) {
    for (const Base& base : bases) {
      if (typed_failure(base.create_response)) {
        outcome.fail("base creation failed: " + base.create_response);
      }
    }
  }
  const std::vector<JsonValue> before = setup.fleet->replica_metrics();

  std::vector<ClientStats> stats(kClients);
  const double cpu_before = setup.fleet->replica_cpu_seconds();
  const std::uint64_t start = now_ns();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          stream(setup, c, options.seconds, start, options.trace, options.seed, stats[c]);
        } catch (const std::exception& e) {
          if (stats[c].first_problem.empty()) stats[c].first_problem = e.what();
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  Tracer::instance().set_enabled(false);
  const double cpu_s = setup.fleet->replica_cpu_seconds() - cpu_before;
  const double rss_mb = setup.fleet->replica_peak_rss_mb();
  const std::vector<JsonValue> after = setup.fleet->replica_metrics();

  // Post-run checks, two threads per client: one has the replica force a
  // re-profile of every streamed base and build a from-scratch twin, the
  // other replays the base's stream through the in-process mirror.
  Mirror mirror;
  std::vector<ReplayStats> replays(2 * kClients);
  Tracer::instance().set_enabled(options.trace);
  {
    std::vector<std::thread> checkers;
    for (int c = 0; c < kClients; ++c) {
      for (const bool forced : {true, false}) {
        checkers.emplace_back([&, c, forced] {
          ReplayStats& checked = replays[2 * c + (forced ? 1 : 0)];
          try {
            for (const Base& base : setup.clients[c]) {
              if (base.lines.empty()) continue;
              if (forced) {
                check_forced_reprofile(*setup.fleet, base, checked);
              } else {
                replay(mirror, base, options.trace, checked);
              }
            }
          } catch (const std::exception& e) {
            checked.fail(e.what());
          }
        });
      }
    }
    for (std::thread& t : checkers) t.join();
  }
  Tracer::instance().set_enabled(false);
  std::vector<double> handle_ms, drift_us, assign_hybrid_us, assign_hdrf_us;
  for (const ReplayStats& r : replays) {
    if (!r.first_problem.empty()) outcome.fail(r.first_problem);
    handle_ms.insert(handle_ms.end(), r.handle_ms.begin(), r.handle_ms.end());
    drift_us.insert(drift_us.end(), r.drift_us.begin(), r.drift_us.end());
    assign_hybrid_us.insert(assign_hybrid_us.end(), r.assign_hybrid_us.begin(),
                            r.assign_hybrid_us.end());
    assign_hdrf_us.insert(assign_hdrf_us.end(), r.assign_hdrf_us.begin(),
                          r.assign_hdrf_us.end());
  }

  std::vector<double> latency, traced, untraced, apply;
  std::uint64_t edits = 0, moved_hybrid = 0, moved_hdrf = 0;
  std::size_t reprofiles = 0, typed = 0;
  for (int c = 0; c < kClients; ++c) {
    const ClientStats& s = stats[c];
    latency.insert(latency.end(), s.latency_ms.begin(), s.latency_ms.end());
    traced.insert(traced.end(), s.traced_ms.begin(), s.traced_ms.end());
    untraced.insert(untraced.end(), s.untraced_ms.begin(), s.untraced_ms.end());
    apply.insert(apply.end(), s.apply_us.begin(), s.apply_us.end());
    edits += s.edits;
    (kind_of(c) == PartitionerKind::kHybrid ? moved_hybrid : moved_hdrf) += s.moved;
    reprofiles += s.reprofiles;
    typed += s.typed;
    outcome.failed += s.typed + s.desyncs;
    if (!s.first_problem.empty()) outcome.fail(s.first_problem);
  }
  outcome.attempted = latency.size();
  if (reprofiles > 0) outcome.notes.push_back("warning: drift re-profiled during the stream");
  double live_edges = 0.0;
  std::size_t base_count = 0;
  for (const auto& bases : setup.clients) {
    for (const Base& base : bases) live_edges += static_cast<double>(base.mirror.live_edge_count());
    base_count += bases.size();
  }

  add_service_layers(outcome, before, after, *setup.fleet, typed);
  setup.fleet->stop();

  outcome.add_e2e("setup_s", median(setups), "s");
  outcome.add_e2e("latency_ms", median(latency), "ms");
  outcome.add_e2e("cpu_ms_per_op", cpu_s * 1e3 / static_cast<double>(latency.size()), "ms");
  // Edits per second: the median over the one-second windows in which every
  // client was still streaming (a client that used up its bases' churn
  // budget stops early; the run then says so).
  std::uint64_t streaming_until = now_ns();
  for (const ClientStats& s : stats) {
    if (!s.done.empty()) streaming_until = std::min(streaming_until, s.done.back().first);
  }
  const double streaming_s = static_cast<double>(streaming_until - start) * 1e-9;
  if (streaming_s < 0.95 * options.seconds) {
    outcome.notes.push_back("warning: a client used up its churn budget after " +
                            json_number(streaming_s) + " s");
  }
  std::vector<double> window_edits(static_cast<std::size_t>(streaming_s), 0.0);
  for (const ClientStats& s : stats) {
    for (const auto& [end, count] : s.done) {
      const auto w = static_cast<std::size_t>(static_cast<double>(end - start) * 1e-9);
      if (w < window_edits.size()) window_edits[w] += static_cast<double>(count);
    }
  }
  outcome.add_e2e("peak_rss_mb", rss_mb, "MB");
  outcome.add_named("delta_p50_ms", median(latency), "ms");
  outcome.add_named("delta_p90_ms", quantile(latency, 0.9), "ms");
  outcome.add_named("delta_edits_per_s", median(window_edits), "1/s");

  outcome.add_layer("dynamic.handle_ms", median(handle_ms), "ms");
  outcome.add_layer("core.drift_us", median(drift_us), "us");
  outcome.add_layer("partition.assign_batch_us_hybrid", median(assign_hybrid_us), "us");
  outcome.add_layer("partition.assign_batch_us_hdrf", median(assign_hdrf_us), "us");
  outcome.add_layer("dynamic.apply_us", median(apply), "us");
  outcome.add_layer("dynamic.reprofiles", static_cast<double>(reprofiles), "count");
  outcome.add_layer("dynamic.live_edges",
                    live_edges / static_cast<double>(base_count), "count");
  outcome.add_layer("partition.moved_edges_hybrid", static_cast<double>(moved_hybrid), "count");
  outcome.add_layer("partition.moved_edges_hdrf", static_cast<double>(moved_hdrf), "count");
  if (options.trace) {
    outcome.add_layer("driver.trace_overhead_ratio", median(traced) / median(untraced), "ratio");
  }
  outcome.notes.push_back(timing_note("delta batch", latency, "ms") + "; " +
                          std::to_string(edits) + " edits");
  outcome.notes.push_back("provenance " +
                          provenance_json(options, 0, kReplicas, kReplicaWorkers, kReplicaPoolThreads));
  return outcome;
}

}  // namespace perfbench
