// Service throughput and latency: drives a live svc::Server over its Unix
// socket with the medium WAN and writes BENCH_serve.json.
//
// Five experiments:
//
//  * Workers x depth matrix: for each worker count W (1, 2, 4) a fresh
//    server serves D concurrent client sessions (D = 1, 8, 64), each
//    submitting perturbed check jobs back-to-back so ~D jobs stay
//    outstanding. Reports jobs/sec plus client-observed p50/p99 latency
//    (submit to result) per cell. Throughput must not fall as the queue
//    deepens: every queued job adopts the one shared plan bundle, so a
//    deeper queue adds only its own scans.
//
//  * Warm vs cold: the same job stream run through the resident server
//    (plan cache warm, network already loaded) versus a fresh engine per
//    job, which is what a cold CLI invocation pays. Every warm job adopts
//    the cached plan bundle; at these job sizes the RPC costs about what
//    that saves, so the ratio reads 0.7-1.1 on a 4-core container.
//
//  * Churn depth sweep: R rounds of (apply a delta, re-check a fixed
//    pending batch) at client depths 1/8/64 on one resident server. Only
//    check wall time counts. Every version shares the one plan bundle the
//    warmup job built, so each depth reports plan_builds 0, and added
//    concurrency must not cost throughput.
//
//  * Transport: the same deep-queue workload through the Unix socket and
//    through loopback TCP (auth handshake included), fresh server per
//    transport. The interesting number is how little TCP costs: jobs are
//    engine-bound, so the deltas show up in p99, not jobs/sec.
//
//  * Replication: one writer plus two read-only replicas over loopback
//    TCP, replicas caught up before the clock starts. The same check
//    burst is drained once by the writer alone and once spread across
//    the two replicas — the aggregate row quantifies what the fan-out
//    buys for pure verification load.
//
// --smoke shrinks everything (small WAN, fewer rounds) for CI. The JSON's
// "host" block records the core count, the build type and the commit
// passed as --commit SHA (e.g. --commit "$(git rev-parse --short HEAD)").
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "config/acl_format.h"
#include "core/engine.h"
#include "gen/scenario.h"
#include "gen/wan.h"
#include "obs/stats.h"
#include "replica/replica.h"
#include "svc/client.h"
#include "svc/server.h"

namespace jinjing {
namespace {

/// A check program for one rule perturbation plus the ACL bodies a client
/// ships with it (the same wire shape `jinjing client submit` uses).
struct Workload {
  std::string program;
  std::map<std::string, std::string> acl_bodies;
};

Workload make_workload(const gen::Wan& wan, unsigned seed) {
  const topo::AclUpdate update = gen::perturb_rules(wan, 0.03, seed);
  Workload workload;
  std::string modifies;
  std::size_t i = 0;
  for (const auto& [slot, acl] : update) {
    const std::string name = "acl_" + std::to_string(i++);
    modifies += "modify " + wan.topo.qualified_name(slot.iface) +
                (slot.dir == topo::Dir::In ? "-in" : "-out") + " to " + name + "\n";
    workload.acl_bodies.emplace(name, config::print_acl(acl));
  }
  std::string scope = "scope ";
  for (topo::DeviceId d = 0; d < wan.topo.device_count(); ++d) {
    if (d > 0) scope += ", ";
    scope += wan.topo.device_name(d);
  }
  workload.program = scope + "\n" + modifies + "check\n";
  return workload;
}

std::string scope_line(const gen::Wan& wan) {
  std::string scope = "scope ";
  for (topo::DeviceId d = 0; d < wan.topo.device_count(); ++d) {
    if (d > 0) scope += ", ";
    scope += wan.topo.device_name(d);
  }
  return scope;
}

/// The slot's ACL with its first rule duplicated: a semantically no-op
/// rebind under first-match semantics. As a pending check it always
/// verifies consistent; as an applied delta it is a real version bump whose
/// Definition 4.1 differential is the duplicated rule.
net::Acl duplicate_first_rule(const topo::Topology& topo, topo::AclSlot slot) {
  const net::Acl& acl = topo.acl(slot);
  std::vector<net::AclRule> rules{acl.rules().begin(), acl.rules().end()};
  rules.insert(rules.begin(), rules.front());
  return net::Acl{std::move(rules), acl.default_action()};
}

/// A pending check against a gateway slot the churn applies never touch —
/// the same pending update is re-checked at every version.
Workload dup_check_workload(const gen::Wan& wan, topo::AclSlot slot) {
  Workload workload;
  workload.acl_bodies.emplace("dup", config::print_acl(duplicate_first_rule(wan.topo, slot)));
  workload.program = scope_line(wan) + "\nmodify " + wan.topo.qualified_name(slot.iface) +
                     (slot.dir == topo::Dir::In ? "-in" : "-out") + " to dup\ncheck\n";
  return workload;
}

/// The churn delta for one round: duplicate the first rule of a rotating
/// aggregation slot on the current head. Deterministic, so the incremental
/// and the disabled server walk identical version chains.
topo::AclUpdate churn_update(const gen::Wan& wan, const topo::Topology& head,
                             std::size_t round) {
  const topo::AclSlot slot = wan.agg_slots[round % wan.agg_slots.size()];
  topo::AclUpdate update;
  update.emplace(slot, duplicate_first_rule(head, slot));
  return update;
}

svc::Json submit_params(const Workload& workload) {
  svc::Json::Object params;
  params.emplace("program", workload.program);
  svc::Json::Object acls;
  for (const auto& [name, body] : workload.acl_bodies) acls.emplace(name, body);
  params.emplace("acls", svc::Json{std::move(acls)});
  return svc::Json{std::move(params)};
}

/// Submit one job and block until its result; returns the latency. The
/// result wait is an event wait re-armed until the job is terminal — a job
/// outliving one 10-minute window must not silently contaminate the sample
/// with a truncated latency (the old behaviour: warn and move on, leaving
/// the job still running under the next measurement).
double run_job(svc::Client& client, const Workload& workload) {
  const auto start = std::chrono::steady_clock::now();
  const svc::Json submitted = client.call("submit", submit_params(workload));
  const std::uint64_t id = submitted.at("job").as_u64();
  while (true) {
    svc::Json::Object wait;
    wait.emplace("job", id);
    wait.emplace("timeout_ms", std::uint64_t{600000});
    const svc::Json result = client.call("result", svc::Json{std::move(wait)});
    if (result.at("done").as_bool()) {
      if (result.at("status").at("state").as_string() != "done") {
        std::fprintf(stderr, "WARNING: job did not complete: %s\n", result.dump().c_str());
      }
      break;
    }
    std::fprintf(stderr, "note: job %llu still running after 600s, continuing to wait\n",
                 static_cast<unsigned long long>(id));
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct DepthResult {
  std::size_t depth = 0;
  std::size_t jobs = 0;
  double wall_seconds = 0;
  double jobs_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

/// D concurrent sessions spread round-robin over `endpoints` (one entry
/// for a single server; writer-plus-replicas pass several), each draining
/// its share of `workloads`.
DepthResult run_depth(const std::vector<std::string>& endpoints, std::size_t depth,
                      const std::vector<Workload>& workloads,
                      const svc::ClientOptions& client_options = {}) {
  DepthResult result;
  result.depth = depth;
  result.jobs = workloads.size();
  std::mutex latencies_mutex;
  std::vector<double> latencies;
  std::atomic<std::size_t> next{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> sessions;
  for (std::size_t s = 0; s < depth; ++s) {
    sessions.emplace_back([&, s] {
      svc::Client client{endpoints[s % endpoints.size()], client_options};
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= workloads.size()) break;
        const double seconds = run_job(client, workloads[i]);
        const std::lock_guard<std::mutex> lock{latencies_mutex};
        latencies.push_back(seconds);
      }
    });
  }
  for (auto& session : sessions) session.join();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  std::sort(latencies.begin(), latencies.end());
  result.jobs_per_sec =
      result.wall_seconds > 0 ? static_cast<double>(result.jobs) / result.wall_seconds : 0;
  result.p50_ms = percentile(latencies, 0.50) * 1000.0;
  result.p99_ms = percentile(latencies, 0.99) * 1000.0;
  return result;
}

/// One churn run: `rounds` iterations of (apply a delta, drain the pending
/// check batch at `depth` concurrent sessions). Only the check batches are
/// timed; the applies advance the version chain between them. plan_builds
/// counts the server's plan builds over the run.
struct ChurnTiming {
  std::size_t rounds = 0;
  std::size_t jobs = 0;
  double check_seconds = 0;
  std::uint64_t plan_builds = 0;
};

ChurnTiming run_churn(svc::Server& server, const std::string& socket_path,
                      const gen::Wan& wan, std::size_t depth, std::size_t rounds,
                      const std::vector<Workload>& pending) {
  ChurnTiming timing;
  timing.rounds = rounds;
  const std::uint64_t builds_before = server.registry().total(obs::Counter::PlanBuilds);
  for (std::size_t round = 0; round < rounds; ++round) {
    (void)server.store().apply_update(
        churn_update(wan, *server.store().head()->topo, round));
    const DepthResult batch = run_depth({socket_path}, depth, pending);
    timing.check_seconds += batch.wall_seconds;
    timing.jobs += batch.jobs;
  }
  timing.plan_builds = server.registry().total(obs::Counter::PlanBuilds) - builds_before;
  return timing;
}

/// The cold path: what a one-shot CLI run pays per job — fresh engine,
/// fresh FEC cache, nothing resident.
double run_cold(const gen::Wan& wan, const std::vector<Workload>& workloads) {
  lai::AclLibrary library;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& workload : workloads) {
    library.clear();
    library.emplace("permit_all", net::Acl::permit_all());
    for (const auto& [name, body] : workload.acl_bodies) {
      library.insert_or_assign(name, config::parse_acl_auto(body));
    }
    core::Engine engine{wan.topo};
    const auto report = engine.run_program(workload.program, library, wan.traffic);
    if (!report.outcomes.empty() && !report.outcomes.front().check) {
      std::fprintf(stderr, "WARNING: cold job produced no check outcome\n");
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace
}  // namespace jinjing

int main(int argc, char** argv) {
  using namespace jinjing;
  const char* json_path = "BENCH_serve.json";
  const char* commit = "unknown";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) json_path = argv[i + 1];
    if (std::string(argv[i]) == "--commit" && i + 1 < argc) commit = argv[i + 1];
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }

  // --smoke (CI): the small WAN and reduced rounds/depths — same shape,
  // seconds instead of minutes.
  const gen::Wan wan = gen::make_wan(smoke ? gen::small_wan() : gen::medium_wan());
  std::fprintf(stderr, "serve workload: %s WAN, %zu total rules\n",
               smoke ? "small" : "medium", gen::total_rules(wan));
  std::vector<std::size_t> depths{1, 8, 64};
  std::vector<unsigned> worker_counts{1, 2, 4};
  unsigned sweep_workers = 4;
  std::size_t sweep_depth = 64;
  std::size_t min_jobs = 24;
  std::size_t churn_rounds = 3;
  std::size_t warm_cold_jobs = 8;
  if (smoke) {
    // Depth 64 stays: the CI gate asserts that throughput does not fall
    // off as the queue deepens.
    worker_counts = {1, 2};
    sweep_workers = 2;
    sweep_depth = 32;
    min_jobs = 8;
    churn_rounds = 2;
    warm_cold_jobs = 4;
  }

  const auto make_server = [&](const std::string& socket_path, unsigned workers) {
    config::NetworkFile network;
    network.topo = wan.topo;
    network.traffic = wan.traffic;
    svc::ServerOptions options;
    options.socket_path = socket_path;
    options.queue_depth = 256;
    options.workers = workers;
    options.keep_versions = 4;
    return std::make_unique<svc::Server>(std::move(network), options);
  };
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       ("jinjing_bench_serve_" + std::to_string(::getpid()) + ".sock"))
          .string();

  /// One measured cell against a short-lived server: warmup job, then the
  /// depth run. A fresh server per cell keeps the plan cache from
  /// leaking one configuration's state into the next.
  struct MatrixCell {
    unsigned workers = 0;
    DepthResult result;
  };
  const auto run_cell = [&](unsigned workers, std::size_t depth, unsigned seed_base) {
    auto cell_server = make_server(socket_path, workers);
    cell_server->start();
    {
      svc::Client warmup{socket_path};
      (void)run_job(warmup, make_workload(wan, 9999));
    }
    const std::size_t job_count = std::max<std::size_t>(min_jobs, depth * 2);
    std::vector<Workload> workloads;
    for (std::size_t j = 0; j < job_count; ++j) {
      workloads.push_back(make_workload(wan, seed_base + static_cast<unsigned>(j) + 1));
    }
    MatrixCell cell;
    cell.workers = workers;
    cell.result = run_depth({socket_path}, depth, workloads);
    cell_server->request_shutdown();
    cell_server->wait();
    cell_server.reset();
    std::filesystem::remove(socket_path);
    return cell;
  };

  // ---- Workers x depth matrix (perturbed pending checks). The acceptance
  // shape: at workers >= 2, jobs/sec must not decrease as the queue
  // deepens — every queued job reuses the shared plan bundle.
  std::vector<MatrixCell> matrix;
  for (const unsigned workers : worker_counts) {
    for (const std::size_t depth : depths) {
      matrix.push_back(run_cell(workers, depth,
                                workers * 100000 + static_cast<unsigned>(depth) * 1000));
      const auto& r = matrix.back().result;
      std::fprintf(stderr,
                   "  workers %u depth %-3zu %6.2f jobs/s  p50 %7.1fms  p99 %7.1fms  (%zu jobs)\n",
                   workers, r.depth, r.jobs_per_sec, r.p50_ms, r.p99_ms, r.jobs);
    }
  }

  // ---- Transport: the same deep-queue burst through the Unix socket and
  // through loopback TCP (auth handshake included). Fresh server per
  // transport, identical workloads, warmup job first so both measure the
  // steady state. Jobs are engine-bound, so the transport shows up in the
  // latency tail rather than in jobs/sec.
  const std::string bench_token = "bench-serve-token";
  const auto make_network = [&] {
    config::NetworkFile network;
    network.topo = wan.topo;
    network.traffic = wan.traffic;
    return network;
  };
  std::vector<Workload> transport_workloads;
  for (std::size_t j = 0; j < std::max<std::size_t>(min_jobs, sweep_depth * 2); ++j) {
    transport_workloads.push_back(make_workload(wan, 800000 + static_cast<unsigned>(j)));
  }
  struct TransportCell {
    std::string transport;
    DepthResult result;
  };
  std::vector<TransportCell> transports;
  for (const bool tcp : {false, true}) {
    svc::ServerOptions options;
    if (tcp) {
      options.listen_address = "127.0.0.1:0";
      options.auth_token = bench_token;
    } else {
      options.socket_path = socket_path;
    }
    options.queue_depth = 256;
    options.workers = sweep_workers;
    options.keep_versions = 4;
    auto transport_server = std::make_unique<svc::Server>(make_network(), options);
    transport_server->start();
    const std::string endpoint = tcp ? transport_server->listen_endpoint() : socket_path;
    svc::ClientOptions client_options;
    client_options.token = bench_token;
    {
      svc::Client warmup{endpoint, client_options};
      (void)run_job(warmup, make_workload(wan, 9999));
    }
    TransportCell cell;
    cell.transport = tcp ? "tcp" : "unix";
    cell.result = run_depth({endpoint}, sweep_depth, transport_workloads, client_options);
    transport_server->request_shutdown();
    transport_server->wait();
    transport_server.reset();
    if (!tcp) std::filesystem::remove(socket_path);
    std::fprintf(stderr, "  transport %-4s (workers %u, depth %zu) %6.2f jobs/s  p99 %7.1fms\n",
                 cell.transport.c_str(), sweep_workers, sweep_depth, cell.result.jobs_per_sec,
                 cell.result.p99_ms);
    transports.push_back(std::move(cell));
  }

  // ---- Replication: one writer plus two read-only replicas, all on
  // loopback TCP, replicas fully caught up before the clock starts. The
  // same check burst is drained once by the writer alone and once spread
  // across the two replicas — the ratio is what the fan-out buys for
  // pure verification load (the modify-check jobs here never leave a
  // deployable plan behind, so replicas may serve them).
  DepthResult writer_only_result;
  DepthResult replica_pair_result;
  {
    svc::ServerOptions writer_options;
    writer_options.listen_address = "127.0.0.1:0";
    writer_options.auth_token = bench_token;
    writer_options.queue_depth = 256;
    writer_options.workers = sweep_workers;
    writer_options.keep_versions = 4;
    auto writer = std::make_unique<svc::Server>(make_network(), writer_options);
    writer->start();

    std::vector<std::unique_ptr<replica::Replica>> replicas;
    for (int i = 0; i < 2; ++i) {
      replica::ReplicaOptions options;
      options.writer = writer->listen_endpoint();
      options.token = bench_token;
      options.serve = writer_options;
      options.serve.listen_address = "127.0.0.1:0";
      replicas.push_back(std::make_unique<replica::Replica>(make_network(), options));
      replicas.back()->start();
    }
    const auto caught_up = [&] {
      return std::all_of(replicas.begin(), replicas.end(), [](const auto& replica) {
        return replica->connected() && replica->lag() == 0;
      });
    };
    while (!caught_up()) std::this_thread::sleep_for(std::chrono::milliseconds(10));

    svc::ClientOptions client_options;
    client_options.token = bench_token;
    std::vector<std::string> replica_endpoints;
    for (const auto& replica : replicas) {
      replica_endpoints.push_back(replica->server().listen_endpoint());
      svc::Client warmup{replica_endpoints.back(), client_options};
      (void)run_job(warmup, make_workload(wan, 9999));
    }
    {
      svc::Client warmup{writer->listen_endpoint(), client_options};
      (void)run_job(warmup, make_workload(wan, 9999));
    }
    writer_only_result =
        run_depth({writer->listen_endpoint()}, sweep_depth, transport_workloads, client_options);
    replica_pair_result =
        run_depth(replica_endpoints, sweep_depth, transport_workloads, client_options);
    std::fprintf(stderr,
                 "  replication (workers %u, depth %zu): writer %6.2f jobs/s, "
                 "2 replicas %6.2f jobs/s aggregate\n",
                 sweep_workers, sweep_depth, writer_only_result.jobs_per_sec,
                 replica_pair_result.jobs_per_sec);
    for (auto& replica : replicas) replica->request_shutdown();
    for (auto& replica : replicas) replica->wait();
    replicas.clear();
    writer->request_shutdown();
    writer->wait();
  }

  // The warm/churn experiments isolate the resident plan cache.
  const unsigned churn_workers = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  auto server = make_server(socket_path, churn_workers);
  server->start();

  // One warmup job builds the shared plan bundle so the warm/churn
  // experiments measure the steady state a long-running service serves from.
  {
    svc::Client warmup{socket_path};
    (void)run_job(warmup, make_workload(wan, 9999));
  }

  // ---- Warm vs cold on one identical stream (still at the head version
  // the sweep warmed).
  std::vector<Workload> stream;
  for (std::size_t j = 0; j < warm_cold_jobs; ++j) {
    stream.push_back(make_workload(wan, static_cast<unsigned>(7000 + j)));
  }
  double warm_seconds = 0;
  {
    const auto start = std::chrono::steady_clock::now();
    svc::Client client{socket_path};
    for (const auto& workload : stream) (void)run_job(client, workload);
    warm_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  const double cold_seconds = run_cold(wan, stream);
  const double speedup = warm_seconds > 0 ? cold_seconds / warm_seconds : 0;
  std::fprintf(stderr, "  warm %.3fs vs cold %.3fs over %zu jobs: %.2fx\n", warm_seconds,
               cold_seconds, warm_cold_jobs, speedup);

  // ---- Fix warm vs cold: the same perturbation stream issued as `fix`
  // jobs. On the warm server the fix's initial check adopts the cached
  // plan bundle and the synthesizer's AEC derivation
  // hits the shared overlay memo; the cold runs rebuild both per job.
  std::vector<Workload> fix_stream = stream;
  for (auto& workload : fix_stream) {
    workload.program.replace(workload.program.rfind("check\n"), 6, "fix\n");
  }
  double fix_warm_seconds = 0;
  {
    const auto start = std::chrono::steady_clock::now();
    svc::Client client{socket_path};
    for (const auto& workload : fix_stream) (void)run_job(client, workload);
    fix_warm_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  double fix_cold_seconds = 0;
  {
    lai::AclLibrary library;
    const auto start = std::chrono::steady_clock::now();
    for (const auto& workload : fix_stream) {
      library.clear();
      library.emplace("permit_all", net::Acl::permit_all());
      for (const auto& [name, body] : workload.acl_bodies) {
        library.insert_or_assign(name, config::parse_acl_auto(body));
      }
      core::Engine engine{wan.topo};
      const auto report = engine.run_program(workload.program, library, wan.traffic);
      if (report.outcomes.empty() || !report.outcomes.front().fix) {
        std::fprintf(stderr, "WARNING: cold job produced no fix outcome\n");
      }
    }
    fix_cold_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  const double fix_speedup = fix_warm_seconds > 0 ? fix_cold_seconds / fix_warm_seconds : 0;
  std::fprintf(stderr, "  fix warm %.3fs vs cold %.3fs over %zu jobs: %.2fx\n",
               fix_warm_seconds, fix_cold_seconds, fix_stream.size(), fix_speedup);

  // ---- Churn depth sweep: interleaved apply+check at each depth, on the
  // resident server. The pending updates target gateway slots the churn
  // never rewrites; every version shares the one plan bundle, so added
  // concurrency must not cost throughput.
  struct ChurnDepth {
    std::size_t depth = 0;
    ChurnTiming timing;
    double jobs_per_sec = 0;
  };
  std::vector<ChurnDepth> churn_sweep;
  for (const std::size_t depth : depths) {
    std::vector<Workload> batch;
    const std::size_t job_count = std::max<std::size_t>(smoke ? 8 : 12, depth);
    for (std::size_t j = 0; j < job_count; ++j) {
      batch.push_back(dup_check_workload(wan, wan.gateway_slots[j % wan.gateway_slots.size()]));
    }
    ChurnDepth entry;
    entry.depth = depth;
    entry.timing = run_churn(*server, socket_path, wan, depth, churn_rounds, batch);
    entry.jobs_per_sec = entry.timing.check_seconds > 0
                             ? static_cast<double>(entry.timing.jobs) / entry.timing.check_seconds
                             : 0;
    std::fprintf(stderr,
                 "  churn depth %-3zu %5.2f jobs/s (%zu jobs, %zu applies, %llu plan builds)\n",
                 entry.depth, entry.jobs_per_sec, entry.timing.jobs, entry.timing.rounds,
                 static_cast<unsigned long long>(entry.timing.plan_builds));
    churn_sweep.push_back(std::move(entry));
  }

  server->request_shutdown();
  server->wait();
  server.reset();
  std::filesystem::remove(socket_path);

  std::FILE* out = std::fopen(json_path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"workload\": \"serve\",\n  \"network\": \"%s\",\n",
               smoke ? "small" : "medium");
  std::fprintf(out,
               "  \"host\": {\"cores\": %u, \"build_type\": \"%s\", \"commit\": \"%s\"},\n",
               std::thread::hardware_concurrency(), JINJING_BUILD_TYPE, commit);
  std::fprintf(out, "  \"matrix\": [\n");
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const auto& cell = matrix[i];
    const auto& r = cell.result;
    std::fprintf(out,
                 "    {\"workers\": %u, \"depth\": %zu, \"jobs\": %zu, "
                 "\"wall_seconds\": %.6f, \"jobs_per_sec\": %.3f, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f}%s\n",
                 cell.workers, r.depth, r.jobs, r.wall_seconds, r.jobs_per_sec, r.p50_ms,
                 r.p99_ms, i + 1 < matrix.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"transport\": {\"workers\": %u, \"depth\": %zu, \"entries\": [\n",
               sweep_workers, sweep_depth);
  for (std::size_t i = 0; i < transports.size(); ++i) {
    const auto& cell = transports[i];
    std::fprintf(out,
                 "    {\"transport\": \"%s\", \"jobs\": %zu, \"jobs_per_sec\": %.3f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 cell.transport.c_str(), cell.result.jobs, cell.result.jobs_per_sec,
                 cell.result.p50_ms, cell.result.p99_ms,
                 i + 1 < transports.size() ? "," : "");
  }
  std::fprintf(out, "  ]},\n");
  std::fprintf(out,
               "  \"replication\": {\"workers\": %u, \"depth\": %zu, \"replicas\": 2,\n"
               "    \"writer_only\": {\"jobs\": %zu, \"jobs_per_sec\": %.3f, \"p50_ms\": %.3f, "
               "\"p99_ms\": %.3f},\n"
               "    \"writer_plus_replicas\": {\"jobs\": %zu, \"jobs_per_sec\": %.3f, "
               "\"p50_ms\": %.3f, \"p99_ms\": %.3f},\n"
               "    \"aggregate_speedup\": %.2f},\n",
               sweep_workers, sweep_depth, writer_only_result.jobs,
               writer_only_result.jobs_per_sec, writer_only_result.p50_ms,
               writer_only_result.p99_ms, replica_pair_result.jobs,
               replica_pair_result.jobs_per_sec, replica_pair_result.p50_ms,
               replica_pair_result.p99_ms,
               writer_only_result.jobs_per_sec > 0
                   ? replica_pair_result.jobs_per_sec / writer_only_result.jobs_per_sec
                   : 0);
  std::fprintf(out,
               "  \"warm_vs_cold\": {\"jobs\": %zu, \"warm_seconds\": %.6f, "
               "\"cold_seconds\": %.6f, \"speedup\": %.2f},\n",
               warm_cold_jobs, warm_seconds, cold_seconds, speedup);
  std::fprintf(out,
               "  \"fix_warm_vs_cold\": {\"jobs\": %zu, \"warm_seconds\": %.6f, "
               "\"cold_seconds\": %.6f, \"speedup\": %.2f},\n",
               fix_stream.size(), fix_warm_seconds, fix_cold_seconds, fix_speedup);
  std::fprintf(out, "  \"churn\": {\n    \"depths\": [\n");
  for (std::size_t i = 0; i < churn_sweep.size(); ++i) {
    const auto& entry = churn_sweep[i];
    std::fprintf(out,
                 "      {\"depth\": %zu, \"applies\": %zu, \"jobs\": %zu, "
                 "\"check_seconds\": %.6f, \"jobs_per_sec\": %.3f, \"plan_builds\": %llu}%s\n",
                 entry.depth, entry.timing.rounds, entry.timing.jobs,
                 entry.timing.check_seconds, entry.jobs_per_sec,
                 static_cast<unsigned long long>(entry.timing.plan_builds),
                 i + 1 < churn_sweep.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n  }\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", json_path);
  return 0;
}
