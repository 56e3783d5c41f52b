#include "cli/cli.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

#include "config/acl_format.h"
#include "config/audit.h"
#include "config/topology_format.h"
#include "core/deploy.h"
#include "core/diff.h"
#include "core/engine.h"
#include "gen/scenario.h"
#include "gen/wan.h"
#include "obs/stats.h"
#include "net/acl_algebra.h"
#include "replica/replica.h"
#include "soak/soak.h"
#include "svc/client.h"
#include "svc/routed_client.h"
#include "svc/server.h"
#include "topo/fec.h"
#include "topo/paths.h"

namespace jinjing::cli {

namespace {

constexpr const char* kUsage = R"(usage:
  jinjing run   --network FILE --program FILE [--acl NAME=FILE]...
                [--diff] [--rollback] [--stage availability|security]
                [--out FILE] [--report-json FILE] [--metrics FILE] [--trace FILE]
  jinjing show  --network FILE
  jinjing audit --network FILE
  jinjing reach --network FILE --from IFACE --to IFACE [--packet SPEC]
  jinjing trace --network FILE --packet SPEC [--from IFACE]
  jinjing diff  --acl-a FILE --acl-b FILE
  jinjing gen   --size small|medium|large [--seed N]
  jinjing serve  --network FILE [--socket PATH] [--listen HOST:PORT --token SECRET]
                 [--queue-depth N] [--workers N] [--keep-versions N]
                 [--retain-jobs N] [--max-lease-ms N]
  jinjing replica --network FILE --writer ENDPOINT [--token SECRET]
                 [--socket PATH] [--listen HOST:PORT] [--lease-ms N]
                 [--queue-depth N] [--workers N] [--keep-versions N]
                 [--retain-jobs N]
  jinjing client (--socket ENDPOINT | --writer ENDPOINT [--replica ENDPOINT]...)
                 METHOD [--token SECRET] [--program FILE] [--acl NAME=FILE]...
                 [--priority interactive|batch] [--deadline-ms N]
                 [--snapshot N] [--job N] [--wait] [--wait-ms N]
                 [--lease N] [--lease-ms N] [--version N]
  jinjing soak   [--size small|medium|large] [--seed N] [--events N]
                 [--sessions N] [--qps X] [--duration-s X] [--workers N]
                 [--queue-depth N] [--keep-versions N] [--retain-jobs N]
                 [--no-oracle] [--transport unix|tcp] [--report-json FILE]
                 [--socket PATH] [--dump-stream]

run      execute an LAI program (check / fix / generate) and print the plan
         --diff      also print the per-slot rule diff of the plan
         --rollback  also print the plan that restores the current ACLs
         --stage M   also print a transient-safe two-phase push sequence
         --out FILE  write the plan as reusable 'acl ... end' blocks
         --report-json FILE   write per-stage timings (plan/compile/solve/
                              execute), obligation counts and the full
                              observability counter dump to FILE
         --metrics FILE       write pipeline counters/histograms to FILE in
                              Prometheus text exposition format
         --trace FILE         write scoped spans to FILE as Chrome
                              trace-event JSON (chrome://tracing, Perfetto)
show     print the network summary: paths, traffic classes, ACLs
audit    run the data-quality checks; exit 1 when errors are found
reach    answer "what can go from A to B?" — per-path permitted traffic,
         or the verdict for one packet (--packet "dst 1.2.3.4 dport 80")
trace    follow one packet hop by hop: routing choice and ACL verdict (with
         the matching rule) at every interface it crosses
diff     compare two ACLs semantically: equivalence verdict, the rules the
         update adds/removes (Definition 4.1), and a witness packet whose
         decision differs
gen      write a synthetic layered WAN (the benchmark workloads) to stdout
serve    run the long-lived verification service on a Unix domain socket
         and/or a TCP listener: versioned network snapshots, a prioritized
         job queue (interactive check ahead of batch fix/generate), pure
         checks answered by an exact set scan and warm fix/generate engines
         --listen HOST:PORT   also accept authenticated TCP connections
                              (port 0 binds an ephemeral port); requires
                              --token
replica  run a read-only verifier replica: subscribes to the writer's
         replication stream, re-verifies every record's hash chain, and
         serves checks locally from its own warm caches; fix/generate and
         apply are redirected to the writer (421)
         --writer ENDPOINT    the writer's Unix socket path or host:port
         --lease-ms N         writer-side lease window pinning the
                              replica's applied version (default 10000)
client   drive a running service; METHOD is one of submit, status, result,
         cancel, apply, lease, renew, release, info, metrics, shutdown
         --socket ENDPOINT    Unix socket path or host:port to dial
         --writer/--replica   replica-aware routing instead of one socket:
                              pure checks go to the replicas round-robin
                              (pinned to the last applied version), all
                              mutations go to the writer
         --wait      after submit, block until the job finishes; exit 0
                     only when it produced a deployable plan
         --wait-ms N bound a result wait instead of blocking forever
         --lease N / --lease-ms N / --version N
                     arguments for the lease, renew and release methods
soak     boot an in-process service and replay a seeded churn stream of
         checks, applies, control intents, cancels and malformed intents
         through concurrent client sessions; every completed job is re-run
         on a fresh sequential oracle and `metrics` snapshots are diffed
         for retention / cache leak invariants; exit 0 only when every
         answer matched and every invariant held
         --events N      stream events per pass (default 500)
         --sessions N    concurrent client sessions (default 4)
         --qps X         aggregate submission pacing (default unpaced)
         --duration-s X  replay derived-seed passes until X seconds elapsed
         --no-oracle     skip the differential oracle (watchdogs only)
         --dump-stream   print the resolved event stream and exit (two runs
                         of one seed must print identical lines)
         --transport tcp drive the sessions over loopback TCP with token
                         auth instead of the Unix socket
)";

struct Options {
  std::string command;
  std::string network_path;
  std::string program_path;
  std::vector<std::pair<std::string, std::string>> acl_files;  // name -> path
  bool show_diff = false;
  bool show_rollback = false;
  std::optional<core::StagingMode> stage;
  std::string from_iface;
  std::string to_iface;
  std::string packet_spec;
  std::string gen_size;
  unsigned gen_seed = 0;
  std::string out_path;
  std::string acl_a_path;
  std::string acl_b_path;
  std::string report_json_path;
  std::string metrics_path;
  std::string trace_path;
  // serve / replica / client
  std::string socket_path;
  std::string listen_address;
  std::string auth_token;
  std::string writer_endpoint;
  std::vector<std::string> replica_endpoints;
  unsigned max_lease_ms = 60000;
  unsigned replica_lease_ms = 10000;
  std::optional<std::uint64_t> lease_id;
  std::optional<std::uint64_t> lease_ms_arg;
  std::optional<std::uint64_t> version_arg;
  unsigned queue_depth = 64;
  unsigned workers = 2;
  unsigned keep_versions = 8;
  unsigned retain_jobs = 1024;
  std::string client_method;
  std::string priority;
  std::optional<std::uint64_t> job_id;
  std::optional<std::uint64_t> deadline_ms;
  std::optional<std::uint64_t> snapshot;
  std::optional<std::uint64_t> wait_ms;
  bool wait = false;
  // soak
  unsigned soak_events = 500;
  unsigned soak_sessions = 4;
  double soak_qps = 0;
  double soak_duration_s = 0;
  bool soak_no_oracle = false;
  bool soak_dump_stream = false;
  bool soak_tcp = false;
  bool retain_jobs_set = false;  // soak defaults lower than serve's 1024
};

/// Strict flag-value parsing: the whole token must be a decimal number in
/// [min, max]. Negative values, empty strings, trailing garbage and
/// overflow are all usage errors naming the flag — never a partial run.
unsigned long parse_unsigned(const char* flag, const std::string& text, unsigned long min,
                             unsigned long max) {
  unsigned long parsed = 0;
  try {
    if (text.empty() || text[0] == '-' || text[0] == '+') throw std::invalid_argument(text);
    std::size_t consumed = 0;
    parsed = std::stoul(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument(text);
  } catch (const std::exception&) {
    throw std::runtime_error(std::string(flag) + " expects a number, got '" + text + "'");
  }
  if (parsed < min || parsed > max) {
    throw std::runtime_error(std::string(flag) + " expects " + std::to_string(min) +
                             " <= N <= " + std::to_string(max) + ", got '" + text + "'");
  }
  return parsed;
}

/// Same strictness for non-negative decimal flags (--qps 2.5).
double parse_nonnegative_double(const char* flag, const std::string& text, double max) {
  double parsed = 0;
  try {
    if (text.empty() || text[0] == '-' || text[0] == '+') throw std::invalid_argument(text);
    std::size_t consumed = 0;
    parsed = std::stod(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument(text);
  } catch (const std::exception&) {
    throw std::runtime_error(std::string(flag) + " expects a number, got '" + text + "'");
  }
  if (!(parsed >= 0) || parsed > max) {
    throw std::runtime_error(std::string(flag) + " expects 0 <= X <= " + std::to_string(max) +
                             ", got '" + text + "'");
  }
  return parsed;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Options parse_args(const std::vector<std::string>& args) {
  if (args.empty()) throw std::runtime_error("missing command");
  Options options;
  options.command = args[0];
  const bool known_command =
      options.command == "run" || options.command == "show" || options.command == "audit" ||
      options.command == "reach" || options.command == "trace" || options.command == "diff" ||
      options.command == "gen" || options.command == "serve" ||
      options.command == "replica" || options.command == "client" ||
      options.command == "soak";
  if (!known_command) {
    throw std::runtime_error("unknown command '" + options.command + "'");
  }
  for (std::size_t i = 1; i < args.size(); ++i) {
    const auto& arg = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw std::runtime_error("missing value after " + arg);
      return args[++i];
    };
    if (arg == "--network") {
      options.network_path = value();
    } else if (arg == "--program") {
      options.program_path = value();
    } else if (arg == "--acl") {
      const auto& pair = value();
      const auto eq = pair.find('=');
      if (eq == std::string::npos) throw std::runtime_error("--acl expects NAME=FILE");
      options.acl_files.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    } else if (arg == "--diff") {
      options.show_diff = true;
    } else if (arg == "--rollback") {
      options.show_rollback = true;
    } else if (arg == "--stage") {
      const auto& mode = value();
      if (mode == "availability") {
        options.stage = core::StagingMode::AvailabilityFirst;
      } else if (mode == "security") {
        options.stage = core::StagingMode::SecurityFirst;
      } else {
        throw std::runtime_error("--stage expects 'availability' or 'security'");
      }
    } else if (arg == "--from") {
      options.from_iface = value();
    } else if (arg == "--to") {
      options.to_iface = value();
    } else if (arg == "--packet") {
      options.packet_spec = value();
    } else if (arg == "--acl-a") {
      options.acl_a_path = value();
    } else if (arg == "--acl-b") {
      options.acl_b_path = value();
    } else if (arg == "--out") {
      options.out_path = value();
    } else if (arg == "--report-json") {
      options.report_json_path = value();
    } else if (arg == "--metrics") {
      options.metrics_path = value();
    } else if (arg == "--trace") {
      options.trace_path = value();
    } else if (arg == "--size") {
      options.gen_size = value();
    } else if (arg == "--seed") {
      options.gen_seed = static_cast<unsigned>(
          parse_unsigned("--seed", value(), 0, std::numeric_limits<unsigned>::max()));
    } else if (arg == "--socket") {
      options.socket_path = value();
    } else if (arg == "--listen") {
      options.listen_address = value();
    } else if (arg == "--token") {
      options.auth_token = value();
    } else if (arg == "--writer") {
      options.writer_endpoint = value();
    } else if (arg == "--replica") {
      options.replica_endpoints.push_back(value());
    } else if (arg == "--max-lease-ms") {
      options.max_lease_ms =
          static_cast<unsigned>(parse_unsigned("--max-lease-ms", value(), 1, 86400000));
    } else if (arg == "--lease") {
      options.lease_id = parse_unsigned("--lease", value(), 1,
                                        std::numeric_limits<unsigned long>::max());
    } else if (arg == "--lease-ms") {
      options.lease_ms_arg = parse_unsigned("--lease-ms", value(), 1, 86400000);
      options.replica_lease_ms = static_cast<unsigned>(*options.lease_ms_arg);
    } else if (arg == "--version") {
      options.version_arg = parse_unsigned("--version", value(), 1,
                                           std::numeric_limits<unsigned long>::max());
    } else if (arg == "--transport") {
      const auto& transport = value();
      if (transport == "tcp") {
        options.soak_tcp = true;
      } else if (transport != "unix") {
        throw std::runtime_error("--transport expects 'unix' or 'tcp', got '" + transport +
                                 "'");
      }
    } else if (arg == "--queue-depth") {
      options.queue_depth = static_cast<unsigned>(parse_unsigned("--queue-depth", value(), 1,
                                                                 1u << 20));
    } else if (arg == "--workers") {
      options.workers = static_cast<unsigned>(parse_unsigned("--workers", value(), 1, 1024));
    } else if (arg == "--keep-versions") {
      options.keep_versions =
          static_cast<unsigned>(parse_unsigned("--keep-versions", value(), 1, 1u << 20));
    } else if (arg == "--retain-jobs") {
      options.retain_jobs =
          static_cast<unsigned>(parse_unsigned("--retain-jobs", value(), 1, 1u << 20));
      options.retain_jobs_set = true;
    } else if (arg == "--events") {
      options.soak_events =
          static_cast<unsigned>(parse_unsigned("--events", value(), 1, 1u << 20));
    } else if (arg == "--sessions") {
      options.soak_sessions =
          static_cast<unsigned>(parse_unsigned("--sessions", value(), 1, 256));
    } else if (arg == "--qps") {
      options.soak_qps = parse_nonnegative_double("--qps", value(), 1e6);
    } else if (arg == "--duration-s") {
      options.soak_duration_s = parse_nonnegative_double("--duration-s", value(), 86400);
    } else if (arg == "--no-oracle") {
      options.soak_no_oracle = true;
    } else if (arg == "--dump-stream") {
      options.soak_dump_stream = true;
    } else if (arg == "--priority") {
      const auto& priority = value();
      if (priority != "interactive" && priority != "batch") {
        throw std::runtime_error("--priority expects 'interactive' or 'batch', got '" +
                                 priority + "'");
      }
      options.priority = priority;
    } else if (arg == "--job") {
      options.job_id = parse_unsigned("--job", value(), 1,
                                      std::numeric_limits<unsigned long>::max());
    } else if (arg == "--deadline-ms") {
      options.deadline_ms = parse_unsigned("--deadline-ms", value(), 1, 86400000);
    } else if (arg == "--snapshot") {
      options.snapshot = parse_unsigned("--snapshot", value(), 1,
                                        std::numeric_limits<unsigned long>::max());
    } else if (arg == "--wait") {
      options.wait = true;
    } else if (arg == "--wait-ms") {
      options.wait_ms = parse_unsigned("--wait-ms", value(), 1, 86400000);
    } else if (options.command == "client" && options.client_method.empty() &&
               arg.rfind("--", 0) != 0) {
      options.client_method = arg;
    } else {
      throw std::runtime_error("unknown option: " + arg);
    }
  }
  if (options.command != "gen" && options.command != "diff" && options.command != "client" &&
      options.command != "soak" && options.network_path.empty()) {
    throw std::runtime_error("--network is required");
  }
  return options;
}

void print_plan(std::ostream& out, const topo::Topology& topo, const topo::AclUpdate& plan) {
  // One formatter for every consumer: the CLI, --out files, and the
  // service's job outcomes all go through core::format_plan.
  out << core::format_plan(topo, plan);
}

/// JSON string-literal escaping for values that originate outside the tool
/// (output paths, file names): quotes, backslashes and control characters.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Opens `path`, streams `body` into it and verifies the write landed; any
/// failure (unwritable path, disk full, ...) is a CLI error, so the caller
/// never prints a "written to" success message for a file that is not there.
template <typename Body>
void write_output_file(const std::string& path, Body&& body) {
  std::ofstream file{path};
  if (!file) throw std::runtime_error("cannot write " + path);
  body(file);
  file.flush();
  if (!file) throw std::runtime_error("error while writing " + path);
}

/// The --report-json payload: per-command obligation counts and stage
/// timings, pipeline totals, and (when observability is installed) the full
/// counter dump.
void write_report_json(const std::string& path, const core::EngineReport& report,
                       const obs::StatsRegistry* registry) {
  write_output_file(path, [&](std::ostream& file) {
  file << "{\n  \"report_path\": \"" << json_escape(path) << "\",\n  \"commands\": [";
  bool first = true;
  double total_plan = 0, total_execute = 0, total_fix = 0, total_generate = 0;
  for (const auto& outcome : report.outcomes) {
    if (!first) file << ",";
    first = false;
    file << "\n    {\"command\": \"" << lai::to_string(outcome.command) << "\", \"ok\": "
         << (outcome.ok() ? "true" : "false");
    if (outcome.check) {
      const auto& c = *outcome.check;
      file << ", \"obligations\": " << c.obligation_count
           << ", \"executed\": " << c.obligations_executed
           << ", \"cancelled\": " << c.obligations_cancelled
           << ", \"fec_count\": " << c.fec_count
           << ", \"plan_seconds\": " << c.plan_seconds
           << ", \"execute_seconds\": " << c.execute_seconds;
      total_plan += c.plan_seconds;
      total_execute += c.execute_seconds;
    }
    if (outcome.fix) {
      const auto& f = *outcome.fix;
      file << ", \"obligations\": " << f.obligations
           << ", \"obligations_skipped\": " << f.obligations_skipped
           << ", \"neighborhoods\": " << f.neighborhoods.size()
           << ", \"actions\": " << f.actions.size()
           << ", \"search_seconds\": " << f.search_seconds
           << ", \"enlarge_seconds\": " << f.enlarge_seconds
           << ", \"place_seconds\": " << f.place_seconds
           << ", \"assemble_seconds\": " << f.assemble_seconds;
      total_fix += f.search_seconds + f.enlarge_seconds + f.place_seconds + f.assemble_seconds;
    }
    if (outcome.generate) {
      const auto& g = *outcome.generate;
      file << ", \"aec_count\": " << g.aec_count << ", \"dec_count\": " << g.dec_count
           << ", \"derive_seconds\": " << g.derive_seconds
           << ", \"solve_seconds\": " << g.solve_seconds
           << ", \"synth_seconds\": " << g.synth_seconds;
      total_generate += g.derive_seconds + g.solve_seconds + g.synth_seconds;
    }
    file << "}";
  }
  file << "\n  ],\n  \"totals\": {\"plan_seconds\": " << total_plan
       << ", \"execute_seconds\": " << total_execute << ", \"fix_seconds\": " << total_fix
       << ", \"generate_seconds\": " << total_generate << "}";
  if (registry != nullptr) {
    file << ",\n  \"observability\": ";
    registry->write_json(file, "  ");
  }
  file << "\n}\n";
  });
}

int run_command(const Options& options, std::ostream& out) {
  if (options.program_path.empty()) throw std::runtime_error("--program is required for run");
  const auto network = config::load_network(options.network_path);
  const auto program_text = read_file(options.program_path);

  lai::AclLibrary library;
  library.emplace("permit_all", net::Acl::permit_all());
  for (const auto& [name, path] : options.acl_files) {
    library.insert_or_assign(name, config::parse_acl_auto(read_file(path)));
  }

  // Observability is on whenever any export wants its data; the registry
  // lives on the stack and is uninstalled before the outputs are written.
  const bool want_observability = !options.report_json_path.empty() ||
                                  !options.metrics_path.empty() ||
                                  !options.trace_path.empty();
  std::optional<obs::StatsRegistry> registry;
  std::optional<obs::ScopedRegistry> installed;
  if (want_observability) {
    registry.emplace();
    installed.emplace(*registry);
  }

  core::Engine engine{network.topo};
  const auto report = engine.run_program(program_text, library, network.traffic);

  installed.reset();
  if (!options.report_json_path.empty()) {
    write_report_json(options.report_json_path, report, registry ? &*registry : nullptr);
    out << "report written to " << options.report_json_path << "\n";
  }
  if (!options.metrics_path.empty()) {
    write_output_file(options.metrics_path,
                      [&](std::ostream& file) { registry->write_prometheus(file); });
    out << "metrics written to " << options.metrics_path << "\n";
  }
  if (!options.trace_path.empty()) {
    write_output_file(options.trace_path,
                      [&](std::ostream& file) { registry->write_chrome_trace(file); });
    out << "trace written to " << options.trace_path << "\n";
  }

  for (const auto& outcome : report.outcomes) {
    out << lai::to_string(outcome.command) << ": " << (outcome.ok() ? "ok" : "FAILED");
    if (outcome.check) {
      out << " (" << (outcome.check->consistent ? "consistent" : "inconsistent") << ", "
          << outcome.check->fec_count << " classes, " << outcome.check->obligations_executed
          << "/" << outcome.check->obligation_count << " obligations scanned)";
    }
    if (outcome.fix) {
      out << " (" << outcome.fix->neighborhoods.size() << " neighborhoods, "
          << outcome.fix->actions.size() << " interfaces touched)";
    }
    if (outcome.generate) {
      out << " (" << outcome.generate->aec_count << " AECs, "
          << outcome.generate->synthesis.emitted_rules << " rules synthesized)";
    }
    out << "\n";
  }
  out << "\nupdate plan:\n";
  print_plan(out, network.topo, report.final_update);

  if (options.show_diff) {
    out << "\nchanges:\n" << core::describe_update(network.topo, report.final_update);
  }
  if (options.stage) {
    out << "\nstaged deployment ("
        << (*options.stage == core::StagingMode::AvailabilityFirst ? "availability" : "security")
        << "-first):\n";
    for (const auto& step : core::staged_plan(network.topo, report.final_update,
                                              *options.stage)) {
      out << "phase " << step.phase + 1 << " push "
          << network.topo.qualified_name(step.slot.iface)
          << (step.slot.dir == topo::Dir::In ? "-in" : "-out") << " (" << step.acl.size()
          << " rules)\n";
    }
  }
  if (options.show_rollback) {
    out << "\nrollback plan:\n";
    print_plan(out, network.topo, core::rollback_update(network.topo, report.final_update));
  }
  if (!options.out_path.empty()) {
    write_output_file(options.out_path, [&](std::ostream& file) {
      print_plan(file, network.topo, report.final_update);
    });
    out << "\nplan written to " << options.out_path << "\n";
  }
  return report.success() ? 0 : 1;
}

int show_command(const Options& options, std::ostream& out) {
  const auto network = config::load_network(options.network_path);
  const auto scope = topo::Scope::whole_network(network.topo);

  out << "devices: " << network.topo.device_count()
      << ", interfaces: " << network.topo.interface_count()
      << ", links: " << network.topo.edges().size() << "\n";

  const auto paths = topo::enumerate_paths(network.topo, scope);
  out << "border-to-border paths: " << paths.size() << "\n";
  for (const auto& p : paths) out << "  " << to_string(network.topo, p) << "\n";

  std::size_t classes = 0;
  for (const auto& entry : topo::per_entry_equivalence_classes(network.topo, scope,
                                                               network.traffic)) {
    classes += entry.classes.size();
  }
  out << "traffic classes (per entry): " << classes << "\n";

  out << "ACLs:\n";
  for (const auto slot : network.topo.bound_slots()) {
    out << "  " << network.topo.qualified_name(slot.iface)
        << (slot.dir == topo::Dir::In ? "-in" : "-out") << ": "
        << network.topo.acl(slot).size() << " rules\n";
  }
  return 0;
}

int audit_command(const Options& options, std::ostream& out) {
  const auto network = config::load_network(options.network_path);
  const auto issues = config::audit_network(network.topo, network.traffic);
  if (issues.empty()) {
    out << "audit clean\n";
    return 0;
  }
  for (const auto& issue : issues) out << to_string(issue) << "\n";
  return config::has_errors(issues) ? 1 : 0;
}

int reach_command(const Options& options, std::ostream& out) {
  if (options.from_iface.empty() || options.to_iface.empty()) {
    throw std::runtime_error("reach requires --from and --to interfaces");
  }
  const auto network = config::load_network(options.network_path);
  const auto from = network.topo.find_interface(options.from_iface);
  const auto to = network.topo.find_interface(options.to_iface);
  if (!from) throw std::runtime_error("unknown interface " + options.from_iface);
  if (!to) throw std::runtime_error("unknown interface " + options.to_iface);

  const auto scope = topo::Scope::whole_network(network.topo);
  const topo::ConfigView view{network.topo};

  std::optional<net::Packet> packet;
  if (!options.packet_spec.empty()) {
    const auto spec = config::parse_packet_set(options.packet_spec);
    if (spec.is_empty()) throw std::runtime_error("empty packet spec");
    packet = spec.sample();
    out << "packet: " << net::to_string(*packet) << "\n";
  }

  bool any_path = false;
  bool reachable = false;
  for (const auto& path : topo::enumerate_paths(network.topo, scope)) {
    if (path.entry() != *from || path.exit() != *to) continue;
    any_path = true;
    const auto carried = topo::forwarding_set(network.topo, path);
    if (packet) {
      if (!carried.contains(*packet)) continue;
      const bool permitted = topo::path_permits(view, path, *packet);
      reachable = reachable || permitted;
      out << "  " << to_string(network.topo, path) << ": "
          << (permitted ? "permitted" : "denied") << "\n";
    } else {
      auto deliverable = topo::path_permitted_set(view, path) & carried;
      if (!network.traffic.is_empty()) deliverable = deliverable & network.traffic;
      reachable = reachable || !deliverable.is_empty();
      out << "  " << to_string(network.topo, path) << ": "
          << (deliverable.is_empty() ? "(nothing)"
                                     : config::print_packet_set(deliverable.compact()))
          << "\n";
    }
  }
  if (!any_path) {
    out << "no path from " << options.from_iface << " to " << options.to_iface << "\n";
    return 1;
  }
  out << (reachable ? "reachable" : "unreachable") << "\n";
  return reachable ? 0 : 1;
}

int trace_command(const Options& options, std::ostream& out) {
  if (options.packet_spec.empty()) throw std::runtime_error("trace requires --packet");
  const auto network = config::load_network(options.network_path);
  const auto spec = config::parse_packet_set(options.packet_spec);
  if (spec.is_empty()) throw std::runtime_error("empty packet spec");
  const net::Packet packet = spec.sample();
  out << "packet: " << net::to_string(packet) << "\n";

  const auto scope = topo::Scope::whole_network(network.topo);
  const topo::ConfigView view{network.topo};

  std::vector<topo::InterfaceId> entries;
  if (!options.from_iface.empty()) {
    const auto from = network.topo.find_interface(options.from_iface);
    if (!from) throw std::runtime_error("unknown interface " + options.from_iface);
    entries.push_back(*from);
  } else {
    entries = topo::entry_interfaces(network.topo, scope);
  }

  bool delivered = false;
  for (const auto entry : entries) {
    for (const auto& path : topo::enumerate_paths(network.topo, scope)) {
      if (path.entry() != entry) continue;
      if (!topo::forwarding_set(network.topo, path).contains(packet)) continue;
      out << "path " << to_string(network.topo, path) << ":\n";
      bool dropped = false;
      for (const auto& hop : path.hops()) {
        out << "  " << network.topo.qualified_name(hop.iface) << "-"
            << topo::to_string(hop.dir);
        const auto& acl = view.acl(hop.slot());
        if (acl.empty()) {
          out << ": no ACL\n";
          continue;
        }
        const auto rule_index = acl.first_match(packet);
        if (rule_index) {
          const auto& rule = acl.rules()[*rule_index];
          out << ": rule " << *rule_index + 1 << " '" << net::to_string(rule) << "' -> "
              << net::to_string(rule.action) << "\n";
          if (rule.action == net::Action::Deny) {
            dropped = true;
            break;
          }
        } else {
          out << ": default " << net::to_string(acl.default_action()) << "\n";
          if (acl.default_action() == net::Action::Deny) {
            dropped = true;
            break;
          }
        }
      }
      out << (dropped ? "  => DROPPED\n" : "  => delivered\n");
      delivered = delivered || !dropped;
    }
  }
  out << (delivered ? "packet is delivered on at least one path\n"
                    : "packet is dropped everywhere\n");
  return delivered ? 0 : 1;
}

int diff_command(const Options& options, std::ostream& out) {
  if (options.acl_a_path.empty() || options.acl_b_path.empty()) {
    throw std::runtime_error("diff requires --acl-a and --acl-b");
  }
  const auto a = config::parse_acl_auto(read_file(options.acl_a_path));
  const auto b = config::parse_acl_auto(read_file(options.acl_b_path));

  const auto marks = core::lcs_marks(a.rules(), b.rules());
  for (std::size_t i = 0; i < a.rules().size(); ++i) {
    if (!marks.in_a[i]) out << "- " << net::to_string(a.rules()[i]) << "\n";
  }
  for (std::size_t i = 0; i < b.rules().size(); ++i) {
    if (!marks.in_b[i]) out << "+ " << net::to_string(b.rules()[i]) << "\n";
  }

  if (net::equivalent(a, b)) {
    out << "equivalent: the ACLs permit exactly the same packets\n";
    return 0;
  }
  const auto only_a = net::permitted_set(a) - net::permitted_set(b);
  const auto only_b = net::permitted_set(b) - net::permitted_set(a);
  if (!only_a.is_empty()) {
    out << "B newly denies e.g. " << net::to_string(only_a.sample()) << "\n";
  }
  if (!only_b.is_empty()) {
    out << "B newly permits e.g. " << net::to_string(only_b.sample()) << "\n";
  }
  out << "NOT equivalent\n";
  return 1;
}

gen::WanParams wan_params_for(const Options& options) {
  gen::WanParams params;
  if (options.gen_size == "small" || options.gen_size.empty()) {
    params = gen::small_wan();
  } else if (options.gen_size == "medium") {
    params = gen::medium_wan();
  } else if (options.gen_size == "large") {
    params = gen::large_wan();
  } else {
    throw std::runtime_error("--size expects small, medium or large");
  }
  if (options.gen_seed != 0) params.seed = options.gen_seed;
  return params;
}

int gen_command(const Options& options, std::ostream& out) {
  const auto wan = gen::make_wan(wan_params_for(options));
  config::NetworkFile file;
  file.topo = wan.topo;
  file.traffic = wan.traffic;
  out << config::print_network(file);
  return 0;
}

int soak_command(const Options& options, std::ostream& out) {
  soak::SoakOptions soak_options;
  soak_options.wan = wan_params_for(options);
  soak_options.stream.events = options.soak_events;
  if (options.gen_seed != 0) soak_options.stream.seed = options.gen_seed;
  soak_options.sessions = options.soak_sessions;
  soak_options.target_qps = options.soak_qps;
  soak_options.min_duration_seconds = options.soak_duration_s;
  soak_options.oracle = !options.soak_no_oracle;
  soak_options.tcp = options.soak_tcp;
  soak_options.log = &out;
  soak_options.server.socket_path = options.socket_path;  // empty = temp path
  soak_options.server.queue_depth = options.queue_depth;
  soak_options.server.workers = options.workers;
  soak_options.server.keep_versions = options.keep_versions;
  // The retention flush submits exactly retain_jobs trivial checks, so the
  // soak default stays far below serve's 1024.
  soak_options.server.retain_jobs = options.retain_jobs_set ? options.retain_jobs : 64;

  if (options.soak_dump_stream) {
    const gen::Wan wan = gen::make_wan(soak_options.wan);
    for (const auto& event : gen::churn_stream(wan, soak_options.stream)) {
      out << gen::describe(event) << "\n";
    }
    return 0;
  }

  const soak::SoakReport report = soak::run_soak(soak_options);
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(report.stream_fingerprint));
  out << "soak: " << report.passes << " passes, " << report.events << " events, "
      << report.submitted << " submitted, " << report.completed << " completed, "
      << report.cancelled << " cancelled, " << report.applies << " applies ("
      << report.apply_conflicts << " conflicts), " << report.rejected
      << " backpressure rejections, " << report.evicted_before_read
      << " evicted before read, " << report.expected_submit_errors
      << " malformed bounced, " << report.flushed << " flushed\n"
      << "oracle: " << report.oracle_checked << " checked, " << report.oracle_mismatches
      << " mismatches\n"
      << "stream fingerprint: " << fingerprint << "\n"
      << "wall: " << report.wall_seconds << "s (" << report.achieved_qps << " jobs/s)\n";
  for (const auto& failure : report.failures) out << "FAIL: " << failure << "\n";
  if (!options.report_json_path.empty()) {
    write_output_file(options.report_json_path, [&](std::ostream& file) {
      soak::write_report_json(file, soak_options, report);
    });
    out << "report written to " << options.report_json_path << "\n";
  }
  out << (report.ok() ? "soak PASSED\n" : "soak FAILED\n");
  return report.ok() ? 0 : 1;
}

svc::ServerOptions server_options_for(const Options& options) {
  svc::ServerOptions server_options;
  server_options.socket_path = options.socket_path;
  server_options.listen_address = options.listen_address;
  server_options.auth_token = options.auth_token;
  server_options.max_lease_ms = options.max_lease_ms;
  server_options.queue_depth = options.queue_depth;
  server_options.workers = options.workers;
  server_options.keep_versions = options.keep_versions;
  server_options.retain_jobs = options.retain_jobs;
  return server_options;
}

int serve_command(const Options& options, std::ostream& out) {
  if (options.socket_path.empty() && options.listen_address.empty()) {
    throw std::runtime_error("serve requires --socket and/or --listen");
  }
  auto network = config::load_network(options.network_path);

  svc::Server server{std::move(network), server_options_for(options)};
  server.start();
  out << "serving on ";
  if (!server.socket_path().empty()) out << server.socket_path();
  if (!server.listen_endpoint().empty()) {
    if (!server.socket_path().empty()) out << " and ";
    out << "tcp " << server.listen_endpoint();
  }
  out << " (" << options.workers << " workers, queue depth " << options.queue_depth
      << ")\n";
  out.flush();
  server.wait();
  out << "server drained, exiting\n";
  return 0;
}

int replica_command(const Options& options, std::ostream& out) {
  if (options.writer_endpoint.empty()) throw std::runtime_error("replica requires --writer");
  if (options.socket_path.empty() && options.listen_address.empty()) {
    throw std::runtime_error("replica requires --socket and/or --listen");
  }
  auto network = config::load_network(options.network_path);

  replica::ReplicaOptions replica_options;
  replica_options.writer = options.writer_endpoint;
  replica_options.token = options.auth_token;
  replica_options.lease_ms = options.replica_lease_ms;
  replica_options.serve = server_options_for(options);

  replica::Replica replica{std::move(network), std::move(replica_options)};
  replica.start();
  out << "replica of " << options.writer_endpoint << " serving on ";
  if (!replica.server().socket_path().empty()) out << replica.server().socket_path();
  if (!replica.server().listen_endpoint().empty()) {
    if (!replica.server().socket_path().empty()) out << " and ";
    out << "tcp " << replica.server().listen_endpoint();
  }
  out << "\n";
  out.flush();
  replica.wait();
  out << "replica drained, exiting\n";
  return 0;
}

int client_command(const Options& options, std::ostream& out) {
  if (options.socket_path.empty() && options.writer_endpoint.empty()) {
    throw std::runtime_error("client requires --socket ENDPOINT or --writer ENDPOINT");
  }
  if (!options.replica_endpoints.empty() && options.writer_endpoint.empty()) {
    throw std::runtime_error("client --replica requires --writer");
  }
  const std::string& method = options.client_method;
  if (method.empty()) {
    throw std::runtime_error(
        "client requires a METHOD (submit, status, result, cancel, apply, lease, "
        "renew, release, info, metrics, shutdown)");
  }
  const bool job_method =
      method == "status" || method == "result" || method == "cancel" || method == "apply";
  const bool lease_method = method == "lease" || method == "renew" || method == "release";
  if (!job_method && !lease_method && method != "submit" && method != "info" &&
      method != "metrics" && method != "shutdown") {
    throw std::runtime_error("unknown client method '" + method + "'");
  }
  if (job_method && !options.job_id) {
    throw std::runtime_error("client " + method + " requires --job N");
  }
  if ((method == "renew" || method == "release") && !options.lease_id) {
    throw std::runtime_error("client " + method + " requires --lease N");
  }
  if (method == "submit" && options.program_path.empty()) {
    throw std::runtime_error("client submit requires --program FILE");
  }

  svc::Json::Object params;
  if (method == "submit") {
    params.emplace("program", read_file(options.program_path));
    svc::Json::Object acls;
    for (const auto& [name, path] : options.acl_files) acls.emplace(name, read_file(path));
    if (!acls.empty()) params.emplace("acls", svc::Json{std::move(acls)});
    if (!options.priority.empty()) params.emplace("priority", options.priority);
    if (options.deadline_ms) params.emplace("deadline_ms", *options.deadline_ms);
    if (options.snapshot) params.emplace("snapshot", *options.snapshot);
  } else if (job_method) {
    params.emplace("job", *options.job_id);
    if (method == "result" && options.wait_ms) params.emplace("timeout_ms", *options.wait_ms);
  } else if (lease_method) {
    if (options.lease_id) params.emplace("lease", *options.lease_id);
    if (options.lease_ms_arg) params.emplace("lease_ms", *options.lease_ms_arg);
    if (options.version_arg) params.emplace("version", *options.version_arg);
  }

  // One socket = a plain client; --writer (+ --replica ...) = replica-aware
  // routing. Both expose the same call surface.
  std::optional<svc::Client> direct;
  std::optional<svc::RoutedClient> routed;
  if (!options.writer_endpoint.empty()) {
    svc::RouteOptions route;
    route.writer = options.writer_endpoint;
    route.replicas = options.replica_endpoints;
    route.client.token = options.auth_token;
    routed.emplace(std::move(route));
  } else {
    svc::ClientOptions client_options;
    client_options.token = options.auth_token;
    direct.emplace(options.socket_path, client_options);
  }
  const auto call = [&](const std::string& m, svc::Json p) {
    return routed ? routed->call(m, std::move(p)) : direct->call(m, std::move(p));
  };
  try {
    svc::Json result = call(method, svc::Json{std::move(params)});
    if (method == "metrics") {
      out << result.at("prometheus").as_string();
      return 0;
    }
    out << result.dump() << "\n";
    if (method == "submit" && options.wait) {
      svc::Json::Object wait_params;
      wait_params.emplace("job", result.at("job").as_u64());
      if (options.wait_ms) wait_params.emplace("timeout_ms", *options.wait_ms);
      const svc::Json final = call("result", svc::Json{std::move(wait_params)});
      out << final.dump() << "\n";
      const svc::Json& status = final.at("status");
      const svc::Json* outcome = status.get("outcome");
      const bool success = final.at("done").as_bool() &&
                           status.at("state").as_string() == "done" && outcome != nullptr &&
                           outcome->at("success").as_bool();
      if (success) {
        if (const svc::Json* plan = outcome->get("plan")) {
          out << "\nupdate plan:\n" << plan->as_string();
        }
      }
      return success ? 0 : 1;
    }
    return 0;
  } catch (const svc::RpcError& e) {
    // A server-side rejection is a job outcome, not a usage error.
    out << "rpc error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  try {
    const auto options = parse_args(args);
    if (options.command == "run") return run_command(options, out);
    if (options.command == "show") return show_command(options, out);
    if (options.command == "audit") return audit_command(options, out);
    if (options.command == "reach") return reach_command(options, out);
    if (options.command == "trace") return trace_command(options, out);
    if (options.command == "gen") return gen_command(options, out);
    if (options.command == "diff") return diff_command(options, out);
    if (options.command == "serve") return serve_command(options, out);
    if (options.command == "replica") return replica_command(options, out);
    if (options.command == "client") return client_command(options, out);
    if (options.command == "soak") return soak_command(options, out);
    err << "unknown command '" << options.command << "'\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n" << kUsage;
    return 2;
  }
}

}  // namespace jinjing::cli
