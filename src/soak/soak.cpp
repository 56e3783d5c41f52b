#include "soak/soak.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>

#include "config/acl_format.h"
#include "config/topology_format.h"
#include "core/aec.h"
#include "core/deploy.h"
#include "core/engine.h"
#include "svc/client.h"

namespace jinjing::soak {

namespace {

using Clock = std::chrono::steady_clock;

/// What the harness remembers about one submitted stream job: enough to
/// re-run it on the oracle (program + bodies via the event pointer, the
/// snapshot pinned at submission) and the terminal answer the service gave.
struct Record {
  std::uint64_t id = 0;
  const gen::ChurnEvent* event = nullptr;
  svc::SnapshotPtr snapshot;
  svc::Version snapshot_version = 0;
  std::string state;  // terminal state string, filled when resolved
  bool success = false;
  std::string plan;
};

/// Counters and failure lines shared by the sessions; one mutex, touched
/// briefly per event.
class Totals {
 public:
  explicit Totals(SoakReport& report) : report_(report) {}

  template <typename Fn>
  void update(Fn&& fn) {
    const std::lock_guard<std::mutex> lock{mutex_};
    fn(report_);
  }

  void failure(std::string text) {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (report_.failures.size() < kMaxFailures) {
      report_.failures.push_back(std::move(text));
    } else if (report_.failures.size() == kMaxFailures) {
      report_.failures.push_back("... further failures truncated");
    }
  }

 private:
  static constexpr std::size_t kMaxFailures = 40;
  std::mutex mutex_;
  SoakReport& report_;
};

/// Dials the server over whichever transport the run exercises.
svc::Client make_client(svc::Server& server, const SoakOptions& options) {
  if (options.tcp) {
    svc::ClientOptions copts;
    copts.token = options.server.auth_token;
    return svc::Client{server.listen_endpoint(), copts};
  }
  return svc::Client{server.socket_path()};
}

svc::Json submit_params(const gen::ChurnEvent& event) {
  svc::Json::Object params;
  params.emplace("program", event.program);
  if (!event.acls.empty()) {
    svc::Json::Object acls;
    for (const auto& [name, acl] : event.acls) acls.emplace(name, config::print_acl(acl));
    params.emplace("acls", svc::Json{std::move(acls)});
  }
  return svc::Json{std::move(params)};
}

/// Event wait for a terminal result: the server's result method blocks on
/// the scheduler's condition variable; the bounded timeout_ms only re-arms
/// the wait so a wedged server cannot hang the harness silently forever.
svc::Json wait_result(svc::Client& client, std::uint64_t id) {
  while (true) {
    svc::Json::Object wait;
    wait.emplace("job", id);
    wait.emplace("timeout_ms", std::uint64_t{60000});
    svc::Json result = client.call("result", svc::Json{std::move(wait)});
    if (result.at("done").as_bool()) return result;
  }
}

void resolve(svc::Client& client, Record& record, Totals& totals) {
  svc::Json result;
  try {
    result = wait_result(client, record.id);
  } catch (const svc::RpcError& e) {
    if (e.code() == 404) {
      // The job finished and retention rotated it out before this session
      // got around to reading it — the documented contract for a client
      // that waits too long, so it is excluded from the oracle, never a
      // failure.
      record.state = "evicted";
      totals.update([](SoakReport& r) { ++r.evicted_before_read; });
      return;
    }
    throw;
  }
  const svc::Json& status = result.at("status");
  record.state = status.at("state").as_string();
  record.snapshot_version = status.at("snapshot").as_u64();
  if (record.state == "done") {
    record.success = status.at("outcome").at("success").as_bool();
    record.plan = status.at("outcome").at("plan").as_string();
    totals.update([](SoakReport& r) { ++r.completed; });
  } else if (record.state == "cancelled") {
    totals.update([](SoakReport& r) { ++r.cancelled; });
  } else {
    totals.update([](SoakReport& r) { ++r.failed; });
    totals.failure("job " + std::to_string(record.id) + " (event " +
                   std::to_string(record.event->index) + ", " +
                   std::string(gen::to_string(record.event->kind)) + ") failed: " +
                   status.at("outcome").at("error").as_string());
  }
}

/// One client session: replays its round-robin share of the stream in
/// order, keeps at most `window` jobs outstanding (resolving the oldest
/// gives natural backpressure), paces submissions against the global QPS
/// schedule, and pins every job's snapshot for the oracle pass.
void run_session(svc::Server& server, const SoakOptions& options,
                 const std::vector<gen::ChurnEvent>& stream, std::size_t session,
                 std::size_t pass_base, Clock::time_point start,
                 std::vector<Record>& out, Totals& totals) {
  svc::Client client = make_client(server, options);
  std::deque<std::size_t> outstanding;  // indices into `out`
  std::uint64_t last_submitted = 0;

  const auto resolve_oldest = [&] {
    resolve(client, out[outstanding.front()], totals);
    outstanding.pop_front();
  };

  for (std::size_t i = session; i < stream.size(); i += options.sessions) {
    const gen::ChurnEvent& event = stream[i];
    if (options.target_qps > 0) {
      const double offset =
          static_cast<double>(pass_base + event.index) / options.target_qps;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offset)));
    }

    if (event.kind == gen::ChurnEventKind::Cancel) {
      if (last_submitted == 0) continue;
      svc::Json::Object cancel;
      cancel.emplace("job", last_submitted);
      try {
        (void)client.call("cancel", svc::Json{std::move(cancel)});
      } catch (const svc::RpcError& e) {
        // 404: the job finished long enough ago that retention already
        // rotated it out — a legal answer, not a soak failure.
        if (e.code() != 404) {
          totals.failure("cancel of job " + std::to_string(last_submitted) +
                         " errored: " + e.what());
        }
      }
      totals.update([](SoakReport& r) { ++r.cancel_attempts; });
      continue;
    }

    if (event.expect_submit_error) {
      try {
        (void)client.call("submit", submit_params(event));
        totals.failure("malformed event " + std::to_string(event.index) +
                       " was accepted instead of rejected");
      } catch (const svc::RpcError& e) {
        if (e.code() == -32602) {
          totals.update([](SoakReport& r) { ++r.expected_submit_errors; });
        } else {
          totals.failure("malformed event " + std::to_string(event.index) +
                         " bounced with unexpected code: " + e.what());
        }
      }
      continue;
    }

    // Submit with admission backpressure: a 429 means the queue is full,
    // so resolve the oldest outstanding job (an event wait on its result)
    // and try again.
    svc::Json submitted;
    bool admitted = false;
    for (int attempt = 0; attempt < 2000 && !admitted; ++attempt) {
      try {
        submitted = client.call("submit", submit_params(event));
        admitted = true;
      } catch (const svc::RpcError& e) {
        if (e.code() != 429) {
          totals.failure("event " + std::to_string(event.index) + " (" +
                         std::string(gen::to_string(event.kind)) +
                         ") rejected: " + e.what());
          break;
        }
        totals.update([](SoakReport& r) { ++r.rejected; });
        if (!outstanding.empty()) {
          resolve_oldest();
        } else {
          // Other sessions own the backlog; yield briefly and retry.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
    }
    if (!admitted) {
      if (event.kind != gen::ChurnEventKind::Malformed) {
        totals.failure("event " + std::to_string(event.index) + " never admitted");
      }
      continue;
    }

    Record record;
    record.id = submitted.at("job").as_u64();
    record.event = &event;
    // Pin the snapshot through the job object (still retained — it was
    // admitted microseconds ago) so the oracle can re-run the job even
    // after the store trims the version and retention drops the job.
    if (const svc::JobPtr job = server.scheduler().find(record.id)) {
      record.snapshot = job->snapshot();
    }
    last_submitted = record.id;
    totals.update([](SoakReport& r) { ++r.submitted; });

    out.push_back(std::move(record));
    outstanding.push_back(out.size() - 1);

    if (event.apply_plan) {
      // Deploy the verified plan. Resolve everything outstanding first so
      // the apply decision reads this event's own result.
      while (!outstanding.empty()) resolve_oldest();
      Record& applied = out.back();
      if (applied.state == "done" && applied.success) {
        try {
          svc::Json::Object apply;
          apply.emplace("job", applied.id);
          (void)client.call("apply", svc::Json{std::move(apply)});
          totals.update([](SoakReport& r) { ++r.applies; });
        } catch (const svc::RpcError& e) {
          if (e.code() == 409 || e.code() == 404) {
            // 409: another session's apply advanced the head after this job
            // pinned it — the conflict discipline working as designed.
            // 404: retention evicted the job between its result and the
            // apply (an eviction race in the harness, not a server fault).
            totals.update([](SoakReport& r) { ++r.apply_conflicts; });
          } else {
            totals.failure("apply of job " + std::to_string(applied.id) +
                           " errored: " + e.what());
          }
        }
      } else if (applied.state == "done" && !applied.success) {
        totals.failure("apply event " + std::to_string(event.index) +
                       " verified inconsistent; duplicate-rule rebinds must pass");
      }
    } else {
      while (outstanding.size() >= options.window) resolve_oldest();
    }
  }
  while (!outstanding.empty()) resolve_oldest();
}

MetricSample take_sample(svc::Client& client, std::string label) {
  const std::string text = client.call("metrics").at("prometheus").as_string();
  MetricSample sample;
  sample.label = std::move(label);
  sample.queued = prometheus_value(text, "jinjing_svc_queued_jobs");
  sample.running = prometheus_value(text, "jinjing_svc_running_jobs");
  sample.head_version = prometheus_value(text, "jinjing_svc_head_version");
  sample.versions = prometheus_value(text, "jinjing_svc_versions");
  sample.live_snapshots = prometheus_value(text, "jinjing_svc_live_snapshots");
  sample.tracked_jobs = prometheus_value(text, "jinjing_svc_tracked_jobs");
  sample.aec_memo_entries = prometheus_value(text, "jinjing_svc_aec_memo_entries");
  sample.cached_plans = prometheus_value(text, "jinjing_svc_cached_plans");
  sample.cached_obligations = prometheus_value(text, "jinjing_svc_cached_obligations_live");
  return sample;
}

/// Sequential fresh-engine oracle over one pass's records. Mirrors the
/// server's input path exactly: the ACL bodies are printed and re-parsed
/// the same way the wire carries them.
void run_oracle(const std::vector<Record>& records, SoakReport& report, Totals& totals) {
  for (const Record& record : records) {
    if (record.state != "done") continue;
    if (!record.snapshot || record.snapshot->version != record.snapshot_version) {
      totals.failure("job " + std::to_string(record.id) +
                     ": pinned snapshot unavailable for the oracle");
      continue;
    }
    core::Engine oracle{*record.snapshot->topo};
    lai::AclLibrary library;
    library.emplace("permit_all", net::Acl::permit_all());
    for (const auto& [name, acl] : record.event->acls) {
      library.insert_or_assign(name, config::parse_acl_auto(config::print_acl(acl)));
    }
    const core::EngineReport oracle_report =
        oracle.run_program(record.event->program, library, record.snapshot->traffic);
    ++report.oracle_checked;
    const std::string oracle_plan =
        core::format_plan(*record.snapshot->topo, oracle_report.final_update);
    if (oracle_report.success() != record.success || oracle_plan != record.plan) {
      ++report.oracle_mismatches;
      totals.failure("oracle mismatch: job " + std::to_string(record.id) + " (event " +
                     std::to_string(record.event->index) + ", " +
                     std::string(gen::to_string(record.event->kind)) + ", snapshot " +
                     std::to_string(record.snapshot_version) + "): service success=" +
                     (record.success ? "true" : "false") + " oracle success=" +
                     (oracle_report.success() ? "true" : "false") +
                     (oracle_plan != record.plan ? ", plans differ" : ""));
    }
  }
}

/// Rotates every churn job out of the retained-terminal window with
/// exactly retain_jobs trivial head checks. Afterwards nothing but flush
/// jobs pin snapshots, so the leak invariants can demand a return to
/// baseline-shaped counts instead of bounds polluted by retention pins.
void run_flush(svc::Server& server, const SoakOptions& options,
               const std::string& check_program, Totals& totals) {
  svc::Client client = make_client(server, options);
  const std::size_t count = server.scheduler().retain_terminal();
  std::deque<std::uint64_t> outstanding;
  for (std::size_t i = 0; i < count; ++i) {
    bool admitted = false;
    while (!admitted) {
      svc::Json::Object params;
      params.emplace("program", check_program);
      try {
        const svc::Json submitted = client.call("submit", svc::Json{std::move(params)});
        outstanding.push_back(submitted.at("job").as_u64());
        admitted = true;
      } catch (const svc::RpcError& e) {
        if (e.code() != 429 || outstanding.empty()) {
          totals.failure(std::string("flush submission errored: ") + e.what());
          return;
        }
        (void)wait_result(client, outstanding.front());
        outstanding.pop_front();
      }
    }
    totals.update([](SoakReport& r) { ++r.flushed; });
    while (outstanding.size() >= 16) {
      const svc::Json result = wait_result(client, outstanding.front());
      outstanding.pop_front();
      if (result.at("status").at("state").as_string() != "done") {
        totals.failure("flush job did not complete: " + result.dump());
      }
    }
  }
  while (!outstanding.empty()) {
    (void)wait_result(client, outstanding.front());
    outstanding.pop_front();
  }
}

std::uint64_t fnv64(std::uint64_t hash, const std::string& text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

void check_invariants(const SoakOptions& options, SoakReport& report, Totals& totals) {
  const std::size_t keep = options.server.keep_versions;
  for (const MetricSample& sample : report.samples) {
    // Retention may never be exceeded while the server runs: tracked jobs
    // beyond queued+running are terminal, and terminal jobs are bounded by
    // retain_jobs at every finish.
    if (sample.tracked_jobs >
        options.server.retain_jobs + sample.queued + sample.running) {
      totals.failure("invariant: sample '" + sample.label + "' tracks " +
                     std::to_string(sample.tracked_jobs) + " jobs > retain_jobs " +
                     std::to_string(options.server.retain_jobs) + " + in-flight");
    }
  }

  const MetricSample& final_sample = report.samples.back();
  const auto breach = [&](const std::string& what, std::uint64_t got, std::uint64_t bound) {
    if (got > bound) {
      totals.failure("invariant: final " + what + " = " + std::to_string(got) +
                     " exceeds bound " + std::to_string(bound));
    }
  };
  breach("queued", final_sample.queued, 0);
  breach("running", final_sample.running, 0);
  breach("tracked_jobs", final_sample.tracked_jobs, options.server.retain_jobs);
  breach("versions", final_sample.versions, keep);
  // After the flush every retained job pins the head, so live snapshots
  // fall back to the version index (+1 for a transient client pin).
  breach("live_snapshots", final_sample.live_snapshots, keep + 1);
  breach("cached_plans", final_sample.cached_plans, 4 * keep + 4);
  breach("aec_memo_entries", final_sample.aec_memo_entries, core::AecMemo::kCapacity);

  // The RSS proxy may breathe with the load, but growth across *every*
  // epoch — through the oracle releases and the retention flush — is the
  // signature of a leak, not of churn.
  if (report.samples.size() >= 4) {
    bool monotone = true;
    for (std::size_t i = 1; i < report.samples.size(); ++i) {
      if (report.samples[i].leak_proxy() <= report.samples[i - 1].leak_proxy()) {
        monotone = false;
        break;
      }
    }
    const std::uint64_t first = report.samples.front().leak_proxy();
    const std::uint64_t last = report.samples.back().leak_proxy();
    if (monotone && last > first + first / 2 + 16) {
      totals.failure("invariant: leak proxy grew monotonically across all " +
                     std::to_string(report.samples.size()) + " epochs (" +
                     std::to_string(first) + " -> " + std::to_string(last) + ")");
    }
  }
}

}  // namespace

std::uint64_t prometheus_value(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return 0;
  return std::stoull(text.substr(pos + needle.size()));
}

SoakReport run_soak(const SoakOptions& options_in) {
  SoakOptions options = options_in;
  if (options.sessions == 0) options.sessions = 1;
  if (options.window == 0) options.window = 1;
  // The sessions' outstanding windows must fit the admission bound, or
  // every session spins on 429 against its own backlog.
  options.server.queue_depth =
      std::max(options.server.queue_depth, options.sessions * options.window + 4);
  // A job must still be queryable when its session finally waits on it:
  // every session resolves within `window` submissions, so the retained
  // window must cover all sessions' outstanding jobs with slack.
  options.server.retain_jobs =
      std::max(options.server.retain_jobs, 2 * options.sessions * options.window);
  if (options.server.socket_path.empty()) {
    options.server.socket_path =
        (std::filesystem::temp_directory_path() /
         ("jinjing_soak_" + std::to_string(::getpid()) + "_" +
          std::to_string(options.stream.seed) + ".sock"))
            .string();
  }
  if (options.tcp) {
    if (options.server.listen_address.empty()) {
      options.server.listen_address = "127.0.0.1:0";
    }
    if (options.server.auth_token.empty()) options.server.auth_token = "jinjing-soak";
  }

  const gen::Wan wan = gen::make_wan(options.wan);
  config::NetworkFile network;
  network.topo = wan.topo;
  network.traffic = wan.traffic;

  svc::Server server{std::move(network), options.server};
  server.start();

  SoakReport report;
  Totals totals{report};
  report.stream_fingerprint = 14695981039346656037ull;

  svc::Client control = make_client(server, options);
  report.samples.push_back(take_sample(control, "baseline"));

  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::string check_program;  // the flush workload, built once
  while (report.passes == 0 ||
         (options.min_duration_seconds > 0 && elapsed() < options.min_duration_seconds)) {
    gen::ChurnStreamParams pass_params = options.stream;
    // Per-pass seed derivation keeps multi-pass runs deterministic end to
    // end while never replaying identical perturbations back to back.
    pass_params.seed = options.stream.seed + 1000003u * static_cast<unsigned>(report.passes);
    const std::vector<gen::ChurnEvent> stream = gen::churn_stream(wan, pass_params);
    for (const gen::ChurnEvent& event : stream) {
      report.stream_fingerprint = fnv64(report.stream_fingerprint, gen::describe(event));
    }
    if (check_program.empty()) {
      for (const gen::ChurnEvent& event : stream) {
        if (event.kind == gen::ChurnEventKind::PureCheck) {
          check_program = event.program;
          break;
        }
      }
      if (check_program.empty()) check_program = "check\n";  // mix without pure checks
    }

    const std::size_t pass_base = report.passes * options.stream.events;
    std::vector<std::vector<Record>> session_records(options.sessions);
    std::vector<std::thread> threads;
    threads.reserve(options.sessions);
    for (std::size_t s = 0; s < options.sessions; ++s) {
      threads.emplace_back([&, s] {
        run_session(server, options, stream, s, pass_base, start, session_records[s],
                    totals);
      });
    }
    for (std::thread& thread : threads) thread.join();
    report.events += stream.size();
    ++report.passes;

    if (options.oracle) {
      for (const std::vector<Record>& records : session_records) {
        run_oracle(records, report, totals);
      }
    }
    session_records.clear();  // drop the snapshot pins before sampling
    report.samples.push_back(take_sample(control, "pass " + std::to_string(report.passes)));
    if (options.log != nullptr) {
      *options.log << "pass " << report.passes << ": events " << report.events
                   << ", submitted " << report.submitted << ", completed "
                   << report.completed << ", applies " << report.applies << ", oracle "
                   << report.oracle_checked << "/" << report.oracle_mismatches
                   << " mismatches, " << elapsed() << "s\n";
      options.log->flush();
    }
  }

  run_flush(server, options, check_program, totals);
  report.samples.push_back(take_sample(control, "final"));

  report.wall_seconds = elapsed();
  report.achieved_qps = report.wall_seconds > 0
                            ? static_cast<double>(report.submitted) / report.wall_seconds
                            : 0;
  check_invariants(options, report, totals);

  server.request_shutdown();
  server.wait();
  std::filesystem::remove(options.server.socket_path);
  return report;
}

void write_report_json(std::ostream& out, const SoakOptions& options,
                       const SoakReport& report) {
  svc::Json::Object doc;
  {
    svc::Json::Object config;
    config.emplace("events_per_pass", static_cast<std::uint64_t>(options.stream.events));
    config.emplace("seed", static_cast<std::uint64_t>(options.stream.seed));
    config.emplace("sessions", static_cast<std::uint64_t>(options.sessions));
    config.emplace("target_qps", options.target_qps);
    config.emplace("min_duration_seconds", options.min_duration_seconds);
    config.emplace("workers", static_cast<std::uint64_t>(options.server.workers));
    config.emplace("keep_versions", static_cast<std::uint64_t>(options.server.keep_versions));
    config.emplace("retain_jobs", static_cast<std::uint64_t>(options.server.retain_jobs));
    config.emplace("oracle", options.oracle);
    config.emplace("transport", options.tcp ? "tcp" : "unix");
    doc.emplace("config", svc::Json{std::move(config)});
  }
  {
    svc::Json::Object totals;
    totals.emplace("passes", static_cast<std::uint64_t>(report.passes));
    totals.emplace("events", static_cast<std::uint64_t>(report.events));
    totals.emplace("submitted", static_cast<std::uint64_t>(report.submitted));
    totals.emplace("completed", static_cast<std::uint64_t>(report.completed));
    totals.emplace("cancelled", static_cast<std::uint64_t>(report.cancelled));
    totals.emplace("failed", static_cast<std::uint64_t>(report.failed));
    totals.emplace("cancel_attempts", static_cast<std::uint64_t>(report.cancel_attempts));
    totals.emplace("applies", static_cast<std::uint64_t>(report.applies));
    totals.emplace("apply_conflicts", static_cast<std::uint64_t>(report.apply_conflicts));
    totals.emplace("rejected", static_cast<std::uint64_t>(report.rejected));
    totals.emplace("evicted_before_read",
                   static_cast<std::uint64_t>(report.evicted_before_read));
    totals.emplace("expected_submit_errors",
                   static_cast<std::uint64_t>(report.expected_submit_errors));
    totals.emplace("flushed", static_cast<std::uint64_t>(report.flushed));
    doc.emplace("totals", svc::Json{std::move(totals)});
  }
  {
    svc::Json::Object oracle;
    oracle.emplace("checked", static_cast<std::uint64_t>(report.oracle_checked));
    oracle.emplace("mismatches", static_cast<std::uint64_t>(report.oracle_mismatches));
    doc.emplace("oracle", svc::Json{std::move(oracle)});
  }
  {
    svc::Json::Array samples;
    for (const MetricSample& sample : report.samples) {
      svc::Json::Object s;
      s.emplace("label", sample.label);
      s.emplace("queued", sample.queued);
      s.emplace("running", sample.running);
      s.emplace("head_version", sample.head_version);
      s.emplace("versions", sample.versions);
      s.emplace("live_snapshots", sample.live_snapshots);
      s.emplace("tracked_jobs", sample.tracked_jobs);
      s.emplace("aec_memo_entries", sample.aec_memo_entries);
      s.emplace("cached_plans", sample.cached_plans);
      s.emplace("cached_obligations", sample.cached_obligations);
      s.emplace("leak_proxy", sample.leak_proxy());
      samples.push_back(svc::Json{std::move(s)});
    }
    doc.emplace("samples", svc::Json{std::move(samples)});
  }
  {
    svc::Json::Array failures;
    for (const std::string& failure : report.failures) {
      failures.push_back(svc::Json{failure});
    }
    doc.emplace("failures", svc::Json{std::move(failures)});
  }
  doc.emplace("wall_seconds", report.wall_seconds);
  doc.emplace("achieved_qps", report.achieved_qps);
  {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(report.stream_fingerprint));
    doc.emplace("stream_fingerprint", std::string(digest));
  }
  doc.emplace("ok", report.ok());
  out << svc::Json{std::move(doc)}.dump() << "\n";
}

}  // namespace jinjing::soak
