// Load generator of the service benchmark (see README.md in this directory).
//
// One invocation measures one workload against a real `jinjing serve`
// process: it generates a WAN, writes it with config::print_network, spawns
// the server several times to time set-up, drives the last one from at most
// nproc persistent connections, re-runs every answered job on a fresh engine
// (the oracle), and — with --trace 1 — replays the recorded inputs through
// the layers' public functions under spans. It prints one JSON object of
// raw samples; run.py turns them into metrics.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "config/acl_format.h"
#include "config/topology_format.h"
#include "core/batch.h"
#include "core/deploy.h"
#include "core/diff.h"
#include "core/engine.h"
#include "core/incremental.h"
#include "gen/scenario.h"
#include "gen/wan.h"
#include "lai/parser.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/state_store.h"
#include "topo/fec.h"
#include "topo/fec_delta.h"

namespace jinjing::svcbench {
namespace {

using Clock = std::chrono::steady_clock;
using svc::Json;

const Clock::time_point kEpoch = Clock::now();

double now_s() { return std::chrono::duration<double>(Clock::now() - kEpoch).count(); }

// ---- Workload shapes --------------------------------------------------------

/// Every knob of a workload lives here, so the shapes can be read side by
/// side. The rates and shares are chosen, not observed from a trace; README.md
/// gives the reason for each value.
struct Shape {
  bool large_wan = true;
  std::size_t connections = 4;    // persistent client connections (<= nproc)
  double rate = 0;                // events per second (open loop); 0 = closed loop
  /// The event kinds in a repeating cycle — C check, R re-check, A apply,
  /// F check+fix, G generate. A fixed cycle, not a per-event coin, keeps
  /// every run's mix identical so seeds differ only in the updates.
  std::string cycle = "C";
  std::size_t recheck_set = 0;    // churn: size of the fixed re-check set
  double warmup_s = 1.5;          // untimed load before the window
  std::size_t replay_jobs = 0;    // traced run: recorded inputs replayed per layer
};

Shape shape_for(const std::string& name, unsigned nproc) {
  Shape s;
  const std::size_t conns = std::max<std::size_t>(1, std::min<std::size_t>(4, nproc));
  if (name == "churn") {
    s.connections = conns;
    s.rate = 20;
    s.cycle = "ACRCRCRCRCRCRCRCRCCC";  // 5% applies, 40% re-checks, 55% fresh checks
    s.recheck_set = 4;
    s.replay_jobs = 160;
  } else if (name == "repair") {
    s.large_wan = false;
    s.connections = std::min<std::size_t>(2, conns);
    s.cycle = "FFGFFGFFGF";  // 30% generate
    s.warmup_s = 2;
    s.replay_jobs = 24;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  return s;
}

// ---- Inputs -------------------------------------------------------------------

enum class Kind { Check, Recheck, Apply, Fix, Generate };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::Check: return "check";
    case Kind::Recheck: return "recheck";
    case Kind::Apply: return "apply";
    case Kind::Fix: return "fix";
    case Kind::Generate: return "generate";
  }
  return "?";
}

/// One submission exactly as the wire carries it: the LAI program plus
/// named ACL bodies in the canonical text format.
struct Input {
  Kind kind = Kind::Check;
  std::string program;
  std::vector<std::pair<std::string, std::string>> acls;
};

Json submit_params(const Input& input) {
  Json::Object params;
  params.emplace("program", input.program);
  if (!input.acls.empty()) {
    Json::Object acls;
    for (const auto& [name, body] : input.acls) acls.emplace(name, body);
    params.emplace("acls", Json{std::move(acls)});
  }
  return Json{std::move(params)};
}

std::string slot_ref(const topo::Topology& topo, topo::AclSlot slot) {
  return topo.qualified_name(slot.iface) + (slot.dir == topo::Dir::In ? "-in" : "-out");
}

std::string scope_line(const topo::Topology& topo) {
  std::string out = "scope ";
  for (topo::DeviceId d = 0; d < topo.device_count(); ++d) {
    if (d > 0) out += ", ";
    out += topo.device_name(d);
  }
  return out + "\n";
}

Input check_input(const topo::Topology& topo, Kind kind,
                  const std::vector<std::pair<topo::AclSlot, net::Acl>>& rewrites) {
  Input input;
  input.kind = kind;
  input.program = scope_line(topo);
  for (std::size_t i = 0; i < rewrites.size(); ++i) {
    const std::string name = "u" + std::to_string(i);
    input.program += "modify " + slot_ref(topo, rewrites[i].first) + " to " + name + "\n";
    input.acls.emplace_back(name, config::print_acl(rewrites[i].second));
  }
  input.program += "check\n";
  return input;
}

/// Rule `j` duplicated right after itself: the copy is shadowed, so every
/// first-match decision is unchanged (a consistent rewrite).
net::Acl duplicate_rule(const net::Acl& acl, std::size_t j) {
  std::vector<net::AclRule> rules = acl.rules();
  if (rules.empty()) return net::Acl{{net::AclRule::permit_all()}, acl.default_action()};
  rules.insert(rules.begin() + static_cast<std::ptrdiff_t>(j + 1), rules[j]);
  return net::Acl{std::move(rules), acl.default_action()};
}

/// Rule `j` flipped (permit <-> deny) or narrowed by one dst bit: usually a
/// decision change, unless earlier rules shadow it (the oracle decides).
net::Acl perturb_rule(const net::Acl& acl, std::size_t j, bool flip) {
  std::vector<net::AclRule> rules = acl.rules();
  if (rules.empty()) return net::Acl{{net::AclRule::deny_all()}, acl.default_action()};
  net::AclRule& rule = rules[j];
  if (flip || rule.match.dst.len >= 32) {
    rule.action = net::negate(rule.action);
  } else {
    rule.match.dst =
        net::Prefix{rule.match.dst.addr, static_cast<std::uint8_t>(rule.match.dst.len + 1)};
  }
  return net::Acl{std::move(rules), acl.default_action()};
}

/// The pending-check stream: each update rewrites 1-3 seeded gateway or
/// aggregation slots of the base configuration; every other update is
/// consistent by construction (shadowed duplicates), the rest flip or narrow
/// one rule. No two updates are equal.
class CheckUpdates {
 public:
  CheckUpdates(const gen::Wan& wan, std::uint64_t seed) : wan_(wan), rng_(seed) {
    slots_ = wan.gateway_slots;
    slots_.insert(slots_.end(), wan.agg_slots.begin(), wan.agg_slots.end());
  }

  Input next() {
    while (true) {
      const std::size_t k = 1 + rng_() % 3;
      const bool preserving = count_ % 2 == 0;
      std::vector<std::size_t> picked;
      while (picked.size() < k) {
        const std::size_t s = rng_() % slots_.size();
        if (std::find(picked.begin(), picked.end(), s) == picked.end()) picked.push_back(s);
      }
      std::sort(picked.begin(), picked.end());
      std::vector<std::pair<topo::AclSlot, net::Acl>> rewrites;
      std::string key;
      const std::size_t changed = preserving ? k : rng_() % k;
      for (std::size_t i = 0; i < picked.size(); ++i) {
        const topo::AclSlot slot = slots_[picked[i]];
        const net::Acl& acl = wan_.topo.acl(slot);
        std::size_t rules = std::max<std::size_t>(1, acl.size() - 1);
        if (i == changed && picked[i] < wan_.gateway_slots.size()) {
          // Only a gateway's own protected-subnet rules (listed first) meet
          // traffic through its ingress; the padding rules name other cells.
          rules = std::min(rules, 4 * wan_.params.prefixes_per_gateway);
        }
        const std::size_t j = rng_() % rules;
        const bool flip = rng_() % 2 == 0;
        if (i == changed) {
          rewrites.emplace_back(slot, perturb_rule(acl, j, flip));
          key += std::to_string(picked[i]) + (flip ? "f" : "n") + std::to_string(j) + ";";
        } else {
          rewrites.emplace_back(slot, duplicate_rule(acl, j));
          key += std::to_string(picked[i]) + "d" + std::to_string(j) + ";";
        }
      }
      if (!seen_.insert(key).second) continue;
      ++count_;
      return check_input(wan_.topo, Kind::Check, rewrites);
    }
  }

 private:
  const gen::Wan& wan_;
  std::mt19937_64 rng_;
  std::vector<topo::AclSlot> slots_;
  std::set<std::string> seen_;
  std::size_t count_ = 0;  // alternates consistent and decision-changing updates
};

/// The thread-safe input store: records refer to inputs by index, and the
/// oracle and the replay read them back after the run.
class Inputs {
 public:
  std::size_t add(Input input) {
    const std::lock_guard<std::mutex> lock{mutex_};
    inputs_.push_back(std::move(input));
    return inputs_.size() - 1;
  }
  [[nodiscard]] const Input& at(std::size_t i) const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return inputs_.at(i);
  }

 private:
  mutable std::mutex mutex_;
  std::deque<Input> inputs_;  // deque: references stay valid across add()
};

/// The workload's event sequence, deterministic in (workload, seed). next()
/// is called from several threads; the sequence is serialized by a mutex,
/// so the i-th call always yields the i-th event.
class Source {
 public:
  Source(const Shape& shape, const gen::Wan& wan, std::uint64_t seed, Inputs& inputs)
      : shape_(shape), wan_(wan), seed_(seed), inputs_(inputs), checks_(wan, seed) {
    // Re-checked updates live on gateway slots; applies only rebind
    // aggregation slots, so the delta cache can carry their verdicts.
    std::mt19937_64 rng(seed + 101);
    for (std::size_t i = 0; i < shape.recheck_set; ++i) {
      const topo::AclSlot slot = wan.gateway_slots[rng() % wan.gateway_slots.size()];
      const net::Acl& acl = wan.topo.acl(slot);
      const std::size_t j = acl.size() > 1 ? rng() % (acl.size() - 1) : 0;
      rechecks_.push_back(
          inputs_.add(check_input(wan.topo, Kind::Recheck, {{slot, duplicate_rule(acl, j)}})));
    }
  }

  std::size_t next() {
    const std::lock_guard<std::mutex> lock{mutex_};
    switch (shape_.cycle[events_++ % shape_.cycle.size()]) {
      case 'A':
        return inputs_.add(apply_input(applies_++));
      case 'R':
        return rechecks_.at(recheck_turn_++ % rechecks_.size());
      case 'F':
        return inputs_.add(fix_input(fixes_++));
      case 'G':
        return inputs_.add(generate_input(generates_++));
      default:
        return inputs_.add(checks_.next());
    }
  }

 private:
  /// A consistent rebind of a rotating aggregation slot: base ACL with one
  /// rule duplicated. Derived from the base configuration, so the event
  /// sequence never depends on the version history the run creates.
  Input apply_input(std::size_t k) const {
    const topo::AclSlot slot = wan_.agg_slots[k % wan_.agg_slots.size()];
    const net::Acl& acl = wan_.topo.acl(slot);
    const std::size_t rules = std::max<std::size_t>(1, acl.size() - 1);
    const std::size_t j = (seed_ + k / wan_.agg_slots.size()) % rules;
    return check_input(wan_.topo, Kind::Apply, {{slot, duplicate_rule(acl, j)}});
  }

  /// A check+fix of 1% of all rules perturbed: the smallest rate of the
  /// paper's fix experiment (1/3/5%, EXPERIMENTS.md "fix" grid).
  Input fix_input(std::size_t k) const {
    const auto seed = static_cast<unsigned>(seed_ * 1000003u + k);
    const topo::AclUpdate update = gen::perturb_rules(wan_, 0.01, seed);
    Input input;
    input.kind = Kind::Fix;
    input.program = gen::check_fix_program(wan_, update);
    std::size_t i = 0;
    for (const auto& [slot, acl] : update) {
      input.acls.emplace_back("acl_" + std::to_string(i++), config::print_acl(acl));
    }
    return input;
  }

  Input generate_input(std::size_t k) const {
    Input input;
    input.kind = Kind::Generate;
    if (k % 2 == 0) {
      input.program = gen::migration_program(wan_);
    } else {
      const auto seed = static_cast<unsigned>(seed_ * 1000003u + k);
      input.program = gen::control_open_program(wan_, gen::control_open(wan_, 1, seed));
    }
    return input;
  }

  const Shape& shape_;
  const gen::Wan& wan_;
  std::uint64_t seed_;
  Inputs& inputs_;
  std::mutex mutex_;
  CheckUpdates checks_;
  std::vector<std::size_t> rechecks_;
  std::size_t events_ = 0;
  std::size_t recheck_turn_ = 0;
  std::size_t applies_ = 0;
  std::size_t fixes_ = 0;
  std::size_t generates_ = 0;
};

// ---- The server process -------------------------------------------------------

/// One spawned `jinjing serve`. The destructor kills and reaps a server that
/// was not shut down cleanly, and the server gets SIGKILL if the load generator
/// itself dies (a timeout in run.py), so no path leaves a process behind.
class ServerProcess {
 public:
  ServerProcess(const std::string& jinjing, const std::string& network,
                const std::string& socket, unsigned workers, const std::string& log)
      : socket_(socket) {
    std::filesystem::remove(socket);
    const std::vector<std::string> args = {
        jinjing, "serve", "--network", network, "--socket", socket,
        "--workers", std::to_string(workers), "--queue-depth", "256"};
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    // Spawned while this process is still single-threaded; the child only
    // makes async-signal-safe calls before exec.
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("cannot fork for " + jinjing);
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    std::filesystem::remove(socket_);
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Dials until the socket accepts (the server binds once it has loaded
  /// the network file).
  svc::Client connect(double timeout_s) {
    svc::ClientOptions options;
    options.max_retries = 0;
    const double deadline = now_s() + timeout_s;
    while (true) {
      try {
        return svc::Client{socket_, options};
      } catch (const svc::ClientError&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("server exited before accepting connections");
        }
        if (now_s() > deadline) throw std::runtime_error("server did not come up");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  /// Graceful drain through the shutdown RPC, then reap; SIGKILL after
  /// `timeout_s`. Returns the exit status (-1 when it had to be killed).
  int shutdown(svc::Client& client, double timeout_s) {
    try {
      (void)client.call("shutdown");
    } catch (const std::exception&) {
    }
    const double deadline = now_s() + timeout_s;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

// ---- /proc sampler --------------------------------------------------------------

struct ProcSample {
  double t = 0;
  double rss_mb = 0;
  double hwm_mb = 0;
  double vm_mb = 0;
  long threads = 0;
  long fds = 0;
  double cpu_s = 0;
};

std::optional<ProcSample> read_proc(pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream status{base + "/status"};
  if (!status) return std::nullopt;
  ProcSample sample;
  sample.t = now_s();
  std::string line;
  const auto kb = [](const std::string& l) {
    return std::stod(l.substr(l.find(':') + 1)) / 1024.0;
  };
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) sample.rss_mb = kb(line);
    if (line.rfind("VmHWM:", 0) == 0) sample.hwm_mb = kb(line);
    if (line.rfind("VmSize:", 0) == 0) sample.vm_mb = kb(line);
    if (line.rfind("Threads:", 0) == 0) sample.threads = std::stol(line.substr(8));
  }
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator(base + "/fd", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++sample.fds;
  }
  std::ifstream stat{base + "/stat"};
  std::string text((std::istreambuf_iterator<char>(stat)), std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close != std::string::npos) {
    std::istringstream fields{text.substr(close + 2)};
    std::vector<std::string> f{std::istream_iterator<std::string>(fields), {}};
    if (f.size() > 13) {
      const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
      sample.cpu_s = (std::stod(f[11]) + std::stod(f[12])) / tick;  // utime + stime
    }
  }
  return sample;
}

/// Samples the server's /proc entry every 50 ms until destroyed.
class Sampler {
 public:
  explicit Sampler(pid_t pid) : pid_(pid), thread_([this] { loop(); }) {}
  ~Sampler() {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  [[nodiscard]] std::vector<ProcSample> samples() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return samples_;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock{mutex_};
    while (!stop_) {
      lock.unlock();
      std::optional<ProcSample> sample;
      try {
        sample = read_proc(pid_);
      } catch (const std::exception&) {
        // The process is exiting mid-read; the next tick sees it gone.
      }
      lock.lock();
      if (sample) samples_.push_back(*sample);
      cv_.wait_for(lock, std::chrono::milliseconds(50), [this] { return stop_; });
    }
  }

  pid_t pid_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<ProcSample> samples_;
  std::thread thread_;  // declared last: starts after the members it uses
};

// ---- Client-side records and spans ----------------------------------------------

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t job = 0;
  double start = 0;
  double end = 0;
  unsigned tid = 0;
};

/// Per-thread span buffer; merged after the threads are joined.
class Spans {
 public:
  explicit Spans(unsigned tid) : tid_(tid) {}
  std::uint64_t add(std::string name, std::uint64_t parent, std::uint64_t job, double start,
                    double end) {
    const std::uint64_t id = (std::uint64_t{tid_} << 40) | ++next_;
    spans_.push_back({std::move(name), id, parent, job, start, end, tid_});
    return id;
  }
  /// Sets the end of a span opened with add(..., end = 0).
  void end(std::uint64_t id, double end) { spans_.at((id & kIndexMask) - 1).end = end; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  static constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << 40) - 1;
  unsigned tid_;
  std::uint64_t next_ = 0;
  std::vector<Span> spans_;
};

struct JobRecord {
  std::size_t input = 0;
  Kind kind = Kind::Check;
  bool measured = false;
  bool traced = false;
  double due = -1;  // open loop: when the event was due
  double sent = 0;
  double admitted = 0;
  double done = 0;
  double queue_s = 0;
  double run_s = 0;
  std::uint64_t id = 0;
  std::uint64_t version = 0;
  std::string state;
  bool success = false;
  std::string plan;
  std::string error;  // non-empty: the operation failed (refusal, RPC or transport)
  double apply_s = -1;
  std::uint64_t applied_version = 0;
  // Filled by the oracle.
  bool oracle_ran = false;
  bool oracle_match = false;
  bool oracle_consistent = false;
  topo::AclUpdate oracle_final;
  std::map<std::string, double> stages;  // oracle stage fields, ms

  [[nodiscard]] bool failed() const { return !error.empty() || state != "done"; }
  [[nodiscard]] double latency() const { return done - (due >= 0 ? due : sent); }
};

/// Submits one job. Errors are recorded on the job, never thrown.
void submit(svc::Client& client, const Inputs& inputs, JobRecord& job) {
  job.sent = now_s();
  try {
    const Json reply = client.call("submit", submit_params(inputs.at(job.input)));
    job.id = reply.at("job").as_u64();
    job.version = reply.at("snapshot").as_u64();
  } catch (const svc::RpcError& e) {
    job.error = std::string("submit refused: ") + e.what();
  } catch (const std::exception& e) {
    job.error = std::string("submit transport error: ") + e.what();
  }
  job.admitted = now_s();
}

/// Waits for a submitted job's terminal state (an event wait on the server,
/// re-armed so a wedged server cannot hang the run silently).
void resolve(svc::Client& client, JobRecord& job) {
  if (!job.error.empty()) return;
  try {
    while (true) {
      Json::Object params;
      params.emplace("job", job.id);
      params.emplace("timeout_ms", std::uint64_t{60000});
      const Json reply = client.call("result", Json{std::move(params)});
      if (!reply.at("done").as_bool()) continue;
      job.done = now_s();
      const Json& status = reply.at("status");
      job.state = status.at("state").as_string();
      job.queue_s = status.at("queue_seconds").as_number();
      job.run_s = status.at("run_seconds").as_number();
      if (const Json* outcome = status.get("outcome")) {
        if (const Json* success = outcome->get("success")) job.success = success->as_bool();
        if (const Json* plan = outcome->get("plan")) job.plan = plan->as_string();
        if (job.state != "done") {
          const Json* error = outcome->get("error");
          job.error = "job " + job.state + ": " + (error ? error->as_string() : "");
        }
      }
      return;
    }
  } catch (const std::exception& e) {
    job.done = now_s();
    job.error = std::string("result error: ") + e.what();
  }
}

void apply(svc::Client& client, JobRecord& job) {
  if (job.failed()) return;
  if (!job.success) {
    job.error = "apply: the rebind verified inconsistent";
    return;
  }
  const double start = now_s();
  try {
    Json::Object params;
    params.emplace("job", job.id);
    const Json reply = client.call("apply", Json{std::move(params)});
    job.applied_version = reply.at("version").as_u64();
  } catch (const std::exception& e) {
    job.error = std::string("apply error: ") + e.what();
  }
  job.apply_s = now_s() - start;
}

/// The traced run switches spans on in half of its quarter-second slices,
/// so the traced and untraced halves share one server and one warm state.
/// Slices are picked by a hash of their index, not by parity, so a workload
/// whose event cycle lasts a multiple of two slices cannot put all of one
/// event kind on the same side.
struct Window {
  double start = 0;
  double end = 0;
  bool trace = false;
  [[nodiscard]] bool traced_at(double t) const {
    // splitmix64 of the slice index.
    auto z = static_cast<std::uint64_t>(std::max(0.0, std::floor((t - start) / 0.25))) +
             0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return trace && ((z ^ (z >> 31)) & 1) == 1;
  }
};

void record_spans(Spans& spans, const JobRecord& job) {
  if (!job.traced) return;
  const double start = job.due >= 0 ? job.due : job.sent;
  const std::uint64_t root = spans.add("client.job", 0, job.id, start, job.done);
  spans.add("svc.submit", root, job.id, job.sent, job.admitted);
  spans.add("svc.result", root, job.id, job.admitted, job.done);
  if (job.apply_s >= 0) spans.add("svc.apply", root, job.id, job.done, job.done + job.apply_s);
}

// ---- Load loops ---------------------------------------------------------------------

/// Runs each task on its own thread and joins them all; the first exception
/// a task threw is rethrown once every thread has been joined.
void run_parallel(const std::vector<std::function<void()>>& tasks) {
  std::vector<std::exception_ptr> errors(tasks.size());
  std::vector<std::thread> threads;
  threads.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        tasks[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

struct Conn {
  svc::Client client;
  std::vector<JobRecord> jobs;
  Spans spans;
};

/// Closed loop: one job outstanding per connection until the window closes.
/// The next job goes out only when the previous one has answered.
void closed_loop(Conn& conn, Source& source, const Inputs& inputs, const Window& w,
                 bool measured) {
  while (now_s() < w.end) {
    JobRecord job;
    job.input = source.next();
    job.kind = inputs.at(job.input).kind;
    job.measured = measured;
    submit(conn.client, inputs, job);
    job.traced = w.traced_at(job.sent);
    resolve(conn.client, job);
    record_spans(conn.spans, job);
    conn.jobs.push_back(std::move(job));
  }
}

/// A FIFO of work items handed between the pacing thread and a connection.
template <typename T>
class Queue {
 public:
  void push(T item) {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }
  void close() {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      closed_ = true;
    }
    cv_.notify_all();
  }
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock{mutex_};
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

/// Open loop for churn. One pacing thread releases events on a fixed
/// schedule: checks are submitted from the pacing thread's own connection at
/// their due time and answered on the collector connections; applies go, in
/// order, to one apply connection that checks the rebind, then applies it
/// (serialized, so an apply never races another). Latency counts from the
/// due time; lateness is how far the pacing thread ran behind schedule.
void open_loop(std::vector<std::unique_ptr<Conn>>& conns, Source& source, const Inputs& inputs,
               double rate, const Window& w, bool measured, std::vector<double>& lateness) {
  if (conns.size() < 3) throw std::runtime_error("the open loop needs 3 connections");
  Conn& pacer = *conns.front();
  Conn& applier = *conns.back();
  std::vector<Conn*> collectors;
  for (std::size_t i = 1; i + 1 < conns.size(); ++i) collectors.push_back(conns[i].get());

  std::vector<std::unique_ptr<Queue<JobRecord>>> queues;
  for (std::size_t i = 0; i < collectors.size(); ++i) {
    queues.push_back(std::make_unique<Queue<JobRecord>>());
  }
  Queue<JobRecord> apply_queue;

  const auto close_all = [&] {
    for (auto& q : queues) q->close();
    apply_queue.close();
  };
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < collectors.size(); ++i) {
    tasks.emplace_back([&, i] {
      Conn& conn = *collectors[i];
      while (auto job = queues[i]->pop()) {
        resolve(conn.client, *job);
        record_spans(conn.spans, *job);
        conn.jobs.push_back(std::move(*job));
      }
    });
  }
  tasks.emplace_back([&] {
    while (auto job = apply_queue.pop()) {
      submit(applier.client, inputs, *job);
      resolve(applier.client, *job);
      apply(applier.client, *job);
      record_spans(applier.spans, *job);
      applier.jobs.push_back(std::move(*job));
    }
  });
  tasks.emplace_back([&] {
    try {
      std::size_t turn = 0;
      for (std::size_t k = 0;; ++k) {
        const double due = w.start + static_cast<double>(k) / rate;
        if (due >= w.end) break;
        std::this_thread::sleep_until(kEpoch + std::chrono::duration_cast<Clock::duration>(
                                                   std::chrono::duration<double>(due)));
        lateness.push_back(now_s() - due);
        JobRecord job;
        job.input = source.next();
        job.kind = inputs.at(job.input).kind;
        job.measured = measured;
        job.due = due;
        job.traced = w.traced_at(due);
        if (job.kind == Kind::Apply) {
          apply_queue.push(std::move(job));
          continue;
        }
        submit(pacer.client, inputs, job);
        queues[turn++ % queues.size()]->push(std::move(job));
      }
    } catch (...) {
      close_all();
      throw;
    }
    close_all();
  });
  run_parallel(tasks);
}

// ---- Metrics RPC ---------------------------------------------------------------------

std::map<std::string, double> counters(svc::Client& client) {
  std::map<std::string, double> out;
  const std::string text = client.call("metrics").at("prometheus").as_string();
  std::istringstream lines{text};
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    if (name.find('{') != std::string::npos) continue;
    out[name] = std::stod(line.substr(space + 1));
  }
  return out;
}

// ---- Oracle -------------------------------------------------------------------------

/// One version of the network as the oracle rebuilds it: the base file for
/// version 1, then the run's own applies replayed in order.
struct VersionState {
  svc::SnapshotPtr snapshot;
  std::once_flag once;
  std::shared_ptr<const core::PlanBundle> bundle;  // the traced replay's; never the oracle's
};

class Versions {
 public:
  explicit Versions(const config::NetworkFile& network) : store_(network) {
    add(1, store_.head());
  }
  /// Records the next applied version. Versions come strictly in order.
  void apply(std::uint64_t version, const topo::AclUpdate& update) {
    if (version != store_.head_version() + 1) {
      throw std::runtime_error("apply chain broken at version " + std::to_string(version));
    }
    add(version, store_.apply_update(update));
  }
  [[nodiscard]] bool has(std::uint64_t v) const {
    const auto it = states_.find(v);
    return it != states_.end() && it->second->snapshot != nullptr;
  }
  /// An existing version; safe to call from several threads once the
  /// applies are replayed.
  [[nodiscard]] VersionState& state(std::uint64_t v) const { return *states_.at(v); }
  /// The version's whole-network plan bundle, built once on first use.
  const std::shared_ptr<const core::PlanBundle>& bundle(std::uint64_t v) {
    VersionState& state = *states_.at(v);
    std::call_once(state.once, [&] {
      const topo::Topology& topo = *state.snapshot->topo;
      smt::SmtContext smt;
      core::Checker checker{smt, topo, topo::Scope::whole_network(topo), core::CheckOptions{}};
      state.bundle = checker.share_plan(state.snapshot->traffic);
    });
    return state.bundle;
  }

 private:
  void add(std::uint64_t v, svc::SnapshotPtr snapshot) {
    states_[v] = std::make_unique<VersionState>();
    states_[v]->snapshot = std::move(snapshot);
  }

  svc::StateStore store_;
  std::map<std::uint64_t, std::unique_ptr<VersionState>> states_;
};

lai::AclLibrary library_for(const Input& input) {
  lai::AclLibrary library;
  library.emplace("permit_all", net::Acl::permit_all());
  for (const auto& [name, body] : input.acls) {
    library.insert_or_assign(name, config::parse_acl_auto(body));
  }
  return library;
}

/// Re-runs one answered job on a fresh default engine at its pinned version
/// and compares verdict and formatted plan bit for bit — the rule `jinjing
/// soak` uses. Nothing is shared between oracle jobs: every job pays its own
/// path enumeration and FEC refinement.
void run_oracle_job(const Versions& versions, const Inputs& inputs, JobRecord& job) {
  const Input& input = inputs.at(job.input);
  const svc::Snapshot& snap = *versions.state(job.version).snapshot;
  const topo::Topology& topo = *snap.topo;
  core::Engine engine{topo};
  const core::EngineReport report = engine.run_program(input.program, library_for(input),
                                                       snap.traffic);
  const std::string plan = core::format_plan(topo, report.final_update);
  job.oracle_ran = true;
  job.oracle_match = report.success() == job.success && plan == job.plan;
  job.oracle_final = report.final_update;
  for (const auto& outcome : report.outcomes) {
    if (outcome.check && !job.stages.contains("core.checker.compile_ms")) {
      job.oracle_consistent = outcome.check->consistent;
      job.stages["core.checker.compile_ms"] = outcome.check->compile_seconds * 1e3;
      job.stages["smt.solve_ms"] = outcome.check->solve_seconds * 1e3;
    }
    if (outcome.fix) {
      job.stages["core.fixer.search_ms"] = outcome.fix->search_seconds * 1e3;
      job.stages["core.fixer.enlarge_ms"] = outcome.fix->enlarge_seconds * 1e3;
      job.stages["core.fixer.place_ms"] = outcome.fix->place_seconds * 1e3;
      job.stages["core.fixer.assemble_ms"] = outcome.fix->assemble_seconds * 1e3;
    }
    if (outcome.generate) {
      job.stages["core.generator.derive_ms"] = outcome.generate->derive_seconds * 1e3;
      job.stages["core.generator.solve_ms"] = outcome.generate->solve_seconds * 1e3;
      job.stages["core.generator.synth_ms"] = outcome.generate->synth_seconds * 1e3;
    }
  }
}

/// Rebuilds every version the run created, then checks all answered jobs on
/// `threads` workers (the server is already gone, so they contend with
/// nothing). Returns the failure lines of mismatching jobs.
std::vector<std::string> run_oracle(Versions& versions, const Inputs& inputs,
                                    std::vector<JobRecord*>& jobs, unsigned threads) {
  std::vector<JobRecord*> applies;
  for (JobRecord* job : jobs) {
    if (job->applied_version != 0) applies.push_back(job);
  }
  std::sort(applies.begin(), applies.end(),
            [](const JobRecord* a, const JobRecord* b) {
              return a->applied_version < b->applied_version;
            });
  for (JobRecord* job : applies) {
    const Input& input = inputs.at(job->input);
    const topo::Topology& topo = *versions.state(job->version).snapshot->topo;
    const lai::UpdateTask task = lai::resolve(lai::parse(input.program), topo, library_for(input));
    versions.apply(job->applied_version, task.modify);
  }

  std::atomic<std::size_t> next{0};
  std::mutex failures_mutex;
  std::vector<std::string> failures;
  const auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size()) return;
      JobRecord& job = *jobs[i];
      if (job.failed()) continue;
      std::string problem;
      if (!versions.has(job.version)) {
        problem = "version " + std::to_string(job.version) + " was never rebuilt";
      } else {
        try {
          run_oracle_job(versions, inputs, job);
          if (!job.oracle_match) problem = "verdict or plan differs from the fresh engine";
        } catch (const std::exception& e) {
          problem = std::string("oracle error: ") + e.what();
        }
      }
      if (!problem.empty()) {
        const std::lock_guard<std::mutex> lock{failures_mutex};
        job.oracle_ran = true;
        job.oracle_match = false;
        failures.push_back("job " + std::to_string(job.id) + " (" + kind_name(job.kind) +
                           ", version " + std::to_string(job.version) + "): " + problem);
      }
    }
  };
  run_parallel(std::vector<std::function<void()>>(std::max(1u, threads), worker));
  return failures;
}

// ---- Traced replay -------------------------------------------------------------------

/// Times `fn` as a span named `name` under `parent`.
template <typename Fn>
auto timed(Spans& spans, const std::string& name, std::uint64_t parent, std::uint64_t job,
           Fn&& fn) {
  const double start = now_s();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    spans.add(name, parent, job, start, now_s());
  } else {
    auto result = fn();
    spans.add(name, parent, job, start, now_s());
    return result;
  }
}

/// Replays the run's recorded inputs, in submission order, through the
/// public functions of each layer on one thread, each call under a span.
class Replay {
 public:
  Replay(Versions& versions, const Inputs& inputs, Spans& spans)
      : versions_(versions), inputs_(inputs), spans_(spans) {}

  void run(const std::vector<JobRecord*>& jobs, std::size_t limit) {
    std::size_t replayed = 0;
    for (const JobRecord* job : jobs) {
      if (replayed >= limit) break;
      if (job->failed() || !job->oracle_ran) continue;
      // The first version is timed three times, so a workload that never
      // applies still gets a median of the cold per-version work.
      cold_version(job->version, cold_.empty() ? 3 : 1);
      replay_job(*job);
      ++replayed;
    }
  }

 private:
  struct Cold {
    std::shared_ptr<const core::BatchAlgebra> algebra;
  };

  /// Cold per-version work: FEC refinement, plan build, batch algebra.
  void cold_version(std::uint64_t v, int repeats) {
    if (cold_.contains(v)) return;
    const svc::Snapshot& snap = *versions_.state(v).snapshot;
    const topo::Topology& topo = *snap.topo;
    const topo::Scope scope = topo::Scope::whole_network(topo);
    Cold cold;
    for (int r = 0; r < repeats; ++r) {
      const std::uint64_t root = spans_.add("replay.version", 0, v, now_s(), 0);
      timed(spans_, "topo.fec", root, v, [&] {
        return topo::per_entry_equivalence_classes(topo, scope, snap.traffic).size();
      });
      std::shared_ptr<const core::PlanBundle> bundle = timed(spans_, "core.plan", root, v, [&] {
        smt::SmtContext smt;
        core::Checker checker{smt, topo, scope, core::CheckOptions{}};
        return checker.share_plan(snap.traffic);
      });
      cold.algebra = timed(spans_, "core.batch.algebra", root, v, [&] {
        return std::make_shared<const core::BatchAlgebra>(
            core::build_batch_algebra(topo, std::move(bundle)));
      });
      spans_.end(root, now_s());
    }
    cold_.emplace(v, std::move(cold));
  }

  void scan(const topo::Topology& topo, std::uint64_t v, const topo::AclUpdate& update,
            std::uint64_t root, std::uint64_t job) {
    const double start = now_s();
    const std::vector<core::BatchOutcome> outcome =
        core::run_check_batch(topo, *cold_.at(v).algebra, {core::BatchItem{&update, {}, {}}});
    spans_.add(outcome.front().result.consistent ? "core.batch.scan_consistent"
                                                 : "core.batch.scan_inconsistent",
               root, job, start, now_s());
  }

  void replay_job(const JobRecord& job) {
    const Input& input = inputs_.at(job.input);
    const svc::Snapshot& snap = *versions_.state(job.version).snapshot;
    const topo::Topology& topo = *snap.topo;
    const double start = now_s();
    const std::uint64_t root = spans_.add("replay.job", 0, job.id, start, 0);

    timed(spans_, "svc.json", root, job.id, [&] {
      const std::string wire = submit_params(input).dump();
      return Json::parse(wire).dump().size();
    });
    const lai::AclLibrary library =
        timed(spans_, "config.parse_acl", root, job.id, [&] { return library_for(input); });
    const lai::UpdateTask task = timed(spans_, "lai.resolve", root, job.id, [&] {
      return lai::resolve(lai::parse(input.program), topo, library);
    });

    if (task.controls.empty()) {
      scan(topo, job.version, task.modify, root, job.id);
      if (job.kind == Kind::Fix && job.oracle_match) {
        // The repaired plan is what the pipeline's trailing check proves.
        scan(topo, job.version, job.oracle_final, root, job.id);
      }
      incremental_check(snap, task, root, job.id);
    }
    timed(spans_, "core.format_plan", root, job.id,
          [&] { return core::format_plan(topo, job.oracle_final).size(); });

    if (job.applied_version != 0) replay_apply(job, task.modify, root);
    spans_.end(root, now_s());
  }

  /// The delta-scoped route: lease from a planner that follows the run's
  /// applies, adopt its bundle, check only what the update touches, commit.
  void incremental_check(const svc::Snapshot& snap, const lai::UpdateTask& task,
                         std::uint64_t root, std::uint64_t job) {
    // Built outside the span: the cold plan build is core.plan's time.
    const std::shared_ptr<const core::PlanBundle>& bundle = versions_.bundle(snap.version);
    const double start = now_s();
    core::IncrementalLease lease =
        planner_.acquire(snap.version, task.scope, snap.traffic, task.modify);
    if (!lease.valid()) {
      planner_.install(snap.version, task.scope, bundle);
      lease = planner_.acquire(snap.version, task.scope, snap.traffic, task.modify);
    }
    core::CheckOptions options;
    options.adopted_plan = lease.bundle;
    smt::SmtContext smt;
    core::Checker checker{smt, *snap.topo, task.scope, options};
    const core::IncrementalOutcome outcome =
        core::run_incremental_check(checker, lease, task.modify);
    planner_.commit(snap.version, task.scope, snap.traffic, task.modify, outcome.clean);
    spans_.add("core.incremental.check", root, job, start, now_s());
  }

  /// An apply as the server's store and hooks see it: the copy-on-write
  /// head advance, then the delta refinement of the version's classes by
  /// the apply's pooled differential, then the planner rebase.
  void replay_apply(const JobRecord& job, const topo::AclUpdate& update, std::uint64_t root) {
    const svc::Snapshot& before = *versions_.state(job.version).snapshot;
    config::NetworkFile network;
    network.topo = *before.topo;
    network.traffic = before.traffic;
    svc::StateStore store{std::move(network)};
    timed(spans_, "svc.store.apply", root, job.id,
          [&] { return store.apply_update(update)->version; });
    std::vector<net::PacketSet> classes;
    for (const auto& o : versions_.bundle(job.version)->plan.obligations()) {
      classes.push_back(*o.fec);
    }
    timed(spans_, "topo.fec_delta", root, job.id, [&] {
      std::vector<topo::AclSlot> slots;
      for (const auto& [slot, acl] : update) slots.push_back(slot);
      const topo::ConfigView before_view{*before.topo};
      const topo::ConfigView after_view{*before.topo, &update};
      net::PacketSet diff;
      for (const auto& rule : core::scope_differential(before_view, after_view, slots)) {
        diff = diff | net::PacketSet{rule.match.cube()};
      }
      return topo::refine_delta(classes, {diff}).split;
    });
    planner_.record_apply(job.version, job.applied_version, *before.topo, update);
  }

  Versions& versions_;
  const Inputs& inputs_;
  Spans& spans_;
  core::IncrementalPlanner planner_;
  std::map<std::uint64_t, Cold> cold_;
};

// ---- Output -------------------------------------------------------------------------

Json numbers(const std::vector<double>& values) {
  Json::Array out;
  for (double v : values) out.emplace_back(v);
  return Json{std::move(out)};
}

std::string build_type() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return "optimized, NDEBUG";
#elif defined(__OPTIMIZE__)
  return "optimized, assertions on";
#elif defined(NDEBUG)
  return "unoptimized, NDEBUG";
#else
  return "unoptimized, assertions on";
#endif
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string jinjing;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--jinjing") {
      args.jinjing = value;
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (args.workload.empty() || args.jinjing.empty()) {
    throw std::runtime_error("usage: svcbench_loadgen --workload W --seed N --seconds S "
                             "--trace 0|1 --jinjing PATH (run in an empty working directory)");
  }
  return args;
}

int run(const Args& args) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const Shape shape = shape_for(args.workload, nproc);
  // One core stays with the load generator, so client threads do not queue
  // behind the server's executor on a small host.
  const unsigned workers = std::max(1u, std::min(4u, nproc - 1));

  // The WAN is fixed per workload; the seed drives the updates.
  const gen::Wan wan = gen::make_wan(shape.large_wan ? gen::large_wan() : gen::medium_wan());
  config::NetworkFile file;
  file.topo = wan.topo;
  file.traffic = wan.traffic;
  const std::string network_text = config::print_network(file);
  {
    std::ofstream out{"network.topo"};
    out << network_text;
  }
  // The oracle loads the network exactly as the server does.
  const config::NetworkFile parsed = config::parse_network(network_text);

  Inputs inputs;
  Source warm_source{shape, wan, args.seed ^ 0x5eed5eedULL, inputs};
  Source source{shape, wan, args.seed, inputs};

  // Set-up: spawn -> first answered warm-up job, several times.
  std::vector<double> setup;
  // The set-up job is the same whole-network check in every workload and
  // seed: it pays path enumeration and FEC refinement, nothing else.
  Input setup_check;
  setup_check.program = scope_line(parsed.topo) + "check\n";
  const std::size_t setup_input = inputs.add(std::move(setup_check));
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<Conn>> conns;
  constexpr std::size_t kSetups = 15;  // server spawns timed for setup_s
  for (std::size_t i = 0; i < kSetups; ++i) {
    const double start = now_s();
    server = std::make_unique<ServerProcess>(args.jinjing, "network.topo", "s.sock", workers,
                                             "server.log");
    svc::Client client = server->connect(60);
    JobRecord job;
    job.input = setup_input;
    submit(client, inputs, job);
    resolve(client, job);
    setup.push_back(now_s() - start);
    if (job.failed()) throw std::runtime_error("set-up job failed: " + job.error);
    if (i + 1 < kSetups) {
      server->shutdown(client, 30);
      server.reset();
    } else {
      conns.push_back(std::make_unique<Conn>(Conn{std::move(client), {}, Spans{0}}));
    }
  }
  for (std::size_t c = 1; c < shape.connections; ++c) {
    conns.push_back(std::make_unique<Conn>(
        Conn{server->connect(10), {}, Spans{static_cast<unsigned>(c)}}));
  }
  auto sampler = std::make_unique<Sampler>(server->pid());

  // Warm-up, then the measured window.
  const auto drive = [&](Source& src, double seconds, bool measured, std::vector<double>& late,
                         bool trace) {
    Window w{now_s(), now_s() + seconds, trace};
    if (shape.rate > 0) {
      open_loop(conns, src, inputs, shape.rate, w, measured, late);
      return;
    }
    std::vector<std::function<void()>> tasks;
    for (auto& conn : conns) {
      tasks.emplace_back(
          [&, c = conn.get()] { closed_loop(*c, src, inputs, w, measured); });
    }
    run_parallel(tasks);
  };
  std::vector<double> warm_lateness;
  drive(warm_source, shape.warmup_s, false, warm_lateness, false);
  const std::map<std::string, double> before = counters(conns[0]->client);
  const auto cpu_before = read_proc(server->pid());
  const double window_start = now_s();
  std::vector<double> lateness;
  drive(source, args.seconds, true, lateness, args.trace);
  const double window_end = now_s();
  const std::map<std::string, double> after = counters(conns[0]->client);
  const auto proc_after = read_proc(server->pid());
  const std::vector<ProcSample> samples = sampler->samples();
  sampler.reset();
  const int exit_code = server->shutdown(conns[0]->client, 60);
  server.reset();

  // Everything below is outside the timed window.
  std::vector<JobRecord*> all;
  for (auto& conn : conns) {
    for (auto& job : conn->jobs) all.push_back(&job);
  }
  std::sort(all.begin(), all.end(),
            [](const JobRecord* a, const JobRecord* b) { return a->sent < b->sent; });
  Versions versions{parsed};
  const std::vector<std::string> mismatches = run_oracle(versions, inputs, all, nproc);

  Spans replay_spans{100};
  if (args.trace) {
    std::vector<JobRecord*> measured;
    for (JobRecord* job : all) {
      if (job->measured) measured.push_back(job);
    }
    Replay replay{versions, inputs, replay_spans};
    replay.run(measured, shape.replay_jobs);
  }

  // Raw output for run.py.
  Json::Object doc;
  doc.emplace("workload", args.workload);
  doc.emplace("seed", args.seed);
  doc.emplace("nproc", static_cast<std::uint64_t>(nproc));
  doc.emplace("workers", static_cast<std::uint64_t>(workers));
  doc.emplace("connections", static_cast<std::uint64_t>(conns.size()));
  doc.emplace("build_type", build_type());
  doc.emplace("server_exit", exit_code);
  doc.emplace("setup_s", numbers(setup));
  doc.emplace("window_s", window_end - window_start);
  doc.emplace("offered_rate", shape.rate);
  doc.emplace("lateness_s", numbers(lateness));
  {
    Json::Array jobs;
    std::size_t unmeasured = 0;
    for (const JobRecord* job : all) {
      if (!job->measured) {
        ++unmeasured;
        continue;
      }
      Json::Object j;
      j.emplace("kind", kind_name(job->kind));
      j.emplace("input", static_cast<std::uint64_t>(job->input));
      j.emplace("traced", job->traced);
      j.emplace("ok", !job->failed());
      j.emplace("error", job->error);
      j.emplace("sent", job->sent - window_start);
      j.emplace("done", job->done - window_start);
      j.emplace("latency_s", job->latency());
      j.emplace("submit_s", job->admitted - job->sent);
      j.emplace("queue_s", job->queue_s);
      j.emplace("run_s", job->run_s);
      j.emplace("apply_s", job->apply_s);
      j.emplace("version", job->version);
      j.emplace("oracle_ran", job->oracle_ran);
      j.emplace("oracle_match", job->oracle_match);
      j.emplace("consistent", job->oracle_consistent);
      Json::Object stages;
      for (const auto& [name, ms] : job->stages) stages.emplace(name, ms);
      j.emplace("stages", Json{std::move(stages)});
      jobs.emplace_back(Json{std::move(j)});
    }
    doc.emplace("jobs", Json{std::move(jobs)});
    doc.emplace("warmup_jobs", static_cast<std::uint64_t>(unmeasured));
  }
  {
    Json::Object delta;
    for (const auto& [name, value] : after) {
      const auto it = before.find(name);
      delta.emplace(name, value - (it == before.end() ? 0 : it->second));
    }
    doc.emplace("counters", Json{std::move(delta)});
    Json::Object gauges;
    for (const auto& [name, value] : after) gauges.emplace(name, value);
    doc.emplace("metrics_after", Json{std::move(gauges)});
  }
  {
    Json::Array rows;
    for (const ProcSample& s : samples) {
      rows.emplace_back(numbers({s.t - window_start, s.rss_mb, s.vm_mb,
                                 static_cast<double>(s.threads), static_cast<double>(s.fds),
                                 s.cpu_s}));
    }
    doc.emplace("proc", Json{std::move(rows)});
    // The peak of VmRSS sampled every 50 ms while the window submits. The
    // drain after it is left out: its last stragglers may run alone on the
    // Z3 route, whose retained heap lifts RSS by ~16 MB in some runs and not
    // others. VmHWM, which includes it, is reported beside for reference.
    double peak = 0;
    for (const ProcSample& s : samples) {
      if (s.t >= window_start && s.t <= window_start + args.seconds) {
        peak = std::max(peak, s.rss_mb);
      }
    }
    doc.emplace("peak_rss_mb", peak);
    doc.emplace("vm_hwm_mb", proc_after ? proc_after->hwm_mb : 0.0);
    doc.emplace("server_cpu_s",
                proc_after && cpu_before ? proc_after->cpu_s - cpu_before->cpu_s : 0.0);
  }
  {
    Json::Array failures;
    for (const auto& line : mismatches) failures.emplace_back(line);
    doc.emplace("oracle_failures", Json{std::move(failures)});
  }
  {
    Json::Array spans;
    std::vector<const std::vector<Span>*> sets;
    for (auto& conn : conns) sets.push_back(&conn->spans.spans());
    sets.push_back(&replay_spans.spans());
    for (const auto* set : sets) {
      for (const Span& s : *set) {
        Json::Array row;
        row.emplace_back(s.name);
        row.emplace_back(s.id);
        row.emplace_back(s.parent);
        row.emplace_back(s.job);
        row.emplace_back((s.start - window_start) * 1e6);
        row.emplace_back((s.end - window_start) * 1e6);
        row.emplace_back(static_cast<std::uint64_t>(s.tid));
        spans.emplace_back(Json{std::move(row)});
      }
    }
    doc.emplace("spans", Json{std::move(spans)});
  }
  std::cout << Json{std::move(doc)}.dump() << "\n";
  return 0;
}

}  // namespace
}  // namespace jinjing::svcbench

int main(int argc, char** argv) {
  try {
    return jinjing::svcbench::run(jinjing::svcbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "svcbench_loadgen: " << e.what() << "\n";
    return 1;
  }
}
