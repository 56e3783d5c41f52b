// The service's prioritized job queue with admission control.
//
// Policy (in order):
//  * Admission control — the queue is bounded; a submission that would
//    exceed the depth is rejected immediately (the JSON-RPC layer maps
//    this to a 429-style error) instead of building unbounded backlog.
//  * Priority — interactive jobs (check) always dispatch ahead of batch
//    jobs (fix/generate), regardless of arrival order.
//  * FIFO fairness within a priority — jobs of equal priority run in
//    submission order; a stream of interactive jobs can delay batch work
//    but never reorder it.
//  * Workers — the server runs a fixed number of worker threads, each
//    looping on next(), so at most that many jobs run at once; a job
//    waiting for a worker is still Queued, so its queue time and a deadline
//    lapsing in that wait read as queueing.
//  * Deadlines — a job whose deadline expires while queued fails at
//    dispatch without running; a running job's engine polls the deadline
//    between its units of work (obligations, neighborhoods, classes).
//  * Cancellation is cooperative — a queued job cancels immediately; a
//    running job observes its cancel flag at the same polls.
//  * Retention — terminal jobs are kept (for status/result queries) only
//    up to a bound; beyond it the oldest-finished are evicted, releasing
//    their pinned snapshot and outcome. A finished job keeps only a
//    summary of its report (JobOutcome) and drops its resolved inputs as
//    it finishes. A long-running server therefore
//    does not grow without bound with every submission, at the cost of
//    `status`/`result` answering 404 for jobs that finished long ago.
//
// All job state is guarded by one scheduler mutex (the per-job atomic
// cancel flag is the only cross-thread signal a worker polls mid-job);
// completion is broadcast on a condition variable that result waiters and
// the drain path share.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "lai/sema.h"
#include "svc/state_store.h"

namespace jinjing::svc {

enum class Priority : std::uint8_t { Interactive = 0, Batch = 1 };

[[nodiscard]] std::string_view to_string(Priority p);
/// Parses "interactive" / "batch"; nullopt otherwise.
[[nodiscard]] std::optional<Priority> parse_priority(std::string_view text);

enum class JobState : std::uint8_t { Queued, Running, Done, Failed, Cancelled };

[[nodiscard]] std::string_view to_string(JobState s);
[[nodiscard]] constexpr bool is_terminal(JobState s) {
  return s == JobState::Done || s == JobState::Failed || s == JobState::Cancelled;
}

struct JobSpec {
  std::string program;           // LAI source
  lai::AclLibrary acls;          // named ACLs the program references
  Priority priority = Priority::Interactive;
  std::uint64_t deadline_ms = 0; // 0 = none; measured from submission
  /// Resolved form of `program` against the pinned snapshot, set by the
  /// server at submission so dispatch does not parse/resolve again. May be
  /// null (a direct scheduler user); the worker then re-resolves.
  std::shared_ptr<const lai::UpdateTask> task;
};

/// One program command's verdict, as `status`/`result` render it.
struct CommandSummary {
  lai::Command command = lai::Command::Check;
  bool ok = false;
  std::optional<bool> consistent;  // check commands only
};

/// Terminal payload of a job: only what `status`/`result`/`apply` read, so
/// a retained job does not pin its engine report (neighborhood sets,
/// violations, the per-command updates) for the whole retention window.
struct JobOutcome {
  bool success = false;                 // EngineReport::success() for Done
  std::string error;                    // Failed: the diagnostic
  std::vector<CommandSummary> commands; // Done: one per executed command
  /// Done (successful or not): the job's final update, the one retained
  /// copy. `status`/`result` render it as the plan text against the job's
  /// pinned topology; `apply` installs it when `success`. Shared, so a
  /// status copy is a pointer copy.
  std::shared_ptr<const topo::AclUpdate> final_update;
};

class Job {
 public:
  Job(std::uint64_t id, JobSpec spec, SnapshotPtr snapshot)
      : id_(id), spec_(std::move(spec)), snapshot_(std::move(snapshot)) {}

  [[nodiscard]] std::uint64_t id() const { return id_; }
  /// `acls` and `task` are released when the job turns terminal: only the
  /// thread running the job may read them, and only before it finishes it.
  [[nodiscard]] const JobSpec& spec() const { return spec_; }
  /// The pinned snapshot — held alive by the job even after the store
  /// trims its version.
  [[nodiscard]] const SnapshotPtr& snapshot() const { return snapshot_; }
  [[nodiscard]] Version snapshot_version() const { return snapshot_->version; }

  void request_cancel() { cancel_requested_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancel_requested() const {
    return cancel_requested_.load(std::memory_order_relaxed);
  }

  /// Milliseconds of deadline budget left; nullopt when no deadline, 0 when
  /// expired. Safe from any thread (submitted_at_ is set before publish).
  [[nodiscard]] std::optional<std::uint64_t> remaining_ms() const;

 private:
  friend class Scheduler;

  const std::uint64_t id_;
  JobSpec spec_;  // acls and task are cleared by the terminal transition
  const SnapshotPtr snapshot_;
  std::atomic<bool> cancel_requested_{false};
  std::chrono::steady_clock::time_point submitted_at_{};

  // Guarded by the scheduler mutex.
  JobState state_ = JobState::Queued;
  JobOutcome outcome_;
  std::chrono::steady_clock::time_point started_at_{};
  std::chrono::steady_clock::time_point finished_at_{};
};

using JobPtr = std::shared_ptr<Job>;

/// A point-in-time copy of a job's externally visible state.
struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::Queued;
  Priority priority = Priority::Interactive;
  Version snapshot = 0;
  double queue_seconds = 0;  // submission -> start (or now while queued)
  double run_seconds = 0;    // start -> finish (or now while running)
  JobOutcome outcome;        // meaningful once terminal
};

class Scheduler {
 public:
  /// A submission verdict: the job, or a rejection (nullptr + code/message).
  struct Admission {
    JobPtr job;
    int error_code = 0;         // 429 queue full, 503 draining
    std::string error_message;
  };

  /// `retain_terminal` bounds how many finished jobs stay queryable; the
  /// oldest-finished beyond it are forgotten entirely (404 thereafter).
  explicit Scheduler(std::size_t queue_depth, std::size_t retain_terminal = 1024);

  [[nodiscard]] std::size_t queue_depth() const { return queue_depth_; }
  [[nodiscard]] std::size_t retain_terminal() const { return retain_terminal_; }

  /// Admits or rejects a job. `snapshot` is the resolved state the job
  /// will run against (the caller pins head at submission time).
  Admission submit(JobSpec spec, SnapshotPtr snapshot);

  /// Blocks until a job is available (highest priority first, FIFO
  /// within a priority); transitions it Queued -> Running. Queued jobs that
  /// were cancelled or whose deadline expired are finished inline
  /// (Cancelled / Failed) without being returned. Returns nullptr once
  /// draining and the queue is empty.
  JobPtr next();

  /// Terminal transition; wakes result waiters.
  void finish(const JobPtr& job, JobState state, JobOutcome outcome);

  /// True when the cancellation took hold (job was queued or running).
  bool cancel(std::uint64_t id);

  [[nodiscard]] JobPtr find(std::uint64_t id) const;
  [[nodiscard]] std::optional<JobStatus> status(std::uint64_t id) const;

  /// Blocks until the job is terminal (or `timeout` elapses when set);
  /// returns the final status (nullopt on timeout).
  std::optional<JobStatus> wait(std::uint64_t id,
                                std::optional<std::chrono::milliseconds> timeout = {});

  /// Blocks until the job has left the queue (Running or terminal) — the
  /// condition-wait tests use to know a blocker occupies a worker before
  /// they burst-submit, instead of sleeping and hoping. Returns the
  /// status at that moment (nullopt on timeout or unknown id).
  std::optional<JobStatus> wait_started(std::uint64_t id,
                                        std::optional<std::chrono::milliseconds> timeout = {});

  /// A gate on dispatch: while held, next() hands out nothing and admitted
  /// jobs stay queued (their deadlines keep running). Tests use it to queue
  /// work behind busy workers deterministically. drain() lifts it.
  void hold();
  void release();

  /// Stops admission; next() drains the backlog then returns nullptr.
  void drain();
  [[nodiscard]] bool draining() const;

  /// Blocks until every admitted job is terminal (drain() must have been
  /// called, otherwise new work may keep arriving forever).
  void wait_idle();

  [[nodiscard]] std::size_t queued_count() const;
  [[nodiscard]] std::size_t running_count() const;
  /// Every job the scheduler still remembers — queued + running + the
  /// retained terminal window. Bounded by queue_depth + running +
  /// retain_terminal; the soak harness asserts it never drifts past that.
  [[nodiscard]] std::size_t tracked_count() const;

 private:
  [[nodiscard]] JobStatus status_locked(const Job& job) const;
  /// The queue next() would take from (highest priority first), or null.
  [[nodiscard]] std::deque<JobPtr>* head_queue_locked();
  /// Retention eviction appends the dropped JobPtrs to `evicted` instead of
  /// destroying them: releasing a job may drop the last pin on its snapshot
  /// and free its topology, which need not hold the scheduler mutex.
  /// Callers destroy `evicted` after unlocking.
  void finish_locked(Job& job, JobState state, JobOutcome outcome,
                     std::vector<JobPtr>& evicted);
  void start_locked(Job& job);

  const std::size_t queue_depth_;
  const std::size_t retain_terminal_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // new work or drain
  std::condition_variable done_cv_;   // job reached a terminal state
  std::deque<JobPtr> queues_[2];      // indexed by Priority
  std::map<std::uint64_t, JobPtr> jobs_;
  std::deque<std::uint64_t> terminal_order_;  // finish order, oldest first
  std::uint64_t next_id_ = 1;
  std::size_t running_ = 0;
  bool draining_ = false;
  bool held_ = false;
};

}  // namespace jinjing::svc
