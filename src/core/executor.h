// The "Execute" stage: a shared work-stealing thread pool that runs plan
// obligations (or any indexed task set) with cooperative cancellation.
//
// Design notes:
//  - One persistent pool per Executor; run() is serialized, the calling
//    thread participates as worker 0, so `threads == 1` degenerates to an
//    inline sequential loop with zero synchronization overhead.
//  - Work distribution is range splitting: the index space [0, count) is
//    divided into one contiguous range per worker, packed as next:32|end:32
//    in a single atomic so owner-pop (CAS next+1) and thief-split (CAS
//    end -> mid) are both single-word linearizable. A thief executes its
//    stolen segment thread-locally and never publishes it back, so shared
//    ranges only ever shrink — there is no ABA window.
//  - Early exit (`stop_at_first`) uses a CAS-min bound: a task returning
//    true lowers the bound to its own index; indices above the bound are
//    skipped (counted as cancelled), indices at or below it always run.
//    Hence the final stop_index is the *minimal* stopping index regardless
//    of scheduling — the property the checker's deterministic-witness
//    guarantee builds on.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace jinjing::core {

/// Thrown by StopProbes::poll when a job was cancelled or ran past its
/// deadline.
class Interrupted : public std::runtime_error {
 public:
  explicit Interrupted(bool deadline)
      : std::runtime_error(deadline ? "deadline exceeded" : "cancelled"), deadline_(deadline) {}
  [[nodiscard]] bool deadline() const { return deadline_; }

 private:
  bool deadline_;
};

/// A job's cooperative stop probes, polled between units of work: fix
/// obligations and neighborhoods, generate classes, scan obligations.
/// Either may be empty (never fires).
struct StopProbes {
  std::function<bool()> cancelled;
  std::function<bool()> expired;  // true = deadline budget exhausted

  /// Throws Interrupted when a probe fires (cancellation first).
  void poll() const {
    if (cancelled && cancelled()) throw Interrupted{false};
    if (expired && expired()) throw Interrupted{true};
  }
};

/// Cooperative cancellation scope shared by every task of one run().
class CancelSource {
 public:
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Handed to each task: cancelled() turns true once the whole run is
/// cancelled or an earlier-indexed task requested early exit, letting
/// long-running obligations bail out mid-flight.
class CancellationToken {
 public:
  CancellationToken(const CancelSource* source, const std::atomic<std::size_t>* bound,
                    std::size_t index)
      : source_(source), bound_(bound), index_(index) {}

  [[nodiscard]] bool cancelled() const {
    return source_->cancelled() || index_ > bound_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t index() const { return index_; }

 private:
  const CancelSource* source_;
  const std::atomic<std::size_t>* bound_;
  std::size_t index_;
};

struct ExecutionStats {
  std::size_t executed = 0;   // tasks whose body ran
  std::size_t cancelled = 0;  // tasks skipped by early exit (executed+cancelled==count)
  std::size_t steals = 0;     // successful range splits
  /// Minimal index whose task requested early exit; count if none did.
  std::size_t stop_index = 0;
  double execute_seconds = 0;  // wall time of the run() call
};

/// Work-stealing executor. Thread-safe to share between consumers, but
/// run() calls are serialized — nested run() from inside a task deadlocks,
/// so worker-side consumers (e.g. per-job engines on a server's pool) must
/// use their own single-threaded executors.
class Executor {
 public:
  /// A task returns true to request early exit ("stop at first").
  using Task = std::function<bool(std::size_t index, const CancellationToken&)>;
  /// Called once per participating worker; the returned Task runs every
  /// index that worker executes. Lets consumers hold per-worker state (an
  /// SmtContext, a CheckSession) without locking.
  using WorkerFactory = std::function<Task(std::size_t worker_id)>;

  explicit Executor(unsigned threads);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Runs tasks 0..count-1 across the pool and returns once all have
  /// executed or been cancelled.
  ExecutionStats run(std::size_t count, const WorkerFactory& factory);

 private:
  struct Job;

  void thread_main(std::size_t pool_index);
  void work(Job& job, std::size_t worker_id);
  void execute_range(Job& job, const Task& task, std::size_t begin, std::size_t end);

  unsigned threads_;
  std::vector<std::thread> pool_;  // threads_ - 1 helpers; caller is worker 0

  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;          // current job, guarded by mutex_
  std::uint64_t job_seq_ = 0;   // bumped per run() to wake the pool
  std::size_t active_ = 0;      // pool workers still inside the current job
  bool shutdown_ = false;

  std::mutex run_mutex_;  // serializes run() calls
};

}  // namespace jinjing::core
