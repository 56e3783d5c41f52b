#include "svc/scheduler.h"

#include "obs/stats.h"

namespace jinjing::svc {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

std::string_view to_string(Priority p) {
  return p == Priority::Interactive ? "interactive" : "batch";
}

std::optional<Priority> parse_priority(std::string_view text) {
  if (text == "interactive") return Priority::Interactive;
  if (text == "batch") return Priority::Batch;
  return std::nullopt;
}

std::string_view to_string(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  return "unknown";
}

std::optional<std::uint64_t> Job::remaining_ms() const {
  if (spec_.deadline_ms == 0) return std::nullopt;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - submitted_at_)
                           .count();
  if (elapsed < 0) return spec_.deadline_ms;
  const auto used = static_cast<std::uint64_t>(elapsed);
  return used >= spec_.deadline_ms ? 0 : spec_.deadline_ms - used;
}

Scheduler::Scheduler(std::size_t queue_depth, std::size_t retain_terminal)
    : queue_depth_(queue_depth == 0 ? 1 : queue_depth),
      retain_terminal_(retain_terminal == 0 ? 1 : retain_terminal) {}

Scheduler::Admission Scheduler::submit(JobSpec spec, SnapshotPtr snapshot) {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (draining_) {
    obs::count(obs::Counter::SvcJobsRejected);
    return Admission{nullptr, 503, "server is draining"};
  }
  const std::size_t queued = queues_[0].size() + queues_[1].size();
  if (queued >= queue_depth_) {
    obs::count(obs::Counter::SvcJobsRejected);
    return Admission{nullptr, 429,
                     "queue full (" + std::to_string(queue_depth_) + " jobs pending)"};
  }
  const Priority priority = spec.priority;
  auto job = std::make_shared<Job>(next_id_++, std::move(spec), std::move(snapshot));
  job->submitted_at_ = std::chrono::steady_clock::now();
  jobs_.emplace(job->id(), job);
  queues_[static_cast<std::size_t>(priority)].push_back(job);
  obs::count(obs::Counter::SvcJobsSubmitted);
  work_cv_.notify_one();
  return Admission{std::move(job), 0, {}};
}

JobPtr Scheduler::next() {
  // Declared before the lock so the evicted JobPtrs (and any snapshot
  // their destruction frees) are destroyed after unlocking.
  std::vector<JobPtr> evicted;
  std::unique_lock<std::mutex> lock{mutex_};
  while (true) {
    work_cv_.wait(lock, [&] {
      const bool empty = head_queue_locked() == nullptr;
      return empty ? draining_ : !held_;
    });
    std::deque<JobPtr>* queue = head_queue_locked();
    if (queue == nullptr) return nullptr;  // draining and nothing left
    JobPtr job = std::move(queue->front());
    queue->pop_front();
    if (job->cancel_requested()) {
      finish_locked(*job, JobState::Cancelled, {}, evicted);
      continue;
    }
    if (const auto remaining = job->remaining_ms(); remaining && *remaining == 0) {
      JobOutcome outcome;
      outcome.error = "deadline exceeded while queued";
      finish_locked(*job, JobState::Failed, std::move(outcome), evicted);
      continue;
    }
    start_locked(*job);
    return job;
  }
}

std::deque<JobPtr>* Scheduler::head_queue_locked() {
  for (auto& queue : queues_) {
    if (!queue.empty()) return &queue;
  }
  return nullptr;
}

void Scheduler::start_locked(Job& job) {
  job.state_ = JobState::Running;
  job.started_at_ = std::chrono::steady_clock::now();
  ++running_;
  obs::observe(obs::Histogram::SvcQueueWaitMicros,
               static_cast<std::uint64_t>(
                   seconds_between(job.submitted_at_, job.started_at_) * 1e6));
  // Queued -> Running is observable through wait_started; terminal
  // transitions notify via finish_locked.
  done_cv_.notify_all();
}

void Scheduler::finish(const JobPtr& job, JobState state, JobOutcome outcome) {
  std::vector<JobPtr> evicted;  // destroyed after the lock; see finish_locked
  const std::lock_guard<std::mutex> lock{mutex_};
  if (job->state_ == JobState::Running) --running_;
  finish_locked(*job, state, std::move(outcome), evicted);
}

void Scheduler::finish_locked(Job& job, JobState state, JobOutcome outcome,
                              std::vector<JobPtr>& evicted) {
  job.state_ = state;
  job.outcome_ = std::move(outcome);
  // status/result/apply answer from the outcome alone; the inputs go now,
  // not when retention evicts the job.
  job.spec_.acls = {};
  job.spec_.task.reset();
  job.finished_at_ = std::chrono::steady_clock::now();
  switch (state) {
    case JobState::Done: obs::count(obs::Counter::SvcJobsDone); break;
    case JobState::Failed: obs::count(obs::Counter::SvcJobsFailed); break;
    case JobState::Cancelled: obs::count(obs::Counter::SvcJobsCancelled); break;
    default: break;
  }
  if (job.started_at_ != std::chrono::steady_clock::time_point{}) {
    obs::observe(obs::Histogram::SvcJobRunMicros,
                 static_cast<std::uint64_t>(
                     seconds_between(job.started_at_, job.finished_at_) * 1e6));
  }
  // Bounded retention: forget the oldest-finished jobs past the cap so a
  // long-running server does not accumulate every snapshot pin and report
  // ever produced. Waiters blocked in wait() hold their own JobPtr, so
  // eviction never invalidates an in-flight result read. The evicted
  // pointers are handed to the caller, not destroyed here: dropping the
  // last reference releases the job's snapshot pin, and freeing a
  // snapshot's topology need not hold the scheduler mutex.
  terminal_order_.push_back(job.id_);
  while (terminal_order_.size() > retain_terminal_) {
    const auto it = jobs_.find(terminal_order_.front());
    if (it != jobs_.end()) {
      evicted.push_back(std::move(it->second));
      jobs_.erase(it);
    }
    terminal_order_.pop_front();
  }
  done_cv_.notify_all();
}

bool Scheduler::cancel(std::uint64_t id) {
  std::vector<JobPtr> evicted;  // destroyed after the lock; see finish_locked
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (is_terminal(job.state_)) return false;
  job.request_cancel();
  if (job.state_ == JobState::Queued) {
    // Cancel takes effect immediately: remove from the queue and finish.
    auto& queue = queues_[static_cast<std::size_t>(job.spec_.priority)];
    for (auto qit = queue.begin(); qit != queue.end(); ++qit) {
      if ((*qit)->id() == id) {
        queue.erase(qit);
        break;
      }
    }
    finish_locked(job, JobState::Cancelled, {}, evicted);
  }
  // A running job finishes as Cancelled when the worker observes the flag.
  return true;
}

JobPtr Scheduler::find(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

JobStatus Scheduler::status_locked(const Job& job) const {
  JobStatus status;
  status.id = job.id_;
  status.state = job.state_;
  status.priority = job.spec_.priority;
  status.snapshot = job.snapshot_->version;
  const auto now = std::chrono::steady_clock::now();
  const bool started = job.started_at_ != std::chrono::steady_clock::time_point{};
  status.queue_seconds = seconds_between(job.submitted_at_, started ? job.started_at_ : now);
  if (started) {
    status.run_seconds =
        seconds_between(job.started_at_, is_terminal(job.state_) ? job.finished_at_ : now);
  }
  if (is_terminal(job.state_)) status.outcome = job.outcome_;
  return status;
}

std::optional<JobStatus> Scheduler::status(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return status_locked(*it->second);
}

std::optional<JobStatus> Scheduler::wait(std::uint64_t id,
                                         std::optional<std::chrono::milliseconds> timeout) {
  std::unique_lock<std::mutex> lock{mutex_};
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const JobPtr job = it->second;
  const auto terminal = [&] { return is_terminal(job->state_); };
  if (timeout) {
    if (!done_cv_.wait_for(lock, *timeout, terminal)) return std::nullopt;
  } else {
    done_cv_.wait(lock, terminal);
  }
  return status_locked(*job);
}

std::optional<JobStatus> Scheduler::wait_started(
    std::uint64_t id, std::optional<std::chrono::milliseconds> timeout) {
  std::unique_lock<std::mutex> lock{mutex_};
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const JobPtr job = it->second;
  const auto started = [&] { return job->state_ != JobState::Queued; };
  if (timeout) {
    if (!done_cv_.wait_for(lock, *timeout, started)) return std::nullopt;
  } else {
    done_cv_.wait(lock, started);
  }
  return status_locked(*job);
}

void Scheduler::hold() {
  const std::lock_guard<std::mutex> lock{mutex_};
  held_ = true;
}

void Scheduler::release() {
  const std::lock_guard<std::mutex> lock{mutex_};
  held_ = false;
  work_cv_.notify_all();
}

void Scheduler::drain() {
  const std::lock_guard<std::mutex> lock{mutex_};
  draining_ = true;
  held_ = false;
  work_cv_.notify_all();
}

bool Scheduler::draining() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return draining_;
}

void Scheduler::wait_idle() {
  std::unique_lock<std::mutex> lock{mutex_};
  done_cv_.wait(lock, [&] {
    return queues_[0].empty() && queues_[1].empty() && running_ == 0;
  });
}

std::size_t Scheduler::queued_count() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return queues_[0].size() + queues_[1].size();
}

std::size_t Scheduler::running_count() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return running_;
}

std::size_t Scheduler::tracked_count() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return jobs_.size();
}

}  // namespace jinjing::svc
