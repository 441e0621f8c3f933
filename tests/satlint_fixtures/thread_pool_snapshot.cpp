#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "obs/recorder.hpp"

namespace satnet::runtime {

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          // satlint:allow(nondet-source): pool idle/busy telemetry; task results never read the clock
          std::chrono::steady_clock::now() - since)
          .count());
}

// Watchdog knobs, read at pool construction. Atomics (not a config
// struct) so tests and tools can flip them without synchronizing with
// pool lifetimes.
std::atomic<unsigned> g_watchdog_poll_ms{0};
std::atomic<double> g_watchdog_threshold_ms{1000.0};

}  // namespace

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

void set_pool_watchdog(unsigned poll_ms, double threshold_ms) {
  g_watchdog_poll_ms.store(poll_ms, std::memory_order_relaxed);
  if (threshold_ms > 0) {
    g_watchdog_threshold_ms.store(threshold_ms, std::memory_order_relaxed);
  }
}

unsigned pool_watchdog_poll_ms() {
  return g_watchdog_poll_ms.load(std::memory_order_relaxed);
}

double pool_watchdog_threshold_ms() {
  return g_watchdog_threshold_ms.load(std::memory_order_relaxed);
}

ThreadPool::ThreadPool(unsigned threads)
    : tasks_executed_(obs::MetricsRegistry::global().counter(
          "runtime.pool.tasks_executed", "tasks run to completion")),
      busy_us_(obs::MetricsRegistry::global().counter(
          "runtime.pool.busy_us", "worker time spent inside tasks")),
      idle_us_(obs::MetricsRegistry::global().counter(
          "runtime.pool.idle_us", "worker time spent waiting for work")),
      queue_depth_(obs::MetricsRegistry::global().gauge(
          "runtime.pool.queue_depth", "tasks waiting in the FIFO queue")),
      workers_gauge_(obs::MetricsRegistry::global().gauge(
          "runtime.pool.workers", "worker threads alive")) {
  const unsigned n = resolve_threads(threads);
  // satlint:allow(nondet-source): pool epoch anchors watchdog telemetry only; task results never read the clock
  epoch_ = std::chrono::steady_clock::now();
  inflight_start_us_ = std::vector<std::atomic<std::uint64_t>>(n);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  workers_gauge_.add(static_cast<std::int64_t>(n));
  const unsigned poll_ms = pool_watchdog_poll_ms();
  if (poll_ms > 0) {
    const double threshold_ms = pool_watchdog_threshold_ms();
    watchdog_ = std::thread(
        [this, poll_ms, threshold_ms] { watchdog_loop(poll_ms, threshold_ms); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    if (joined_) return;
    joined_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
  workers_gauge_.add(-static_cast<std::int64_t>(workers_.size()));
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
      watch_stop_ = true;
    }
    watch_cv_.notify_all();
    watchdog_.join();
  }
}

std::uint64_t ThreadPool::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          // satlint:allow(nondet-source): watchdog stall telemetry; task results never read the clock
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void ThreadPool::watchdog_loop(unsigned poll_ms, double threshold_ms) {
  std::vector<std::uint64_t> flagged(inflight_start_us_.size(), 0);
  std::unique_lock<std::mutex> lock(watch_mu_);
  for (;;) {
    watch_cv_.wait_for(lock, std::chrono::milliseconds(poll_ms),
                       [this] { return watch_stop_; });
    if (watch_stop_) return;
    const std::uint64_t now = now_us();
    for (std::size_t w = 0; w < inflight_start_us_.size(); ++w) {
      const std::uint64_t start =
          inflight_start_us_[w].load(std::memory_order_relaxed);
      // 0 = idle; re-flagging the same task (same start stamp) is noise.
      if (start == 0 || start == flagged[w]) continue;
      const double running_ms = static_cast<double>(now - (start - 1)) / 1000.0;
      if (running_ms < threshold_ms) continue;
      flagged[w] = start;
      obs::MetricsRegistry::global()
          .counter("runtime.pool.stall",
                   "tasks flagged by the watchdog as running past the "
                   "stall threshold")
          .add(1);
      obs::FlightRecorder::global().record(
          obs::EventKind::stall_flag, static_cast<std::uint64_t>(running_ms),
          static_cast<std::uint64_t>(threshold_ms), /*det=*/false);
      std::fprintf(stderr,
                   "runtime: watchdog: worker %zu task running %.0f ms "
                   "(threshold %.0f ms)\n",
                   w, running_ms, threshold_ms);
    }
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      throw std::logic_error(
          "ThreadPool::submit called after shutdown began; the task would "
          "never run");
    }
    tasks_.push_back(std::move(task));
    queue_depth_.set(static_cast<std::int64_t>(tasks_.size()));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop(std::size_t worker) {
  for (;;) {
    std::function<void()> task;
    {
      // satlint:allow(nondet-source): pool idle/busy telemetry; task results never read the clock
      const auto wait_start = std::chrono::steady_clock::now();
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      idle_us_.add(elapsed_us(wait_start));
      if (tasks_.empty()) return;  // stop_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
      queue_depth_.set(static_cast<std::int64_t>(tasks_.size()));
      ++active_;
    }
    // satlint:allow(nondet-source): pool idle/busy telemetry; task results never read the clock
    const auto run_start = std::chrono::steady_clock::now();
    inflight_start_us_[worker].store(now_us() + 1, std::memory_order_relaxed);
    try {
      task();
    } catch (...) {
      // Tasks must not throw (ShardedCampaign wraps shard bodies); one
      // escaping anyway is a bug that is about to terminate the
      // process, so dump the flight-recorder black box first.
      obs::FlightRecorder::global().dump_postmortem(
          "uncaught worker exception escaped a ThreadPool task");
      inflight_start_us_[worker].store(0, std::memory_order_relaxed);
      throw;
    }
    inflight_start_us_[worker].store(0, std::memory_order_relaxed);
    busy_us_.add(elapsed_us(run_start));
    tasks_executed_.add(1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    cv_idle_.notify_all();
  }
}

}  // namespace satnet::runtime
