#include "par/par.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace carpool::par {

namespace {

/// splitmix64: the repo's standard cheap seeded mixer (chaos::derive_seed
/// uses the same constants). Deterministic in its inputs, stateless.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t resolve_threads(long long cli_value) noexcept {
  if (cli_value == 0) return hardware_threads();
  if (cli_value > 0) return static_cast<std::size_t>(cli_value);
  const char* env = std::getenv("CARPOOL_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long long parsed = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || parsed < 0) {
    // Garbage or negative: fall back to serial, but say so — a typo'd
    // CARPOOL_THREADS silently serializing a campaign is a nasty way to
    // lose a night of throughput. Warn once per process and leave a
    // breadcrumb counter for post-hoc triage.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "carpool: ignoring invalid CARPOOL_THREADS=\"%s\" "
                   "(want a non-negative integer); running serial\n",
                   env);
    }
    try {
      obs::Registry::current().counter("par.threads_env_invalid").add();
    } catch (...) {
      // resolve_threads is noexcept; a failed allocation in the counter
      // map must not terminate — the stderr warning already landed.
    }
    return 1;
  }
  return parsed == 0 ? hardware_threads()
                     : static_cast<std::size_t>(parsed);
}

FaultKind FaultPlan::at(std::size_t shard,
                        std::size_t attempt) const noexcept {
  for (const Entry& e : entries) {
    if (e.shard == shard && e.attempt == attempt) return e.kind;
  }
  return FaultKind::kNone;
}

FaultPlan FaultPlan::seeded(std::uint64_t seed, std::size_t shards,
                            double rate, FaultKind kind) {
  FaultPlan plan;
  for (std::size_t i = 0; i < shards; ++i) {
    const std::uint64_t draw = mix64(seed ^ mix64(i + 1));
    // Map the top 53 bits to [0, 1).
    const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
    if (u < rate) plan.entries.push_back({i, 0, kind});
  }
  return plan;
}

FaultPlan FaultPlan::window(std::size_t offset, std::size_t count) const {
  FaultPlan windowed;
  windowed.stall_seconds = stall_seconds;
  for (const Entry& e : entries) {
    if (e.shard >= offset && e.shard < offset + count) {
      windowed.entries.push_back({e.shard - offset, e.attempt, e.kind});
    }
  }
  return windowed;
}

double RetryPolicy::backoff_ms(std::size_t shard,
                               std::size_t attempt) const noexcept {
  if (attempt == 0) return 0.0;
  const double exp = backoff_base_ms * std::ldexp(1.0, static_cast<int>(
                         std::min<std::size_t>(attempt - 1, 30)));
  const std::uint64_t draw =
      mix64(backoff_seed ^ mix64(shard + 1) ^ mix64(attempt * 0x9e37ULL));
  const double jitter = 0.5 + static_cast<double>(draw >> 11) * 0x1.0p-53;
  return std::min(exp * jitter, backoff_max_ms);
}

std::string DegradedReport::to_string() const {
  std::string out = "degraded: " + std::to_string(quarantined.size()) +
                    " shard(s) quarantined, " + std::to_string(retries) +
                    " retr" + (retries == 1 ? "y" : "ies") + ", " +
                    std::to_string(stalls) + " stall(s)";
  for (const QuarantinedShard& q : quarantined) {
    out += "\n  shard " + std::to_string(q.index) + " after " +
           std::to_string(q.attempts) + " attempt(s): " + q.error;
  }
  return out;
}

namespace detail {

void backoff_sleep(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

bool run_attempt_with_watchdog(std::function<void()> body,
                               double timeout_seconds) {
  if (timeout_seconds <= 0.0) {
    body();
    return true;
  }
  // The attempt runs on its own thread; the shared block outlives both
  // sides so an overrunning (detached) attempt signals completion into
  // live memory even after the watchdog gave up on it.
  struct Shared {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
  };
  auto shared = std::make_shared<Shared>();
  std::thread attempt([shared, body = std::move(body)] {
    body();
    {
      const std::scoped_lock lock(shared->mutex);
      shared->done = true;
    }
    shared->cv.notify_all();
  });
  std::unique_lock lock(shared->mutex);
  const bool finished = shared->cv.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds),
      [&shared] { return shared->done; });
  lock.unlock();
  if (finished) {
    attempt.join();
    return true;
  }
  attempt.detach();  // abandoned: its outputs are never read
  return false;
}

}  // namespace detail

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = num_threads == 0 ? 1 : num_threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::submit(std::function<void()> job) {
  {
    const std::scoped_lock lock(mutex_);
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    const std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock,
                    [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      job();
    } catch (...) {
      const std::scoped_lock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      const std::scoped_lock lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace carpool::par
