// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0

#include "xmlsel/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "xmlsel/common.h"

namespace xmlsel {

int32_t DefaultThreadCount() {
  // XMLSEL_THREADS overrides the detected concurrency (useful where
  // hardware_concurrency() reports 1 — containers, CI — masking all
  // scaling). Parsed once; invalid, trailing-garbage, or non-positive
  // values are ignored. from_chars rather than strtol: no errno
  // protocol, no silent overflow saturation (banned-function lint rule).
  static const int32_t count = [] {
    if (const char* env = std::getenv("XMLSEL_THREADS")) {
      int32_t parsed = 0;
      const char* end = env + std::strlen(env);
      auto [ptr, ec] = std::from_chars(env, end, parsed);
      if (ec == std::errc() && ptr == end && parsed > 0) return parsed;
    }
    return std::max(1,
                    static_cast<int32_t>(std::thread::hardware_concurrency()));
  }();
  return count;
}

ThreadPool::ThreadPool(int32_t num_threads) {
  XMLSEL_CHECK(num_threads > 0);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int32_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  idle_cv_.Wait(mu_, [this]() XMLSEL_REQUIRES(mu_) {
    return queue_.empty() && active_ == 0;
  });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      work_cv_.Wait(
          mu_, [this]() XMLSEL_REQUIRES(mu_) { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      MutexLock lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.NotifyAll();
    }
  }
}

}  // namespace xmlsel
