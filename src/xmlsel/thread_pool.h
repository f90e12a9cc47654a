// Copyright 2026 The xmlsel Authors
// SPDX-License-Identifier: Apache-2.0
//
// A small reusable fixed-size thread pool for the batch-estimation engine.
// Workers pull closures off a shared queue; Wait() blocks until every
// submitted task has finished, so one pool can serve many successive
// batches without re-spawning threads. The pool is deliberately minimal —
// no futures, no work stealing — because estimation tasks are coarse
// (one bound evaluation each) and independent.

#ifndef XMLSEL_XMLSEL_THREAD_POOL_H_
#define XMLSEL_XMLSEL_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "xmlsel/mutex.h"
#include "xmlsel/thread_annotations.h"

namespace xmlsel {

/// Number of workers to use when the caller does not care: the hardware
/// concurrency, floored at 1 (hardware_concurrency may report 0). The
/// XMLSEL_THREADS environment variable, when set to a positive integer,
/// overrides the detected value (read once, cached for the process).
int32_t DefaultThreadCount();

/// Fixed-size pool. Submit() and Wait() may be called from one controller
/// thread at a time; tasks must not call back into the pool (no Submit,
/// no Wait) — every batch is a flat set of independent tasks the
/// controller submits and then waits for.
class ThreadPool {
 public:
  explicit ThreadPool(int32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task) XMLSEL_EXCLUDES(mu_);

  /// Blocks until the queue is empty and no task is running. Establishes
  /// a happens-before edge with every completed task, so results written
  /// by tasks are visible to the caller afterwards.
  void Wait() XMLSEL_EXCLUDES(mu_);

  int32_t size() const { return static_cast<int32_t>(workers_.size()); }

 private:
  void WorkerLoop() XMLSEL_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar work_cv_;  // signalled when work arrives / stop
  CondVar idle_cv_;  // signalled when the pool drains
  std::deque<std::function<void()>> queue_ XMLSEL_GUARDED_BY(mu_);
  int32_t active_ XMLSEL_GUARDED_BY(mu_) = 0;  // tasks currently executing
  bool stop_ XMLSEL_GUARDED_BY(mu_) = false;
};

}  // namespace xmlsel

#endif  // XMLSEL_XMLSEL_THREAD_POOL_H_
