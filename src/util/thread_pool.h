// Minimal fixed-size thread pool used for shard-parallel query execution
// (subgraph-isomorphism tests dominate SRT; they are embarrassingly
// parallel across candidate graphs) and the parallel SPIG build.
//
// Waiting discipline: ThreadPool::Wait() blocks until the pool as a whole
// drains, which is only meaningful when one caller owns the pool. Any code
// that shares a pool — sharded runs from many sessions, ParallelFor —
// must scope its wait to its own tasks with a TaskGroup.

#ifndef PRAGUE_UTIL_THREAD_POOL_H_
#define PRAGUE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/status.h"

namespace prague {

/// \brief Fixed-size worker pool with a blocking task queue.
class ThreadPool {
 public:
  /// \brief Spawns \p threads workers (at least 1).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueues a task.
  void Submit(std::function<void()> task);

  /// \brief Blocks until every submitted task has finished — every task in
  /// the whole pool, including other callers'. Use a TaskGroup to wait on
  /// just your own tasks when the pool is shared.
  void Wait();

  /// \brief Number of workers.
  size_t size() const { return workers_.size(); }

  /// \brief Partitions [0, count) into roughly equal chunks and runs
  /// \p fn(begin, end) on the pool, blocking until done. Runs inline when
  /// the pool has one worker or the range is tiny. Built on a TaskGroup,
  /// so it waits only on its own chunks and is safe on a shared pool.
  void ParallelFor(size_t count, size_t min_chunk,
                   const std::function<void(size_t, size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// \brief A wait-scope over a shared ThreadPool: tracks only the tasks
/// submitted through it, so concurrent groups on one pool never observe
/// each other. An exception escaping a task is captured (first one wins)
/// and surfaced as Status::Internal from WaitAll() instead of
/// std::terminate-ing a worker thread.
///
/// With a null pool every task runs inline at Submit(), which keeps
/// single-threaded callers allocation- and synchronization-free in
/// structure: the same scatter code serves both paths.
class TaskGroup {
 public:
  /// \brief Binds the group to \p pool (null = run tasks inline).
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  /// \brief Blocks until the group drains (errors are dropped — call
  /// WaitAll() first if you care).
  ~TaskGroup() { WaitAll(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// \brief Enqueues \p task on the pool (or runs it inline when the pool
  /// is null). Must not be called concurrently with WaitAll().
  void Submit(std::function<void()> task);

  /// \brief Blocks until every task submitted so far has finished. Returns
  /// OK, or the first captured exception as Status::Internal.
  Status WaitAll();

 private:
  void RunTask(const std::function<void()>& task);

  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable done_;
  size_t pending_ = 0;       // guarded by mu_
  Status first_error_;       // guarded by mu_
};

}  // namespace prague

#endif  // PRAGUE_UTIL_THREAD_POOL_H_
