/**
 * @file
 * Work-stealing stage scheduler — the one execution engine under both
 * the design-space `Explorer` and the `FlowService` request verbs.
 *
 * Before this layer existed the repo had two execution models:
 * `Explorer` ran whole plan cells on a batch-only work-stealing pool,
 * and `FlowService` executed every request synchronously on the
 * caller's thread. The `Scheduler` unifies them: the unit of work is
 * a pipeline *stage* (compile, sim, cosim, synth, pnr), stages carry
 * dependency edges, and one instance serves both a blocking
 * whole-graph sweep (`runToCompletion`) and dynamic request traffic
 * (`submit`). Identical in-flight stages are deduplicated one layer
 * up, by the promise-backed entries of `flow::StageCaches`: the first
 * stage to ask for a key computes it on its own worker, racers block
 * on the shared future — so the scheduler never queues the same
 * computation twice, it just runs whatever stage got there first.
 *
 * Execution rules:
 *  - Workers pop their own deque LIFO (cache-warm) and steal FIFO
 *    from victims, like the exploration pool this class absorbed.
 *  - `runToCompletion` deals a graph's initially ready nodes out
 *    round-robin so that each worker pops its share in id order: the
 *    n lowest ids start first, one per worker.
 *  - A scheduler constructed with 1 thread runs `runToCompletion`
 *    inline on the caller, always executing the lowest-id ready node
 *    next — the deterministic depth-first schedule the
 *    byte-identical `--threads 1` outputs are pinned against.
 *  - A stage that throws completes exceptionally; its dependents
 *    never run and complete with the *same* exception, transitively.
 *    `runToCompletion` rethrows the failure of the lowest-id failed
 *    node after the whole graph has settled (independent stages
 *    still run). `Handle::wait` rethrows for dynamic tasks.
 *  - `cancel` stops a not-yet-started task; its waiters and
 *    dependents observe `TaskCancelled`. Running tasks finish.
 *
 * Thread-safety: every method is safe to call from any thread,
 * including from inside a running task. A task that calls
 * `runToCompletion` on its own scheduler helps: its worker runs ready
 * tasks, its graph's or anyone's, until the graph settles. Helping is
 * deadlock-free because no `flow::StageCaches` compute ever calls
 * `runToCompletion`: a task may block only on a StageCaches future,
 * whose compute then sits at the top of some thread's stack and
 * finishes. The locking discipline is compiler-checked on
 * Clang: all mutable state is `RISSP_GUARDED_BY(mu)` and every
 * `*Locked` helper statically `RISSP_REQUIRES(mu)` (see
 * util/thread_annotations.hh and docs/STATIC_ANALYSIS.md).
 */

#ifndef RISSP_EXEC_SCHEDULER_HH
#define RISSP_EXEC_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/task_graph.hh"
#include "util/mutex.hh"

namespace rissp::exec
{

/** Delivered to waiters and dependents of a cancelled task. */
class TaskCancelled : public std::runtime_error
{
  public:
    explicit TaskCancelled(const std::string &label)
        : std::runtime_error(label.empty()
                                 ? "task cancelled"
                                 : "task cancelled: " + label)
    {
    }
};

/** The work-stealing stage scheduler. */
class Scheduler
{
  public:
    /** @p threads 0 picks std::thread::hardware_concurrency().
     *  Worker threads start lazily on first use. */
    explicit Scheduler(unsigned threads = 0);

    /** Blocks until every submitted task has settled, then joins. */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** A reference to one dynamically submitted task. */
    class Handle
    {
      public:
        struct Task; ///< opaque; defined by the scheduler

        Handle() = default;

        /** Block until the task settles; rethrows the task's
         *  exception (or `TaskCancelled`, or a failed dependency's
         *  exception) if it did not complete cleanly. */
        void wait() const;

        bool valid() const { return task != nullptr; }

      private:
        friend class Scheduler;
        std::shared_ptr<Task> task;
    };

    /**
     * Submit one task to run after every task in @p deps has
     * completed cleanly. Returns immediately. If a dependency has
     * already failed (or gets cancelled), the task never runs and
     * completes with that dependency's exception.
     */
    Handle submit(TaskFn fn, const std::vector<Handle> &deps = {},
                  std::string label = {});

    /**
     * Cancel a submitted task that has not started. Returns true if
     * the task was cancelled (waiters and dependents observe
     * `TaskCancelled`); false if it already started, settled, or the
     * handle is empty. Never interrupts a running task.
     */
    bool cancel(const Handle &handle);

    /**
     * Execute every node of @p graph, respecting its edges; blocks
     * until the graph has settled. With 1 thread, runs inline on the
     * caller (lowest ready id first); otherwise the worker pool
     * executes ready nodes concurrently, stealing as needed. Called
     * from one of this scheduler's own workers, that worker runs
     * ready tasks until the graph settles rather than waiting.
     * Reentrant: concurrent graphs (and dynamic tasks) share the
     * workers. If any node threw, rethrows the exception of the
     * lowest-id failed node after the graph settles.
     */
    void runToCompletion(TaskGraph graph);

    unsigned threadCount() const { return numThreads; }

    /** Steals over the scheduler's lifetime: tasks a worker took
     *  from another worker's deque that a different worker had
     *  enqueued (a submit from inside a task, or a dependent readied
     *  by a completion). Tasks queued from outside the pool land on
     *  a round-robin deque and wake an arbitrary worker, so taking
     *  one is not a steal. */
    uint64_t stealCount() const;

    /** Task bodies actually executed (cancelled and dependency-
     *  failed tasks are not counted). */
    uint64_t tasksRun() const;

    /** Tasks accepted over the scheduler's lifetime (whether or not
     *  they ran): submit() calls plus every node of every graph
     *  handed to runToCompletion(). With tasksRun(), the lag a
     *  /metrics endpoint reports. */
    uint64_t submitted() const;

    /** Ready tasks sitting in worker deques right now — the queue
     *  depth a /metrics endpoint reports. Snapshot only: the value
     *  is stale the moment the lock drops. */
    size_t queueDepth() const;

    /** Task bodies executing right now (snapshot). A worker that
     *  helps inside runToCompletion() counts its waiting task and
     *  the one it helps with, so this can exceed threadCount(). */
    size_t inFlight() const;

  private:
    using TaskPtr = std::shared_ptr<Handle::Task>;

    /** Completion accounting for one runToCompletion call. */
    struct Group;

    void ensureWorkersLocked() RISSP_REQUIRES(mu);
    /** Run ready tasks on worker @p self until @p until settles,
     *  or, with no group, until the scheduler stops (a worker
     *  thread's whole life). */
    void workerLoop(unsigned self, const Group *until);
    TaskPtr popLocked(unsigned self) RISSP_REQUIRES(mu);
    void enqueueReadyLocked(const TaskPtr &task, unsigned hint)
        RISSP_REQUIRES(mu);
    /** This thread's worker index, or kExternal off the pool. */
    unsigned currentWorker() const;
    void completeLocked(const TaskPtr &task,
                        std::exception_ptr error) RISSP_REQUIRES(mu);
    void failDependentsLocked(const TaskPtr &task,
                              const std::exception_ptr &error)
        RISSP_REQUIRES(mu);
    void runSerial(TaskGraph &graph) RISSP_EXCLUDES(mu);

    unsigned numThreads; ///< immutable after construction

    mutable Mutex mu;
    CondVar workCv;  ///< workers: work, stop, or a group settled
    CondVar doneCv;  ///< runToCompletion: a group settled
    /** One deque per worker. Task structs popped from a deque are
     *  also guarded by `mu` (state transitions, dependents, group
     *  accounting all happen under it); only `fn` runs unlocked. */
    std::vector<std::deque<TaskPtr>> queues RISSP_GUARDED_BY(mu);
    /** Created once by ensureWorkersLocked() under `mu`; joined by
     *  the destructor after `stopping` is set (no lock: workers need
     *  `mu` to observe the stop and exit). */
    std::vector<std::thread> workers RISSP_GUARDED_BY(mu);
    bool stopping RISSP_GUARDED_BY(mu) = false;
    /** Round-robin slot for external pushes. */
    unsigned nextQueue RISSP_GUARDED_BY(mu) = 0;
    uint64_t steals RISSP_GUARDED_BY(mu) = 0;
    uint64_t executed RISSP_GUARDED_BY(mu) = 0;
    /** Tasks accepted by submit() and runToCompletion(). */
    uint64_t submittedTasks RISSP_GUARDED_BY(mu) = 0;
    /** Task bodies currently executing. */
    size_t running RISSP_GUARDED_BY(mu) = 0;
};

} // namespace rissp::exec

#endif // RISSP_EXEC_SCHEDULER_HH
