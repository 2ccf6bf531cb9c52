/**
 * @file
 * Scheduler implementation: one mutex-guarded task store with
 * per-worker deques (LIFO own pop, FIFO steal), lazy worker start,
 * dependency counting, failure/cancellation propagation, and a
 * deterministic inline path for single-threaded graph runs.
 *
 * Stages are heavyweight (a compile, a cosimulated workload run, a
 * 117-point synthesis sweep), so one coarse mutex around the graph
 * state is deliberately chosen over lock-free deques: transitions are
 * microseconds apart, and a single lock keeps every state machine —
 * completion, propagation, cancellation, group accounting — trivially
 * race-free under ThreadSanitizer. `bench_micro`'s `sched_overhead`
 * row keeps the dispatch cost honest.
 */

#include "exec/scheduler.hh"

#include <queue>

#include "util/logging.hh"

namespace rissp::exec
{

TaskId
TaskGraph::add(TaskFn fn, const std::vector<TaskId> &deps,
               std::string label)
{
    const TaskId id = static_cast<TaskId>(nodes.size());
    for (TaskId dep : deps) {
        if (dep >= id)
            panic("TaskGraph::add: node %u depends on %u, which is "
                  "not in the graph yet (graphs are acyclic by "
                  "construction)",
                  id, dep);
    }
    Node node;
    node.fn = std::move(fn);
    node.label = std::move(label);
    node.deps = deps;
    nodes.push_back(std::move(node));
    return id;
}

/** One dynamically tracked task (graph nodes get one each too). */
struct Scheduler::Handle::Task
{
    enum class State : uint8_t
    {
        Blocked, ///< has unfinished dependencies
        Ready,   ///< queued on some worker deque
        Running, ///< fn executing on a worker
        Done,    ///< completed cleanly
        Failed,  ///< threw, was cancelled, or a dependency failed
    };

    TaskFn fn;
    std::string label;
    State state = State::Blocked;
    uint32_t pendingDeps = 0;
    std::vector<std::shared_ptr<Task>> dependents;
    std::exception_ptr error; ///< set when state == Failed
    std::promise<void> promise;
    std::shared_future<void> future;
    Group *group = nullptr; ///< owning runToCompletion call, if any
    TaskId node = 0;        ///< id within the group's graph
    /** Worker whose thread enqueued the task, or kExternal. */
    unsigned enqueuedBy = 0;
};

struct Scheduler::Group
{
    size_t pending = 0;
    TaskId firstFailedNode = ~TaskId{0};
    std::exception_ptr firstFailure;
};

namespace
{
using State = Scheduler::Handle::Task::State;

/** Handle::Task::enqueuedBy of a task queued from off the pool. */
constexpr unsigned kExternal = ~0u;

/** The scheduler and worker index of the current thread, set once
 *  by Scheduler::workerLoop; null on threads outside any pool. */
thread_local const Scheduler *tlsScheduler = nullptr;
thread_local unsigned tlsWorker = 0;
} // namespace

void
Scheduler::Handle::wait() const
{
    if (!task)
        panic("Scheduler::Handle::wait on an empty handle");
    task->future.get();
}

Scheduler::Scheduler(unsigned threads)
    : numThreads(threads)
{
    if (numThreads == 0) {
        numThreads = std::thread::hardware_concurrency();
        if (numThreads == 0)
            numThreads = 1;
    }
}

Scheduler::~Scheduler()
{
    {
        LockGuard lock(mu);
        stopping = true;
    }
    workCv.notify_all();
    // Joining outside the lock on purpose: a worker must reacquire
    // `mu` to observe `stopping` and exit its loop. `workers` is
    // stable here — it is only ever grown under `mu`, and nothing
    // submits during destruction.
    for (std::thread &t : workers)
        t.join();
}

void
Scheduler::ensureWorkersLocked()
{
    if (!workers.empty())
        return;
    queues.resize(numThreads);
    workers.reserve(numThreads);
    for (unsigned w = 0; w < numThreads; ++w)
        workers.emplace_back(&Scheduler::workerLoop, this, w);
}

Scheduler::TaskPtr
Scheduler::popLocked(unsigned self)
{
    // Own deque first, newest task (LIFO keeps caches warm)...
    std::deque<TaskPtr> &own = queues[self];
    if (!own.empty()) {
        TaskPtr task = std::move(own.back());
        own.pop_back();
        return task;
    }
    // ...then steal the oldest task from a victim. Only a task
    // another worker enqueued counts as stolen: external pushes are
    // spread round-robin, so taking one says nothing about balance.
    for (unsigned off = 1; off < numThreads; ++off) {
        std::deque<TaskPtr> &victim =
            queues[(self + off) % numThreads];
        if (!victim.empty()) {
            TaskPtr task = std::move(victim.front());
            victim.pop_front();
            if (task->enqueuedBy != kExternal &&
                task->enqueuedBy != self)
                ++steals;
            return task;
        }
    }
    return nullptr;
}

void
Scheduler::enqueueReadyLocked(const TaskPtr &task, unsigned hint)
{
    task->state = State::Ready;
    task->enqueuedBy = currentWorker();
    queues[hint % queues.size()].push_back(task);
    workCv.notify_one();
}

unsigned
Scheduler::currentWorker() const
{
    return tlsScheduler == this ? tlsWorker : kExternal;
}

void
Scheduler::failDependentsLocked(const TaskPtr &task,
                                const std::exception_ptr &error)
{
    // Dependents of a failed (or cancelled) task never run; they
    // complete with the same exception, transitively. Dependents
    // that already settled through another path are left alone.
    for (const TaskPtr &dependent : task->dependents) {
        if (dependent->state == State::Blocked)
            completeLocked(dependent, error);
    }
}

void
Scheduler::completeLocked(const TaskPtr &task,
                          std::exception_ptr error)
{
    if (task->state == State::Done || task->state == State::Failed)
        return; // already settled (e.g. raced by a failing dep)
    task->fn = nullptr; // release captures promptly
    if (error) {
        task->state = State::Failed;
        task->error = error;
        task->promise.set_exception(error);
    } else {
        task->state = State::Done;
        task->promise.set_value();
    }
    if (Group *group = task->group) {
        if (error && task->node < group->firstFailedNode) {
            group->firstFailedNode = task->node;
            group->firstFailure = error;
        }
        --group->pending;
    }
    if (error) {
        failDependentsLocked(task, error);
    } else {
        for (const TaskPtr &dependent : task->dependents) {
            if (dependent->state == State::Blocked &&
                --dependent->pendingDeps == 0) {
                // Ready dependents go to the completing thread's
                // nominal queue slot; which worker executes them is
                // whoever pops or steals first.
                enqueueReadyLocked(dependent, nextQueue++);
            }
        }
    }
    task->dependents.clear();
    doneCv.notify_all();
    if (stopping)
        workCv.notify_all();
}

void
Scheduler::workerLoop(unsigned self)
{
    tlsScheduler = this;
    tlsWorker = self;
    UniqueLock lock(mu);
    for (;;) {
        TaskPtr task = popLocked(self);
        if (!task) {
            if (stopping)
                break;
            workCv.wait(lock);
            continue;
        }
        // A queued task may have been cancelled (settled) while it
        // sat in the deque; drop stale entries.
        if (task->state != State::Ready)
            continue;
        task->state = State::Running;
        ++running;
        lock.unlock();
        std::exception_ptr error;
        try {
            if (task->fn)
                task->fn(); // a null fn is a pure join node
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        --running;
        ++executed;
        completeLocked(task, error);
    }
}

Scheduler::Handle
Scheduler::submit(TaskFn fn, const std::vector<Handle> &deps,
                  std::string label)
{
    auto task = std::make_shared<Handle::Task>();
    task->fn = std::move(fn);
    task->label = std::move(label);
    task->future = task->promise.get_future().share();
    Handle handle;
    handle.task = task;

    LockGuard lock(mu);
    if (stopping)
        panic("Scheduler::submit during shutdown");
    ensureWorkersLocked();
    ++submittedTasks;

    std::exception_ptr depError;
    uint32_t pending = 0;
    for (const Handle &dep : deps) {
        if (!dep.task)
            continue;
        switch (dep.task->state) {
          case State::Done:
            break;
          case State::Failed:
            if (!depError)
                depError = dep.task->error;
            break;
          default:
            dep.task->dependents.push_back(task);
            ++pending;
        }
    }
    if (depError) {
        // A dependency already failed: the task never runs. (If it
        // was also registered with still-pending deps above, their
        // completion will see it settled and skip it.)
        completeLocked(task, depError);
        return handle;
    }
    task->pendingDeps = pending;
    if (pending == 0)
        enqueueReadyLocked(task, nextQueue++);
    return handle;
}

bool
Scheduler::cancel(const Handle &handle)
{
    if (!handle.task)
        return false;
    LockGuard lock(mu);
    const State state = handle.task->state;
    if (state != State::Blocked && state != State::Ready)
        return false;
    completeLocked(handle.task, std::make_exception_ptr(
                                    TaskCancelled(handle.task->label)));
    return true;
}

void
Scheduler::runSerial(TaskGraph &graph)
{
    // Deterministic inline execution: always run the lowest-id
    // ready node next. Because subgraphs are added in work order
    // (e.g. one exploration point's prepare/sim/synth/row before
    // the next point's), this finishes each subgraph before
    // starting the next — exactly the old fully-serial per-point
    // schedule the byte-identical `--threads 1` outputs (and the
    // per-row memo-hit flags) are pinned against, and it keeps at
    // most one subgraph's intermediate state alive at a time.
    const size_t count = graph.nodes.size();
    std::vector<uint32_t> pending(count, 0);
    std::vector<std::vector<TaskId>> dependents(count);
    for (TaskId id = 0; id < count; ++id) {
        for (TaskId dep : graph.nodes[id].deps) {
            dependents[dep].push_back(id);
            ++pending[id];
        }
    }
    std::priority_queue<TaskId, std::vector<TaskId>,
                        std::greater<TaskId>>
        ready;
    for (TaskId id = 0; id < count; ++id)
        if (pending[id] == 0)
            ready.push(id);

    std::vector<uint8_t> skipped(count, 0);
    TaskId firstFailedNode = ~TaskId{0};
    std::exception_ptr firstFailure;
    uint64_t ran = 0;
    while (!ready.empty()) {
        const TaskId id = ready.top();
        ready.pop();
        bool failed = false;
        try {
            if (graph.nodes[id].fn)
                graph.nodes[id].fn(); // null fn = pure join node
            ++ran;
        } catch (...) {
            ++ran;
            failed = true;
            if (id < firstFailedNode) {
                firstFailedNode = id;
                firstFailure = std::current_exception();
            }
        }
        if (failed) {
            // Skip every transitive dependent; independent stages
            // still run, like the concurrent path.
            std::deque<TaskId> frontier(dependents[id].begin(),
                                        dependents[id].end());
            while (!frontier.empty()) {
                const TaskId d = frontier.front();
                frontier.pop_front();
                if (skipped[d])
                    continue;
                skipped[d] = 1;
                frontier.insert(frontier.end(),
                                dependents[d].begin(),
                                dependents[d].end());
            }
            continue;
        }
        for (TaskId d : dependents[id])
            if (!skipped[d] && --pending[d] == 0)
                ready.push(d);
    }
    {
        LockGuard lock(mu);
        executed += ran;
    }
    if (firstFailure)
        std::rethrow_exception(firstFailure);
}

void
Scheduler::runToCompletion(TaskGraph graph)
{
    if (graph.empty())
        return;
    if (numThreads == 1) {
        runSerial(graph);
        return;
    }

    Group group;
    group.pending = graph.nodes.size();
    std::vector<TaskPtr> tasks(graph.nodes.size());
    {
        UniqueLock lock(mu);
        if (stopping)
            panic("Scheduler::runToCompletion during shutdown");
        ensureWorkersLocked();
        for (TaskId id = 0; id < tasks.size(); ++id) {
            auto task = std::make_shared<Handle::Task>();
            task->fn = std::move(graph.nodes[id].fn);
            task->label = std::move(graph.nodes[id].label);
            task->future = task->promise.get_future().share();
            task->group = &group;
            task->node = id;
            tasks[id] = task;
        }
        for (TaskId id = 0; id < tasks.size(); ++id) {
            for (TaskId dep : graph.nodes[id].deps) {
                tasks[dep]->dependents.push_back(tasks[id]);
                ++tasks[id]->pendingDeps;
            }
        }
        // Seed the initially ready nodes in id order so low-id
        // stages start first (plan order under light contention).
        for (TaskId id = 0; id < tasks.size(); ++id)
            if (tasks[id]->pendingDeps == 0)
                enqueueReadyLocked(tasks[id], nextQueue++);
        // Explicit predicate loop so the analysis sees the guarded
        // read in the locked scope (a lambda body is checked as a
        // separate, lock-free function). `group` lives on this
        // stack frame but is mutated by completeLocked under `mu`.
        while (group.pending != 0)
            doneCv.wait(lock);
    }
    if (group.firstFailure)
        std::rethrow_exception(group.firstFailure);
}

uint64_t
Scheduler::stealCount() const
{
    LockGuard lock(mu);
    return steals;
}

uint64_t
Scheduler::tasksRun() const
{
    LockGuard lock(mu);
    return executed;
}

uint64_t
Scheduler::submitted() const
{
    LockGuard lock(mu);
    return submittedTasks;
}

size_t
Scheduler::queueDepth() const
{
    LockGuard lock(mu);
    size_t depth = 0;
    for (const std::deque<TaskPtr> &queue : queues)
        for (const TaskPtr &task : queue)
            if (task->state == State::Ready)
                ++depth; // stale (cancelled) entries don't count
    return depth;
}

size_t
Scheduler::inFlight() const
{
    LockGuard lock(mu);
    return running;
}

} // namespace rissp::exec
