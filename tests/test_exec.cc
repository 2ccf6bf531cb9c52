/**
 * @file
 * Tests for the unified execution layer: task-graph construction,
 * dependency ordering, deterministic single-threaded schedules,
 * failure and cancellation propagation, exactly-once stage dedup
 * under heavy contention (including the fault-injected cosim batch
 * that pins the no-poisoning contract), and the byte-identical
 * explore output across thread counts that the whole refactor is
 * pinned against.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "compiler/driver.hh"
#include "exec/scheduler.hh"
#include "explore/explorer.hh"
#include "explore/memo.hh"
#include "flow/caches.hh"
#include "verify/integration_verify.hh"

namespace rissp::exec
{
namespace
{

// ----------------------------------------------------------- graphs

TEST(TaskGraph, IdsAreCreationOrdered)
{
    TaskGraph graph;
    EXPECT_TRUE(graph.empty());
    const TaskId a = graph.add([] {}, {}, "a");
    const TaskId b = graph.add([] {}, {a}, "b");
    const TaskId c = graph.add([] {}, {a, b});
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(c, 2u);
    EXPECT_EQ(graph.size(), 3u);
    EXPECT_EQ(graph.label(1), "b");
}

TEST(Scheduler, RunsEveryNodeOnceAcrossThreadCounts)
{
    for (unsigned threads : {1u, 4u, 16u}) {
        std::vector<std::atomic<int>> counts(100);
        TaskGraph graph;
        for (size_t i = 0; i < counts.size(); ++i)
            graph.add([&counts, i] { ++counts[i]; });
        Scheduler scheduler(threads);
        scheduler.runToCompletion(std::move(graph));
        for (const std::atomic<int> &count : counts)
            EXPECT_EQ(count.load(), 1) << threads << " threads";
        EXPECT_EQ(scheduler.tasksRun(), counts.size());
    }
}

TEST(Scheduler, DependenciesCompleteBeforeDependentsStart)
{
    // A layered DAG under a contended pool: every edge must be
    // ordered finish(dep) < start(dependent) no matter which worker
    // runs (or steals) which stage.
    constexpr size_t kLayers = 8;
    constexpr size_t kWidth = 12;
    constexpr size_t kNodes = kLayers * kWidth;
    std::atomic<int> clock{0};
    std::vector<std::atomic<int>> started(kNodes);
    std::vector<std::atomic<int>> finished(kNodes);

    TaskGraph graph;
    std::vector<std::vector<TaskId>> layers(kLayers);
    for (size_t layer = 0; layer < kLayers; ++layer) {
        for (size_t w = 0; w < kWidth; ++w) {
            std::vector<TaskId> deps;
            if (layer > 0) {
                // Depend on two nodes of the previous layer.
                deps.push_back(layers[layer - 1][w]);
                deps.push_back(
                    layers[layer - 1][(w + 1) % kWidth]);
            }
            const size_t index = layer * kWidth + w;
            layers[layer].push_back(graph.add(
                [&clock, &started, &finished, index] {
                    started[index] = ++clock;
                    finished[index] = ++clock;
                },
                deps));
        }
    }
    Scheduler scheduler(8);
    scheduler.runToCompletion(std::move(graph));

    for (size_t layer = 1; layer < kLayers; ++layer) {
        for (size_t w = 0; w < kWidth; ++w) {
            const size_t node = layer * kWidth + w;
            const size_t depA = (layer - 1) * kWidth + w;
            const size_t depB =
                (layer - 1) * kWidth + (w + 1) % kWidth;
            EXPECT_LT(finished[depA].load(), started[node].load());
            EXPECT_LT(finished[depB].load(), started[node].load());
        }
    }
}

TEST(Scheduler, SerialScheduleRunsLowestReadyIdFirst)
{
    // One thread runs inline, always picking the lowest-id ready
    // node: a dependent whose deps are met runs before later
    // independent roots, so each work-order subgraph finishes
    // before the next starts (this is what bounds a serial sweep's
    // in-flight state to one point) and the schedule is exactly
    // reproducible — the property the per-row memo-hit flags of a
    // --threads 1 explore depend on.
    std::vector<int> order;
    TaskGraph graph;
    for (int i = 0; i < 3; ++i) {
        const TaskId head =
            graph.add([&order, i] { order.push_back(i); });
        graph.add([&order, i] { order.push_back(10 + i); },
                  {head});
    }
    Scheduler scheduler(1);
    scheduler.runToCompletion(std::move(graph));
    EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 11, 2, 12}));
}

TEST(Scheduler, WorkersStartWithTheLowestReadyIds)
{
    // Every node waits until four nodes have started, so no worker
    // pops a second node before each has popped its first, and the
    // first four to start are fixed by how the graph was seeded. They
    // must be the four lowest ids, one per worker: an explore plan
    // puts its longest points first so that they start first.
    constexpr unsigned kThreads = 4;
    std::mutex mu;
    std::condition_variable cv;
    std::vector<TaskId> started;
    TaskGraph graph;
    for (TaskId id = 0; id < 4 * kThreads; ++id)
        graph.add([&, id] {
            std::unique_lock<std::mutex> lock(mu);
            started.push_back(id);
            cv.notify_all();
            cv.wait(lock, [&] { return started.size() >= kThreads; });
        });
    Scheduler(kThreads).runToCompletion(std::move(graph));
    ASSERT_EQ(started.size(), 4 * kThreads);
    std::vector<TaskId> first(started.begin(),
                              started.begin() + kThreads);
    std::sort(first.begin(), first.end());
    EXPECT_EQ(first, (std::vector<TaskId>{0, 1, 2, 3}));
}

// ----------------------------------------------- failure semantics

TEST(Scheduler, FailedNodeSkipsDependentsAndRethrows)
{
    for (unsigned threads : {1u, 4u}) {
        std::atomic<bool> independentRan{false};
        std::atomic<bool> dependentRan{false};
        std::atomic<bool> grandchildRan{false};
        TaskGraph graph;
        const TaskId bad = graph.add(
            [] { throw std::runtime_error("stage failed"); }, {},
            "bad");
        const TaskId child = graph.add(
            [&dependentRan] { dependentRan = true; }, {bad});
        graph.add([&grandchildRan] { grandchildRan = true; },
                  {child});
        graph.add([&independentRan] { independentRan = true; });
        Scheduler scheduler(threads);
        EXPECT_THROW(scheduler.runToCompletion(std::move(graph)),
                     std::runtime_error)
            << threads;
        // Independent work still ran; the failed node's transitive
        // dependents never did.
        EXPECT_TRUE(independentRan.load()) << threads;
        EXPECT_FALSE(dependentRan.load()) << threads;
        EXPECT_FALSE(grandchildRan.load()) << threads;
    }
}

TEST(Scheduler, SubmitWaitRethrowsAndPropagatesToDependents)
{
    Scheduler scheduler(2);
    Scheduler::Handle ok =
        scheduler.submit([] {}, {}, "ok");
    ok.wait(); // completes cleanly

    Scheduler::Handle bad = scheduler.submit(
        [] { throw std::runtime_error("boom"); }, {}, "bad");
    EXPECT_THROW(bad.wait(), std::runtime_error);

    // A dependent of the failed task — whether submitted before or
    // after the failure settled — completes with the same exception
    // without running.
    std::atomic<bool> ran{false};
    Scheduler::Handle dependent = scheduler.submit(
        [&ran] { ran = true; }, {bad}, "dependent");
    EXPECT_THROW(dependent.wait(), std::runtime_error);
    EXPECT_FALSE(ran.load());
    // Only the two executed bodies count as run.
    EXPECT_EQ(scheduler.tasksRun(), 2u);
}

TEST(Scheduler, CancelPreventsExecutionAndPropagates)
{
    Scheduler scheduler(1);
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;

    // Occupy the single worker so the next submissions stay queued.
    Scheduler::Handle blocker = scheduler.submit([&] {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
    });
    std::atomic<bool> ran{false};
    Scheduler::Handle victim =
        scheduler.submit([&ran] { ran = true; }, {}, "victim");
    Scheduler::Handle dependent =
        scheduler.submit([&ran] { ran = true; }, {victim});

    EXPECT_TRUE(scheduler.cancel(victim));
    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    blocker.wait();

    EXPECT_THROW(victim.wait(), TaskCancelled);
    EXPECT_THROW(dependent.wait(), TaskCancelled);
    EXPECT_FALSE(ran.load());
    // A settled task cannot be cancelled again.
    EXPECT_FALSE(scheduler.cancel(victim));
    EXPECT_FALSE(scheduler.cancel(blocker));
    EXPECT_EQ(scheduler.tasksRun(), 1u); // just the blocker
}

TEST(Scheduler, ExternalSubmitsAreNotSteals)
{
    // One request at a time from outside the pool: each task lands
    // on a round-robin deque and wakes whichever worker, which is
    // not load imbalance.
    Scheduler scheduler(4);
    for (int i = 0; i < 100; ++i)
        scheduler.submit([] {}).wait();
    EXPECT_EQ(scheduler.tasksRun(), 100u);
    EXPECT_EQ(scheduler.stealCount(), 0u);
}

TEST(Scheduler, WorkerSubmittedTasksAreStolen)
{
    // A task fans out onto both deques and then blocks its worker
    // until the children finish, so the other worker has to steal
    // the children queued on the blocked worker's deque.
    Scheduler scheduler(2);
    std::atomic<int> ran{0};
    scheduler
        .submit([&] {
            std::vector<Scheduler::Handle> children;
            for (int i = 0; i < 8; ++i)
                children.push_back(scheduler.submit([&ran] { ++ran; }));
            for (const Scheduler::Handle &child : children)
                child.wait();
        })
        .wait();
    EXPECT_EQ(ran.load(), 8);
    EXPECT_GT(scheduler.stealCount(), 0u);
}

TEST(Scheduler, GraphsStartedOnEveryWorkerComplete)
{
    // Every worker runs a task that waits on a graph of its own, so
    // no worker is left idle: each must help run the graphs' nodes
    // instead of parking. A scheduler that parks them never finishes;
    // then the test fails at the deadline and leaks the scheduler and
    // the state its stuck workers hold rather than hanging in
    // ~Scheduler.
    struct Shared
    {
        std::atomic<unsigned> started{0};
        std::atomic<unsigned> nodesRun{0};
    };
    constexpr unsigned kNodes = 8;
    auto scheduler = std::make_unique<Scheduler>(4);
    auto shared = std::make_shared<Shared>();
    const unsigned workers = scheduler->threadCount();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    std::vector<std::future<void>> done;
    std::vector<Scheduler::Handle> tasks;
    for (unsigned t = 0; t < workers; ++t) {
        auto promise = std::make_shared<std::promise<void>>();
        done.push_back(promise->get_future());
        Scheduler *pool = scheduler.get();
        tasks.push_back(scheduler->submit([pool, shared, promise,
                                           workers, deadline] {
            // Hold every worker before any graph starts.
            ++shared->started;
            while (shared->started < workers &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            TaskGraph graph;
            const TaskId root =
                graph.add([shared] { ++shared->nodesRun; });
            for (unsigned n = 1; n < kNodes; ++n)
                graph.add([shared] { ++shared->nodesRun; }, {root});
            pool->runToCompletion(std::move(graph));
            promise->set_value();
        }));
    }
    for (std::future<void> &future : done) {
        if (future.wait_until(deadline) != std::future_status::ready) {
            ADD_FAILURE() << "a worker waiting on its graph never "
                             "returned";
            scheduler.release(); // its workers are stuck for good
            return;
        }
        future.get();
    }
    for (const Scheduler::Handle &task : tasks)
        task.wait(); // counted once its body has returned
    EXPECT_EQ(shared->nodesRun.load(), workers * kNodes);
    // Graph nodes count as accepted tasks, so nothing ran that was
    // not submitted.
    EXPECT_EQ(scheduler->submitted(), workers * (kNodes + 1));
    EXPECT_EQ(scheduler->tasksRun(), scheduler->submitted());
}

// ------------------------------------------------ stage dedup

TEST(SchedulerDedup, ExactlyOnceUnder32WayContention)
{
    // 32 workers race the stages onto 8 distinct cache keys; the
    // promise-backed entries must compute each key exactly once and
    // give every racer the same value. TSan runs at a fraction of
    // the load — same contention shape, ~10x slower interleavings.
#ifdef RISSP_TSAN
    constexpr int kStages = 128;
#else
    constexpr int kStages = 256;
#endif
    explore::MemoCache<uint64_t, int> cache;
    std::atomic<int> computations{0};
    TaskGraph graph;
    for (int i = 0; i < kStages; ++i) {
        graph.add([&cache, &computations, i] {
            const uint64_t key = i % 8;
            const int value = cache.getOrCompute(key, [&] {
                ++computations;
                return static_cast<int>(key * 100);
            });
            EXPECT_EQ(value, static_cast<int>(key * 100));
        });
    }
    Scheduler scheduler(32);
    scheduler.runToCompletion(std::move(graph));
    EXPECT_EQ(computations.load(), 8);
    EXPECT_EQ(cache.misses(), 8u);
    EXPECT_EQ(cache.hits(), uint64_t(kStages - 8));
    EXPECT_EQ(cache.size(), 8u);
}

TEST(SchedulerDedup, CosimFaultReachesEveryWaiterWithoutPoisoning)
{
    // The satellite contract: when a deduplicated stage throws, the
    // exception must reach every waiter of that in-flight entry and
    // the key must not be poisoned — a retry recomputes. Exercised
    // end-to-end with a real co-simulation whose injected netlist
    // fault makes the stage throw.
    const char *source =
        "int main(void) { int s = 0;"
        "  for (int i = 1; i <= 10; i++) s += i;"
        "  return s; }";
    const minic::CompileResult compiled =
        minic::compile(source, minic::OptLevel::O2);
    const InstrSubset subset =
        InstrSubset::fromProgram(compiled.program);
    const explore::FingerprintPair key{
        explore::subsetFingerprint(subset), 1};

    flow::StageCaches caches;
    const Mutation fault{Mutation::Kind::CarryChainBreak, 1};
    auto cosimStage = [&](const Mutation *inject) {
        CosimOptions options;
        options.fault = inject;
        options.contextEvents = 0;
        const CosimReport report =
            cosimulate(compiled.program, subset, options);
        if (!report.passed)
            throw std::runtime_error("cosim diverged: " +
                                     report.firstDivergence);
        flow::SimOutcome outcome;
        outcome.cosimPassed = true;
        outcome.cycles = report.instret;
        return outcome;
    };

    // Round 1: every stage of the batch dedups onto one faulty
    // computation; each either owns the throwing compute or waits
    // on it — all 16 must observe the exception, none may hang.
    std::atomic<int> failures{0};
    TaskGraph batch;
    for (int i = 0; i < 16; ++i) {
        batch.add([&] {
            try {
                caches.sim.getOrCompute(
                    key, [&] { return cosimStage(&fault); });
            } catch (const std::runtime_error &) {
                ++failures;
            }
        });
    }
    Scheduler scheduler(8);
    scheduler.runToCompletion(std::move(batch));
    EXPECT_EQ(failures.load(), 16);
    EXPECT_EQ(caches.sim.size(), 0u); // entry erased, not poisoned

    // Round 2: the same key recomputes cleanly without the fault.
    const flow::SimOutcome outcome = caches.sim.getOrCompute(
        key, [&] { return cosimStage(nullptr); });
    EXPECT_TRUE(outcome.cosimPassed);
    EXPECT_GT(outcome.cycles, 0u);
    EXPECT_EQ(caches.sim.size(), 1u);
}

// --------------------------------------------------- determinism

TEST(ExploreDeterminism, ThreadCounts1_4_16EmitIdenticalTables)
{
    explore::ExplorationPlan plan;
    plan.subsets = {
        explore::SubsetSpec::fromWorkload("crc32", "fit-crc32"),
        explore::SubsetSpec::fromWorkload("armpit", "fit-armpit"),
        explore::SubsetSpec::full()};
    plan.workloads = {"crc32", "armpit", "aha-mont64"};

    std::string serialCsv;
    std::string serialJson;
    for (unsigned threads : {1u, 4u, 16u}) {
        explore::ExplorerOptions options;
        options.threads = threads;
        explore::Explorer engine(options);
        const explore::ResultTable table = engine.explore(plan);
        ASSERT_EQ(table.size(), 9u);
        if (threads == 1) {
            serialCsv = table.csv();
            serialJson = table.json();
        } else {
            EXPECT_EQ(table.csv(), serialCsv) << threads;
            EXPECT_EQ(table.json(), serialJson) << threads;
        }
    }
}

} // namespace
} // namespace rissp::exec
