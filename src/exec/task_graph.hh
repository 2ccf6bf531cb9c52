/**
 * @file
 * Dependency-aware task graphs for the unified execution layer.
 *
 * A `TaskGraph` describes one batch of pipeline work at *stage*
 * granularity: each node is a single stage (compile, sim, cosim,
 * synth, pnr, ...) rather than a whole plan cell or request, and
 * edges say which stages must complete first. The
 * graph is pure description — building one runs nothing; handing it
 * to `exec::Scheduler::runToCompletion` does.
 *
 * Graphs are acyclic *by construction*: a node may only depend on
 * nodes that already exist, so dependency ids are always smaller than
 * the dependent's id and no cycle can be expressed. That property is
 * also what makes the single-threaded execution order well-defined
 * (ready nodes run in id order), which the Explorer's byte-identical
 * `--threads 1` guarantee leans on.
 *
 * Thread-safety: a TaskGraph is deliberately lock-free and
 * *single-builder* — it is plain description, built on one thread and
 * then moved into `Scheduler::runToCompletion`, which takes it by
 * value. After the move the scheduler guards every derived task under
 * its own annotated mutex (exec/scheduler.hh); nothing here needs a
 * capability because nothing here is ever shared.
 */

#ifndef RISSP_EXEC_TASK_GRAPH_HH
#define RISSP_EXEC_TASK_GRAPH_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rissp::exec
{

/** One unit of work. Stages communicate through captured state, not
 *  return values; the scheduler only observes completion or a thrown
 *  exception. */
using TaskFn = std::function<void()>;

/** Node id within one TaskGraph; creation-ordered. */
using TaskId = uint32_t;

/** A batch of stages and their dependency edges. */
class TaskGraph
{
  public:
    /**
     * Append a node running @p fn after every node in @p deps.
     * Dependencies must already be in the graph (their ids are
     * smaller), which keeps the graph acyclic by construction;
     * a dep id >= the new node's id panics. @p label is carried
     * verbatim for diagnostics.
     */
    TaskId add(TaskFn fn, const std::vector<TaskId> &deps = {},
               std::string label = {});

    size_t size() const { return nodes.size(); }
    bool empty() const { return nodes.empty(); }

    const std::string &label(TaskId id) const
    {
        return nodes.at(id).label;
    }

  private:
    friend class Scheduler;

    struct Node
    {
        TaskFn fn;
        std::string label;
        std::vector<TaskId> deps;
    };

    std::vector<Node> nodes;
};

} // namespace rissp::exec

#endif // RISSP_EXEC_TASK_GRAPH_HH
