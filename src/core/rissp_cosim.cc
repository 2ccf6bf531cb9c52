/**
 * @file
 * Rissp::runAgainst: the interpreter cores stamped out with the
 * compare sink. They live in their own translation unit because gcc
 * budgets inlining per unit: instantiated next to the plain run()
 * cores in rissp.cc, these large cores made gcc stop inlining
 * Memory::storeWord into the plain cores' store handler.
 */

#include "core/rissp.hh"
#include "util/bits.hh"

namespace rissp
{

namespace
{

/** Retire sink of runAgainst(): the reference steps once per RISSP
 *  record, and the run ends at the first disagreement. */
struct CompareSink
{
    static constexpr bool kRecords = true;
    RefSim &ref;
    RvfiStreamChecker &monitor;
    bool agreed = true;

    bool retire(const RetireEvent &dut)
    {
        const RetireEvent golden = ref.step();
        monitor.push(dut);
        if (!eventsMatch(golden, dut) || !monitor.report().passed())
            agreed = false;
        return agreed;
    }
};

} // namespace

#define RISSP_CORE_CLASS Rissp
#define RISSP_CORE_NAME runCoreSwitch
#define RISSP_CORE_THREADED 0
#include "sim/exec_core.inc"
#undef RISSP_CORE_NAME
#undef RISSP_CORE_THREADED

#if RISSP_HAS_COMPUTED_GOTO
#define RISSP_CORE_NAME runCoreThreaded
#define RISSP_CORE_THREADED 1
#include "sim/exec_core.inc"
#undef RISSP_CORE_NAME
#undef RISSP_CORE_THREADED
#endif
#undef RISSP_CORE_CLASS

bool
Rissp::runAgainst(RefSim &ref, RvfiStreamChecker &monitor,
                  uint64_t maxSteps)
{
    CompareSink sink{ref, monitor};
    RunResult result;
#if RISSP_HAS_COMPUTED_GOTO
    if (resolveDispatchMode(DispatchMode::Auto) ==
        DispatchMode::Threaded)
        result = runCoreThreaded(maxSteps, sink);
    else
#endif
        result = runCoreSwitch(maxSteps, sink);
    return sink.agreed && result.reason == StopReason::Halted;
}

} // namespace rissp
