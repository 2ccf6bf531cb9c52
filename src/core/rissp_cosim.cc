/**
 * @file
 * Rissp::runAgainst: the interpreter core stamped out with the
 * compare sink. It lives in its own translation unit because gcc
 * budgets inlining per unit: instantiated next to the plain run()
 * cores in rissp.cc, this large core made gcc stop inlining
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
#include "sim/exec_core.inc"
#undef RISSP_CORE_CLASS

bool
Rissp::runAgainst(RefSim &ref, RvfiStreamChecker &monitor,
                  uint64_t maxSteps)
{
    CompareSink sink{ref, monitor};
    const RunResult result = runCore(maxSteps, sink);
    return sink.agreed && result.reason == StopReason::Halted;
}

} // namespace rissp
