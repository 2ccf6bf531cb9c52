/**
 * @file
 * RVFI retirement-stream monitor and event comparison (§3.4.2).
 *
 * The riscv-formal flow checks a core through its RVFI stream: per
 * retirement the pc chains to the previous next pc, x0 stays zero,
 * a memory access has one direction and a legal width. This header
 * states those checks once, for every consumer: the lock-step
 * co-simulation loop (verify/integration_verify.hh) and the compare
 * sink the RISSP's fast core runs against the reference ISS
 * (Rissp::runAgainst) push the same events through the same
 * RvfiStreamChecker, and compare event pairs with the same
 * eventsMatch().
 */

#ifndef RISSP_SIM_RVFI_MONITOR_HH
#define RISSP_SIM_RVFI_MONITOR_HH

#include <string>
#include <vector>

#include "sim/trace.hh"

namespace rissp
{

/** RVFI monitor verdict. */
struct MonitorReport
{
    uint64_t eventsChecked = 0;
    std::vector<std::string> violations;

    bool passed() const { return violations.empty(); }
};

/**
 * Incremental RVFI monitor: push() one retirement event at a time and
 * the same per-event and chaining invariants as checkRvfiStream() are
 * applied as the stream flows, holding only the fields of the
 * previous event the chaining checks read — O(violations) memory
 * instead of O(instret). For any event sequence, pushing all events
 * then calling report() yields a MonitorReport identical to
 * checkRvfiStream() on the equivalent vector (covered by test_verify).
 */
class RvfiStreamChecker
{
  public:
    /** Check @p ev as the next retirement in the stream. */
    void push(const RetireEvent &ev)
    {
        // Chaining checks between the previous event and this one
        // are flagged on the previous event's index, matching the
        // batch checker's report text exactly.
        if (index != 0) {
            if (prevHalt || prevTrap)
                flag(index - 1, prevPc, "retirement after halt/trap");
            else if (ev.pc != prevNextPc)
                flag(index - 1, prevPc, "pc chain broken");
        }

        ++rpt.eventsChecked;
        if (ev.order != index)
            flag(index, ev.pc, "retirement order not monotone");
        if (ev.rd == 0 && ev.rdData != 0)
            flag(index, ev.pc, "x0 written with a non-zero value");
        if (ev.memRead && ev.memWrite)
            flag(index, ev.pc, "simultaneous load and store");
        if ((ev.memRead || ev.memWrite) && ev.memBytes != 1 &&
            ev.memBytes != 2 && ev.memBytes != 4)
            flag(index, ev.pc, "illegal memory access width");
        if (!ev.trap && !ev.halt && (ev.nextPc & 3))
            flag(index, ev.pc, "misaligned next pc");

        prevPc = ev.pc;
        prevNextPc = ev.nextPc;
        prevHalt = ev.halt;
        prevTrap = ev.trap;
        ++index;
    }

    /** Verdict over everything pushed so far. */
    const MonitorReport &report() const { return rpt; }

  private:
    /** Record a violation on event @p at (out of line: cold). */
    void flag(size_t at, uint32_t pc, const char *what);

    MonitorReport rpt;
    uint32_t prevPc = 0;
    uint32_t prevNextPc = 0;
    bool prevHalt = false;
    bool prevTrap = false;
    size_t index = 0;
};

/** Check an RVFI stream for per-event and chaining invariants. */
MonitorReport checkRvfiStream(const std::vector<RetireEvent> &events);

/** Co-simulation equality of two retirements: the architectural
 *  fields (pc, instruction, next pc, rd write, memory access, halt
 *  and trap). Source-register reads and the decoded op are not
 *  compared; memory fields only when an access happened. */
inline bool
eventsMatch(const RetireEvent &a, const RetireEvent &b)
{
    return a.pc == b.pc && a.raw == b.raw && a.nextPc == b.nextPc &&
        a.rd == b.rd && a.rdData == b.rdData &&
        a.memRead == b.memRead && a.memWrite == b.memWrite &&
        (!a.memRead && !a.memWrite
         ? true
         : a.memAddr == b.memAddr && a.memData == b.memData &&
             a.memBytes == b.memBytes) &&
        a.halt == b.halt && a.trap == b.trap;
}

} // namespace rissp

#endif // RISSP_SIM_RVFI_MONITOR_HH
