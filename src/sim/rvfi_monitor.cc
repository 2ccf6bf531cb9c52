#include "sim/rvfi_monitor.hh"

#include "util/logging.hh"

namespace rissp
{

void
RvfiStreamChecker::flag(size_t at, uint32_t pc, const char *what)
{
    rpt.violations.push_back(
        strFormat("event %zu (pc=0x%08x): %s", at, pc, what));
}

MonitorReport
checkRvfiStream(const std::vector<RetireEvent> &events)
{
    RvfiStreamChecker checker;
    for (const RetireEvent &ev : events)
        checker.push(ev);
    return checker.report();
}

} // namespace rissp
