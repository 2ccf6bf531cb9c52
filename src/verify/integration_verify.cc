#include "verify/integration_verify.hh"

#include <atomic>

#include "assembler/assembler.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace rissp
{

namespace
{

std::string
describeEvent(const RetireEvent &ev)
{
    return strFormat(
        "pc=0x%08x %s rd=x%u rdData=0x%08x mem%s addr=0x%08x "
        "data=0x%08x", ev.pc,
        disassemble(ev.raw).c_str(), ev.rd, ev.rdData,
        ev.memRead ? "R" : ev.memWrite ? "W" : "-", ev.memAddr,
        ev.memData);
}

/** Fixed-capacity ring of the most recent retirements. */
class EventRing
{
  public:
    explicit EventRing(unsigned capacity) : ring(capacity) {}

    void push(const RetireEvent &ev)
    {
        if (ring.empty())
            return;
        ring[count++ % ring.size()] = ev;
    }

    /** Contents, oldest first. */
    std::vector<RetireEvent> unrolled() const
    {
        const size_t n = count < ring.size() ? count : ring.size();
        std::vector<RetireEvent> out;
        out.reserve(n);
        for (size_t i = 0; i < n; ++i)
            out.push_back(ring[(count - n + i) % ring.size()]);
        return out;
    }

  private:
    std::vector<RetireEvent> ring;
    size_t count = 0;
};

/** Compare the final architectural state: the register file, then
 *  the signature region when the program defines one. Returns the
 *  first difference, or an empty string when the two agree. */
std::string
finalStateDivergence(const Program &program, const RefSim &ref,
                     const Rissp &dut)
{
    for (unsigned r = 0; r < kNumRegsE; ++r) {
        if (ref.reg(r) != dut.reg(r))
            return strFormat("final x%u: ref=0x%08x dut=0x%08x", r,
                             ref.reg(r), dut.reg(r));
    }
    if (program.hasSymbol("signature")) {
        const uint32_t base = program.symbol("signature");
        for (uint32_t off = 0; off < 256; off += 4) {
            const uint32_t rv = ref.memory().loadWord(base + off);
            const uint32_t dv = dut.memory().loadWord(base + off);
            if (rv != dv)
                return strFormat("signature+%u: ref=0x%08x dut=0x%08x",
                                 off, rv, dv);
        }
    }
    return {};
}

} // namespace

CosimReport
cosimulate(const Program &program, const InstrSubset &subset,
           const CosimOptions &options)
{
    if (options.fault)
        return cosimulateLockStep(program, subset, options);

    // Fast check: the exact compare inside the RISSP's interpreter
    // core. A pass needs a clean halt and agreeing final state; the
    // report of a pass carries no context, so it is complete here.
    RefSim ref;
    ref.reset(program);
    Rissp dut(subset, "cosim-dut");
    dut.reset(program);
    RvfiStreamChecker monitor;
    if (dut.runAgainst(ref, monitor, options.maxSteps) &&
        finalStateDivergence(program, ref, dut).empty()) {
        CosimReport rpt;
        rpt.passed = true;
        rpt.instret = monitor.report().eventsChecked;
        rpt.monitor = monitor.report();
        return rpt;
    }
    // Anything else — a mismatch, a violation, a trap, the step
    // limit — is replayed lock-step from reset for the exact report.
    return cosimulateLockStep(program, subset, options);
}

CosimReport
cosimulateLockStep(const Program &program, const InstrSubset &subset,
                   const CosimOptions &options)
{
    CosimReport rpt;
    RefSim ref;
    ref.reset(program);
    Rissp dut(subset, "cosim-dut");
    dut.reset(program);

    // Streaming: RVFI invariants are checked per step and only the
    // context rings retain events, so memory does not scale with the
    // step budget.
    RvfiStreamChecker monitor;
    EventRing refRing(options.contextEvents);
    EventRing dutRing(options.contextEvents);
    auto divergence_context = [&]() {
        rpt.recentRef = refRing.unrolled();
        rpt.recentDut = dutRing.unrolled();
    };
    for (uint64_t i = 0; i < options.maxSteps; ++i) {
        RetireEvent re = ref.step();
        RetireEvent de = dut.step(options.fault);
        monitor.push(de);
        refRing.push(re);
        dutRing.push(de);
        if (!eventsMatch(re, de)) {
            rpt.firstDivergence = strFormat(
                "step %llu:\n  ref: %s\n  dut: %s",
                static_cast<unsigned long long>(i),
                describeEvent(re).c_str(),
                describeEvent(de).c_str());
            rpt.monitor = monitor.report();
            divergence_context();
            return rpt;
        }
        if (re.halt || re.trap) {
            rpt.instret = i + 1;
            break;
        }
        if (i + 1 == options.maxSteps) {
            rpt.firstDivergence = "step limit reached";
            rpt.monitor = monitor.report();
            divergence_context();
            return rpt;
        }
    }

    // Final architectural state must agree.
    rpt.firstDivergence = finalStateDivergence(program, ref, dut);
    if (!rpt.firstDivergence.empty()) {
        divergence_context();
        return rpt;
    }
    rpt.monitor = monitor.report();
    rpt.passed = rpt.monitor.passed();
    if (!rpt.passed) {
        rpt.firstDivergence = rpt.monitor.violations.front();
        divergence_context();
    }
    return rpt;
}

CosimReport
cosimulate(const Program &program, const InstrSubset &subset,
           uint64_t max_steps, const Mutation *fault)
{
    CosimOptions options;
    options.maxSteps = max_steps;
    options.fault = fault;
    return cosimulate(program, subset, options);
}

Program
archTestProgram(Op op)
{
    // Build a directed test in assembly: load corner operands,
    // execute the op, store observable results to the signature.
    std::string body = "    .data\nsignature:\n    .space 256\n"
        "scratch:\n    .space 64\n    .text\n_start:\n"
        "    la a5, signature\n    la a4, scratch\n";
    int sig = 0;
    auto store = [&](const std::string &reg_name) {
        body += strFormat("    sw %s, %d(a5)\n", reg_name.c_str(),
                          sig);
        sig += 4;
    };
    const char *corners[] = {"0", "1", "-1", "0x7FFFFFFF",
                             "0x80000000", "0xAAAAAAAA", "5",
                             "-2048"};
    const std::string name(opName(op));
    switch (opInfo(op).type) {
      case InstrType::R:
        for (const char *a : corners) {
            for (const char *b : {"0", "1", "-1", "0x55555555",
                                  "31"}) {
                body += strFormat("    li a0, %s\n    li a1, %s\n", a,
                                  b);
                body += strFormat("    %s a2, a0, a1\n",
                                  name.c_str());
                store("a2");
            }
        }
        break;
      case InstrType::I:
        if (isLoad(op)) {
            body += "    li a0, 0x89ABCDEF\n    sw a0, 0(a4)\n"
                "    li a0, 0x01234567\n    sw a0, 4(a4)\n";
            for (int off = 0; off < 8;
                 off += (op == Op::Lw ? 4
                         : op == Op::Lh || op == Op::Lhu ? 2 : 1)) {
                body += strFormat("    %s a2, %d(a4)\n",
                                  name.c_str(), off);
                store("a2");
            }
        } else if (op == Op::Jalr) {
            body += "    la a0, jalr_target\n"
                "    jalr a2, 1(a0)\n" // bit 0 must clear
                "jalr_back:\n    jal zero, jalr_done\n"
                "jalr_target:\n    addi a3, zero, 77\n"
                "    jalr zero, 0(a2)\n"
                "jalr_done:\n";
            store("a3");
        } else {
            for (const char *a : corners) {
                for (const char *imm : {"0", "1", "-1", "2047",
                                        "-2048"}) {
                    std::string imm_s = imm;
                    if (op == Op::Slli || op == Op::Srli ||
                        op == Op::Srai)
                        imm_s = std::string(imm) == "2047" ? "31"
                            : std::string(imm) == "-2048" ? "17"
                            : std::string(imm) == "-1" ? "1" : imm;
                    body += strFormat("    li a0, %s\n", a);
                    body += strFormat("    %s a2, a0, %s\n",
                                      name.c_str(), imm_s.c_str());
                    store("a2");
                }
            }
        }
        break;
      case InstrType::S: {
        const char *wide = op == Op::Sw ? "4"
            : op == Op::Sh ? "2" : "1";
        body += "    li a0, 0xDEADBEEF\n";
        for (int slot = 0; slot < 4; ++slot) {
            body += strFormat("    %s a0, %d(a4)\n", name.c_str(),
                              slot * std::stoi(wide));
        }
        body += "    lw a2, 0(a4)\n";
        store("a2");
        body += "    lw a2, 4(a4)\n";
        store("a2");
        break;
      }
      case InstrType::B:
        for (const char *a : {"0", "1", "-1", "0x80000000"}) {
            for (const char *b : {"0", "1", "-1"}) {
                // atomic so concurrent callers (parallel test
                // harnesses) always get unique branch labels
                static std::atomic<int> lblCounter{0};
                const int lbl = ++lblCounter;
                body += strFormat(
                    "    li a0, %s\n    li a1, %s\n"
                    "    li a2, 111\n"
                    "    %s a0, a1, bt_%s_%d\n"
                    "    li a2, 222\n"
                    "bt_%s_%d:\n",
                    a, b, name.c_str(), name.c_str(), lbl,
                    name.c_str(), lbl);
                store("a2");
            }
        }
        break;
      case InstrType::U:
        for (const char *imm : {"0", "1", "0xFFFFF", "0x80000"}) {
            body += strFormat("    %s a2, %s\n", name.c_str(), imm);
            store("a2");
        }
        break;
      case InstrType::J:
        body += "    jal a2, jal_t1\n"
            "jal_back:\n    jal zero, jal_done\n"
            "jal_t1:\n    addi a3, zero, 99\n"
            "    jal zero, jal_back\n"
            "jal_done:\n";
        store("a2");
        store("a3");
        break;
      case InstrType::Sys:
        break;
    }
    body += "    ecall\n";
    return assemble(body);
}

Program
randomProgram(uint64_t seed, unsigned num_instrs,
              const InstrSubset &subset)
{
    Rng rng(seed);
    std::vector<Op> pool;
    for (Op op : subset.ops()) {
        if (op == Op::Jalr || op == Op::Jal || op == Op::Auipc)
            continue; // wild jumps are covered by directed tests
        pool.push_back(op);
    }
    if (pool.empty())
        panic("randomProgram: empty usable subset (callers pass a "
              "non-trivial subset)");

    std::string body = "    .data\nsignature:\n    .space 256\n"
        "    .text\n_start:\n    la a5, signature\n";
    // Random initial register state (x1..x14; a5/x15 is the base).
    for (unsigned r = 1; r <= 14; ++r)
        body += strFormat("    li x%u, %d\n", r,
                          static_cast<int32_t>(rng.next32()));

    int label_n = 0;
    auto reg = [&](unsigned lo, unsigned hi) {
        return strFormat("x%u", lo + rng.below(hi - lo + 1));
    };
    for (unsigned i = 0; i < num_instrs; ++i) {
        const Op op = pool[rng.below(
            static_cast<uint32_t>(pool.size()))];
        const std::string name(opName(op));
        switch (opInfo(op).type) {
          case InstrType::R:
            body += strFormat("    %s %s, %s, %s\n", name.c_str(),
                              reg(1, 14).c_str(), reg(0, 14).c_str(),
                              reg(0, 14).c_str());
            break;
          case InstrType::I:
            if (isLoad(op)) {
                const unsigned width =
                    (op == Op::Lw) ? 4
                    : (op == Op::Lh || op == Op::Lhu) ? 2 : 1;
                const unsigned off =
                    rng.below(252 / width) * width;
                body += strFormat("    %s %s, %u(a5)\n",
                                  name.c_str(), reg(1, 14).c_str(),
                                  off);
            } else if (op == Op::Slli || op == Op::Srli ||
                       op == Op::Srai) {
                body += strFormat("    %s %s, %s, %u\n",
                                  name.c_str(), reg(1, 14).c_str(),
                                  reg(0, 14).c_str(), rng.below(32));
            } else {
                body += strFormat("    %s %s, %s, %d\n",
                                  name.c_str(), reg(1, 14).c_str(),
                                  reg(0, 14).c_str(),
                                  rng.range(-2048, 2047));
            }
            break;
          case InstrType::S: {
            const unsigned width = (op == Op::Sw) ? 4
                : (op == Op::Sh) ? 2 : 1;
            const unsigned off = rng.below(252 / width) * width;
            body += strFormat("    %s %s, %u(a5)\n", name.c_str(),
                              reg(0, 14).c_str(), off);
            break;
          }
          case InstrType::B:
            // Forward branch over the next couple of instructions.
            body += strFormat("    %s %s, %s, .Lfwd%d\n",
                              name.c_str(), reg(0, 14).c_str(),
                              reg(0, 14).c_str(), label_n);
            body += strFormat("    addi %s, %s, 1\n",
                              reg(1, 14).c_str(),
                              reg(0, 14).c_str());
            body += strFormat(".Lfwd%d:\n", label_n);
            ++label_n;
            break;
          case InstrType::U:
            body += strFormat("    %s %s, %d\n", name.c_str(),
                              reg(1, 14).c_str(),
                              rng.range(-(1 << 19), (1 << 19) - 1));
            break;
          default:
            break;
        }
    }
    // Dump the register file into the signature.
    for (unsigned r = 1; r <= 14; ++r)
        body += strFormat("    sw x%u, %u(a5)\n", r, (r - 1) * 4);
    body += "    ecall\n";
    return assemble(body);
}

} // namespace rissp
