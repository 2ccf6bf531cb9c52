#include "sim/refsim.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace rissp
{

namespace
{

/** The reference decodes with every op enabled. */
constexpr OpMask kAllOps = [] {
    OpMask all{};
    all.fill(true);
    return all;
}();

} // namespace

RefSim::RefSim()
{
    regs.fill(0);
}

void
RefSim::reset(const Program &program)
{
    pcReg = program.entry;
    regs.fill(0);
    const AddrSpan span = program.denseSpan();
    mem.reset(span.base, span.size);
    program.load(mem);
    dec.build(program, mem, kAllOps);
    stopped = StopReason::Running;
    retired = 0;
    outWords.clear();
    outText.clear();
}

void
RefSim::setReg(unsigned idx, uint32_t value)
{
    if (idx >= kNumRegsE)
        panic("setReg(%u): out of range", idx);
    if (idx != 0)
        regs[idx] = value;
}

RetireEvent
RefSim::step()
{
    RetireEvent ev;
    ev.order = retired;
    ev.pc = pcReg;

    // Fetch: pre-decoded text words by index; decode-on-fetch only
    // for pcs outside the cached span (or after self-modification,
    // which re-decodes in place — see DecodedProgram).
    const Instr *fetched = dec.fetch(pcReg);
    Instr slow;
    if (!fetched) {
        if (accessWraps(pcReg, 4)) {
            ev.trap = true;
            stopped = StopReason::Trapped;
            return ev;
        }
        slow = decode(mem.loadWord(pcReg));
        fetched = &slow;
    }
    const Instr &in = *fetched;
    ev.raw = in.raw;
    ev.op = in.op;

    if (!in.valid()) {
        ev.trap = true;
        stopped = StopReason::Trapped;
        return ev;
    }

    const uint32_t rs1 = readsRs1(in.op) ? regs[in.rs1] : 0;
    const uint32_t rs2 = readsRs2(in.op) ? regs[in.rs2] : 0;
    if (readsRs1(in.op)) { ev.rs1 = in.rs1; ev.rs1Data = rs1; }
    if (readsRs2(in.op)) { ev.rs2 = in.rs2; ev.rs2Data = rs2; }

    uint32_t next_pc = pcReg + 4;
    uint32_t rd_val = 0;
    bool write_rd = writesRd(in.op);
    const uint32_t imm = static_cast<uint32_t>(in.imm);

    switch (in.op) {
      case Op::Add: rd_val = rs1 + rs2; break;
      case Op::Sub: rd_val = rs1 - rs2; break;
      case Op::Sll: rd_val = rs1 << (rs2 & 31); break;
      case Op::Slt:
        rd_val = asSigned(rs1) < asSigned(rs2) ? 1 : 0;
        break;
      case Op::Sltu: rd_val = rs1 < rs2 ? 1 : 0; break;
      case Op::Xor: rd_val = rs1 ^ rs2; break;
      case Op::Srl: rd_val = rs1 >> (rs2 & 31); break;
      case Op::Sra:
        rd_val = asUnsigned(asSigned(rs1) >> (rs2 & 31));
        break;
      case Op::Or: rd_val = rs1 | rs2; break;
      case Op::And: rd_val = rs1 & rs2; break;
      case Op::Cmul: rd_val = rs1 * rs2; break;

      case Op::Addi: rd_val = rs1 + imm; break;
      case Op::Slti:
        rd_val = asSigned(rs1) < in.imm ? 1 : 0;
        break;
      case Op::Sltiu: rd_val = rs1 < imm ? 1 : 0; break;
      case Op::Xori: rd_val = rs1 ^ imm; break;
      case Op::Ori: rd_val = rs1 | imm; break;
      case Op::Andi: rd_val = rs1 & imm; break;
      case Op::Slli: rd_val = rs1 << (imm & 31); break;
      case Op::Srli: rd_val = rs1 >> (imm & 31); break;
      case Op::Srai:
        rd_val = asUnsigned(asSigned(rs1) >> (imm & 31));
        break;

      case Op::Lb:
      case Op::Lh:
      case Op::Lw:
      case Op::Lbu:
      case Op::Lhu: {
        const uint32_t addr = rs1 + imm;
        ev.memRead = true;
        ev.memAddr = addr;
        ev.memBytes = in.op == Op::Lw ? 4
            : (in.op == Op::Lh || in.op == Op::Lhu) ? 2 : 1;
        if (accessWraps(addr, ev.memBytes)) {
            ev.trap = true;
            stopped = StopReason::Trapped;
            return ev;
        }
        switch (in.op) {
          case Op::Lb:
            rd_val = asUnsigned(sext(mem.loadByte(addr), 8));
            break;
          case Op::Lbu:
            rd_val = mem.loadByte(addr);
            break;
          case Op::Lh:
            rd_val = asUnsigned(sext(mem.loadHalf(addr), 16));
            break;
          case Op::Lhu:
            rd_val = mem.loadHalf(addr);
            break;
          default:
            rd_val = mem.loadWord(addr);
            break;
        }
        ev.memData = rd_val;
        break;
      }

      case Op::Sb:
      case Op::Sh:
      case Op::Sw: {
        const uint32_t addr = rs1 + imm;
        ev.memWrite = true;
        ev.memAddr = addr;
        ev.memData = rs2;
        ev.memBytes = in.op == Op::Sb ? 1 : in.op == Op::Sh ? 2 : 4;
        if (accessWraps(addr, ev.memBytes)) {
            ev.trap = true;
            stopped = StopReason::Trapped;
            return ev;
        }
        if (addr == mmio::kPutWord && in.op == Op::Sw) {
            outWords.push_back(rs2);
        } else if (addr == mmio::kPutChar) {
            outText.push_back(static_cast<char>(rs2 & 0xFF));
        } else {
            switch (in.op) {
              case Op::Sb:
                mem.storeByte(addr, static_cast<uint8_t>(rs2));
                break;
              case Op::Sh:
                mem.storeHalf(addr, static_cast<uint16_t>(rs2));
                break;
              default:
                mem.storeWord(addr, rs2);
                break;
            }
            if (dec.overlaps(addr, ev.memBytes))
                dec.invalidate(mem, addr, ev.memBytes);
        }
        break;
      }

      case Op::Beq: if (rs1 == rs2) next_pc = pcReg + imm; break;
      case Op::Bne: if (rs1 != rs2) next_pc = pcReg + imm; break;
      case Op::Blt:
        if (asSigned(rs1) < asSigned(rs2)) next_pc = pcReg + imm;
        break;
      case Op::Bge:
        if (asSigned(rs1) >= asSigned(rs2)) next_pc = pcReg + imm;
        break;
      case Op::Bltu: if (rs1 < rs2) next_pc = pcReg + imm; break;
      case Op::Bgeu: if (rs1 >= rs2) next_pc = pcReg + imm; break;

      case Op::Lui: rd_val = imm; break;
      case Op::Auipc: rd_val = pcReg + imm; break;

      case Op::Jal:
        rd_val = pcReg + 4;
        next_pc = pcReg + imm;
        break;
      case Op::Jalr:
        rd_val = pcReg + 4;
        next_pc = (rs1 + imm) & ~1u;
        break;

      case Op::Ecall:
      case Op::Ebreak:
        ev.halt = true;
        stopped = StopReason::Halted;
        break;

      case Op::Invalid:
        panic("unreachable: invalid op past decode check");
    }

    if (write_rd && in.rd != 0) {
        regs[in.rd] = rd_val;
        ev.rd = in.rd;
        ev.rdData = rd_val;
    } else if (write_rd) {
        ev.rd = 0;
        ev.rdData = 0;
    }

    if (!ev.halt)
        pcReg = next_pc;
    ev.nextPc = pcReg;
    ++retired;
    return ev;
}

// Stamp out the interpreter core (see the header in exec_core.inc).
#define RISSP_CORE_CLASS RefSim
#include "sim/exec_core.inc"
#undef RISSP_CORE_CLASS

RunResult
RefSim::run(uint64_t maxSteps)
{
    SimRunOptions options;
    options.maxSteps = maxSteps;
    return run(options);
}

RunResult
RefSim::run(const SimRunOptions &options)
{
    if (!options.trace) {
        sim_detail::NullSink none;
        return runCore(options.maxSteps, none);
    }
    sim_detail::VectorSink trace{*options.trace};
    return runCore(options.maxSteps, trace);
}

} // namespace rissp
