#include "retarget/retargeter.hh"

#include <algorithm>
#include <array>

#include "assembler/assembler.hh"
#include "isa/instr.hh"
#include "sim/refsim.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace rissp
{

namespace
{

/** Canonical macro invocation for one decoded instruction. */
std::string
rewriteLine(const Instr &in, const std::string &branch_target)
{
    const std::string name = macroName(in.op);
    auto r = [](unsigned idx) { return std::string(regName(idx)); };
    switch (opInfo(in.op).type) {
      case InstrType::R:
        return strFormat("%s %s, %s, %s", name.c_str(),
                         r(in.rd).c_str(), r(in.rs1).c_str(),
                         r(in.rs2).c_str());
      case InstrType::I:
        if (isLoad(in.op))
            return strFormat("%s %s, %s, %d", name.c_str(),
                             r(in.rd).c_str(), r(in.rs1).c_str(),
                             in.imm);
        return strFormat("%s %s, %s, %d", name.c_str(),
                         r(in.rd).c_str(), r(in.rs1).c_str(),
                         in.imm);
      case InstrType::S:
        return strFormat("%s %s, %s, %d", name.c_str(),
                         r(in.rs2).c_str(), r(in.rs1).c_str(),
                         in.imm);
      case InstrType::B:
        return strFormat("%s %s, %s, %s", name.c_str(),
                         r(in.rs1).c_str(), r(in.rs2).c_str(),
                         branch_target.c_str());
      case InstrType::U: {
        // lui: the tool decomposes the 20-bit value into two 10-bit
        // positive chunks the macro reassembles with adds and shifts.
        const uint32_t u = static_cast<uint32_t>(in.imm) >> 12;
        return strFormat("%s %s, %u, %u", name.c_str(),
                         r(in.rd).c_str(), (u >> 10) & 0x3FF,
                         u & 0x3FF);
      }
      default:
        panic("rewriteLine: cannot rewrite %s",
              std::string(opName(in.op)).c_str());
    }
}

/** Plain assembly text for one decoded instruction. */
std::string
nativeLine(const Instr &in, const std::string &branch_target)
{
    if (!branch_target.empty()) {
        // Branch/jal with a symbolic target.
        if (in.type() == InstrType::B)
            return strFormat("%s %s, %s, %s",
                             std::string(opName(in.op)).c_str(),
                             std::string(regName(in.rs1)).c_str(),
                             std::string(regName(in.rs2)).c_str(),
                             branch_target.c_str());
        if (in.op == Op::Jal)
            return strFormat("jal %s, %s",
                             std::string(regName(in.rd)).c_str(),
                             branch_target.c_str());
    }
    return disassemble(in);
}

/**
 * The fixed part of every verification trial, assembled once: the
 * data image (a signature area and a scratch buffer the load/store
 * cases address through rs1) and the epilogue that dumps x1..x15 and
 * the buffer into the signature before halting. The epilogue reuses
 * x1 as its base, so it first parks ra just below sp; a body that
 * leaves sp changed fails the sp comparison either way. A trial's
 * code is spliced in front of the epilogue; both are position
 * independent (`la` is lui+addi, macro branches are pc-relative).
 */
struct Harness
{
    Program image;                 ///< data segment + symbols, no text
    std::vector<uint8_t> epilogue; ///< encoded `done_path:` tail
    uint32_t signature = 0;
    uint32_t buf = 0;
};

const Harness &
harness()
{
    static const Harness h = [] {
        std::string src =
            "    .data\nsignature:\n    .space 96\n"
            "buf:\n    .word 0x89ABCDEF, 0x01234567,"
            " 0xF00DFACE, 0x5A5A5A5A\n"
            "    .space 16\n    .text\n_start:\n"
            "    sw x1, -4(sp)\n"
            "    la x1, signature\n";
        for (unsigned reg_i = 5; reg_i <= 15; ++reg_i)
            src += strFormat("    sw x%u, %u(x1)\n", reg_i,
                             (reg_i - 5) * 4);
        // Store buffer back for store-op comparison.
        src += "    la x1, buf\n";
        for (unsigned w = 0; w < 4; ++w) {
            src += strFormat("    lw x5, %u(x1)\n", w * 4);
            src += "    la x6, signature\n";
            src += strFormat("    sw x5, %u(x6)\n", 44 + w * 4);
        }
        // ra (parked on entry), sp, gp and tp follow the buffer.
        src += "    lw x5, -4(sp)\n"
               "    sw x5, 60(x6)\n"
               "    sw x2, 64(x6)\n"
               "    sw x3, 68(x6)\n"
               "    sw x4, 72(x6)\n"
               "    ecall\n";
        Harness out;
        out.image = assemble(src);
        out.epilogue = std::move(out.image.segments.front().bytes);
        out.image.textSize = 0;
        out.signature = out.image.symbol("signature");
        out.buf = out.image.symbol("buf");
        return out;
    }();
    return h;
}

void
appendWord(std::vector<uint8_t> &bytes, uint32_t word)
{
    for (unsigned b = 0; b < 4; ++b)
        bytes.push_back(static_cast<uint8_t>(word >> (8 * b)));
}

/** Boot @p sim on the harness with @p code spliced in front of the
 *  epilogue, set x1..x15 from @p regs and run to the halt. */
bool
runTrial(RefSim &sim, Program &image, const std::vector<uint8_t> &code,
         const std::array<uint32_t, 16> &regs)
{
    std::vector<uint8_t> &text = image.segments.front().bytes;
    const std::vector<uint8_t> &epilogue = harness().epilogue;
    text = code;
    text.insert(text.end(), epilogue.begin(), epilogue.end());
    image.textSize = static_cast<uint32_t>(text.size());
    sim.reset(image);
    for (unsigned reg_i = 1; reg_i <= 15; ++reg_i)
        sim.setReg(reg_i, regs[reg_i]);
    return sim.run(100'000).reason == StopReason::Halted;
}

} // namespace

Retargeter::Retargeter(const InstrSubset &target, uint64_t seed)
    : targetSubset(target), rng(seed)
{
    const Status status = validateTarget(target);
    if (!status)
        panic("Retargeter: %s (validate with validateTarget first)",
              status.message().c_str());
}

Status
Retargeter::validateTarget(const InstrSubset &target)
{
    const InstrSubset kernel = minimalSubset();
    for (Op op : kernel.ops())
        if (!target.contains(op))
            return Status::errorf(
                ErrorCode::InvalidArgument,
                "retarget subset lacks kernel instruction '%s'",
                std::string(opName(op)).c_str());
    return Status::ok();
}

InstrSubset
Retargeter::minimalSubset()
{
    return InstrSubset::fromNames(
        {"addi", "add", "and", "xori", "sll", "sra", "jal", "jalr",
         "blt", "bltu", "lw", "sw"});
}

bool
Retargeter::verifyMacro(Op op, const std::string &body)
{
    RefSim native;
    RefSim expanded;
    return verifyOn(native, expanded, op, body);
}

bool
Retargeter::verifyOn(RefSim &native_sim, RefSim &expanded_sim, Op op,
                     const std::string &body)
{
    // Directed operand/alias cases: the macro must behave exactly
    // like the original instruction for every register pattern a
    // compiled program can contain (ra/t0 appear as operands only in
    // hand-written code, which the rewrite pass rejects up front).
    struct Combo { unsigned rd, rs1, rs2; };
    const Combo combos[] = {
        {10, 11, 12}, {10, 10, 11}, {10, 11, 10}, {10, 10, 10},
        {13, 14, 14}, {8, 9, 13},
    };
    const int32_t values[] = {
        0, 1, -1, 5, -5, 127, 128, 255, 256, 0x7FFFFFFF,
        static_cast<int32_t>(0x80000000), 0x1234, -0x1234,
    };
    const std::string macro_def = wrapMacro(op, body);
    const InstrType type = opInfo(op).type;
    const bool memory_op = isLoad(op) || isStore(op);
    const Harness &h = harness();

    // Both sides run on the harness image, each on its simulator.
    Program image = h.image;
    std::vector<uint8_t> native;

    Rng vrng(0xC0FFEE ^ static_cast<uint64_t>(op));
    for (const Combo &c : combos) {
        for (int trial = 0; trial < 10; ++trial) {
            const int32_t v1 = trial < 6
                ? values[(trial * 2) % std::size(values)]
                : static_cast<int32_t>(vrng.next32());
            const int32_t v2 = trial < 6
                ? values[(trial * 2 + 3) % std::size(values)]
                : static_cast<int32_t>(vrng.next32());
            int32_t imm = vrng.range(-2048, 2047);
            if (op == Op::Slli || op == Op::Srli || op == Op::Srai)
                imm = vrng.range(1, 31);

            // Build the instruction under test.
            Instr in;
            switch (type) {
              case InstrType::R:
                in = decode(encodeR(op, c.rd, c.rs1, c.rs2));
                break;
              case InstrType::I: {
                if (isLoad(op)) {
                    const unsigned width =
                        op == Op::Lw ? 4
                        : (op == Op::Lh || op == Op::Lhu) ? 2 : 1;
                    const int32_t off = static_cast<int32_t>(
                        vrng.below(16 / width) * width);
                    in = decode(encodeI(op, c.rd, c.rs1, off));
                    break;
                }
                in = decode(encodeI(op, c.rd, c.rs1, imm));
                break;
              }
              case InstrType::S: {
                const unsigned width = op == Op::Sw ? 4
                    : op == Op::Sh ? 2 : 1;
                const int32_t off = static_cast<int32_t>(
                    vrng.below(16 / width) * width);
                in = decode(encodeS(op, c.rs1, c.rs2, off));
                break;
              }
              case InstrType::B:
                // Taken lands on the epilogue, past the marker.
                in = decode(encodeB(op, c.rs1, c.rs2, 8));
                break;
              case InstrType::U:
                in = decode(encodeU(
                    op, c.rd,
                    static_cast<int32_t>(vrng.next32() & 0xFFFFF)));
                break;
              default:
                return false;
            }

            // Known register file; memory ops address the buffer
            // through rs1 (an rs1 == rs2 alias keeps the base).
            std::array<uint32_t, 16> regs{};
            for (unsigned reg_i = 1; reg_i <= 15; ++reg_i)
                regs[reg_i] = reg_i == reg::sp ? 0x40000
                    : memory_op && reg_i == c.rs1 ? h.buf
                    : reg_i == c.rs1 ? static_cast<uint32_t>(v1)
                    : reg_i == c.rs2 ? static_cast<uint32_t>(v2)
                    : 0x1000 + reg_i * 0x111;

            // For branches, the not-taken path must be
            // distinguishable from the taken one.
            const bool branch = type == InstrType::B;
            native.clear();
            appendWord(native, in.raw);
            if (branch)
                appendWord(native, encodeI(Op::Addi, 7, 0, 999));
            std::string src = macro_def + "    " +
                rewriteLine(in, branch ? "done_path" : "") + "\n";
            if (branch)
                src += "    addi x7, zero, 999\n";
            src += "done_path:\n";
            const AsmResult exp_asm = tryAssemble(src);
            // A body that emits data would overlap the harness's.
            if (!exp_asm.ok || exp_asm.program.segments.size() != 1)
                return false;

            if (!runTrial(native_sim, image, native, regs) ||
                !runTrial(expanded_sim, image,
                          exp_asm.program.segments.front().bytes, regs))
                return false;
            for (uint32_t off = 0; off < 76; off += 4) {
                if (native_sim.memory().loadWord(h.signature + off) !=
                    expanded_sim.memory().loadWord(h.signature + off))
                    return false;
            }
        }
    }
    return true;
}

MacroExpansion
Retargeter::synthesizeMacro(Op op)
{
    MacroExpansion result;
    result.target = op;
    if (!canRetarget(op))
        return result;

    // The generator's candidate stream: a seeded number of
    // hallucinated bodies first, then the sound derivation, matching
    // the paper's observation that a valid macro arrives in < 10
    // attempts.
    std::vector<std::string> stream;
    std::vector<std::string> buggy = buggyMacroBodies(op);
    const unsigned bad_first =
        std::min<unsigned>(rng.below(4),
                           static_cast<unsigned>(buggy.size()));
    for (unsigned i = 0; i < bad_first; ++i)
        stream.push_back(buggy[i]);
    stream.push_back(correctMacroBody(op));

    for (const std::string &candidate : stream) {
        ++result.attempts;
        if (result.attempts > 10)
            break;
        if (verifyOn(nativeSim, expandedSim, op, candidate)) {
            result.body = candidate;
            result.verified = true;
            return result;
        }
    }
    return result;
}

Result<std::string>
Retargeter::reconstruct(const Program &program,
                        const std::set<Op> &rewrite) const
{
    Memory mem;
    program.load(mem);

    // Collect branch/jump targets so relative offsets survive the
    // size changes of expansion.
    std::set<uint32_t> label_addrs;
    const uint32_t text_end = program.textBase + program.textSize;
    for (uint32_t pc = program.textBase; pc < text_end; pc += 4) {
        const Instr in = decode(mem.loadWord(pc));
        if (!in.valid())
            continue;
        if (in.type() == InstrType::B || in.op == Op::Jal)
            label_addrs.insert(pc + static_cast<uint32_t>(in.imm));
        if (in.op == Op::Auipc)
            return Status::error(
                ErrorCode::RetargetError,
                "auipc unsupported in reconstruction");
        // Expansion macros use ra (and t0 in store macros) as saved
        // scratch; an instruction that is itself being rewritten must
        // not name ra as an operand or destination.
        if (rewrite.count(in.op) &&
            ((readsRs1(in.op) && in.rs1 == reg::ra) ||
             (readsRs2(in.op) && in.rs2 == reg::ra) ||
             (writesRd(in.op) && in.rd == reg::ra)))
            return Status::errorf(
                ErrorCode::RetargetError,
                "ra operand on rewritten %s at 0x%x",
                std::string(opName(in.op)).c_str(), pc);
    }

    std::string out = "    .text\n";
    for (uint32_t pc = program.textBase; pc < text_end; pc += 4) {
        if (label_addrs.count(pc))
            out += strFormat(".Lr%x:\n", pc);
        if (pc == program.entry)
            out += "_start:\n";
        const Instr in = decode(mem.loadWord(pc));
        if (!in.valid()) {
            out += strFormat("    .word 0x%08x\n", mem.loadWord(pc));
            continue;
        }
        std::string target;
        if (in.type() == InstrType::B || in.op == Op::Jal)
            target = strFormat(
                ".Lr%x", pc + static_cast<uint32_t>(in.imm));
        if (rewrite.count(in.op))
            out += "    " + rewriteLine(in, target) + "\n";
        else
            out += "    " + nativeLine(in, target) + "\n";
    }

    // Data segments are carried over byte-exact at the same base, so
    // absolute addresses materialized in the code stay valid.
    for (const Segment &seg : program.segments) {
        if (seg.base == program.textBase)
            continue;
        out += "    .data\n";
        for (size_t i = 0; i < seg.bytes.size(); i += 16) {
            const size_t end = std::min(seg.bytes.size(), i + 16);
            out += "    .byte ";
            for (size_t j = i; j < end; ++j) {
                if (j != i)
                    out += ", ";
                out += std::to_string(seg.bytes[j]);
            }
            out += '\n';
        }
    }
    return out;
}

RetargetResult
Retargeter::retarget(const Program &program)
{
    RetargetResult result;
    result.initialSubset = InstrSubset::fromProgram(program);
    result.initialTextBytes = program.textSize;

    // Step 1: which instructions must go?
    for (Op op : result.initialSubset.ops())
        if (!targetSubset.contains(op))
            result.rewrittenOps.insert(op);

    // Step 2: synthesize + verify a macro per offending op.
    for (Op op : result.rewrittenOps) {
        MacroExpansion m = synthesizeMacro(op);
        if (!m.verified) {
            result.error = strFormat(
                "no verified macro for '%s'",
                std::string(opName(op)).c_str());
            return result;
        }
        result.macroFile += wrapMacro(op, m.body) + "\n";
        result.macros.push_back(std::move(m));
    }

    // Step 3: rewrite and reassemble.
    Result<std::string> source =
        reconstruct(program, result.rewrittenOps);
    if (!source) {
        result.error = source.status().message();
        return result;
    }
    AsmResult reassembled =
        tryAssemble(result.macroFile + source.value());
    if (!reassembled.ok) {
        result.error = "reassembly failed: " + reassembled.error;
        return result;
    }
    result.program = std::move(reassembled.program);
    result.retargetedTextBytes = result.program.textSize;
    result.finalSubset = InstrSubset::fromProgram(result.program);

    // The retargeted binary must fit the target subset.
    for (Op op : result.finalSubset.ops()) {
        if (!targetSubset.contains(op)) {
            result.error = strFormat(
                "retargeted binary still uses '%s'",
                std::string(opName(op)).c_str());
            return result;
        }
    }
    result.ok = true;
    return result;
}

} // namespace rissp
