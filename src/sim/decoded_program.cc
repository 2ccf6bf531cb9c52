#include "sim/decoded_program.hh"

namespace rissp
{

namespace
{

/** Straight-line runs never extend past a control transfer, a halt
 *  or an invalid word: those always send the cores back to the
 *  dispatch loop head. */
bool
endsRun(Op op)
{
    return op == Op::Invalid || isBranch(op) || isJump(op) ||
        op == Op::Ecall || op == Op::Ebreak;
}

/** Run length of a word given its op and the run length after it. */
uint16_t
runFrom(Op op, uint16_t next)
{
    if (endsRun(op))
        return 1;
    return next == UINT16_MAX ? UINT16_MAX
                              : static_cast<uint16_t>(next + 1);
}

} // namespace

void
DecodedProgram::build(const Program &program, const Memory &mem,
                      const OpMask &enabledOps)
{
    enabled = enabledOps;
    textBase = program.textBase;
    textSize = program.textSize & ~3u;
    const uint32_t words = textSize / 4;
    instrs.resize(words);
    toks.resize(words);
    for (uint32_t w = 0; w < words; ++w)
        decodeWord(mem, w);
    runs.assign(words, 1);
    recomputeRuns(0, words);
}

void
DecodedProgram::decodeWord(const Memory &mem, uint32_t w)
{
    const Instr in = decode(mem.loadWord(textBase + w * 4));
    instrs[w] = in;
    toks[w] = in.valid() && enabled[static_cast<size_t>(in.op)]
        ? static_cast<uint8_t>(in.op)
        : kTrapToken;
}

void
DecodedProgram::clear()
{
    textBase = 0;
    textSize = 0;
    instrs.clear();
    toks.clear();
    runs.clear();
}

void
DecodedProgram::invalidate(const Memory &mem, uint32_t addr,
                           uint32_t len)
{
    if (!overlaps(addr, len))
        return;
    const uint64_t end = static_cast<uint64_t>(addr) + len;
    const uint32_t first =
        addr <= textBase ? 0u : (addr - textBase) / 4;
    const uint64_t limit = textBase + static_cast<uint64_t>(textSize);
    const uint32_t last = static_cast<uint32_t>(
        ((end < limit ? end : limit) - textBase + 3) / 4);
    for (uint32_t w = first; w < last; ++w)
        decodeWord(mem, w);
    recomputeRuns(first, last);
}

void
DecodedProgram::recomputeRuns(uint32_t first, uint32_t last)
{
    const uint32_t words = static_cast<uint32_t>(runs.size());
    for (uint32_t w = last; w-- > first;)
        runs[w] = runFrom(instrs[w].op,
                          w + 1 < words ? runs[w + 1] : 0);
    // Ripple backwards: a rewritten word can lengthen or shorten the
    // runs of every straight-line word leading into it. Stop at the
    // first unchanged value (everything before it chains off it) or
    // at a run-ending op (its run length is always 1).
    for (uint32_t w = first; w-- > 0;) {
        const uint16_t run = runFrom(instrs[w].op, runs[w + 1]);
        if (run == runs[w])
            break;
        runs[w] = run;
    }
}

} // namespace rissp
