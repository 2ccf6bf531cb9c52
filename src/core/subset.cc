#include "core/subset.hh"

#include <algorithm>

#include "isa/instr.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace rissp
{

InstrSubset::InstrSubset(std::set<Op> ops) : opsSet(std::move(ops))
{
    opsSet.erase(Op::Ecall);
    opsSet.erase(Op::Ebreak);
    opsSet.erase(Op::Invalid);
}

InstrSubset
InstrSubset::fromProgram(const Program &program)
{
    std::set<Op> ops;
    for (uint32_t word : program.textWords()) {
        Instr in = decode(word);
        if (in.valid())
            ops.insert(in.op);
    }
    return InstrSubset(std::move(ops));
}

InstrSubset
InstrSubset::unionOf(const std::vector<InstrSubset> &parts)
{
    std::set<Op> ops;
    for (const InstrSubset &part : parts)
        ops.insert(part.opsSet.begin(), part.opsSet.end());
    return InstrSubset(std::move(ops));
}

InstrSubset
InstrSubset::fullRv32e()
{
    std::set<Op> ops;
    for (size_t i = 0; i < kNumOps; ++i) {
        const Op op = static_cast<Op>(i);
        if (!isCustom(op))
            ops.insert(op);
    }
    return InstrSubset(std::move(ops));
}

Result<InstrSubset>
InstrSubset::tryFromNames(const std::vector<std::string> &names)
{
    std::set<Op> ops;
    for (const std::string &name : names) {
        auto op = opFromName(toLower(name));
        if (!op)
            return Status::errorf(
                ErrorCode::InvalidArgument,
                "unknown instruction '%s' in subset spec",
                name.c_str());
        ops.insert(*op);
    }
    return InstrSubset(std::move(ops));
}

InstrSubset
InstrSubset::fromNames(const std::vector<std::string> &names)
{
    Result<InstrSubset> subset = tryFromNames(names);
    if (!subset)
        panic("InstrSubset::fromNames: %s (validate with "
              "tryFromNames first)",
              subset.status().message().c_str());
    return subset.take();
}

bool
InstrSubset::contains(Op op) const
{
    if (op == Op::Ecall || op == Op::Ebreak)
        return true; // halt support is fixed logic in every RISSP
    return opsSet.count(op) != 0;
}

std::vector<std::string>
InstrSubset::names() const
{
    std::vector<std::string> out;
    out.reserve(opsSet.size());
    for (Op op : opsSet)
        out.emplace_back(opName(op));
    std::sort(out.begin(), out.end());
    return out;
}

std::string
InstrSubset::describe() const
{
    // Appended, not `"[" + ... + "]"`: gcc 12 -O3 misreads the
    // operator+ chain as an overlapping copy (-Wrestrict).
    std::string out = "[";
    out += join(names(), ", ");
    out += "]";
    return out;
}

double
InstrSubset::fractionOfFullIsa() const
{
    return static_cast<double>(opsSet.size()) /
        static_cast<double>(kFullIsaSize);
}

size_t
staticInstructionCount(const Program &program)
{
    return program.textSize / 4;
}

} // namespace rissp
