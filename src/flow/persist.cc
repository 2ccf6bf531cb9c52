/**
 * @file
 * Artifact payload codecs and the store-aware StageCaches lookups.
 *
 * The lookup wrappers implement the two-tier read path:
 *
 *     memo hit ──────────────────────────────► return (no disk IO)
 *     memo miss ─► store load + decode ok ───► adopt + return
 *                └─ else ─► compute() ───────► publish + return
 *
 * Everything runs inside the memo cache's compute slot, so the
 * promise-backed exactly-once/in-flight-dedup semantics extend to
 * the disk tier for free: concurrent lookups of one key do one store
 * read (or one compute + one publish) between them, and waiters
 * block on the same shared future as before.
 */

#include "flow/persist.hh"

#include "store/bytes.hh"

namespace rissp::flow::persist
{

namespace
{

using store::ByteReader;
using store::ByteWriter;

// Per-kind payload versions: bump when a codec's layout changes so
// stale records decode-fail (⇒ recompute) instead of misparse.
constexpr uint32_t kCompileVersion = 1;
constexpr uint32_t kSimVersion = 2;
constexpr uint32_t kSynthVersion = 1;
constexpr uint32_t kSynthReportVersion = 1;

/** Shared error-Result framing: flag byte, then code + message. */
template <typename T>
bool
writeResultHeader(ByteWriter &w, const Result<T> &value)
{
    w.u8(value.isOk() ? 1 : 0);
    if (value.isOk())
        return true;
    w.u8(static_cast<uint8_t>(value.code()));
    w.str(value.status().message());
    return false;
}

/** Reads the error arm; empty optional = "value follows", an
 *  engaged optional carries the decoded error (or nothing on a
 *  malformed error arm — the caller checks reader.ok()). */
std::optional<Status>
readResultError(ByteReader &r)
{
    if (r.u8() != 0)
        return std::nullopt;
    const uint8_t code = r.u8();
    const std::string message = r.str();
    if (!r.ok() || code == 0 ||
        code > static_cast<uint8_t>(ErrorCode::Internal))
        return Status(); // ok-Status = marker for "malformed"
    return Status::error(static_cast<ErrorCode>(code), message);
}

} // namespace

// ------------------------------------------------ compile results

std::vector<uint8_t>
encodeCompile(const Result<minic::CompileResult> &value)
{
    ByteWriter w;
    w.u32(kCompileVersion);
    if (!writeResultHeader(w, value))
        return w.take();
    const minic::CompileResult &c = value.value();
    w.str(c.appAsm);
    w.u64(c.helpers.size());
    for (const std::string &helper : c.helpers) // set: sorted
        w.str(helper);
    const Program &p = c.program;
    w.u32(p.entry);
    w.u32(p.textBase);
    w.u32(p.textSize);
    w.u64(p.segments.size());
    for (const Segment &seg : p.segments) {
        w.u32(seg.base);
        w.u64(seg.bytes.size());
        w.bytes(seg.bytes.data(), seg.bytes.size());
    }
    w.u64(p.symbols.size());
    for (const auto &[name, addr] : p.symbols) { // map: sorted
        w.str(name);
        w.u32(addr);
    }
    return w.take();
}

std::optional<Result<minic::CompileResult>>
decodeCompile(const std::vector<uint8_t> &payload)
{
    ByteReader r(payload);
    if (r.u32() != kCompileVersion)
        return std::nullopt;
    if (std::optional<Status> error = readResultError(r)) {
        if (!error->isOk() && r.atEnd())
            return Result<minic::CompileResult>(*error);
        return std::nullopt;
    }
    minic::CompileResult c;
    c.appAsm = r.str();
    const uint64_t helperCount = r.u64();
    for (uint64_t i = 0; r.ok() && i < helperCount; ++i)
        c.helpers.insert(r.str());
    Program &p = c.program;
    p.entry = r.u32();
    p.textBase = r.u32();
    p.textSize = r.u32();
    const uint64_t segCount = r.u64();
    for (uint64_t i = 0; r.ok() && i < segCount; ++i) {
        Segment seg;
        seg.base = r.u32();
        const uint64_t size = r.u64();
        seg.bytes = r.blob(static_cast<size_t>(size));
        p.segments.push_back(std::move(seg));
    }
    const uint64_t symCount = r.u64();
    for (uint64_t i = 0; r.ok() && i < symCount; ++i) {
        const std::string name = r.str();
        p.symbols[name] = r.u32();
    }
    if (!r.atEnd())
        return std::nullopt;
    return Result<minic::CompileResult>(std::move(c));
}

// --------------------------------------------------- sim outcomes

std::vector<uint8_t>
encodeSim(const SimOutcome &value)
{
    ByteWriter w;
    w.u32(kSimVersion);
    w.u8(value.trapped ? 1 : 0);
    w.u8(value.cosimPassed ? 1 : 0);
    w.u64(value.cycles);
    w.u32(value.exitCode);
    w.u64(value.signature);
    w.u8(value.offStaticTrap ? 1 : 0);
    return w.take();
}

std::optional<SimOutcome>
decodeSim(const std::vector<uint8_t> &payload)
{
    ByteReader r(payload);
    if (r.u32() != kSimVersion)
        return std::nullopt;
    SimOutcome out;
    out.trapped = r.u8() != 0;
    out.cosimPassed = r.u8() != 0;
    out.cycles = r.u64();
    out.exitCode = r.u32();
    out.signature = r.u64();
    out.offStaticTrap = r.u8() != 0;
    if (!r.atEnd())
        return std::nullopt;
    return out;
}

// ------------------------------------------------- synth outcomes

std::vector<uint8_t>
encodeSynth(const SynthOutcome &value)
{
    ByteWriter w;
    w.u32(kSynthVersion);
    w.f64(value.fmaxKhz);
    w.f64(value.avgAreaGe);
    w.f64(value.avgPowerMw);
    w.f64(value.epiNj);
    w.u8(value.physRun ? 1 : 0);
    w.f64(value.dieAreaMm2);
    w.f64(value.physPowerMw);
    return w.take();
}

std::optional<SynthOutcome>
decodeSynth(const std::vector<uint8_t> &payload)
{
    ByteReader r(payload);
    if (r.u32() != kSynthVersion)
        return std::nullopt;
    SynthOutcome out;
    out.fmaxKhz = r.f64();
    out.avgAreaGe = r.f64();
    out.avgPowerMw = r.f64();
    out.epiNj = r.f64();
    out.physRun = r.u8() != 0;
    out.dieAreaMm2 = r.f64();
    out.physPowerMw = r.f64();
    if (!r.atEnd())
        return std::nullopt;
    return out;
}

// -------------------------------------------- full synth reports

std::vector<uint8_t>
encodeSynthReport(const Result<SynthReport> &value)
{
    ByteWriter w;
    w.u32(kSynthReportVersion);
    if (!writeResultHeader(w, value))
        return w.take();
    const SynthReport &rep = value.value();
    w.str(rep.name);
    w.u64(rep.subsetSize);
    w.f64(rep.combGates);
    w.f64(rep.ffCount);
    w.f64(rep.baseAreaGe);
    w.f64(rep.criticalPathNs);
    w.f64(rep.fmaxKhz);
    w.u64(rep.sweep.size());
    for (const FreqPoint &point : rep.sweep) {
        w.f64(point.targetKhz);
        w.f64(point.slackNs);
        w.f64(point.areaGe);
        w.f64(point.powerMw);
    }
    w.f64(rep.avgAreaGe);
    w.f64(rep.avgPowerMw);
    w.f64(rep.combActivity);
    w.f64(rep.ffActivity);
    return w.take();
}

std::optional<Result<SynthReport>>
decodeSynthReport(const std::vector<uint8_t> &payload)
{
    ByteReader r(payload);
    if (r.u32() != kSynthReportVersion)
        return std::nullopt;
    if (std::optional<Status> error = readResultError(r)) {
        if (!error->isOk() && r.atEnd())
            return Result<SynthReport>(*error);
        return std::nullopt;
    }
    SynthReport rep;
    rep.name = r.str();
    rep.subsetSize = static_cast<size_t>(r.u64());
    rep.combGates = r.f64();
    rep.ffCount = r.f64();
    rep.baseAreaGe = r.f64();
    rep.criticalPathNs = r.f64();
    rep.fmaxKhz = r.f64();
    const uint64_t sweepCount = r.u64();
    for (uint64_t i = 0; r.ok() && i < sweepCount; ++i) {
        FreqPoint point;
        point.targetKhz = r.f64();
        point.slackNs = r.f64();
        point.areaGe = r.f64();
        point.powerMw = r.f64();
        rep.sweep.push_back(point);
    }
    rep.avgAreaGe = r.f64();
    rep.avgPowerMw = r.f64();
    rep.combActivity = r.f64();
    rep.ffActivity = r.f64();
    if (!r.atEnd())
        return std::nullopt;
    return Result<SynthReport>(std::move(rep));
}

} // namespace rissp::flow::persist

// --------------------------------------- StageCaches lookup seams

namespace rissp::flow
{

namespace
{

/** The memo-miss body shared by all four lookups: try the store,
 *  else compute and publish. */
template <typename Value, typename Encode, typename Decode>
Value
throughStore(store::ArtifactStore *artifacts,
             store::ArtifactKind kind, const store::ArtifactKey &key,
             const std::function<Value()> &compute,
             const Encode &encode, const Decode &decode)
{
    if (artifacts) {
        std::vector<uint8_t> payload;
        if (artifacts->load(kind, key, payload)) {
            if (std::optional<Value> value = decode(payload))
                return std::move(*value);
            // Checksum-valid but undecodable: version skew. Fall
            // through to recompute; the publish below overwrites
            // the stale record with the current format.
        }
    }
    Value value = compute();
    if (artifacts)
        artifacts->publish(kind, key, encode(value));
    return value;
}

} // namespace

Result<minic::CompileResult>
StageCaches::compileLookup(
    uint64_t key,
    const std::function<Result<minic::CompileResult>()> &compute,
    bool *was_hit)
{
    return compile.getOrCompute(
        key,
        [&] {
            return throughStore<Result<minic::CompileResult>>(
                artifacts.get(), store::ArtifactKind::Compile,
                {key, 0}, compute, persist::encodeCompile,
                persist::decodeCompile);
        },
        was_hit);
}

SimOutcome
StageCaches::simLookup(const explore::FingerprintPair &key,
                       const std::function<SimOutcome()> &compute,
                       bool *was_hit)
{
    return sim.getOrCompute(
        key,
        [&] {
            return throughStore<SimOutcome>(
                artifacts.get(), store::ArtifactKind::Sim,
                {key.first, key.second}, compute,
                persist::encodeSim, persist::decodeSim);
        },
        was_hit);
}

SynthOutcome
StageCaches::synthLookup(const explore::FingerprintPair &key,
                         const std::function<SynthOutcome()> &compute,
                         bool *was_hit)
{
    return synth.getOrCompute(
        key,
        [&] {
            return throughStore<SynthOutcome>(
                artifacts.get(), store::ArtifactKind::Synth,
                {key.first, key.second}, compute,
                persist::encodeSynth, persist::decodeSynth);
        },
        was_hit);
}

Result<SynthReport>
StageCaches::synthReportLookup(
    const explore::FingerprintPair &key,
    const std::function<Result<SynthReport>()> &compute,
    bool *was_hit)
{
    return synthReport.getOrCompute(
        key,
        [&] {
            return throughStore<Result<SynthReport>>(
                artifacts.get(), store::ArtifactKind::SynthReport,
                {key.first, key.second}, compute,
                persist::encodeSynthReport,
                persist::decodeSynthReport);
        },
        was_hit);
}

} // namespace rissp::flow
