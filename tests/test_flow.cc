/**
 * @file
 * Tests for the Flow API: the Status/Result error layer and every
 * recoverable failure path of FlowService — malformed plan text,
 * unknown workloads and mnemonics, MiniC compile errors, trapped
 * programs, co-simulation mismatches, impossible synthesis corners,
 * invalid retarget targets. All of these paths used to abort the
 * process, which is why none of them had coverage before.
 *
 * Also pins down the service properties a daemon depends on: stage
 * granularity (partial results survive downstream failures), shared
 * memoization across request verbs, and reentrancy under concurrent
 * callers.
 */

#include <gtest/gtest.h>

#include <thread>

#include "flow/flow.hh"
#include "flow/json.hh"

namespace rissp::flow
{
namespace
{

// A tiny valid program: returns 55 (sum of 1..10).
const char *kSumSource = R"(
    int main(void) {
        int sum = 0;
        for (int i = 1; i <= 10; i++)
            sum += i;
        return sum;
    }
)";

// ------------------------------------------------- status & result

TEST(Status, DefaultIsOkAndErrorsCarryCodeAndMessage)
{
    const Status ok;
    EXPECT_TRUE(ok.isOk());
    EXPECT_EQ(ok.code(), ErrorCode::Ok);
    EXPECT_EQ(ok.toString(), "ok");

    const Status err = Status::errorf(ErrorCode::NotFound,
                                      "no such thing '%s'", "x");
    EXPECT_FALSE(err.isOk());
    EXPECT_EQ(err.code(), ErrorCode::NotFound);
    EXPECT_EQ(err.toString(), "not_found: no such thing 'x'");
}

TEST(Status, ResultHoldsValueOrStatus)
{
    Result<int> good = 42;
    ASSERT_TRUE(good.isOk());
    EXPECT_EQ(good.value(), 42);
    EXPECT_EQ(good.valueOr(0), 42);

    Result<int> bad =
        Status::error(ErrorCode::InvalidArgument, "nope");
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(bad.valueOr(7), 7);
}

// --------------------------------------------- recoverable library

TEST(Library, MalformedMiniCIsACompileErrorValue)
{
    const Result<minic::CompileResult> r =
        minic::tryCompile("int main( { return 0; }",
                          minic::OptLevel::O2);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.code(), ErrorCode::CompileError);
    EXPECT_NE(r.status().message().find("line"), std::string::npos);
}

TEST(Library, UnknownMnemonicIsInvalidArgument)
{
    const Result<InstrSubset> r =
        InstrSubset::tryFromNames({"addi", "addq"});
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(r.status().message().find("addq"), std::string::npos);
}

TEST(Library, ImpossibleTechCornerIsASynthErrorValue)
{
    explore::TechSpec corner;
    // Sweep window above the end frequency: no point can be met.
    ASSERT_TRUE(corner.trySet("sweepStartKhz", 5000).isOk());
    const SynthesisModel model(corner.tech);
    const Result<SynthReport> r = model.trySynthesize(
        InstrSubset::fromNames({"addi", "add", "jal"}), "corner");
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.code(), ErrorCode::SynthError);
    EXPECT_NE(r.status().message().find("no sweep point"),
              std::string::npos);
}

TEST(Library, UnknownTechKnobIsInvalidArgument)
{
    explore::TechSpec spec;
    const Status status = spec.trySet("frobnication", 3.0);
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
}

// -------------------------------------------------- characterize

TEST(FlowCharacterize, UnknownWorkloadIsNotFound)
{
    FlowService service;
    CharacterizeRequest request;
    request.source = SourceRef::bundled("not-a-workload");
    const CharacterizeResponse response =
        service.characterize(request);
    EXPECT_EQ(response.status.code(), ErrorCode::NotFound);
    EXPECT_FALSE(response.compile.run);
    EXPECT_FALSE(response.subset.run);
}

TEST(FlowCharacterize, CompileErrorCarriesLineDiagnostic)
{
    FlowService service;
    CharacterizeRequest request;
    request.source = SourceRef::inlineText("int main(void) { ret }");
    const CharacterizeResponse response =
        service.characterize(request);
    EXPECT_EQ(response.status.code(), ErrorCode::CompileError);
    EXPECT_NE(response.status.message().find("line"),
              std::string::npos);
}

TEST(FlowCharacterize, ValidSourceReportsCompileAndSubset)
{
    FlowService service;
    CharacterizeRequest request;
    request.source = SourceRef::inlineText(kSumSource, "sum");
    const CharacterizeResponse response =
        service.characterize(request);
    ASSERT_TRUE(response.status.isOk());
    EXPECT_TRUE(response.compile.run);
    EXPECT_GT(response.compile.staticInstructions, 0u);
    EXPECT_TRUE(response.subset.run);
    EXPECT_GT(response.subset.subset.size(), 0u);
    EXPECT_LT(response.subset.subset.size(), kFullIsaSize);
}

// ---------------------------------------------------------- run

TEST(FlowRun, TrappedProgramKeepsEarlierStages)
{
    FlowService service;
    RunRequest request;
    request.source = SourceRef::inlineText(kSumSource, "sum");
    // A chip that implements almost nothing: the program traps.
    request.subsetOverride =
        InstrSubset::fromNames({"addi", "jal"});
    const RunResponse response = service.run(request);
    EXPECT_EQ(response.status.code(), ErrorCode::Trap);
    // Stage granularity: everything up to the trap is reported.
    EXPECT_TRUE(response.compile.run);
    EXPECT_TRUE(response.subset.run);
    ASSERT_TRUE(response.exec.run);
    EXPECT_EQ(response.exec.reason, StopReason::Trapped);
    EXPECT_FALSE(response.cosim.run);
}

TEST(FlowRun, StepLimitIsReported)
{
    FlowService service;
    RunRequest request;
    request.source = SourceRef::inlineText(kSumSource, "sum");
    request.maxSteps = 5;
    const RunResponse response = service.run(request);
    EXPECT_EQ(response.status.code(), ErrorCode::StepLimit);
    ASSERT_TRUE(response.exec.run);
    EXPECT_EQ(response.exec.reason, StopReason::StepLimit);
}

TEST(FlowRun, CleanRunVerifies)
{
    FlowService service;
    RunRequest request;
    request.source = SourceRef::inlineText(kSumSource, "sum");
    request.verify = true;
    const RunResponse response = service.run(request);
    ASSERT_TRUE(response.status.isOk());
    EXPECT_EQ(response.exec.reason, StopReason::Halted);
    EXPECT_EQ(response.exec.exitCode, 55u);
    ASSERT_TRUE(response.cosim.run);
    EXPECT_TRUE(response.cosim.passed);
    EXPECT_GT(response.cosim.rvfiEventsChecked, 0u);
}

TEST(FlowRun, InjectedFaultIsACosimMismatch)
{
    FlowService service;
    RunRequest request;
    request.source = SourceRef::inlineText(kSumSource, "sum");
    request.verify = true;
    request.injectFault =
        Mutation{Mutation::Kind::CarryChainBreak, 1};
    const RunResponse response = service.run(request);
    EXPECT_EQ(response.status.code(), ErrorCode::CosimMismatch);
    // The un-faulted execution stage itself completed fine…
    ASSERT_TRUE(response.exec.run);
    EXPECT_EQ(response.exec.reason, StopReason::Halted);
    // …and the cosim stage pinpoints the divergence.
    ASSERT_TRUE(response.cosim.run);
    EXPECT_FALSE(response.cosim.passed);
    EXPECT_FALSE(response.cosim.firstDivergence.empty());
}

// --------------------------------------------------------- synth

TEST(FlowSynth, EmptySubsetOverrideIsInvalidArgument)
{
    FlowService service;
    SynthRequest request;
    request.subsetOverride = InstrSubset();
    const SynthResponse response = service.synth(request);
    EXPECT_EQ(response.status.code(), ErrorCode::InvalidArgument);
    EXPECT_FALSE(response.synth.run);
}

TEST(FlowSynth, BaselinesAndPhysicalRide)
{
    FlowService service;
    SynthRequest request;
    request.source = SourceRef::inlineText(kSumSource, "sum");
    request.name = "RISSP-sum";
    const SynthResponse response = service.synth(request);
    ASSERT_TRUE(response.status.isOk());
    ASSERT_TRUE(response.synth.run);
    EXPECT_EQ(response.synth.app.name, "RISSP-sum");
    ASSERT_TRUE(response.synth.baselinesRun);
    EXPECT_LT(response.synth.app.avgAreaGe,
              response.synth.fullIsa.avgAreaGe);
    ASSERT_TRUE(response.phys.run);
    EXPECT_GT(response.phys.report.dieAreaMm2, 0.0);
}

TEST(FlowSynth, RegistryTechSelectsTheCostModel)
{
    FlowService service;
    SynthRequest request;
    request.source = SourceRef::inlineText(kSumSource, "sum");

    const SynthResponse flexic = service.synth(request);
    ASSERT_TRUE(flexic.status.isOk());
    EXPECT_EQ(flexic.synth.tech, "flexic-0.6um");

    Result<explore::TechSpec> silicon =
        explore::TechSpec::fromSpec("silicon-65nm");
    ASSERT_TRUE(silicon.isOk());
    request.tech = silicon.take();
    const SynthResponse si = service.synth(request);
    ASSERT_TRUE(si.status.isOk());
    EXPECT_EQ(si.synth.tech, "silicon-65nm");
    // Same netlist, different process: the silicon node clocks far
    // higher than IGZO, and so does its full-ISA baseline.
    EXPECT_GT(si.synth.app.fmaxKhz,
              100.0 * flexic.synth.app.fmaxKhz);
    EXPECT_DOUBLE_EQ(si.synth.app.combGates,
                     flexic.synth.app.combGates);
    ASSERT_TRUE(si.synth.baselinesRun);
    EXPECT_GT(si.synth.fullIsa.fmaxKhz,
              flexic.synth.fullIsa.fmaxKhz);
}

TEST(FlowSynth, UnknownRegistryTechIsNotFound)
{
    const Result<explore::TechSpec> spec =
        explore::TechSpec::fromSpec("not-a-tech");
    ASSERT_FALSE(spec.isOk());
    EXPECT_EQ(spec.code(), ErrorCode::NotFound);
    EXPECT_NE(spec.status().message().find("flexic-0.6um"),
              std::string::npos);
}

// ------------------------------------------------------ retarget

TEST(FlowRetarget, TargetWithoutKernelOpsIsInvalidArgument)
{
    FlowService service;
    RetargetRequest request;
    request.source = SourceRef::inlineText(kSumSource, "sum");
    request.target = InstrSubset::fromNames({"addi", "lw"});
    const RetargetResponse response = service.retarget(request);
    EXPECT_EQ(response.status.code(), ErrorCode::InvalidArgument);
    EXPECT_TRUE(response.compile.run);   // partial result
    EXPECT_FALSE(response.retarget.run);
}

TEST(FlowRetarget, MinimalTargetRoundTrips)
{
    FlowService service;
    RetargetRequest request;
    request.source = SourceRef::bundled("crc32");
    const RetargetResponse response = service.retarget(request);
    ASSERT_TRUE(response.status.isOk());
    ASSERT_TRUE(response.retarget.run);
    EXPECT_TRUE(response.retarget.result.ok);
    ASSERT_TRUE(response.equivalence.run);
    EXPECT_TRUE(response.equivalence.matched);
    EXPECT_EQ(response.equivalence.dutReason, StopReason::Halted);
}

// ------------------------------------------------------- explore

TEST(FlowExplore, MalformedPlanReportsEveryLine)
{
    FlowService service;
    ExploreRequest request;
    request.planText =
        "frobnicate everything\n"
        "workload not-a-workload\n"
        "subset s = addq\n"
        "workload crc32\n";
    const ExploreResponse response = service.explore(request);
    ASSERT_EQ(response.status.code(), ErrorCode::ParseError);
    const std::string &message = response.status.message();
    EXPECT_NE(message.find("plan line 1: cannot parse"),
              std::string::npos);
    EXPECT_NE(message.find("plan line 2: unknown workload"),
              std::string::npos);
    EXPECT_NE(message.find("plan line 3: unknown instruction"),
              std::string::npos);
}

TEST(FlowExplore, InvalidProgrammaticPlanIsRejected)
{
    FlowService service;
    ExploreRequest request;
    explore::ExplorationPlan plan; // no axes at all
    request.plan = plan;
    const ExploreResponse response = service.explore(request);
    EXPECT_EQ(response.status.code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(response.table.size(), 0u);
}

TEST(FlowExplore, ValidPlanSweeps)
{
    FlowService service(nullptr, 2);
    ExploreRequest request;
    request.planText =
        "mode cartesian\n"
        "workload crc32\n"
        "subset fit  = @crc32\n"
        "subset full = @full\n";
    const ExploreResponse response = service.explore(request);
    ASSERT_TRUE(response.status.isOk());
    ASSERT_EQ(response.table.size(), 2u);
    EXPECT_TRUE(response.table.row(0).cosimPassed);
    EXPECT_EQ(response.stats.points, 2u);
}

TEST(FlowExplore, MultiTechPlanTagsEveryRow)
{
    // One worker: the sweep runs inline, in plan order.
    FlowService service(nullptr, 1);
    ExploreRequest request;
    request.planText =
        "mode cartesian\n"
        "workload crc32\n"
        "subset fit  = @crc32\n"
        "subset full = @full\n"
        "tech flexic-0.6um\n"
        "tech silicon-65nm\n";
    const ExploreResponse response = service.explore(request);
    ASSERT_TRUE(response.status.isOk());
    ASSERT_EQ(response.table.size(), 4u);
    for (const explore::ExplorationResult &row :
         response.table.rows()) {
        EXPECT_TRUE(row.simRun && row.synthRun);
        EXPECT_FALSE(row.techName.empty());
        EXPECT_TRUE(row.techName == "flexic-0.6um" ||
                    row.techName == "silicon-65nm")
            << row.techName;
    }
    // Tech is the outer axis; the second corner reuses every
    // simulation (the workload result is tech-independent) but
    // synthesizes fresh.
    EXPECT_EQ(response.table.row(0).techName, "flexic-0.6um");
    EXPECT_EQ(response.table.row(2).techName, "silicon-65nm");
    EXPECT_TRUE(response.table.row(2).simMemoHit);
    EXPECT_FALSE(response.table.row(2).synthMemoHit);
    EXPECT_GT(response.table.row(2).fmaxKhz,
              response.table.row(0).fmaxKhz);
    // The CSV/JSON emitters carry the tech name on every row.
    const std::string csv = response.table.csv();
    EXPECT_NE(csv.find(",silicon-65nm,"), std::string::npos);
    const std::string json = response.table.json();
    EXPECT_NE(json.find("\"tech\": \"silicon-65nm\""),
              std::string::npos);
}

TEST(FlowExplore, RepeatedRequestsGetByteIdenticalResponses)
{
    // The response stats are per-request engine stats, not the
    // service-cumulative counters: a second identical request on a
    // warm service must serialize byte-identically to the first
    // (daemon clients diff responses; warmth must be invisible).
    FlowService service;
    ExploreRequest request;
    request.planText =
        "mode cartesian\n"
        "workload crc32\n"
        "subset fit  = @crc32\n"
        "subset full = @full\n";
    const ExploreResponse first = service.explore(request);
    ASSERT_TRUE(first.status.isOk());
    const ExploreResponse second = service.explore(request);
    EXPECT_EQ(toJson(first), toJson(second));
    // The service-cumulative view still moves — it lives on
    // stats(), not on the response.
    EXPECT_GT(service.stats().simHits, 0u);
}

// ------------------------------------- shared caches & reentrancy

TEST(FlowService, VerbsShareTheCompileCache)
{
    FlowService service;
    CharacterizeRequest request;
    request.source = SourceRef::bundled("crc32");

    service.characterize(request);
    const uint64_t misses_after_first = service.stats().compileMisses;
    EXPECT_EQ(misses_after_first, 1u);

    // Same source again: a hit, not a recompile.
    service.characterize(request);
    EXPECT_EQ(service.stats().compileMisses, misses_after_first);
    EXPECT_GE(service.stats().compileHits, 1u);

    // An explore touching the same workload at the same opt level
    // reuses the verb's compilation.
    ExploreRequest explore;
    explore.planText = "workload crc32\nsubset fit = @crc32\n";
    const ExploreResponse swept = service.explore(explore);
    ASSERT_TRUE(swept.status.isOk());
    EXPECT_EQ(service.stats().compileMisses, misses_after_first);
}

TEST(FlowService, FailedCompilesAreCachedToo)
{
    FlowService service;
    CharacterizeRequest request;
    request.source = SourceRef::inlineText("}{", "broken");
    EXPECT_EQ(service.characterize(request).status.code(),
              ErrorCode::CompileError);
    EXPECT_EQ(service.characterize(request).status.code(),
              ErrorCode::CompileError);
    EXPECT_EQ(service.stats().compileMisses, 1u);
    EXPECT_EQ(service.stats().compileHits, 1u);
}

TEST(FlowService, ConcurrentMixedRequestsAreSafe)
{
    FlowService service;
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int t = 0; t < 8; ++t) {
        workers.emplace_back([&service, &failures, t] {
            if (t % 2 == 0) {
                RunRequest request;
                request.source =
                    SourceRef::inlineText(kSumSource, "sum");
                request.verify = true;
                const RunResponse response = service.run(request);
                if (!response.status.isOk() ||
                    response.exec.exitCode != 55)
                    failures.fetch_add(1);
            } else {
                CharacterizeRequest request;
                request.source = SourceRef::bundled("crc32");
                if (!service.characterize(request).status.isOk())
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(failures.load(), 0);
    // Exactly two distinct sources were ever compiled.
    EXPECT_EQ(service.stats().compileMisses, 2u);
}

// ------------------------------------------------- async & batch

TEST(FlowBatch, MixedBatchMatchesSynchronousResponses)
{
    FlowService service;
    std::vector<Request> requests;
    CharacterizeRequest characterize;
    characterize.source = SourceRef::bundled("crc32");
    requests.push_back(characterize);
    RunRequest run;
    run.source = SourceRef::inlineText(kSumSource, "sum");
    run.verify = true;
    requests.push_back(run);
    SynthRequest synth;
    synth.source = SourceRef::bundled("crc32");
    requests.push_back(synth);
    RetargetRequest retarget;
    retarget.source = SourceRef::bundled("crc32");
    requests.push_back(retarget);
    RunRequest bad;
    bad.source = SourceRef::bundled("not-a-workload");
    requests.push_back(bad);
    ExploreRequest explore;
    explore.planText = "workload crc32\nsubset fit = @crc32\n";
    requests.push_back(explore);

    const std::vector<Response> responses =
        service.runBatch(requests);
    ASSERT_EQ(responses.size(), requests.size());

    // A failing request doesn't disturb its neighbours, and
    // responses come back in request order.
    EXPECT_TRUE(responseStatus(responses[0]).isOk());
    EXPECT_TRUE(responseStatus(responses[3]).isOk());
    EXPECT_EQ(responseStatus(responses[4]).code(),
              ErrorCode::NotFound);
    EXPECT_TRUE(responseStatus(responses[5]).isOk());

    // Every batched response is byte-identical (JSON) to its
    // synchronous twin from a fresh service. (The explore response
    // embeds service-cumulative cache statistics, so only its table
    // is compared.)
    FlowService fresh;
    for (size_t i = 0; i + 1 < requests.size(); ++i)
        EXPECT_EQ(toJson(responses[i]),
                  toJson(fresh.dispatch(requests[i])))
            << "request " << i;
    const auto *swept =
        std::get_if<ExploreResponse>(&responses.back());
    ASSERT_NE(swept, nullptr);
    const Response syncExplore = fresh.dispatch(requests.back());
    EXPECT_EQ(swept->table.csv(),
              std::get<ExploreResponse>(syncExplore).table.csv());
}

TEST(FlowAsync, TenIdenticalSynthRequestsSweepOnce)
{
    // The promise-backed synthReport entries memoize in-flight
    // *work*: ten concurrent requests for the same subset run the
    // app sweep and the full-ISA baseline sweep once each, and the
    // source compiles once.
    FlowService service;
    SynthRequest request;
    request.source = SourceRef::bundled("crc32");
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 10; ++i)
        futures.push_back(service.submitAsync(Request(request)));
    std::string first;
    for (std::future<Response> &future : futures) {
        const Response response = future.get();
        EXPECT_TRUE(responseStatus(response).isOk());
        if (first.empty())
            first = toJson(response);
        else
            EXPECT_EQ(toJson(response), first);
    }
    EXPECT_EQ(service.caches()->synthReport.misses(), 2u);
    EXPECT_EQ(service.caches()->synthReport.hits(), 18u);
    EXPECT_EQ(service.stats().compileMisses, 1u);
}

TEST(FlowAsync, FutureCarriesErrorsAsValues)
{
    FlowService service;
    RunRequest request;
    request.source = SourceRef::inlineText("}{", "broken");
    std::future<Response> future =
        service.submitAsync(Request(request));
    const Response response = future.get(); // does not throw
    EXPECT_EQ(responseStatus(response).code(),
              ErrorCode::CompileError);
    const auto *run = std::get_if<RunResponse>(&response);
    ASSERT_NE(run, nullptr);
    EXPECT_FALSE(run->compile.run);
    EXPECT_FALSE(run->exec.run);
}

// ---------------------------------------------------------- json

TEST(FlowJson, ResponsesRenderStatusAndStages)
{
    FlowService service;
    CharacterizeRequest request;
    request.source = SourceRef::inlineText(kSumSource, "sum");
    const std::string good =
        toJson(service.characterize(request));
    EXPECT_NE(good.find("\"status\": {\"code\": \"ok\""),
              std::string::npos);
    EXPECT_NE(good.find("\"compile\": {\"run\": true"),
              std::string::npos);
    EXPECT_NE(good.find("\"instructions\": ["), std::string::npos);

    request.source = SourceRef::bundled("not-a-workload");
    const std::string bad = toJson(service.characterize(request));
    EXPECT_NE(bad.find("\"code\": \"not_found\""),
              std::string::npos);
    EXPECT_NE(bad.find("\"compile\": {\"run\": false}"),
              std::string::npos);
}

} // namespace
} // namespace rissp::flow
