/**
 * @file
 * serve_mix: the daemon path. An in-process HttpServer on loopback,
 * over a service with nproc scheduler threads, takes an open loop at
 * one fixed offered rate from nproc generator threads, each on one
 * keep-alive connection. Every request has a due time on a fixed
 * schedule and its latency runs from that due time, so a stall is
 * charged to every request queued behind it; the generator reports
 * how late it sent.
 *
 * The seeded mix is mostly cache-hot characterize/run/synth on the
 * bundled workloads; a small share is cold characterize on inline
 * variants (a bundled source with a unique unused function appended,
 * which forces a compile miss). Retarget and explore are left out:
 * app_flow and explore_sweep cover them, and a 100+ ms request would
 * own the tail.
 *
 * Every served body must be byte-equal to flow::toJson of the same
 * request on a separate in-process reference service.
 */

#include <algorithm>
#include <atomic>
#include <map>
#include <cstdio>
#include <sys/prctl.h>
#include <thread>

#include "flow/json.hh"
#include "net/rest.hh"
#include "phases.hh"
#include "tests/http_client.hh"
#include "trace.hh"
#include "util/json.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace rissp;
using testutil::HttpClient;

namespace
{

/** Offered load, frozen well below the closed-loop capacity that
 *  the capacity probe measures (see NOTES.md): the open loop then
 *  measures latency at a steady queue, not a growing backlog. */
constexpr double kOfferedRps = 500;

/** One cycle of the mix gives every bundled workload these slots:
 *  hot characterize, hot run, hot synth, cold inline characterize.
 *  The seed shuffles each cycle and names the cold variants; the
 *  composition is exact, so both percentiles see the same mix
 *  whatever the seed.
 *
 *  Hot characterize and synth, which do no simulation, are two thirds
 *  of the mix, so p50 falls inside their cluster: it measures the
 *  daemon's own path (framing, JSON, scheduler hand-off), not how
 *  long some workload runs. The tail workload, the longest run, gets
 *  extra run slots so its runs are 8 / 379 = 2.1 % of requests: p99
 *  sits mid-way into their cluster rather than on its edge. */
constexpr unsigned kCharacterizeSlots = 6;
constexpr unsigned kRunSlots = 4;
constexpr unsigned kSynthSlots = 4;
constexpr unsigned kColdSlots = 1;
constexpr unsigned kSlotsPerWorkload =
    kCharacterizeSlots + kRunSlots + kSynthSlots + kColdSlots;
constexpr const char *kTailWorkload = "primecount";
constexpr unsigned kTailExtraRuns = 4;

constexpr double kProbeSeconds = 1.0;
constexpr int kProbeSamples = 300;

struct Planned
{
    const char *verb;
    std::string body;
    bool cold = false; ///< an inline variant: a compile miss
    const std::string *expected = nullptr;
};

std::string
bundledBody(const std::string &workload)
{
    return "{\"workload\": \"" + jsonEscape(workload) + "\"}";
}

size_t
cycleSize()
{
    return allWorkloads().size() * kSlotsPerWorkload + kTailExtraRuns;
}

/** Draw @p cycles whole cycles of the seeded mix. */
std::vector<Planned>
drawMix(Inputs &inputs, size_t cycles, ServeFixture *fixture)
{
    std::vector<Planned> mix;
    for (size_t c = 0; c < cycles; ++c) {
        std::vector<Planned> cycle;
        for (const rissp::Workload &w : allWorkloads()) {
            const std::string body = bundledBody(w.name);
            for (unsigned i = 0; i < kCharacterizeSlots; ++i)
                cycle.push_back({"characterize", body});
            const unsigned runs =
                kRunSlots + (w.name == kTailWorkload ? kTailExtraRuns : 0);
            for (unsigned i = 0; i < runs; ++i)
                cycle.push_back({"run", body});
            for (unsigned i = 0; i < kSynthSlots; ++i)
                cycle.push_back({"synth", body});
            for (unsigned i = 0; i < kColdSlots; ++i) {
                const uint64_t variant = inputs.serveVariants++;
                const std::string source = w.source + "\nint pb_unused_" +
                    std::to_string(inputs.seed) + "_" +
                    std::to_string(variant) + "(int x)\n{\n    return x + " +
                    std::to_string(variant % 1000) + ";\n}\n";
                cycle.push_back({"characterize",
                                 "{\"source\": \"" + jsonEscape(source) +
                                     "\"}",
                                 true});
            }
        }
        shuffle(cycle, inputs.serveRng);
        for (Planned &p : cycle) {
            if (fixture)
                p.expected = &fixture->expected(p.verb, p.body);
            mix.push_back(std::move(p));
        }
    }
    return mix;
}

std::string
targetOf(const char *verb)
{
    return std::string("/api/v1/") + verb;
}

/** Closed loop: each generator thread sends its next request as soon
 *  as the previous one answers. Returns completed requests/s. */
double
probeCapacity(ServeFixture &fixture, Inputs &inputs, unsigned threads,
              Outcome &out)
{
    const std::vector<Planned> mix = drawMix(inputs, 4, nullptr);
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> done{0}, bad{0};
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&] {
            HttpClient client;
            while (secondsSince(start) < kProbeSeconds) {
                const Planned &p = mix[next.fetch_add(1) % mix.size()];
                if (!client.connected() && !client.connect(fixture.port())) {
                    ++bad;
                    continue;
                }
                const auto reply =
                    client.request("POST", targetOf(p.verb), p.body,
                                   /*keep_alive=*/true);
                if (!reply)
                    client.disconnect();
                ++(reply && reply->status == 200 ? done : bad);
            }
        });
    for (std::thread &t : pool)
        t.join();
    const double seconds = secondsSince(start);
    out.count(done + bad, bad);
    if (bad)
        out.fail("serve: capacity probe saw failed requests");
    return static_cast<double>(done.load()) / seconds;
}

/** p50 of @p samples calls of @p fn, in microseconds. */
template <typename Fn>
double
p50Us(int samples, Fn fn)
{
    std::vector<double> us;
    for (int i = 0; i < samples; ++i) {
        const Clock::time_point t0 = Clock::now();
        fn();
        us.push_back(msBetween(t0, Clock::now()) * 1e3);
    }
    return median(us);
}

/** The per-layer numbers of the traced serve run that do not come
 *  from the open loop itself: in-process vs served hot latency. */
void
probeLayers(ServeFixture &fixture, Outcome &out)
{
    HttpClient client;
    if (!client.connect(fixture.port())) {
        out.fail("serve: cannot connect for the layer probes");
        return;
    }
    bool ok = true;
    const double healthz = p50Us(kProbeSamples, [&] {
        Span span("net.healthz");
        const auto reply = client.request("GET", "/healthz", "", true);
        ok &= reply && reply->status == 200;
    });

    const std::string body = bundledBody("crc32");
    const std::string &want = fixture.expected("characterize", body);
    const Result<flow::Request> request =
        net::requestFromBody(net::Verb::Characterize, body);
    if (!request) {
        out.fail("serve: probe request did not map");
        return;
    }
    flow::Response response;
    const double dispatch = p50Us(kProbeSamples, [&] {
        Span span("flow.dispatch");
        response = fixture.service.dispatch(request.value());
    });
    std::string encoded;
    const double encode = p50Us(kProbeSamples, [&] {
        Span span("flow.encode");
        encoded = flow::toJson(response);
    });
    ok &= encoded == want;
    const double served = p50Us(kProbeSamples, [&] {
        Span span("net.request");
        const auto reply =
            client.request("POST", targetOf("characterize"), body,
                               true);
        ok &= reply && reply->status == 200 && reply->body == want;
    });
    out.count(3 * kProbeSamples, ok ? 0 : 1);
    if (!ok)
        out.fail("serve: a layer probe got a wrong answer");
    setLayer(out, "net.healthz_p50_us", healthz);
    setLayer(out, "flow.dispatch_p50_us", dispatch);
    setLayer(out, "flow.encode_us", encode);
    setLayer(out, "net.overhead_p50_us", served - dispatch - encode);
}

} // namespace

ServeFixture::ServeFixture(unsigned threads)
    : service(flow::ServiceOptions{threads, "", nullptr}),
      server(service,
             [] {
                 net::ServeOptions options;
                 options.maxQueue = 4096; // never refuse at this load
                 return options;
             }()),
      reference(flow::ServiceOptions{1, "", nullptr}), threads(threads)
{
}

bool
ServeFixture::start()
{
    if (!server.start().isOk())
        return false;
    // Warm the served caches with every hot request of the mix, so
    // the open loop measures the daemon's steady state, and compute
    // the reference answers for them. The requests are spread over one
    // thread per CPU. One thread runs at the speed of the vCPU it lands
    // on, and on a shared host a vCPU's speed flips by ~1.5x from one
    // second to the next as other tenants load its core: set-up on one
    // thread took either ~90 or ~140 ms. Spread over every vCPU, it
    // follows their mean. Runs go first, as they are the longest.
    struct Warm
    {
        const char *verb;
        std::string body;
        flow::Request request;
        std::string answer;
    };
    std::vector<Warm> warm;
    for (const char *verb : {"run", "characterize", "synth"})
        for (const rissp::Workload &w : allWorkloads()) {
            const std::string body = bundledBody(w.name);
            const Result<net::Verb> v = net::verbFromName(verb);
            Result<flow::Request> request =
                net::requestFromBody(v.value(), body);
            if (!request)
                return false;
            warm.push_back({verb, body, request.take(), ""});
        }
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&] {
            for (size_t i; (i = next.fetch_add(1)) < warm.size();) {
                service.dispatch(warm[i].request);
                warm[i].answer =
                    flow::toJson(reference.dispatch(warm[i].request));
            }
        });
    for (std::thread &t : pool)
        t.join();
    for (Warm &w : warm)
        expectedBodies.emplace(std::string(w.verb) + "\n" + w.body,
                               std::move(w.answer));
    return true;
}

std::vector<double>
ServeResult::windowPercentiles(double q) const
{
    const size_t n = latencyMs.size();
    const size_t width = 3 * cycleSize();
    std::vector<double> out;
    for (size_t from = 0; out.empty() || from + width <= n;
         from += cycleSize()) {
        const auto begin = latencyMs.begin() + static_cast<ptrdiff_t>(from);
        out.push_back(percentile(
            {begin, begin + static_cast<ptrdiff_t>(std::min(width, n - from))},
            q));
    }
    return out;
}

const std::string &
ServeFixture::expected(const std::string &verb, const std::string &body)
{
    const std::string key = verb + "\n" + body;
    auto it = expectedBodies.find(key);
    if (it != expectedBodies.end())
        return it->second;
    std::string want = "<request did not map>";
    const Result<net::Verb> v = net::verbFromName(verb);
    if (v) {
        const Result<flow::Request> request =
            net::requestFromBody(v.value(), body);
        if (request)
            want = flow::toJson(reference.dispatch(request.value()));
    }
    return expectedBodies.emplace(key, std::move(want)).first->second;
}

void
runServeMix(ServeFixture &fixture, Inputs &inputs,
            const RunConfig &config, double budget_s, bool traced,
            Outcome &out, ServeResult &acc)
{
    double capacity = 0;
    if (traced) {
        capacity = probeCapacity(fixture, inputs, config.threads, out);
        std::printf("serve_mix: closed-loop capacity %.0f req/s over "
                    "%.1f s with %u connections; offered rate %.0f "
                    "req/s (%.0f %% of capacity)\n",
                    capacity, kProbeSeconds, config.threads, kOfferedRps,
                    capacity > 0 ? 100.0 * kOfferedRps / capacity : 0.0);
    }

    // Whole cycles only, so every window sees the exact mix.
    const size_t cycles = std::max<size_t>(
        1, static_cast<size_t>(kOfferedRps * budget_s /
                                   static_cast<double>(cycleSize()) +
                               0.5));
    const std::vector<Planned> mix = drawMix(inputs, cycles, &fixture);
    const size_t n = mix.size();

    struct Sample
    {
        double latencyMs = 0;
        double latenessMs = 0;
        bool ok = false;
    };
    std::vector<Sample> samples(n);
    const net::MetricsSnapshot before = fixture.server.metrics();
    const explore::ExplorerStats statsBefore = fixture.service.stats();

    std::atomic<bool> running{true};
    std::atomic<size_t> depthMax{0};
    std::thread sampler;
    if (traced)
        sampler = std::thread([&] {
            while (running.load()) {
                const size_t depth =
                    fixture.server.metrics().schedulerQueueDepth;
                if (depth > depthMax.load())
                    depthMax.store(depth);
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });

    std::atomic<size_t> next{0};
    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> generators;
    for (unsigned t = 0; t < config.threads; ++t)
        generators.emplace_back([&] {
            // The default 50 us timer slack would make every wake-up
            // late, and that lateness is charged as latency.
            ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
            HttpClient client;
            for (;;) {
                const size_t i = next.fetch_add(1);
                if (i >= n)
                    break;
                const Clock::time_point due = t0 +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / kOfferedRps));
                std::this_thread::sleep_until(due);
                const Clock::time_point sent = Clock::now();
                Span span("net.request");
                std::optional<testutil::HttpResponse> reply;
                if (client.connected() || client.connect(fixture.port()))
                    reply = client.request("POST", targetOf(mix[i].verb),
                                           mix[i].body, true);
                span.stop();
                const Clock::time_point done = Clock::now();
                if (!reply)
                    client.disconnect();
                Sample &s = samples[i];
                s.latencyMs = msBetween(due, done);
                s.latenessMs = msBetween(due, sent);
                s.ok = reply && reply->status == 200 &&
                    reply->body == *mix[i].expected;
            }
        });
    for (std::thread &t : generators)
        t.join();
    running.store(false);
    if (sampler.joinable())
        sampler.join();

    const net::MetricsSnapshot after = fixture.server.metrics();
    const explore::ExplorerStats statsAfter = fixture.service.stats();

    std::vector<double> latency, lateness;
    std::map<std::string, std::vector<double>> byKind;
    uint64_t bad = 0;
    for (size_t i = 0; i < n; ++i) {
        latency.push_back(samples[i].latencyMs);
        lateness.push_back(samples[i].latenessMs);
        byKind[mix[i].cold ? "cold" : mix[i].verb].push_back(
            samples[i].latencyMs);
        bad += !samples[i].ok;
        acc.digest.add(*mix[i].expected);
    }
    acc.latencyMs.insert(acc.latencyMs.end(), latency.begin(),
                         latency.end());
    out.count(n, bad);
    if (bad)
        out.fail("serve: " + std::to_string(bad) + " of " +
                 std::to_string(n) +
                 " requests failed or differ from the reference bytes");
    const double lateP99 = percentile(lateness, 0.99);
    std::printf("serve_mix: window of %zu requests at %.0f req/s: p50 "
                "%.3f ms p99 %.3f ms; generator lateness p50 %.3f ms p99 "
                "%.3f ms over %zu samples; p50 by kind:",
                n, kOfferedRps, percentile(latency, 0.5),
                percentile(latency, 0.99), percentile(lateness, 0.5),
                lateP99, lateness.size());
    for (const auto &[kind, ms] : byKind)
        std::printf(" %s %.3f ms", kind.c_str(), median(ms));
    std::printf("\n");

    if (traced) {
        probeLayers(fixture, out);
        setLayer(out, "exec.tasks_run",
                 static_cast<double>(after.schedulerExecuted -
                                     before.schedulerExecuted));
        setLayer(out, "exec.steals",
                 static_cast<double>(after.schedulerSteals -
                                     before.schedulerSteals));
        setLayer(out, "exec.queue_depth_max",
                 static_cast<double>(depthMax.load()));
        setLayer(out, "net.partial_writes",
                 static_cast<double>(after.partialWrites -
                                     before.partialWrites));
        setLayer(out, "net.rejected_queue_full",
                 static_cast<double>(after.rejectedQueueFull -
                                     before.rejectedQueueFull));
        setLayer(out, "net.http_errors",
                 static_cast<double>(after.httpErrors - before.httpErrors));
        setLayer(out, "flow.cache_hit_ratio.compile",
                 hitRatio(statsAfter.compileHits - statsBefore.compileHits,
                       statsAfter.compileMisses - statsBefore.compileMisses));
        setLayer(out, "flow.cache_hit_ratio.synth",
                 hitRatio(after.synthReportHits - before.synthReportHits,
                       after.synthReportMisses - before.synthReportMisses));
        setLayer(out, "serve.capacity_rps", capacity);
        setLayer(out, "serve.offered_rps", kOfferedRps);
        setLayer(out, "serve.gen_late_p99_ms", lateP99);
        setLayer(out, "serve.gen_late_samples",
                 static_cast<double>(lateness.size()));
    }
}

} // namespace perfbench
