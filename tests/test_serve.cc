/**
 * @file
 * Black-box tests for `risspgen serve`: a real HttpServer on an
 * ephemeral loopback port, exercised through real sockets by the
 * tests/http_client.hh helper — no mocks, no in-process shortcuts on
 * the request path.
 *
 * The heart of the suite is byte-identity: for every verb, the
 * server's response body must equal `flow::toJson(dispatch(request))`
 * for the equivalent typed request — the exact function `risspgen
 * <verb> --json` prints through — so the daemon and the CLI can never
 * drift apart schema-wise. Around that: the framing/parsing error
 * paths (malformed HTTP, truncated JSON, oversized bodies — always a
 * structured 4xx, never a dropped process), both admission bounds
 * (connection shed and dispatch-queue 429, each delivered through the
 * lingering close so a client that already wrote its request reads
 * the refusal instead of an RST), the reactor's idle-timeout reaping,
 * slow-loris isolation, partial-write backpressure, the thousand-
 * parked-connections scalability contract, in-flight dedup observed
 * through /metrics, and graceful drain (in-flight requests complete,
 * idle connections close, new connections are refused).
 *
 * The whole file also runs under TSan in CI: every test that spawns
 * client threads doubles as a race detector for the reactor loop,
 * the completion handoff, the admission counters and the metrics
 * snapshot. Connection counts scale down under RISSP_TSAN — the
 * instrumented pipeline is roughly an order of magnitude slower.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "flow/flow.hh"
#include "flow/json.hh"
#include "net/rest.hh"
#include "net/server.hh"
#include "tests/http_client.hh"
#include "util/http.hh"
#include "util/json.hh"

namespace rissp::net
{
namespace
{

using testutil::HttpClient;
using testutil::HttpResponse;
using testutil::httpRequest;

/** A live server over its own FlowService, down with the scope. */
struct Harness
{
    explicit Harness(ServeOptions options = {}, unsigned threads = 4)
        : service(nullptr, threads), server(service, options)
    {
        const Status status = server.start();
        EXPECT_TRUE(status.isOk()) << status.toString();
    }

    uint16_t port() const { return server.port(); }

    flow::FlowService service;
    HttpServer server;
};

/**
 * The byte-identity oracle. `risspgen <verb> --json` prints
 * `flow::toJson(service.dispatch(request))` verbatim; the server
 * must return those exact bytes for the equivalent JSON body, and
 * the HTTP status must follow the same response status. A fresh
 * FlowService stands in for the fresh process the CLI would be.
 */
void
expectByteIdentical(uint16_t port, const char *verb,
                    const std::string &json_body,
                    const flow::Request &request)
{
    flow::FlowService fresh;
    const flow::Response expected = fresh.dispatch(request);
    const std::string expectedBody = flow::toJson(expected);

    const auto response = httpRequest(
        port, "POST", std::string("/api/v1/") + verb, json_body);
    ASSERT_TRUE(response.has_value()) << "no response for " << verb;
    EXPECT_EQ(response->status,
              httpStatusFor(flow::responseStatus(expected)));
    EXPECT_EQ(response->body, expectedBody);
    const std::string *type = response->header("Content-Type");
    ASSERT_NE(type, nullptr);
    EXPECT_EQ(*type, "application/json");
}

// ---------------------------------------------------- byte identity

TEST(ServeIdentity, Characterize)
{
    Harness harness;
    flow::CharacterizeRequest request;
    request.source = flow::SourceRef::bundled("crc32");
    request.opt = minic::OptLevel::O1;
    expectByteIdentical(harness.port(), "characterize",
                        R"({"workload": "crc32", "opt": "O1"})",
                        flow::Request(request));
}

TEST(ServeIdentity, RunWithCosim)
{
    Harness harness;
    flow::RunRequest request;
    request.source = flow::SourceRef::bundled("crc32");
    request.verify = true;
    expectByteIdentical(
        harness.port(), "run",
        R"({"workload": "crc32", "verify": true})",
        flow::Request(request));
}

TEST(ServeIdentity, RunOnUnderprovisionedSubsetTrapsAs422)
{
    Harness harness;
    flow::RunRequest request;
    request.source = flow::SourceRef::bundled("crc32");
    request.subsetOverride =
        InstrSubset::fromNames({"addi", "lui"});

    // The oracle first: this subset cannot run crc32, so the typed
    // response is an error — a pipeline outcome, mapped to 422.
    flow::FlowService fresh;
    const flow::Response expected =
        fresh.dispatch(flow::Request(request));
    EXPECT_FALSE(flow::responseStatus(expected).isOk());
    EXPECT_EQ(httpStatusFor(flow::responseStatus(expected)), 422);

    expectByteIdentical(
        harness.port(), "run",
        R"({"workload": "crc32", "subset": ["addi", "lui"]})",
        flow::Request(request));
}

TEST(ServeIdentity, Synth)
{
    Harness harness;
    flow::SynthRequest request;
    request.source = flow::SourceRef::bundled("crc32");
    request.tech =
        explore::TechSpec::fromSpec("flexic-0.6um").take();
    request.baselines = false;
    request.physical = false;
    expectByteIdentical(
        harness.port(), "synth",
        R"({"workload": "crc32", "tech": "flexic-0.6um", )"
        R"("baselines": false, "physical": false})",
        flow::Request(request));
}

TEST(ServeIdentity, Retarget)
{
    Harness harness;
    flow::RetargetRequest request;
    request.source = flow::SourceRef::bundled("crc32");
    expectByteIdentical(harness.port(), "retarget",
                        R"({"workload": "crc32"})",
                        flow::Request(request));
}

TEST(ServeIdentity, Explore)
{
    // toJson(ExploreResponse) embeds service-cumulative cache stats,
    // so identity holds only when both sides answer from a fresh
    // service: this harness serves exactly one request, the oracle
    // inside expectByteIdentical is fresh by construction.
    Harness harness;
    const char *plan = "workload crc32\n"
                       "subset fit = @crc32\n"
                       "tech flexic-0.6um\n"
                       "threads 2\n";
    flow::ExploreRequest request;
    request.planText = plan;
    expectByteIdentical(
        harness.port(), "explore",
        std::string(R"({"plan": "workload crc32\nsubset fit = )"
                    R"(@crc32\ntech flexic-0.6um\nthreads 2\n"})"),
        flow::Request(request));
}

// ------------------------------------------------ plumbing endpoints

TEST(ServeEndpoints, HealthzIsTheOkStatusDocument)
{
    Harness harness;
    const auto response =
        httpRequest(harness.port(), "GET", "/healthz");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, flow::toJson(Status::ok()));
}

TEST(ServeEndpoints, KeepAliveServesSequentialRequests)
{
    Harness harness;
    HttpClient client;
    ASSERT_TRUE(client.connect(harness.port()));
    for (int i = 0; i < 3; ++i) {
        const auto response =
            client.request("GET", "/healthz", "", true);
        ASSERT_TRUE(response.has_value()) << "request " << i;
        EXPECT_EQ(response->status, 200);
        EXPECT_EQ(response->body, flow::toJson(Status::ok()));
    }
}

TEST(ServeEndpoints, MetricsShape)
{
    ServeOptions options;
    options.maxQueue = 17;
    options.maxConnections = 9;
    Harness harness(options);
    ASSERT_TRUE(
        httpRequest(harness.port(), "GET", "/healthz").has_value());

    const auto response =
        httpRequest(harness.port(), "GET", "/metrics");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);

    const Result<JsonValue> metrics = parseJson(response->body);
    ASSERT_TRUE(metrics.isOk()) << metrics.status().toString();
    const JsonValue *server = metrics.value().find("server");
    ASSERT_NE(server, nullptr);
    EXPECT_EQ(server->find("queue_capacity")->asNumber(), 17.0);
    EXPECT_EQ(server->find("max_connections")->asNumber(), 9.0);
    EXPECT_GE(server->find("accepted")->asNumber(), 2.0);
    EXPECT_FALSE(server->find("draining")->asBool());
    for (const char *counter :
         {"rejected_shed_load", "rejected_queue_full",
          "idle_reaped", "timed_out", "partial_writes",
          "http_errors", "dispatch_depth"})
        EXPECT_NE(server->find(counter), nullptr) << counter;
    // The /metrics request itself is open while the snapshot is
    // taken, so the gauge tree is live, not all-zero.
    const JsonValue *connections = server->find("connections");
    ASSERT_NE(connections, nullptr);
    EXPECT_GE(connections->find("open")->asNumber(), 1.0);
    for (const char *gauge :
         {"reading", "dispatched", "writing", "idle", "lingering"})
        EXPECT_NE(connections->find(gauge), nullptr) << gauge;
    const JsonValue *poller = server->find("poller");
    ASSERT_NE(poller, nullptr);
    EXPECT_TRUE(poller->asString() == "epoll" ||
                poller->asString() == "poll");

    const JsonValue *requests = metrics.value().find("requests");
    ASSERT_NE(requests, nullptr);
    for (size_t i = 0; i < kVerbCount; ++i)
        EXPECT_NE(
            requests->find(verbName(static_cast<Verb>(i))),
            nullptr);

    const JsonValue *scheduler = metrics.value().find("scheduler");
    ASSERT_NE(scheduler, nullptr);
    EXPECT_GE(scheduler->find("threads")->asNumber(), 1.0);
    ASSERT_NE(scheduler->find("submitted"), nullptr);
    EXPECT_GE(scheduler->find("submitted")->asNumber(),
              scheduler->find("executed")->asNumber());

    const JsonValue *caches = metrics.value().find("caches");
    ASSERT_NE(caches, nullptr);
    for (const char *stage :
         {"compile", "sim", "synth", "synth_report"}) {
        const JsonValue *entry = caches->find(stage);
        ASSERT_NE(entry, nullptr) << stage;
        EXPECT_NE(entry->find("hits"), nullptr);
        EXPECT_NE(entry->find("misses"), nullptr);
    }
}

/** `scheduler.executed` from GET /metrics once every submitted task
 *  has run. A task's count lands just after its response is handed
 *  back, so a client can read /metrics before it does. */
double
settledTasksRun(uint16_t port)
{
    for (int attempt = 0; attempt < 5000; ++attempt) {
        const auto response = httpRequest(port, "GET", "/metrics");
        if (!response)
            break;
        const Result<JsonValue> metrics = parseJson(response->body);
        if (!metrics)
            break;
        const JsonValue *scheduler = metrics.value().find("scheduler");
        const double executed = scheduler->find("executed")->asNumber();
        if (executed == scheduler->find("submitted")->asNumber())
            return executed;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "scheduler never settled";
    return -1;
}

TEST(ServeTasks, EachServedRequestRunsExactlyOneSchedulerTask)
{
    // Run to completion: the http:request task parses the body and
    // runs the synchronous verb inline, so a served request of any
    // verb executes exactly one scheduler task.
    Harness harness;
    const std::pair<const char *, const char *> requests[] = {
        {"run", R"({"workload": "crc32", "verify": true})"},
        {"synth", R"({"workload": "crc32", "tech": "flexic-0.6um"})"},
        {"retarget", R"({"workload": "crc32"})"},
        {"characterize", R"({"workload": "crc32"})"},
    };
    const double before = settledTasksRun(harness.port());
    for (const auto &[verb, body] : requests) {
        const auto response = httpRequest(
            harness.port(), "POST", std::string("/api/v1/") + verb,
            body);
        ASSERT_TRUE(response.has_value()) << verb;
        EXPECT_EQ(response->status, 200) << verb;
    }
    EXPECT_EQ(settledTasksRun(harness.port()) - before,
              double(std::size(requests)));
}

// --------------------------------------------------- error handling

/** The server must survive anything; prove it with a liveness probe
 *  after every hostile request. */
void
expectStillAlive(uint16_t port)
{
    const auto health = httpRequest(port, "GET", "/healthz");
    ASSERT_TRUE(health.has_value());
    EXPECT_EQ(health->status, 200);
}

TEST(ServeErrors, MalformedRequestLineIs400)
{
    Harness harness;
    HttpClient client;
    ASSERT_TRUE(client.connect(harness.port()));
    ASSERT_TRUE(client.sendRaw("THIS IS NOT HTTP\r\n\r\n"));
    const auto response = client.readResponse();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 400);
    EXPECT_NE(response->body.find("invalid_argument"),
              std::string::npos);
    expectStillAlive(harness.port());
}

TEST(ServeErrors, TruncatedJsonBodyIsAStructuredParseError)
{
    Harness harness;
    const auto response =
        httpRequest(harness.port(), "POST", "/api/v1/run",
                    R"({"workload": "crc)");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 400);
    EXPECT_NE(response->body.find("parse_error"),
              std::string::npos);
    expectStillAlive(harness.port());
}

TEST(ServeErrors, WrongFieldTypeIs400)
{
    Harness harness;
    const auto response =
        httpRequest(harness.port(), "POST", "/api/v1/run",
                    R"({"workload": 5})");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 400);
    EXPECT_NE(response->body.find("must be a string"),
              std::string::npos);
    expectStillAlive(harness.port());
}

TEST(ServeErrors, UnknownFieldIsNamedNotIgnored)
{
    Harness harness;
    const auto response = httpRequest(
        harness.port(), "POST", "/api/v1/run",
        R"({"workload": "crc32", "verfy": true})");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 400);
    EXPECT_NE(response->body.find("verfy"), std::string::npos);
    expectStillAlive(harness.port());
}

TEST(ServeErrors, DeeplyNestedSourceIsA400AndTheDaemonLives)
{
    // ~400 KB of nested parentheses once overflowed the compiler's
    // stack and took the daemon down; the parser's nesting cap turns
    // it into a structured compile error.
    const std::string source = "int main(void) { return " +
        std::string(200'000, '(') + "1" + std::string(200'000, ')') +
        "; }";
    Harness harness;
    const auto response = httpRequest(
        harness.port(), "POST", "/api/v1/characterize",
        R"({"source": ")" + source + R"("})");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 400);
    EXPECT_NE(response->body.find("compile_error"), std::string::npos)
        << response->body;
    EXPECT_NE(response->body.find("nesting deeper than 256 levels"),
              std::string::npos)
        << response->body;
    expectStillAlive(harness.port());
}

TEST(ServeLimits, ExploreBodyCannotAskForThreads)
{
    // A served sweep runs on the daemon's own workers, so the body
    // has no thread count to ask for: "threads" is an unknown field.
    Harness harness;
    const auto response = httpRequest(
        harness.port(), "POST", "/api/v1/explore",
        R"({"plan": "workload crc32\nsubset fit = @crc32\n", )"
        R"("threads": 4096})");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 400);
    EXPECT_NE(response->body.find("unknown field 'threads'"),
              std::string::npos)
        << response->body;
    expectStillAlive(harness.port());
}

/** The process's thread count, from /proc/self/status; 0 where that
 *  file does not exist. */
unsigned
processThreads()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        return 0;
    unsigned threads = 0;
    char line[256];
    while (std::fgets(line, sizeof line, status))
        if (std::sscanf(line, "Threads: %u", &threads) == 1)
            break;
    std::fclose(status);
    return threads;
}

TEST(ServeLimits, ServedExploreRunsOnTheDaemonsWorkers)
{
    // The plan's `threads 64` line asks for more workers than the
    // daemon's two; the sweep must run its graph nodes on those two
    // and start no thread, at any moment of the request.
    Harness harness(ServeOptions{}, 2);
    ASSERT_TRUE(
        httpRequest(harness.port(), "GET", "/healthz").has_value());
    // Start the workers (they start on the first task).
    ASSERT_TRUE(httpRequest(harness.port(), "POST",
                            "/api/v1/characterize",
                            R"({"workload": "crc32"})")
                    .has_value());
    const double before = settledTasksRun(harness.port());

    std::atomic<bool> sweeping{true};
    std::atomic<unsigned> peak{0};
    std::thread sampler([&] {
        do
            peak = std::max(peak.load(), processThreads());
        while (sweeping.load());
    });
    const unsigned level = processThreads(); // sampler included
    // primecount's full-ISA cosim keeps the sweep busy for a while.
    const auto response = httpRequest(
        harness.port(), "POST", "/api/v1/explore",
        R"({"plan": "threads 64\nworkload primecount\n)"
        R"(subset fit = @primecount\nsubset full = @full\n"})");
    sweeping = false;
    sampler.join();
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->status, 200) << response->body;

    if (level != 0) {
        EXPECT_EQ(peak.load(), level);
    }
    // One request task, then the sweep's nodes: one compile, one sim
    // (both subsets project onto primecount's own ops), and two
    // synths.
    EXPECT_EQ(settledTasksRun(harness.port()) - before, 1.0 + 4.0);
}

TEST(ServeErrors, UnknownVerbAndPathAre404)
{
    Harness harness;
    const auto verb = httpRequest(harness.port(), "POST",
                                  "/api/v1/frobnicate", "{}");
    ASSERT_TRUE(verb.has_value());
    EXPECT_EQ(verb->status, 404);
    EXPECT_NE(verb->body.find("not_found"), std::string::npos);

    const auto path = httpRequest(harness.port(), "GET", "/nope");
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->status, 404);
    expectStillAlive(harness.port());
}

TEST(ServeErrors, WrongMethodIs405)
{
    Harness harness;
    const auto get =
        httpRequest(harness.port(), "GET", "/api/v1/run");
    ASSERT_TRUE(get.has_value());
    EXPECT_EQ(get->status, 405);

    const auto post =
        httpRequest(harness.port(), "POST", "/healthz", "{}");
    ASSERT_TRUE(post.has_value());
    EXPECT_EQ(post->status, 405);
    expectStillAlive(harness.port());
}

TEST(ServeErrors, OversizedBodyIs413BeforeTheBodyIsRead)
{
    ServeOptions options;
    options.maxBodyBytes = 256;
    Harness harness(options);

    // Claim a huge body and send none of it: the server must refuse
    // from the head alone instead of buffering.
    HttpClient client;
    ASSERT_TRUE(client.connect(harness.port()));
    ASSERT_TRUE(client.sendRaw("POST /api/v1/run HTTP/1.1\r\n"
                               "Host: t\r\n"
                               "Content-Length: 100000\r\n"
                               "\r\n"));
    const auto response = client.readResponse();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 413);
    EXPECT_NE(response->body.find("exceeds"), std::string::npos);
    expectStillAlive(harness.port());
}

TEST(ServeErrors, ChunkedTransferEncodingIsRejected)
{
    Harness harness;
    HttpClient client;
    ASSERT_TRUE(client.connect(harness.port()));
    ASSERT_TRUE(client.sendRaw("POST /api/v1/run HTTP/1.1\r\n"
                               "Host: t\r\n"
                               "Transfer-Encoding: chunked\r\n"
                               "\r\n"));
    const auto response = client.readResponse();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 400);
    expectStillAlive(harness.port());
}

// ------------------------------------------------ admission control

TEST(ServeAdmission, QueueFullIsAStructured429)
{
    ServeOptions options;
    options.maxConnections = 2;
    Harness harness(options, /*threads=*/2);

    // Two clients connect and stall mid-head: they are admitted (the
    // connection cap counts connections, not parsed requests — a
    // stalled client is load) and they hold their slots.
    HttpClient stalledA, stalledB;
    ASSERT_TRUE(stalledA.connect(harness.port()));
    ASSERT_TRUE(stalledA.sendRaw("POST /api/v1/run HTTP/1.1\r\n"));
    ASSERT_TRUE(stalledB.connect(harness.port()));
    ASSERT_TRUE(stalledB.sendRaw("POST /api/v1/run HTTP/1.1\r\n"));

    // The third connection finds the server at capacity. The reactor
    // admits strictly in arrival order, so by the time it reaches
    // this one both stalled connections hold their slots. The 429
    // is pushed before any request bytes are read, so reading
    // without sending observes it deterministically.
    HttpClient third;
    ASSERT_TRUE(third.connect(harness.port()));
    const auto rejected = third.readResponse();
    ASSERT_TRUE(rejected.has_value());
    EXPECT_EQ(rejected->status, 429);
    EXPECT_NE(rejected->body.find("unavailable"),
              std::string::npos);
    EXPECT_NE(rejected->body.find("capacity"), std::string::npos);

    // Free the slots; the server must recover without a restart.
    stalledA.disconnect();
    stalledB.disconnect();
    bool recovered = false;
    for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
        const auto health =
            httpRequest(harness.port(), "GET", "/healthz");
        recovered = health.has_value() && health->status == 200;
        if (!recovered)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(recovered);

    const MetricsSnapshot metrics = harness.server.metrics();
    EXPECT_GE(metrics.rejectedShedLoad, 1u);
}

TEST(ServeAdmission, ShedDeliversThe429AfterTheBodyWasSent)
{
    // Regression pin for the shed/RST gotcha: a rejected client that
    // already wrote its whole request must still read the 429. If
    // the server responds and closes while request bytes sit unread
    // in its receive queue, the kernel answers with RST and the
    // client's pending receive buffer — the 429 — is destroyed. The
    // reactor drains the received bytes first and retires the
    // connection through a lingering close (shutdown(SHUT_WR), read
    // to EOF), so the refusal survives.
    ServeOptions options;
    options.maxConnections = 1;
    Harness harness(options, /*threads=*/2);

    // Park one keep-alive connection: it owns the only slot.
    HttpClient parked;
    ASSERT_TRUE(parked.connect(harness.port()));
    const auto first = parked.request("GET", "/healthz", "", true);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->status, 200);

    // The rejected client sends its entire request *first* — head
    // and body land in the server's receive queue before the
    // reactor ever looks at the connection.
    HttpClient rejected;
    ASSERT_TRUE(rejected.connect(harness.port()));
    ASSERT_TRUE(rejected.sendRequest("POST", "/api/v1/run",
                                     R"({"workload": "crc32"})"));
    const auto response = rejected.readResponse();
    ASSERT_TRUE(response.has_value())
        << "429 lost to an RST: the shed path must drain request "
           "bytes before responding";
    EXPECT_EQ(response->status, 429);
    EXPECT_NE(response->body.find("unavailable"),
              std::string::npos);

    // The shed was invisible to the parked connection.
    const auto again = parked.request("GET", "/healthz", "", true);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->status, 200);

    const MetricsSnapshot metrics = harness.server.metrics();
    EXPECT_GE(metrics.rejectedShedLoad, 1u);
    EXPECT_EQ(metrics.accepted, 1u);
}

TEST(ServeAdmission, DispatchQueueFullIsAnImmediate429)
{
    // The second bound: dispatched-but-unfinished requests. One slow
    // explore occupies the only queue slot; the next API request is
    // refused on the reactor thread without waiting for a worker —
    // and /metrics stays answerable throughout (a saturated server
    // is still observable).
    ServeOptions options;
    options.maxQueue = 1;
    Harness harness(options, /*threads=*/1);

    // A plan slow enough to keep the single worker busy while the
    // test probes the full queue: primecount's co-simulation alone
    // takes ~0.1 s. (On crc32 the whole sweep takes a few ms, and the
    // probe sometimes arrived after it had finished.)
    std::string plan = "workload primecount\n"
                       "subset fit = @primecount\n"
                       "threads 1\n";
    for (int corner = 0; corner < 192; ++corner) {
        char line[64];
        std::snprintf(line, sizeof line,
                      "tech flexic-0.6um:voltage=2.5%03d\n", corner);
        plan += line;
    }
    std::string body = R"({"plan": ")";
    for (const char c : plan)
        body += c == '\n' ? std::string("\\n") : std::string(1, c);
    body += R"("})";

    HttpClient slow;
    ASSERT_TRUE(slow.connect(harness.port(), /*timeout_ms=*/
                             HttpClient::kDefaultTimeoutMs * 4));
    ASSERT_TRUE(slow.sendRequest("POST", "/api/v1/explore", body));

    // Wait until the reactor has handed the request to the
    // scheduler: the Dispatched gauge is the admission predicate.
    MetricsSnapshot metrics = harness.server.metrics();
    for (int attempt = 0;
         attempt < 500 && metrics.dispatchDepth == 0; ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        metrics = harness.server.metrics();
    }
    ASSERT_EQ(metrics.dispatchDepth, 1u);

    const auto refused =
        httpRequest(harness.port(), "POST", "/api/v1/characterize",
                    R"({"workload": "crc32"})");
    ASSERT_TRUE(refused.has_value());
    EXPECT_EQ(refused->status, 429);
    EXPECT_NE(refused->body.find("requests in flight"),
              std::string::npos);

    // Inline endpoints bypass the dispatch queue.
    const auto observable =
        httpRequest(harness.port(), "GET", "/metrics");
    ASSERT_TRUE(observable.has_value());
    EXPECT_EQ(observable->status, 200);

    // The slow request is unharmed by the shed around it.
    const auto completed = slow.readResponse();
    ASSERT_TRUE(completed.has_value());
    EXPECT_EQ(completed->status, 200);
    EXPECT_GE(harness.server.metrics().rejectedQueueFull, 1u);
}

// ------------------------------------------------- idle timeouts

TEST(ServeTimeouts, IdleConnectionsAreReapedActiveOnesAreNot)
{
#ifdef RISSP_TSAN
    constexpr int kIdleTimeoutMs = 2'000;
#else
    constexpr int kIdleTimeoutMs = 400;
#endif
    ServeOptions options;
    options.idleTimeoutMs = kIdleTimeoutMs;
    Harness harness(options, /*threads=*/2);

    // The idle one: a completed keep-alive request, then silence.
    HttpClient idle;
    ASSERT_TRUE(idle.connect(harness.port()));
    ASSERT_TRUE(
        idle.request("GET", "/healthz", "", true).has_value());

    // The active one keeps talking at a cadence well inside the
    // timeout; every exchange re-arms its timer.
    HttpClient active;
    ASSERT_TRUE(active.connect(harness.port()));
    const auto start = std::chrono::steady_clock::now();
    const auto deadline =
        start + std::chrono::milliseconds(3 * kIdleTimeoutMs);
    while (std::chrono::steady_clock::now() < deadline) {
        const auto response =
            active.request("GET", "/healthz", "", true);
        ASSERT_TRUE(response.has_value())
            << "active keep-alive connection was reaped";
        EXPECT_EQ(response->status, 200);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kIdleTimeoutMs / 4));
    }

    // By now the idle connection is long past its deadline: the
    // server closed it (EOF on read, no response bytes).
    EXPECT_FALSE(idle.readResponse().has_value());
    const MetricsSnapshot metrics = harness.server.metrics();
    EXPECT_GE(metrics.idleReaped, 1u);
}

// --------------------------------------------------- slow clients

TEST(ServeConcurrency, SlowLorisDribblersDoNotStarveDispatch)
{
    // Classic slow-loris: a pack of connections dribbling a byte of
    // head at a time. On the old thread-per-request design each
    // dribbler pinned a handler thread; on the reactor they are just
    // parked fds, and real requests flow past them.
#ifdef RISSP_TSAN
    constexpr int kDribblers = 16;
#else
    constexpr int kDribblers = 48;
#endif
    Harness harness({}, /*threads=*/2);

    std::vector<std::unique_ptr<HttpClient>> dribblers;
    const std::string partialHead = "POST /api/v1/run HTTP/1.1\r\n";
    for (int i = 0; i < kDribblers; ++i) {
        auto client = std::make_unique<HttpClient>();
        ASSERT_TRUE(client->connect(harness.port())) << i;
        // A prefix of a valid head, cut mid-header — never enough
        // to parse, never an error either.
        ASSERT_TRUE(client->sendRaw(
            partialHead.substr(0, 8 + (i % 12))));
        dribblers.push_back(std::move(client));
    }

    // Every dribbler keeps dribbling while real requests complete.
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < kDribblers; ++i)
            ASSERT_TRUE(dribblers[i]->sendRaw("X"));
        const auto response =
            httpRequest(harness.port(), "POST",
                        "/api/v1/characterize",
                        R"({"workload": "crc32"})");
        ASSERT_TRUE(response.has_value()) << "round " << round;
        EXPECT_EQ(response->status, 200);
    }

    const MetricsSnapshot metrics = harness.server.metrics();
    EXPECT_GE(metrics.readingConnections, size_t(kDribblers));
    EXPECT_EQ(metrics.accepted, uint64_t(kDribblers + 3));
}

// ------------------------------------------------- in-flight dedup

TEST(ServeConcurrency, ParallelIdenticalSynthsHitTheCacheOnce)
{
    // Eight clients ask for the same synth at once. The stage caches
    // are promise-backed exactly-once memoization, so however the
    // scheduler interleaves them, the report is computed once:
    // misses() counts distinct keys deterministically.
    Harness harness({}, /*threads=*/4);
    constexpr int kClients = 8;
    const std::string body =
        R"({"workload": "crc32", "tech": "flexic-0.6um", )"
        R"("baselines": false, "physical": false})";

    std::vector<std::string> bodies(kClients);
    std::vector<int> statuses(kClients, 0);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            const auto response = httpRequest(
                harness.port(), "POST", "/api/v1/synth", body);
            if (response) {
                statuses[i] = response->status;
                bodies[i] = response->body;
            }
        });
    for (std::thread &client : clients)
        client.join();

    for (int i = 0; i < kClients; ++i) {
        EXPECT_EQ(statuses[i], 200) << "client " << i;
        EXPECT_EQ(bodies[i], bodies[0]) << "client " << i;
    }

    const MetricsSnapshot metrics = harness.server.metrics();
    EXPECT_EQ(metrics.verbTotals[size_t(Verb::Synth)],
              uint64_t(kClients));
    EXPECT_EQ(metrics.verbErrors[size_t(Verb::Synth)], 0u);
    EXPECT_EQ(metrics.synthReportMisses, 1u);
    EXPECT_EQ(metrics.synthReportHits, uint64_t(kClients - 1));
    EXPECT_EQ(metrics.compileMisses, 1u);

    // The same numbers must surface through the wire endpoint.
    const auto wire = httpRequest(harness.port(), "GET", "/metrics");
    ASSERT_TRUE(wire.has_value());
    const Result<JsonValue> parsed = parseJson(wire->body);
    ASSERT_TRUE(parsed.isOk());
    const JsonValue *report =
        parsed.value().find("caches")->find("synth_report");
    ASSERT_NE(report, nullptr);
    EXPECT_EQ(report->find("misses")->asNumber(), 1.0);
    EXPECT_EQ(report->find("hits")->asNumber(),
              double(kClients - 1));
}

TEST(ServeConcurrency, MixedHammerKeepsEveryCounterConsistent)
{
    Harness harness({}, /*threads=*/4);
    // TSan's ~10x slowdown makes the full hammer flirt with the test
    // timeout; half the clients exercise the same interleavings.
#ifdef RISSP_TSAN
    constexpr int kClients = 8;
#else
    constexpr int kClients = 16;
#endif

    std::vector<int> failures(kClients, 0);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            auto expect = [&](const char *method,
                              const char *target,
                              const std::string &body,
                              int status) {
                const auto response = httpRequest(
                    harness.port(), method, target, body);
                if (!response || response->status != status)
                    ++failures[i];
            };
            expect("POST", "/api/v1/characterize",
                   R"({"workload": "crc32"})", 200);
            expect("POST", "/api/v1/run",
                   R"({"workload": "crc32"})", 200);
            expect("POST", "/api/v1/run", R"({"nope": 1})", 400);
            expect("GET", "/no-such-endpoint", "", 404);
        });
    for (std::thread &client : clients)
        client.join();

    for (int i = 0; i < kClients; ++i)
        EXPECT_EQ(failures[i], 0) << "client " << i;

    // A client can read its full response a beat before the handler
    // releases the admission slot; wait for quiescence instead of
    // snapshotting mid-release.
    MetricsSnapshot metrics = harness.server.metrics();
    for (int attempt = 0;
         attempt < 250 && metrics.activeConnections != 0;
         ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        metrics = harness.server.metrics();
    }
    EXPECT_EQ(metrics.verbTotals[size_t(Verb::Characterize)],
              uint64_t(kClients));
    EXPECT_EQ(metrics.verbTotals[size_t(Verb::Run)],
              uint64_t(kClients));
    // The dispatched characterize and run requests share one
    // compile key (same workload, same default opt): one miss,
    // everything else in-flight-deduped or cache hits.
    EXPECT_EQ(metrics.compileMisses, 1u);
    EXPECT_GE(metrics.httpErrors, uint64_t(2 * kClients));
    EXPECT_EQ(metrics.activeConnections, 0u);
    EXPECT_EQ(metrics.accepted, uint64_t(4 * kClients));
}

// --------------------------------------------- parked-fd scalability

TEST(ServeConcurrency, ThousandIdleConnectionsPlusActiveHammer)
{
    // The headline scalability contract: a big pool of parked
    // keep-alive connections costs file descriptors, not threads —
    // active clients are served at full speed through them, and
    // every counter stays exact. (TSan shrinks the pool: the point
    // is the interleavings, not the fd count.)
#ifdef RISSP_TSAN
    constexpr int kIdle = 128;
    constexpr int kActive = 8;
    constexpr int kRequestsPerClient = 2;
#else
    constexpr int kIdle = 1000;
    constexpr int kActive = 16;
    constexpr int kRequestsPerClient = 4;
#endif
    ServeOptions options;
    options.maxConnections = kIdle + kActive + 8;
    Harness harness(options, /*threads=*/4);

    // Park the pool: each connection proves liveness once, then
    // sits idle for the rest of the test.
    std::vector<std::unique_ptr<HttpClient>> parked;
    parked.reserve(kIdle);
    for (int i = 0; i < kIdle; ++i) {
        auto client = std::make_unique<HttpClient>();
        ASSERT_TRUE(client->connect(harness.port())) << i;
        const auto response =
            client->request("GET", "/healthz", "", true);
        ASSERT_TRUE(response.has_value()) << i;
        EXPECT_EQ(response->status, 200);
        parked.push_back(std::move(client));
    }
    // A client can read its response a beat before the reactor
    // books the connection back into Idle; poll for the settled
    // gauge instead of snapshotting mid-transition.
    MetricsSnapshot parkedGauge = harness.server.metrics();
    for (int attempt = 0;
         attempt < 200 && parkedGauge.idleConnections != size_t(kIdle);
         ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        parkedGauge = harness.server.metrics();
    }
    ASSERT_EQ(parkedGauge.idleConnections, size_t(kIdle));

    // Saturating active load through the parked crowd: one
    // keep-alive connection per client, several requests each.
    std::vector<int> failures(kActive, 0);
    std::vector<std::thread> clients;
    for (int i = 0; i < kActive; ++i)
        clients.emplace_back([&, i] {
            HttpClient client;
            if (!client.connect(harness.port())) {
                failures[i] = kRequestsPerClient;
                return;
            }
            for (int r = 0; r < kRequestsPerClient; ++r) {
                const auto response = client.request(
                    "POST", "/api/v1/characterize",
                    R"({"workload": "crc32"})", true);
                if (!response || response->status != 200)
                    ++failures[i];
            }
        });
    for (std::thread &client : clients)
        client.join();
    for (int i = 0; i < kActive; ++i)
        EXPECT_EQ(failures[i], 0) << "client " << i;

    // Exact accounting: every connection accepted, none shed, the
    // idle pool untouched, every request dispatched and answered.
    // The reactor notices the active clients' disconnects a beat
    // after they read their last byte; wait for quiescence first.
    MetricsSnapshot metrics = harness.server.metrics();
    for (int attempt = 0;
         attempt < 500 && metrics.activeConnections != size_t(kIdle);
         ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        metrics = harness.server.metrics();
    }
    EXPECT_EQ(metrics.activeConnections, size_t(kIdle));
    EXPECT_EQ(metrics.accepted, uint64_t(kIdle + kActive));
    EXPECT_EQ(metrics.rejectedShedLoad, 0u);
    EXPECT_EQ(metrics.rejectedQueueFull, 0u);
    EXPECT_EQ(metrics.idleConnections, size_t(kIdle));
    EXPECT_EQ(metrics.verbTotals[size_t(Verb::Characterize)],
              uint64_t(kActive * kRequestsPerClient));
    EXPECT_EQ(metrics.verbErrors[size_t(Verb::Characterize)], 0u);
    EXPECT_EQ(metrics.httpErrors, 0u);

    // The parked pool is still alive end to end.
    for (int i = 0; i < kIdle; i += kIdle / 10) {
        const auto response =
            parked[i]->request("GET", "/healthz", "", true);
        ASSERT_TRUE(response.has_value()) << i;
        EXPECT_EQ(response->status, 200);
    }
}

// ----------------------------------------------- write backpressure

TEST(ServeBackpressure, PartialWritesDeliverALargeResponseIntact)
{
    // A response far bigger than the socket's send buffer must go
    // out in EPOLLOUT-driven slices without blocking the reactor,
    // and arrive byte-identical. Tiny buffers on both ends plus a
    // client that dawdles before reading force the partial-write
    // path deterministically.
#ifdef RISSP_TSAN
    constexpr int kCorners = 96;
#else
    constexpr int kCorners = 768;
#endif
    ServeOptions options;
    options.sendBufferBytes = 4096;
    Harness harness(options, /*threads=*/2);

    std::string plan = "workload crc32\n"
                       "subset fit = @crc32\n"
                       "threads 2\n";
    for (int corner = 0; corner < kCorners; ++corner) {
        char line[64];
        std::snprintf(line, sizeof line,
                      "tech flexic-0.6um:voltage=2.5%03d\n", corner);
        plan += line;
    }

    flow::ExploreRequest request;
    request.planText = plan;
    flow::FlowService fresh;
    const flow::Response expected =
        fresh.dispatch(flow::Request(request));
    const std::string expectedBody = flow::toJson(expected);
    ASSERT_GT(expectedBody.size(), size_t(kCorners) * 80)
        << "plan too small to exercise backpressure";

    std::string body = R"({"plan": ")";
    for (const char c : plan)
        body += c == '\n' ? std::string("\\n") : std::string(1, c);
    body += R"("})";

    HttpClient client;
    client.setReceiveBufferBytes(4096);
    ASSERT_TRUE(client.connect(harness.port(), /*timeout_ms=*/
                               HttpClient::kDefaultTimeoutMs * 4));
    ASSERT_TRUE(client.sendRequest("POST", "/api/v1/explore", body));
    // Dawdle until the response has filled the tiny buffers on both
    // ends and wedged the connection in Writing with EPOLLOUT armed
    // — the response dwarfs the combined buffer capacity, so it
    // cannot complete before this client starts reading.
    MetricsSnapshot wedged = harness.server.metrics();
    for (int attempt = 0;
         attempt < 4000 && wedged.writingConnections == 0;
         ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        wedged = harness.server.metrics();
    }
    EXPECT_EQ(wedged.writingConnections, 1u);
    const auto response = client.readResponse();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, expectedBody);

    const MetricsSnapshot metrics = harness.server.metrics();
    EXPECT_GE(metrics.partialWrites, 1u);
}

// ------------------------------------------------- poller backends

TEST(ServeBackend, PollFallbackServesTheSameProtocol)
{
    // The portable poll(2) backend sits behind the same Poller
    // interface; run a keep-alive conversation and an API request
    // through it to keep the fallback honest.
    ServeOptions options;
    options.usePollBackend = true;
    Harness harness(options, /*threads=*/2);
    EXPECT_EQ(harness.server.metrics().pollerBackend, "poll");

    HttpClient client;
    ASSERT_TRUE(client.connect(harness.port()));
    for (int i = 0; i < 3; ++i) {
        const auto response =
            client.request("GET", "/healthz", "", true);
        ASSERT_TRUE(response.has_value()) << i;
        EXPECT_EQ(response->status, 200);
    }
    const auto api =
        httpRequest(harness.port(), "POST", "/api/v1/characterize",
                    R"({"workload": "crc32"})");
    ASSERT_TRUE(api.has_value());
    EXPECT_EQ(api->status, 200);
}

// --------------------------------------------------- graceful drain

TEST(ServeDrain, InFlightRequestsCompleteNewConnectionsRefused)
{
    Harness harness;

    // Client A: head plus half a body, then stall — in flight.
    const std::string body = R"({"workload": "crc32"})";
    HttpClient slow;
    ASSERT_TRUE(slow.connect(harness.port()));
    ASSERT_TRUE(slow.sendRaw(
        "POST /api/v1/characterize HTTP/1.1\r\n"
        "Host: t\r\n"
        "Content-Length: " + std::to_string(body.size()) + "\r\n"
        "Connection: close\r\n"
        "\r\n" + body.substr(0, 5)));

    // Client B trips the drain and gets an acknowledgement.
    const auto ack =
        httpRequest(harness.port(), "POST", "/shutdown");
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->status, 200);
    EXPECT_NE(ack->body.find("draining"), std::string::npos);

    // New connections are refused once the listener closes.
    bool refused = false;
    for (int attempt = 0; attempt < 250 && !refused; ++attempt) {
        HttpClient probe;
        refused = !probe.connect(harness.port());
        if (!refused)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(refused);
    EXPECT_TRUE(harness.server.draining());

    // The stalled in-flight request still completes in full.
    ASSERT_TRUE(slow.sendRaw(body.substr(5)));
    const auto response = slow.readResponse();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);
    flow::FlowService fresh;
    flow::CharacterizeRequest request;
    request.source = flow::SourceRef::bundled("crc32");
    EXPECT_EQ(response->body,
              flow::toJson(fresh.dispatch(flow::Request(request))));

    harness.server.waitUntilStopped();
    EXPECT_EQ(harness.server.metrics().activeConnections, 0u);
}

TEST(ServeDrain, DrainClosesIdleConnectionsAndCompletesInFlight)
{
    Harness harness;

    // A parked keep-alive connection and a mid-body request.
    HttpClient idle;
    ASSERT_TRUE(idle.connect(harness.port()));
    ASSERT_TRUE(
        idle.request("GET", "/healthz", "", true).has_value());

    const std::string body = R"({"workload": "crc32"})";
    HttpClient slow;
    ASSERT_TRUE(slow.connect(harness.port()));
    ASSERT_TRUE(slow.sendRaw(
        "POST /api/v1/run HTTP/1.1\r\n"
        "Host: t\r\n"
        "Content-Length: " + std::to_string(body.size()) + "\r\n"
        "Connection: close\r\n"
        "\r\n" + body.substr(0, 7)));

    // Let the partial request reach the reactor before the drain:
    // a connection that never spoke is closed at drain time, one
    // that is mid-request is not, and the distinction is what this
    // test pins. (sendRaw returning only proves the bytes left the
    // client's kernel, not that the reactor read them.)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    harness.server.requestShutdown();

    // The idle connection closes promptly (EOF, no bytes): drains
    // must not wait out the idle-timeout clock.
    EXPECT_FALSE(idle.readResponse().has_value());

    // The mid-body request runs to completion.
    ASSERT_TRUE(slow.sendRaw(body.substr(7)));
    const auto response = slow.readResponse();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, 200);

    harness.server.waitUntilStopped();
    EXPECT_EQ(harness.server.metrics().activeConnections, 0u);
}

TEST(ServeDrain, DrainRaceDestroyOnWakeRegression)
{
    // Regression pin from the PR 6 TSan finding (then: a condvar
    // notified after the drain waiter destroyed the server; now: the
    // completion handoff must never touch the reactor after
    // waitUntilStopped() returns). Hammer the destroy-on-wake
    // window: each iteration races one in-flight
    // request against shutdown + waitUntilStopped + destruction.
#ifdef RISSP_TSAN
    constexpr int kRounds = 6;
#else
    constexpr int kRounds = 12;
#endif
    for (int round = 0; round < kRounds; ++round) {
        flow::FlowService service(nullptr, /*threads=*/2);
        std::thread client;
        {
            HttpServer server(service);
            ASSERT_TRUE(server.start().isOk());
            const uint16_t port = server.port();
            client = std::thread([port] {
                // Response (or refusal) irrelevant: the race under
                // test is handler-finish vs. drain-wake.
                (void)httpRequest(port, "GET", "/metrics");
            });
            server.requestShutdown();
            server.waitUntilStopped();
            // Scope exit destroys the server right on the wake.
        }
        client.join();
    }
}

// ------------------------------------------------ framing unit tests

TEST(HttpFraming, ParsesAWellFormedHead)
{
    const Result<http::RequestHead> head = http::parseRequestHead(
        "POST /api/v1/run?x=1 HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Length:  42 \r\n"
        "\r\n");
    ASSERT_TRUE(head.isOk()) << head.status().toString();
    EXPECT_EQ(head.value().method, "POST");
    EXPECT_EQ(head.value().target, "/api/v1/run?x=1");
    EXPECT_EQ(head.value().version, "HTTP/1.1");
    ASSERT_NE(head.value().header("content-length"), nullptr);
    EXPECT_EQ(head.value().contentLength().value(), 42u);
    EXPECT_TRUE(head.value().keepAlive());
}

TEST(HttpFraming, RejectsMalformedHeads)
{
    EXPECT_FALSE(http::parseRequestHead("BOGUS\r\n\r\n").isOk());
    EXPECT_FALSE(
        http::parseRequestHead("GET  / HTTP/1.1\r\n\r\n").isOk());
    EXPECT_FALSE(
        http::parseRequestHead("GET / HTTP/2\r\n\r\n").isOk());
    EXPECT_FALSE(
        http::parseRequestHead("GET x HTTP/1.1\r\n\r\n").isOk());
    EXPECT_FALSE(http::parseRequestHead(
                     "GET / HTTP/1.1\r\nNoColon\r\n\r\n")
                     .isOk());
}

TEST(HttpFraming, ContentLengthRejectsLiesAndChunking)
{
    auto lengthOf = [](const std::string &headers) {
        return http::parseRequestHead("POST / HTTP/1.1\r\n" +
                                      headers + "\r\n")
            .value()
            .contentLength();
    };
    EXPECT_FALSE(lengthOf("Content-Length: -1\r\n").isOk());
    EXPECT_FALSE(lengthOf("Content-Length: 12abc\r\n").isOk());
    EXPECT_FALSE(lengthOf("Content-Length: 1\r\n"
                          "Content-Length: 2\r\n")
                     .isOk());
    EXPECT_FALSE(
        lengthOf("Transfer-Encoding: chunked\r\n").isOk());
    EXPECT_EQ(lengthOf("").value(), 0u);
}

TEST(HttpFraming, KeepAliveFollowsVersionAndConnectionHeader)
{
    auto keepAlive = [](const std::string &request_line,
                        const std::string &headers) {
        return http::parseRequestHead(request_line + "\r\n" +
                                      headers + "\r\n")
            .value()
            .keepAlive();
    };
    EXPECT_TRUE(keepAlive("GET / HTTP/1.1", ""));
    EXPECT_FALSE(
        keepAlive("GET / HTTP/1.1", "Connection: close\r\n"));
    EXPECT_FALSE(keepAlive("GET / HTTP/1.0", ""));
    EXPECT_TRUE(keepAlive("GET / HTTP/1.0",
                          "Connection: keep-alive\r\n"));
}

TEST(HttpFraming, FindHeadEndWaitsForTheBlankLine)
{
    EXPECT_EQ(http::findHeadEnd("GET / HTTP/1.1\r\nHost: x"),
              std::string::npos);
    const std::string full = "GET / HTTP/1.1\r\n\r\nBODY";
    EXPECT_EQ(http::findHeadEnd(full), full.size() - 4);
}

TEST(HttpFraming, BuildResponseRoundTripsThroughTheClientParser)
{
    const std::string wire =
        http::buildResponse(422, "{\"x\": 1}\n", "application/json",
                            /*keep_alive=*/true);
    EXPECT_EQ(wire.rfind("HTTP/1.1 422 ", 0), 0u);
    EXPECT_NE(wire.find("Content-Length: 9\r\n"),
              std::string::npos);
    EXPECT_NE(wire.find("Connection: keep-alive\r\n"),
              std::string::npos);
    EXPECT_NE(wire.find("\r\n\r\n{\"x\": 1}\n"),
              std::string::npos);
}

// ------------------------------------------------- status mapping

TEST(ServeStatus, HttpStatusCoversEveryErrorCode)
{
    EXPECT_EQ(httpStatusFor(Status::ok()), 200);
    EXPECT_EQ(httpStatusFor(Status::error(
                  ErrorCode::InvalidArgument, "x")),
              400);
    EXPECT_EQ(
        httpStatusFor(Status::error(ErrorCode::ParseError, "x")),
        400);
    EXPECT_EQ(
        httpStatusFor(Status::error(ErrorCode::NotFound, "x")),
        404);
    EXPECT_EQ(httpStatusFor(Status::error(ErrorCode::Trap, "x")),
              422);
    EXPECT_EQ(httpStatusFor(
                  Status::error(ErrorCode::CosimMismatch, "x")),
              422);
    EXPECT_EQ(
        httpStatusFor(Status::error(ErrorCode::Unavailable, "x")),
        429);
    EXPECT_EQ(
        httpStatusFor(Status::error(ErrorCode::Internal, "x")),
        500);
}

TEST(ServeStatus, VerbNamesRoundTrip)
{
    for (size_t i = 0; i < kVerbCount; ++i) {
        const Verb verb = static_cast<Verb>(i);
        const Result<Verb> parsed = verbFromName(verbName(verb));
        ASSERT_TRUE(parsed.isOk());
        EXPECT_EQ(parsed.value(), verb);
    }
    EXPECT_FALSE(verbFromName("frobnicate").isOk());
}

} // namespace
} // namespace rissp::net
