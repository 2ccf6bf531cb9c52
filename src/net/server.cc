/**
 * @file
 * HttpServer implementation. Routing and metrics only — byte framing
 * lives in util/http.cc, schema in net/rest.cc, and all socket IO in
 * net/reactor.cc (this file opens and binds the listener, then hands
 * it to the reactor; it never reads or writes a connection itself —
 * enforced by the `blocking-socket-io` lint check).
 *
 * Thread model: one reactor thread owns every connection fd and runs
 * the routing handler; each API request becomes exactly one task on
 * the FlowService's scheduler, which parses the body, runs the
 * synchronous verb (flow::FlowService::dispatch) and hands the
 * finished response bytes back to the reactor. Counters the handler
 * and the workers both touch are atomics.
 */

#include "net/server.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <sstream>

#include "flow/json.hh"
#include "util/json.hh"
#include "util/strings.hh"

namespace rissp::net
{

namespace
{

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

} // namespace

std::string
toJson(const MetricsSnapshot &snapshot)
{
    std::ostringstream out;
    out << "{\"server\": {\"accepted\": " << snapshot.accepted
        << ", \"active\": " << snapshot.activeConnections
        << ", \"connections\": {\"open\": "
        << snapshot.activeConnections
        << ", \"reading\": " << snapshot.readingConnections
        << ", \"dispatched\": " << snapshot.dispatchDepth
        << ", \"writing\": " << snapshot.writingConnections
        << ", \"idle\": " << snapshot.idleConnections
        << ", \"lingering\": " << snapshot.lingeringConnections
        << "}, \"dispatch_depth\": " << snapshot.dispatchDepth
        << ", \"queue_capacity\": " << snapshot.queueCapacity
        << ", \"max_connections\": " << snapshot.connectionCapacity
        << ", \"rejected_shed_load\": " << snapshot.rejectedShedLoad
        << ", \"rejected_queue_full\": "
        << snapshot.rejectedQueueFull
        << ", \"idle_reaped\": " << snapshot.idleReaped
        << ", \"timed_out\": " << snapshot.timedOut
        << ", \"partial_writes\": " << snapshot.partialWrites
        << ", \"http_errors\": " << snapshot.httpErrors
        << ", \"poller\": \"" << snapshot.pollerBackend << '"'
        << ", \"draining\": " << jsonBool(snapshot.draining)
        << "}, \"requests\": {";
    for (size_t i = 0; i < kVerbCount; ++i)
        out << (i ? ", " : "") << '"'
            << verbName(static_cast<Verb>(i)) << "\": {\"total\": "
            << snapshot.verbTotals[i] << ", \"errors\": "
            << snapshot.verbErrors[i] << '}';
    out << "}, \"scheduler\": {\"threads\": "
        << snapshot.schedulerThreads << ", \"queue_depth\": "
        << snapshot.schedulerQueueDepth << ", \"in_flight\": "
        << snapshot.schedulerInFlight << ", \"submitted\": "
        << snapshot.schedulerSubmitted << ", \"executed\": "
        << snapshot.schedulerExecuted << ", \"steals\": "
        << snapshot.schedulerSteals << "}, \"caches\": {"
        << "\"compile\": {\"hits\": " << snapshot.compileHits
        << ", \"misses\": " << snapshot.compileMisses
        << "}, \"sim\": {\"hits\": " << snapshot.simHits
        << ", \"misses\": " << snapshot.simMisses
        << "}, \"synth\": {\"hits\": " << snapshot.synthHits
        << ", \"misses\": " << snapshot.synthMisses
        << "}, \"synth_report\": {\"hits\": "
        << snapshot.synthReportHits << ", \"misses\": "
        << snapshot.synthReportMisses << "}}, \"store\": {"
        << "\"attached\": " << jsonBool(snapshot.storeAttached)
        << ", \"hits\": " << snapshot.storeHits
        << ", \"misses\": " << snapshot.storeMisses
        << ", \"writes\": " << snapshot.storeWrites
        << ", \"write_errors\": " << snapshot.storeWriteErrors
        << ", \"evictions\": " << snapshot.storeEvictions
        << ", \"quarantined\": " << snapshot.storeQuarantined
        << ", \"bytes_read\": " << snapshot.storeBytesRead
        << ", \"bytes_written\": " << snapshot.storeBytesWritten
        << "}}\n";
    return out.str();
}

HttpServer::HttpServer(const flow::FlowService &service,
                       ServeOptions options)
    : service(service), options(std::move(options))
{
}

HttpServer::~HttpServer()
{
    if (started) {
        requestShutdown();
        waitUntilStopped();
    }
}

Status
HttpServer::start()
{
    if (started)
        return Status::error(ErrorCode::Internal,
                             "server already started");

    int listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd < 0)
        return Status::errorf(ErrorCode::Internal, "socket: %s",
                              errnoString(errno).c_str());
    const int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options.port);
    if (::inet_pton(AF_INET, options.bindAddress.c_str(),
                    &addr.sin_addr) != 1) {
        closeFd(listenFd);
        return Status::errorf(ErrorCode::InvalidArgument,
                              "bad bind address '%s'",
                              options.bindAddress.c_str());
    }
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listenFd, options.backlog) != 0) {
        const Status status = Status::errorf(
            ErrorCode::Unavailable, "cannot listen on %s:%u: %s",
            options.bindAddress.c_str(), options.port,
            errnoString(errno).c_str());
        closeFd(listenFd);
        return status;
    }
    socklen_t len = sizeof addr;
    ::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    boundPort = ntohs(addr.sin_port);

    ReactorOptions ropts;
    ropts.maxConnections = options.maxConnections;
    ropts.maxBodyBytes = options.maxBodyBytes;
    ropts.idleTimeoutMs = options.idleTimeoutMs;
    ropts.sendBufferBytes = options.sendBufferBytes;
    ropts.usePollBackend = options.usePollBackend;
    ropts.shedResponse = http::buildResponse(
        429,
        flow::toJson(Status::errorf(
            ErrorCode::Unavailable,
            "server at capacity (%zu connections open); "
            "retry later",
            options.maxConnections)));

    // The reactor owns the listener from here on (it closes it at
    // drain); routing and error bodies stay in this class.
    reactor = std::make_unique<Reactor>(
        listenFd,
        [this](Reactor::ConnToken token,
               const http::RequestHead &head, std::string body) {
            return onRequest(token, head, std::move(body));
        },
        [this](int http_status, Status reason, bool keep_alive) {
            return errorResponse(http_status, std::move(reason),
                                 keep_alive);
        },
        ropts);
    const Status ready = reactor->init();
    if (!ready) {
        reactor.reset(); // closes the listener
        return ready;
    }

    // Start the scheduler's workers before the first connection so
    // dispatch never races lazy worker creation.
    service.scheduler();

    started = true;
    reactorThread = std::thread([this] { reactor->run(); });
    return Status::ok();
}

void
HttpServer::requestShutdown()
{
    // Async-signal-safe on purpose: an atomic store plus the
    // reactor's own wake-pipe write. `reactor` is set before any
    // signal handler can be wired to this method and never
    // reassigned while running.
    drainFlag.store(true, std::memory_order_release);
    if (reactor)
        reactor->requestStop();
}

void
HttpServer::waitUntilStopped()
{
    if (reactorThread.joinable())
        reactorThread.join();
    // The loop only exits after handing back every dispatched
    // response, but a dispatched task may still be returning on its
    // worker; don't let the destructor free the reactor under
    // it.
    while (inflightDispatches.load(std::memory_order_acquire) != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

std::string
HttpServer::errorResponse(int http_status, Status status,
                          bool keep_alive)
{
    noteResponse(http_status);
    return http::buildResponse(http_status,
                               flow::toJson(std::move(status)),
                               "application/json", keep_alive);
}

void
HttpServer::noteResponse(int http_status)
{
    if (http_status >= 400)
        httpErrors.fetch_add(1, std::memory_order_relaxed);
}

Reactor::RequestAction
HttpServer::onRequest(Reactor::ConnToken token,
                      const http::RequestHead &head,
                      std::string body)
{
    // Keep-alive survives routed errors (framing stayed intact) but
    // not a drain: once draining, every response closes so the
    // reactor's table can settle.
    const bool keepAlive = head.keepAlive() && !draining();
    std::string target = head.target;
    const size_t query = target.find('?');
    if (query != std::string::npos)
        target.erase(query);

    if (target == "/healthz") {
        if (head.method != "GET")
            return Reactor::RequestAction::respond(
                errorResponse(
                    405,
                    Status::error(ErrorCode::InvalidArgument,
                                  "use GET on /healthz"),
                    false),
                false);
        noteResponse(200);
        return Reactor::RequestAction::respond(
            http::buildResponse(200, flow::toJson(Status::ok()),
                                "application/json", keepAlive),
            keepAlive);
    }

    if (target == "/metrics") {
        if (head.method != "GET")
            return Reactor::RequestAction::respond(
                errorResponse(
                    405,
                    Status::error(ErrorCode::InvalidArgument,
                                  "use GET on /metrics"),
                    false),
                false);
        noteResponse(200);
        return Reactor::RequestAction::respond(
            http::buildResponse(200, toJson(metrics()),
                                "application/json", keepAlive),
            keepAlive);
    }

    if (target == "/shutdown") {
        if (head.method != "POST")
            return Reactor::RequestAction::respond(
                errorResponse(
                    405,
                    Status::error(ErrorCode::InvalidArgument,
                                  "use POST on /shutdown"),
                    false),
                false);
        // Flush the acknowledgement on a closing connection, then
        // trip the drain: the reactor stops listening and every
        // in-flight request (including this response) completes.
        requestShutdown();
        noteResponse(200);
        return Reactor::RequestAction::respond(
            http::buildResponse(
                200,
                flow::toJson(
                    Status::error(ErrorCode::Ok, "draining")),
                "application/json", false),
            false);
    }

    const std::string apiPrefix = "/api/v1/";
    if (target.rfind(apiPrefix, 0) != 0)
        return Reactor::RequestAction::respond(
            errorResponse(
                404,
                Status::errorf(
                    ErrorCode::NotFound,
                    "no endpoint '%s' (POST /api/v1/<verb>, "
                    "GET /metrics, GET /healthz, "
                    "POST /shutdown)",
                    target.c_str()),
                keepAlive),
            keepAlive);

    Result<Verb> verb =
        verbFromName(target.substr(apiPrefix.size()));
    if (!verb)
        return Reactor::RequestAction::respond(
            errorResponse(404,
                          Status::error(ErrorCode::NotFound,
                                        verb.status().message()),
                          keepAlive),
            keepAlive);
    if (head.method != "POST")
        return Reactor::RequestAction::respond(
            errorResponse(
                405,
                Status::errorf(ErrorCode::InvalidArgument,
                               "use POST on /api/v1/%s",
                               verbName(verb.value())),
                false),
            false);

    // Bounded dispatch admission: the reactor's Dispatched gauge
    // only moves on this thread, so the check cannot race itself.
    // Shed requests close through the lingering discipline — the
    // client may be mid-pipeline and must still read its 429.
    if (options.maxQueue > 0 &&
        reactor->stats().dispatched >= options.maxQueue) {
        rejectedQueueFull.fetch_add(1, std::memory_order_relaxed);
        return Reactor::RequestAction::respond(
            errorResponse(
                429,
                Status::errorf(ErrorCode::Unavailable,
                               "server at capacity (%zu requests "
                               "in flight); retry later",
                               options.maxQueue),
                false),
            false, /*linger_close=*/true);
    }

    dispatchRequest(token, verb.value(), std::move(body),
                    keepAlive);
    return Reactor::RequestAction::dispatched();
}

void
HttpServer::dispatchRequest(Reactor::ConnToken token, Verb verb,
                            std::string body, bool keep_alive)
{
    inflightDispatches.fetch_add(1, std::memory_order_acq_rel);
    service.scheduler().submit(
        [this, token, verb, body = std::move(body), keep_alive] {
            reactor->complete(token, serveVerb(verb, body, keep_alive),
                              keep_alive);
            inflightDispatches.fetch_sub(1, std::memory_order_acq_rel);
        },
        {}, "http:request");
}

std::string
HttpServer::serveVerb(Verb verb, const std::string &body,
                      bool keep_alive)
{
    // Parse off the reactor thread: a 4 MB explore plan must not
    // stall a thousand other connections.
    Result<flow::Request> request = requestFromBody(verb, body);
    if (!request)
        return errorResponse(httpStatusFor(request.status()),
                             request.status(), keep_alive);
    const size_t slot = static_cast<size_t>(verb);
    verbTotals[slot].fetch_add(1, std::memory_order_relaxed);
    Status failure;
    try {
        const flow::Response response =
            service.dispatch(request.value());
        const Status &status = flow::responseStatus(response);
        if (!status.isOk())
            verbErrors[slot].fetch_add(1, std::memory_order_relaxed);
        const int httpStatus = httpStatusFor(status);
        noteResponse(httpStatus);
        // The body is flow::toJson(...) verbatim: byte-identical to
        // `risspgen <verb> --json` for the same request. The server
        // adds framing, never schema.
        return http::buildResponse(httpStatus, flow::toJson(response),
                                   "application/json", keep_alive);
    } catch (const std::exception &ex) {
        failure = Status::errorf(ErrorCode::Internal,
                                 "internal error: %s", ex.what());
    } catch (...) {
        failure = Status::error(ErrorCode::Internal, "internal error");
    }
    // Errors are values, so a throwing verb is a bug: answer it with
    // a 500 and keep serving.
    verbErrors[slot].fetch_add(1, std::memory_order_relaxed);
    return errorResponse(httpStatusFor(failure), std::move(failure),
                         keep_alive);
}

MetricsSnapshot
HttpServer::metrics() const
{
    MetricsSnapshot snapshot;
    const ReactorStats reactorStats = reactor->stats();
    snapshot.accepted = reactorStats.accepted;
    snapshot.rejectedShedLoad = reactorStats.shed;
    snapshot.rejectedQueueFull =
        rejectedQueueFull.load(std::memory_order_relaxed);
    snapshot.httpErrors =
        httpErrors.load(std::memory_order_relaxed);
    snapshot.idleReaped = reactorStats.idleReaped;
    snapshot.timedOut = reactorStats.timedOut;
    snapshot.partialWrites = reactorStats.partialWrites;
    snapshot.activeConnections = reactorStats.open;
    snapshot.readingConnections = reactorStats.reading;
    snapshot.dispatchDepth = reactorStats.dispatched;
    snapshot.writingConnections = reactorStats.writing;
    snapshot.idleConnections = reactorStats.idle;
    snapshot.lingeringConnections = reactorStats.lingering;
    snapshot.queueCapacity = options.maxQueue;
    snapshot.connectionCapacity = options.maxConnections;
    snapshot.draining = draining();
    snapshot.pollerBackend = reactor->backendName();
    for (size_t i = 0; i < kVerbCount; ++i) {
        snapshot.verbTotals[i] =
            verbTotals[i].load(std::memory_order_relaxed);
        snapshot.verbErrors[i] =
            verbErrors[i].load(std::memory_order_relaxed);
    }

    const exec::Scheduler &scheduler = service.scheduler();
    snapshot.schedulerThreads = scheduler.threadCount();
    snapshot.schedulerQueueDepth = scheduler.queueDepth();
    snapshot.schedulerInFlight = scheduler.inFlight();
    snapshot.schedulerSubmitted = scheduler.submitted();
    snapshot.schedulerExecuted = scheduler.tasksRun();
    snapshot.schedulerSteals = scheduler.stealCount();

    const flow::StageCaches &caches = *service.caches();
    snapshot.compileHits = caches.compile.hits();
    snapshot.compileMisses = caches.compile.misses();
    snapshot.simHits = caches.sim.hits();
    snapshot.simMisses = caches.sim.misses();
    snapshot.synthHits = caches.synth.hits();
    snapshot.synthMisses = caches.synth.misses();
    snapshot.synthReportHits = caches.synthReport.hits();
    snapshot.synthReportMisses = caches.synthReport.misses();

    if (caches.artifacts) {
        const store::StoreStats stats = caches.artifacts->stats();
        snapshot.storeAttached = true;
        snapshot.storeHits = stats.hits;
        snapshot.storeMisses = stats.misses;
        snapshot.storeWrites = stats.writes;
        snapshot.storeWriteErrors = stats.writeErrors;
        snapshot.storeEvictions = stats.evictions;
        snapshot.storeQuarantined = stats.quarantined;
        snapshot.storeBytesRead = stats.bytesRead;
        snapshot.storeBytesWritten = stats.bytesWritten;
    }
    return snapshot;
}

} // namespace rissp::net
