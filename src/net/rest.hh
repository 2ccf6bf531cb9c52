/**
 * @file
 * REST mapping between the wire and the Flow API.
 *
 * The serve front end does not fork the schema: a request body is a
 * small JSON object naming the same fields the `risspgen` verbs
 * accept, and the response body is `flow::toJson(...)` *verbatim* —
 * byte-identical to what `risspgen <verb> --json` prints for the
 * same request. This file owns the request direction (JSON body →
 * typed `flow::Request`) plus the status-code mapping; the socket
 * loop in net/server.cc owns nothing schema-shaped.
 *
 * Per-verb body fields (all optional unless noted):
 *
 *   common        "workload": bundled name  XOR  "source": MiniC
 *                 text (+ optional "label"); "opt": "O0".."O3"/"Oz"
 *   characterize  (common only)
 *   run           "verify": bool, "max_steps": number,
 *                 "subset": [mnemonics] (run on this subset instead)
 *   synth         "name": string, "tech": registry spec string,
 *                 "baselines": bool, "physical": bool,
 *                 "subset": [mnemonics]
 *   retarget      "target": [mnemonics], "max_steps": number,
 *                 "verify_equivalence": bool
 *   explore       "plan": plan text (required; replaces the common
 *                 source). The sweep runs on the daemon's scheduler,
 *                 so a request asks for no threads.
 *
 * Unknown fields are rejected with InvalidArgument naming the field:
 * a client typo ("verfy") must never silently change behavior.
 */

#ifndef RISSP_NET_REST_HH
#define RISSP_NET_REST_HH

#include <string>

#include "flow/flow.hh"
#include "util/json.hh"
#include "util/status.hh"

namespace rissp::net
{

/** The five verbs, as they appear in /api/v1/<verb> targets. */
enum class Verb : uint8_t
{
    Characterize,
    Run,
    Synth,
    Retarget,
    Explore,
};

constexpr size_t kVerbCount = 5;

/** Wire name of a verb ("characterize", ...). */
const char *verbName(Verb verb);

/** Parse a wire name; InvalidArgument on anything else. */
Result<Verb> verbFromName(const std::string &name);

/** Which verb a dispatched request was (for per-verb counters). */
Verb verbOf(const flow::Request &request);

/** Build the typed request for @p verb from a parsed JSON body. */
Result<flow::Request> requestFromJson(Verb verb,
                                      const JsonValue &body);

/** Convenience: parse @p body as JSON, then map it. */
Result<flow::Request> requestFromBody(Verb verb,
                                      const std::string &body);

/**
 * The HTTP status code a response status maps onto. Client-side
 * problems (bad fields, unknown workloads, sources that don't
 * compile) are 4xx; pipeline outcomes on a well-formed request
 * (trap, cosim mismatch, impossible corner) are 422; shed load is
 * 429; internal invariants surfaced as values are 500.
 */
int httpStatusFor(const Status &status);

} // namespace rissp::net

#endif // RISSP_NET_REST_HH
