#ifndef SPLITWISE_SERVER_SERVING_H_
#define SPLITWISE_SERVER_SERVING_H_

/**
 * @file
 * The HTTP completion API over core::Ingress.
 *
 * Routes:
 *   POST   /v1/completions        Submit; body
 *       {"prompt_tokens":N, "output_tokens":N, "priority":N,
 *        "session":N, "turn":N} (all but prompt_tokens optional).
 *       Streams one JSON line per token as a chunked response:
 *       {"id":N,"tokens":N,"finished":B,"at_us":N} — or a single
 *       {"id":N,"rejected":true} record when admission control (or
 *       shutdown) sheds the request.
 *   DELETE /v1/completions/<id>   Cancel; the stream finishes at the
 *       next token boundary.
 *   GET    /v1/metrics            Cluster metrics snapshot (JSON
 *       name→value under "metrics"), taken race-free at a quiescent
 *       point, beside the front-end's own health under "server":
 *       open_connections, workers, accepted, refused_503, timed_out.
 *   POST   /v1/admin/shutdown     Stop admissions and drain.
 *
 * The handler thread blocks on a small mailbox fed by the ingress
 * streaming callback and writes every record queued by each wake as
 * one chunk; a client hang-up mid-stream cancels the request
 * upstream.
 */

#include <cstdint>
#include <string>

#include "core/ingress.h"
#include "server/http_server.h"

namespace splitwise::server {

/** Bridges HTTP connection workers to one core::Ingress. */
class CompletionService {
  public:
    explicit CompletionService(core::Ingress& ingress)
        : ingress_(ingress)
    {
    }

    /** The HttpServer handler: dispatch one request by route. */
    void handle(const HttpRequest& request, ResponseWriter& writer);

  private:
    void handleCompletion(const HttpRequest& request,
                          ResponseWriter& writer);
    void handleCancel(const std::string& path, ResponseWriter& writer);
    void handleMetrics(const HttpRequest& request, ResponseWriter& writer);

    core::Ingress& ingress_;
};

}  // namespace splitwise::server

#endif  // SPLITWISE_SERVER_SERVING_H_
