#include "server/serving.h"

#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "core/cluster.h"
#include "core/json.h"
#include "telemetry/metrics_registry.h"

namespace splitwise::server {

namespace {

/**
 * Mailbox between the serving thread (ingress streaming callback)
 * and the HTTP connection thread writing the chunked response.
 * shared_ptr-owned: the callback may outlive the connection when the
 * client hangs up mid-stream.
 */
struct TokenMailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<core::TokenUpdate> updates;
    bool terminal = false;

    void
    push(const core::TokenUpdate& update)
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            updates.push_back(update);
            if (update.finished || update.rejected)
                terminal = true;
        }
        cv.notify_one();
    }

    /** Move every queued update into @p out, blocking until there is
     *  one. @return false once drained after the terminal update. */
    bool
    takeAll(std::vector<core::TokenUpdate>& out)
    {
        out.clear();
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return !updates.empty() || terminal; });
        out.swap(updates);
        return !out.empty();
    }
};

std::string
tokenLine(const core::TokenUpdate& update)
{
    using core::JsonValue;
    JsonValue row = JsonValue::makeObject();
    row.set("id", JsonValue(static_cast<std::int64_t>(update.requestId)));
    if (update.rejected) {
        row.set("rejected", JsonValue(true));
    } else {
        row.set("tokens", JsonValue(update.tokensGenerated));
        row.set("finished", JsonValue(update.finished));
        row.set("at_us", JsonValue(static_cast<std::int64_t>(update.at)));
    }
    return row.dump() + "\n";
}

/** The "server" object of GET /v1/metrics. */
core::JsonValue
serverJson(const ServerStats& stats)
{
    using core::JsonValue;
    auto count = [](std::uint64_t n) {
        return JsonValue(static_cast<std::int64_t>(n));
    };
    JsonValue doc = JsonValue::makeObject();
    doc.set("open_connections", count(stats.openConnections));
    doc.set("workers", count(stats.workers));
    doc.set("accepted", count(stats.accepted));
    doc.set("refused_503", count(stats.refused));
    doc.set("timed_out", count(stats.timedOut));
    return doc;
}

}  // namespace

void
CompletionService::handle(const HttpRequest& request,
                          ResponseWriter& writer)
{
    if (request.method == "POST" && request.path == "/v1/completions") {
        handleCompletion(request, writer);
        return;
    }
    if (request.method == "DELETE" &&
        request.path.rfind("/v1/completions/", 0) == 0) {
        handleCancel(request.path, writer);
        return;
    }
    if (request.method == "GET" && request.path == "/v1/metrics") {
        handleMetrics(request, writer);
        return;
    }
    if (request.method == "POST" &&
        request.path == "/v1/admin/shutdown") {
        ingress_.shutdown();
        writer.writeFull(202, "application/json", "{\"draining\":true}");
        return;
    }
    writer.writeFull(404, "application/json",
                     "{\"error\":\"unknown route\"}");
}

void
CompletionService::handleCompletion(const HttpRequest& request,
                                    ResponseWriter& writer)
{
    core::IngressRequest spec;
    try {
        const core::JsonValue body = core::JsonValue::parse(request.body);
        spec.promptTokens = body.at("prompt_tokens").asInt();
        if (body.has("output_tokens"))
            spec.outputTokens = body.at("output_tokens").asInt();
        if (body.has("priority"))
            spec.priority = static_cast<int>(body.at("priority").asInt());
        if (body.has("session"))
            spec.session =
                static_cast<std::uint64_t>(body.at("session").asInt());
        if (body.has("turn"))
            spec.turn = static_cast<int>(body.at("turn").asInt());
    } catch (const std::exception& e) {
        writer.writeFull(400, "application/json",
                         std::string("{\"error\":\"bad request body: ") +
                             e.what() + "\"}");
        return;
    }
    if (spec.promptTokens < 1 || spec.outputTokens < 1) {
        writer.writeFull(400, "application/json",
                         "{\"error\":\"prompt_tokens and output_tokens "
                         "must be >= 1\"}");
        return;
    }

    auto mailbox = std::make_shared<TokenMailbox>();
    core::RequestHandle handle = ingress_.submit(
        spec, [mailbox](const core::TokenUpdate& update) {
            mailbox->push(update);
        });
    if (!handle.valid()) {
        writer.writeFull(503, "application/json",
                         "{\"error\":\"shutting down\"}");
        return;
    }

    if (!writer.beginChunked(200, "application/x-ndjson")) {
        // Client vanished before the first byte; the handle's
        // destructor cancels the request.
        return;
    }
    // Every update queued by the time this thread wakes goes out as
    // one chunk: one send, however far the stream ran ahead.
    std::vector<core::TokenUpdate> updates;
    std::string records;
    bool terminal = false;
    while (!terminal && mailbox->takeAll(updates)) {
        records.clear();
        for (const core::TokenUpdate& update : updates) {
            records += tokenLine(update);
            if (update.finished || update.rejected) {
                terminal = true;
                break;
            }
        }
        if (!writer.writeChunk(records))
            return;  // Hang-up mid-stream: auto-cancel via handle.
    }
    writer.endChunked();
    // The stream reached its terminal update: nothing left to cancel.
    (void)handle.detach();
}

void
CompletionService::handleCancel(const std::string& path,
                                ResponseWriter& writer)
{
    const std::string id_text =
        path.substr(std::string("/v1/completions/").size());
    char* end = nullptr;
    const std::uint64_t id = std::strtoull(id_text.c_str(), &end, 10);
    if (id == 0 || end == nullptr || *end != '\0') {
        writer.writeFull(400, "application/json",
                         "{\"error\":\"bad request id\"}");
        return;
    }
    ingress_.cancel(id);
    writer.writeFull(202, "application/json", "{\"cancelling\":true}");
}

void
CompletionService::handleMetrics(const HttpRequest& request,
                                 ResponseWriter& writer)
{
    using core::JsonValue;
    JsonValue doc = JsonValue::makeObject();
    const bool live = ingress_.inspect([&doc](const core::Cluster& cluster) {
        doc.set("simulated_us",
                JsonValue(static_cast<std::int64_t>(
                    cluster.simulator().now())));
        const telemetry::MetricsRegistry& registry = cluster.metrics();
        const std::vector<double> values = registry.sampleValues();
        JsonValue metrics = JsonValue::makeObject();
        for (std::size_t i = 0; i < values.size(); ++i)
            metrics.set(registry.names()[i], JsonValue(values[i]));
        doc.set("metrics", std::move(metrics));
    });
    if (!live) {
        writer.writeFull(503, "application/json",
                         "{\"error\":\"serving has ended\"}");
        return;
    }
    // Beside "metrics", not in it: the front-end's health is no
    // cluster metric and never enters the run report.
    if (request.server != nullptr)
        doc.set("server", serverJson(request.server->stats()));
    writer.writeFull(200, "application/json", doc.dump());
}

}  // namespace splitwise::server
