#include "server/serving.h"

#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>

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
    std::deque<core::TokenUpdate> updates;
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

    /** Pop one update, blocking. @return false once drained after
     *  the terminal update. */
    bool
    pop(core::TokenUpdate* out)
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return !updates.empty() || terminal; });
        if (updates.empty())
            return false;
        *out = updates.front();
        updates.pop_front();
        return true;
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
        handleMetrics(writer);
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
    core::TokenUpdate update;
    while (mailbox->pop(&update)) {
        if (!writer.writeChunk(tokenLine(update)))
            return;  // Hang-up mid-stream: auto-cancel via handle.
        if (update.finished || update.rejected)
            break;
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
CompletionService::handleMetrics(ResponseWriter& writer)
{
    std::string body;
    const bool live = ingress_.inspect([&body](const core::Cluster& cluster) {
        using core::JsonValue;
        JsonValue doc = JsonValue::makeObject();
        doc.set("simulated_us",
                JsonValue(static_cast<std::int64_t>(
                    cluster.simulator().now())));
        const telemetry::MetricsRegistry& registry = cluster.metrics();
        const std::vector<double> values = registry.sampleValues();
        JsonValue metrics = JsonValue::makeObject();
        for (std::size_t i = 0; i < values.size(); ++i)
            metrics.set(registry.names()[i], JsonValue(values[i]));
        doc.set("metrics", std::move(metrics));
        body = doc.dump();
    });
    if (!live) {
        writer.writeFull(503, "application/json",
                         "{\"error\":\"serving has ended\"}");
        return;
    }
    writer.writeFull(200, "application/json", body);
}

}  // namespace splitwise::server
