/**
 * @file
 * Full-stack loopback test of the HTTP serving front-end: real
 * sockets, the CompletionService, an Ingress, and a cluster serve
 * loop under SimClock.
 */

#include "server/serving.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/designs.h"
#include "core/ingress.h"
#include "core/json.h"
#include "core/run.h"
#include "model/llm_config.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "sim/clock.h"

namespace splitwise::server {
namespace {

/** Server + serve loop + HTTP listener, torn down in order. Most
 *  tests run under SimClock; tests that need real token cadence
 *  (e.g. to win a cancellation race) override makeClock(). */
class ServerFixture : public ::testing::Test {
  protected:
    virtual std::unique_ptr<sim::Clock>
    makeClock()
    {
        return std::make_unique<sim::SimClock>();
    }

    void
    SetUp() override
    {
        clock_ = makeClock();
        core::RunOptions options;
        options.llm = model::llama2_70b();
        options.design = core::splitwiseHH(1, 1);
        serveThread_ = std::thread([this, options] {
            core::runLive(options, ingress_, *clock_);
        });
        service_ = std::make_unique<CompletionService>(ingress_);
        http_ = std::make_unique<HttpServer>(
            [this](const HttpRequest& request, ResponseWriter& writer) {
                service_->handle(request, writer);
            });
        ASSERT_TRUE(http_->start(0));
    }

    void
    TearDown() override
    {
        ingress_.shutdown();
        serveThread_.join();
        http_->stop();
        EXPECT_EQ(ingress_.unresolved(), 0u);
    }

    int port() { return http_->port(); }

    core::Ingress ingress_;
    std::unique_ptr<sim::Clock> clock_;
    std::thread serveThread_;
    std::unique_ptr<CompletionService> service_;
    std::unique_ptr<HttpServer> http_;
};

/**
 * Send @p raw verbatim over a fresh loopback connection, half-close
 * the write side, and return the response's status code (-1 when no
 * status line came back). Bypasses http_client so a test controls
 * the framing headers byte for byte.
 */
int
rawStatus(int port, const std::string& raw)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    ::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_WR);
    std::string response;
    char buffer[4096];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof buffer, 0)) > 0)
        response.append(buffer, static_cast<std::size_t>(n));
    ::close(fd);
    // "HTTP/1.1 NNN ..."
    if (response.size() < 12 || response.compare(0, 9, "HTTP/1.1 ") != 0)
        return -1;
    return std::stoi(response.substr(9, 3));
}

/** A completion POST whose Content-Length header reads @p length. */
std::string
completionWithLength(const std::string& length)
{
    return "POST /v1/completions HTTP/1.1\r\n"
           "Content-Length: " +
           length +
           "\r\n\r\n"
           "{\"prompt_tokens\": 128, \"output_tokens\": 3}";
}

/** Wall-clock variant: tokens stream at real decode cadence, so a
 *  client's DELETE can land mid-stream instead of losing the race
 *  against virtual time. */
class WallClockServerFixture : public ServerFixture {
  protected:
    std::unique_ptr<sim::Clock>
    makeClock() override
    {
        return std::make_unique<sim::WallClock>();
    }
};

TEST_F(ServerFixture, CompletionStreamsTokenRecords)
{
    std::vector<core::JsonValue> records;
    std::string partial;
    const int status = httpStream(
        port(), "POST", "/v1/completions",
        "{\"prompt_tokens\": 128, \"output_tokens\": 3}",
        [&](const std::string& data) {
            partial += data;
            std::size_t eol;
            while ((eol = partial.find('\n')) != std::string::npos) {
                records.push_back(
                    core::JsonValue::parse(partial.substr(0, eol)));
                partial.erase(0, eol + 1);
            }
            return true;
        });
    EXPECT_EQ(status, 200);
    ASSERT_EQ(records.size(), 3u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].at("tokens").asInt(),
                  static_cast<std::int64_t>(i + 1));
        EXPECT_EQ(records[i].at("finished").asBool(),
                  i + 1 == records.size());
    }
}

TEST_F(ServerFixture, MalformedBodyIs400)
{
    const HttpResult result =
        httpRequest(port(), "POST", "/v1/completions", "not json");
    EXPECT_EQ(result.status, 400);

    const HttpResult missing =
        httpRequest(port(), "POST", "/v1/completions", "{}");
    EXPECT_EQ(missing.status, 400);
}

TEST_F(ServerFixture, WellFormedContentLengthIsServed)
{
    // Control for the 400 cases below: the same raw request with an
    // exact (or blank-padded) length reaches the handler.
    const std::string body = "{\"prompt_tokens\": 128, \"output_tokens\": 3}";
    EXPECT_EQ(rawStatus(port(),
                        completionWithLength(std::to_string(body.size()))),
              200);
    EXPECT_EQ(rawStatus(port(), completionWithLength(
                                    " " + std::to_string(body.size()) + " ")),
              200);
}

TEST_F(ServerFixture, BodyShorterThanContentLengthIs400)
{
    // The body is complete JSON, so only framing can catch it.
    EXPECT_EQ(rawStatus(port(), completionWithLength("200")), 400);
}

TEST_F(ServerFixture, BadContentLengthIs400)
{
    EXPECT_EQ(rawStatus(port(), completionWithLength("abc")), 400);
    EXPECT_EQ(rawStatus(port(), completionWithLength("12abc")), 400);
    EXPECT_EQ(rawStatus(port(), completionWithLength("")), 400);
    EXPECT_EQ(rawStatus(port(), completionWithLength("-1")), 400);
    // Over the 1 MiB cap: refused before any body is read.
    EXPECT_EQ(rawStatus(port(), completionWithLength(
                                    std::to_string((1u << 20) + 1))),
              400);
    EXPECT_EQ(rawStatus(port(), completionWithLength(
                                    "99999999999999999999999")),
              400);
}

TEST_F(ServerFixture, UnknownRouteIs404)
{
    const HttpResult result = httpRequest(port(), "GET", "/nope");
    EXPECT_EQ(result.status, 404);
}

TEST_F(WallClockServerFixture, DeleteCancelsAStream)
{
    std::int64_t final_tokens = -1;
    std::string partial;
    const int status = httpStream(
        port(), "POST", "/v1/completions",
        "{\"prompt_tokens\": 128, \"output_tokens\": 2000}",
        [&](const std::string& data) {
            partial += data;
            std::size_t eol;
            while ((eol = partial.find('\n')) != std::string::npos) {
                const core::JsonValue record =
                    core::JsonValue::parse(partial.substr(0, eol));
                partial.erase(0, eol + 1);
                final_tokens = record.at("tokens").asInt();
                if (record.at("tokens").asInt() == 1) {
                    const std::string id =
                        std::to_string(record.at("id").asInt());
                    EXPECT_EQ(httpRequest(port(), "DELETE",
                                          "/v1/completions/" + id)
                                  .status,
                              202);
                }
                if (record.at("finished").asBool())
                    return false;
            }
            return true;
        });
    EXPECT_EQ(status, 200);
    // Cancelled long before the 2000-token budget.
    EXPECT_GE(final_tokens, 1);
    EXPECT_LT(final_tokens, 2000);
}

TEST_F(ServerFixture, MetricsSnapshotIsServed)
{
    const HttpResult result = httpRequest(port(), "GET", "/v1/metrics");
    ASSERT_EQ(result.status, 200);
    const core::JsonValue doc = core::JsonValue::parse(result.body);
    EXPECT_TRUE(doc.has("simulated_us"));
    EXPECT_TRUE(doc.has("metrics"));
}

TEST_F(ServerFixture, ShutdownDrainsAndRejectsNewWork)
{
    EXPECT_EQ(httpRequest(port(), "POST", "/v1/admin/shutdown").status,
              202);
    // A submit after shutdown is terminally rejected (503 or a
    // rejected record, depending on when the drain lands).
    const HttpResult result =
        httpRequest(port(), "POST", "/v1/completions",
                    "{\"prompt_tokens\": 64}");
    EXPECT_TRUE(result.status == 503 || result.status == 200);
}

}  // namespace
}  // namespace splitwise::server
