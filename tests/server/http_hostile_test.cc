/**
 * @file
 * Hostile clients against the bounded HTTP front-end: an idle
 * socket, slowloris, a short body, a hang-up mid-stream and a burst
 * past the connection cap. stop() must return within kStopBound in
 * every case. A sequential soak must leave the process's memory
 * mappings and RSS flat. The server runs bare, with test handlers:
 * no cluster is involved.
 */

#include "server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/http_client.h"

namespace splitwise::server {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

/** The most stop() may take with any hostile client connected. */
constexpr auto kStopBound = std::chrono::seconds(1);

int
connectTo(int port)
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
    return fd;
}

bool
sendText(int fd, const std::string& text)
{
    return ::send(fd, text.data(), text.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(text.size());
}

/** What a client read before the server closed (or it gave up). */
struct Drained {
    std::string data;
    bool closed = false;
};

/** Read until end of stream, an error or @p until. */
Drained
drainUntil(int fd, Clock::time_point until)
{
    Drained out;
    char buffer[4096];
    for (;;) {
        const auto left =
            std::chrono::duration_cast<milliseconds>(until - Clock::now());
        if (left.count() <= 0)
            return out;
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0)
            continue;
        const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
        if (n <= 0) {
            out.closed = true;
            return out;
        }
        out.data.append(buffer, static_cast<std::size_t>(n));
    }
}

bool
readable(int fd)
{
    pollfd pfd{fd, POLLIN, 0};
    return ::poll(&pfd, 1, 0) > 0;
}

/** A numeric field of /proc/self/status ("Threads", "VmRSS"). */
long
statusField(const std::string& name)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(name + ":", 0) == 0)
            return std::stol(line.substr(name.size() + 1));
    }
    return -1;
}

std::size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    std::size_t lines = 0;
    for (std::string line; std::getline(maps, line);)
        ++lines;
    return lines;
}

/**
 * One byte of an endless request head every 100 ms, on its own
 * thread, until the server closes the socket or the client stops.
 */
class Slowloris {
  public:
    explicit Slowloris(int fd)
        : thread_([this, fd] {
              const std::string head = "GET /ok HTTP/1.1\r\nX-Slow: ";
              for (std::size_t i = 0; !stop_.load(); ++i) {
                  const char byte = i < head.size() ? head[i] : 'a';
                  if (::send(fd, &byte, 1, MSG_NOSIGNAL) != 1)
                      return;
                  std::this_thread::sleep_for(milliseconds(100));
              }
          })
    {
    }
    Slowloris(const Slowloris&) = delete;
    Slowloris& operator=(const Slowloris&) = delete;
    ~Slowloris()
    {
        stop_.store(true);
        thread_.join();
    }

  private:
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/**
 * A bare server with three routes: /ok answers at once, /stream
 * writes a chunk every millisecond until a write fails, and /hold
 * waits for release() before answering.
 */
class HostileTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        server_ = std::make_unique<HttpServer>(
            [this](const HttpRequest& request, ResponseWriter& writer) {
                handle(request, writer);
            });
        ASSERT_TRUE(server_->start(0));
    }

    void
    TearDown() override
    {
        release();
        server_->stop();
        for (const int fd : fds_)
            ::close(fd);
    }

    int port() const { return server_->port(); }

    /** A connected client socket, closed at tear-down. */
    int
    client()
    {
        const int fd = connectTo(port());
        EXPECT_GE(fd, 0);
        fds_.push_back(fd);
        return fd;
    }

    /** Wait up to 2 s for the server's counters to satisfy @p done. */
    bool
    waitFor(const std::function<bool(const ServerStats&)>& done)
    {
        const auto until = Clock::now() + std::chrono::seconds(2);
        while (!done(server_->stats())) {
            if (Clock::now() > until)
                return false;
            std::this_thread::sleep_for(milliseconds(1));
        }
        return true;
    }

    /** stop() and return how long it took. */
    Clock::duration
    timedStop()
    {
        const auto t0 = Clock::now();
        server_->stop();
        return Clock::now() - t0;
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(holdMu_);
            released_ = true;
        }
        holdCv_.notify_all();
    }

    std::unique_ptr<HttpServer> server_;
    std::atomic<bool> streamEnded_{false};

  private:
    void
    handle(const HttpRequest& request, ResponseWriter& writer)
    {
        if (request.path == "/stream") {
            if (writer.beginChunked(200, "text/plain")) {
                while (writer.writeChunk("tick\n"))
                    std::this_thread::sleep_for(milliseconds(1));
            }
            streamEnded_.store(true);
            return;
        }
        if (request.path == "/hold") {
            std::unique_lock<std::mutex> lock(holdMu_);
            holdCv_.wait(lock, [this] { return released_; });
        }
        writer.writeFull(200, "text/plain", "ok");
    }

    std::mutex holdMu_;
    std::condition_variable holdCv_;
    bool released_ = false;
    std::vector<int> fds_;
};

/** stop() took less than kStopBound and closed @p fd's connection. */
void
expectPromptStop(int fd, Clock::duration took)
{
    EXPECT_LT(took, kStopBound);
    EXPECT_TRUE(drainUntil(fd, Clock::now() + kStopBound).closed);
}

TEST_F(HostileTest, StopIsBoundedWithAnIdleClient)
{
    const int fd = client();
    ASSERT_TRUE(waitFor([](const ServerStats& s) { return s.openConnections == 1; }));
    std::this_thread::sleep_for(milliseconds(50));
    expectPromptStop(fd, timedStop());
}

TEST_F(HostileTest, StopIsBoundedWithASlowlorisClient)
{
    const int fd = client();
    Slowloris slow(fd);
    std::this_thread::sleep_for(milliseconds(350));
    ASSERT_EQ(server_->stats().openConnections, 1u);
    expectPromptStop(fd, timedStop());
}

TEST_F(HostileTest, StopIsBoundedWithAShortBody)
{
    const int fd = client();
    ASSERT_TRUE(sendText(fd, "POST /ok HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                             "0123456789"));
    ASSERT_TRUE(waitFor([](const ServerStats& s) { return s.openConnections == 1; }));
    std::this_thread::sleep_for(milliseconds(50));
    expectPromptStop(fd, timedStop());
}

TEST_F(HostileTest, StopIsBoundedWithAStreamNobodyReads)
{
    const int fd = client();
    ASSERT_TRUE(sendText(fd, "GET /stream HTTP/1.1\r\n\r\n"));
    // The stream is running; the client never reads it.
    std::this_thread::sleep_for(milliseconds(50));
    ASSERT_EQ(server_->stats().openConnections, 1u);
    EXPECT_LT(timedStop(), kStopBound);
    EXPECT_TRUE(streamEnded_.load());
}

TEST_F(HostileTest, StopIsBoundedWithAHeldHandler)
{
    // A handler blocked outside any socket call holds stop() until
    // it returns; released here from another thread after 100 ms.
    const int fd = client();
    ASSERT_TRUE(sendText(fd, "GET /hold HTTP/1.1\r\n\r\n"));
    ASSERT_TRUE(waitFor([](const ServerStats& s) { return s.openConnections == 1; }));
    std::thread releaser([this] {
        std::this_thread::sleep_for(milliseconds(100));
        release();
    });
    EXPECT_LT(timedStop(), kStopBound);
    releaser.join();
    EXPECT_TRUE(drainUntil(fd, Clock::now() + kStopBound).closed);
}

TEST_F(HostileTest, HangUpMidStreamFreesTheWorker)
{
    const int fd = connectTo(port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendText(fd, "GET /stream HTTP/1.1\r\n\r\n"));
    char buffer[256];
    ASSERT_GT(::recv(fd, buffer, sizeof buffer, 0), 0);
    ::close(fd);
    ASSERT_TRUE(waitFor([](const ServerStats& s) { return s.openConnections == 0; }));
    EXPECT_TRUE(streamEnded_.load());
    // The freed worker takes the next connection.
    EXPECT_EQ(httpRequest(port(), "GET", "/ok").status, 200);
    const ServerStats stats = server_->stats();
    EXPECT_EQ(stats.workers, 1u);
    EXPECT_EQ(stats.accepted, 2u);
    EXPECT_LT(timedStop(), kStopBound);
}

TEST_F(HostileTest, ReadDeadlineClosesIdleSlowAndShortClients)
{
    const auto t0 = Clock::now();
    const int idle = client();
    const int slow = client();
    Slowloris slowloris(slow);
    const int short_body = client();
    ASSERT_TRUE(sendText(short_body,
                         "POST /ok HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                         "0123456789"));

    // Not before the deadline...
    std::this_thread::sleep_until(t0 + HttpServer::kReadDeadline -
                                  milliseconds(500));
    for (const int fd : {idle, slow, short_body})
        EXPECT_FALSE(readable(fd));
    EXPECT_EQ(server_->stats().timedOut, 0u);

    // ...but promptly after it: a 408, then end of stream.
    const auto until = t0 + HttpServer::kReadDeadline + std::chrono::seconds(2);
    for (const int fd : {idle, slow, short_body}) {
        const Drained got = drainUntil(fd, until);
        EXPECT_TRUE(got.closed);
        EXPECT_EQ(got.data.rfind("HTTP/1.1 408 ", 0), 0u) << got.data;
    }
    ASSERT_TRUE(waitFor([](const ServerStats& s) { return s.openConnections == 0; }));
    EXPECT_EQ(server_->stats().timedOut, 3u);
    // The workers are free again.
    EXPECT_EQ(httpRequest(port(), "GET", "/ok").status, 200);
}

TEST_F(HostileTest, BurstPastTheCapIsRefusedWithoutHanging)
{
    constexpr std::size_t kCap = HttpServer::kMaxConnections;
    constexpr std::size_t kExtra = 50;
    // This thread plus the accept thread.
    const long threads_before = statusField("Threads");

    std::vector<int> fds;
    for (std::size_t i = 0; i < kCap + kExtra; ++i)
        fds.push_back(client());
    ASSERT_TRUE(waitFor([](const ServerStats& s) {
        return s.accepted == kCap && s.refused == kExtra;
    }));
    EXPECT_LE(server_->stats().workers, kCap);
    EXPECT_LE(statusField("Threads"), threads_before + static_cast<long>(kCap));

    // Connects complete in order and the kernel's accept queue is
    // FIFO, so the last kExtra are the refused ones: each reads a 503
    // and end of stream at once. The rest are still open, waiting
    // for their requests.
    const std::vector<int> held(fds.begin(), fds.begin() + kCap);
    const auto until = Clock::now() + std::chrono::seconds(2);
    for (std::size_t i = kCap; i < fds.size(); ++i) {
        const Drained got = drainUntil(fds[i], until);
        EXPECT_TRUE(got.closed);
        EXPECT_EQ(got.data.rfind("HTTP/1.1 503 ", 0), 0u) << got.data;
    }
    for (const int fd : held)
        EXPECT_FALSE(readable(fd));

    // Every held connection is still served.
    for (const int fd : held)
        ASSERT_TRUE(sendText(fd, "GET /ok HTTP/1.1\r\n\r\n"));
    const auto served_by = Clock::now() + std::chrono::seconds(2);
    for (const int fd : held) {
        const Drained got = drainUntil(fd, served_by);
        EXPECT_TRUE(got.closed);
        EXPECT_EQ(got.data.rfind("HTTP/1.1 200 ", 0), 0u) << got.data;
    }
    ASSERT_TRUE(waitFor([](const ServerStats& s) { return s.openConnections == 0; }));
    EXPECT_LE(server_->stats().workers, kCap);
    EXPECT_LT(timedStop(), kStopBound);
}

TEST_F(HostileTest, BurstStopIsBounded)
{
    // A full house of idle connections, and stop() still returns.
    for (std::size_t i = 0; i < HttpServer::kMaxConnections; ++i)
        client();
    ASSERT_TRUE(waitFor([](const ServerStats& s) {
        return s.openConnections == HttpServer::kMaxConnections;
    }));
    EXPECT_LT(timedStop(), kStopBound);
}

/**
 * Sequential requests reuse one worker, so the process's mappings
 * and RSS do not grow with the request count (a thread kept per
 * connection leaves two mappings and its touched stack behind).
 */
TEST_F(HostileTest, SequentialSoakKeepsMappingsAndRssFlat)
{
    constexpr int kWarmUp = 500;
    constexpr int kSoak = 5000;
    for (int i = 0; i < kWarmUp; ++i)
        ASSERT_EQ(httpRequest(port(), "GET", "/ok").status, 200);
    const std::size_t maps_before = mappingCount();
    const long rss_before_kb = statusField("VmRSS");
    for (int i = 0; i < kSoak; ++i)
        ASSERT_EQ(httpRequest(port(), "GET", "/ok").status, 200);
    const std::size_t maps_after = mappingCount();
    const long rss_after_kb = statusField("VmRSS");

    EXPECT_LE(maps_after, maps_before + 64)
        << maps_before << " -> " << maps_after << " mappings";
#if !defined(__SANITIZE_ADDRESS__)
    // ASan's quarantine holds freed memory by design, so only the
    // plain build bounds RSS.
    EXPECT_LE(rss_after_kb, rss_before_kb + 4096)
        << rss_before_kb << " -> " << rss_after_kb << " kB";
#endif
    const ServerStats stats = server_->stats();
    EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kWarmUp + kSoak));
    EXPECT_EQ(stats.workers, 1u);
}

}  // namespace
}  // namespace splitwise::server
