#ifndef SPLITWISE_SERVER_HTTP_SERVER_H_
#define SPLITWISE_SERVER_HTTP_SERVER_H_

/**
 * @file
 * A small loopback HTTP/1.1 server for the live serving front-end.
 *
 * Deliberately minimal: POSIX sockets only (no third-party
 * dependency), a bounded set of connection workers, `Connection:
 * close` on every response, chunked transfer-encoding for token
 * streams. The handler runs on a worker and may block for the
 * stream's lifetime; all serving-engine concurrency is behind
 * core::Ingress, so handlers only touch the thread-safe boundary.
 */

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace splitwise::server {

class HttpServer;

/** One parsed HTTP request (request line + body; headers dropped
 *  except Content-Length, which framing consumes). */
struct HttpRequest {
    std::string method;
    std::string path;
    std::string body;
    /** The server that read the request, for its health counters. */
    const HttpServer* server = nullptr;
};

/**
 * Response writer handed to the handler. Either writeFull() once, or
 * beginChunked() followed by writeChunk()s and endChunked(). Write
 * failures (client hung up) surface as false so streaming handlers
 * can cancel their upstream work.
 */
class ResponseWriter {
  public:
    explicit ResponseWriter(int fd) : fd_(fd) {}

    /** One-shot response with a full body. @return false when the
     *  client is gone. */
    bool writeFull(int status, const std::string& content_type,
                   const std::string& body);

    /** Start a chunked streaming response. */
    bool beginChunked(int status, const std::string& content_type);

    /** Send one chunk, framed in a single send(). @return false when
     *  the client is gone. */
    bool writeChunk(const std::string& data);

    /** Send the terminating zero chunk. */
    bool endChunked();

  private:
    bool sendAll(const char* data, std::size_t size);

    int fd_;
    bool broken_ = false;
    /** Size line + data + CRLF of the chunk being sent; its capacity
     *  is kept across chunks. */
    std::string frame_;
};

/** Request handler: runs on a connection worker, may block. */
using HttpHandler =
    std::function<void(const HttpRequest&, ResponseWriter&)>;

/** Health counters of an HttpServer (GET /v1/metrics "server"). */
struct ServerStats {
    /** Connections accepted and not yet closed (queued or served). */
    std::uint64_t openConnections = 0;
    /** Connection workers started; they live until stop(). */
    std::uint64_t workers = 0;
    std::uint64_t accepted = 0;
    /** Connections answered 503 at the cap (or a failed worker
     *  start) without reaching the handler. */
    std::uint64_t refused = 0;
    /** Connections closed because the request head or body missed
     *  the read deadline. */
    std::uint64_t timedOut = 0;
};

/**
 * The listener: accepts loopback connections until stop(). The
 * accept thread queues each socket for a connection worker, which
 * reads one request, runs the handler, closes the socket
 * (Connection: close keeps framing trivial) and takes the next one.
 * Workers start on demand, only when every started worker is busy,
 * so an idle server runs just the accept thread; they are never more
 * than kMaxConnections, and a connection above that cap is answered
 * 503 by the accept thread without blocking it.
 *
 * A connection has kReadDeadline from its pick-up to deliver its
 * request head and body, or it is answered 408 and closed. Headers
 * and declared bodies are capped at 1 MiB; a non-numeric or over-cap
 * Content-Length, or a body that ends short of it, is answered 400
 * without reaching the handler.
 */
class HttpServer {
  public:
    /** Most connections open at once; the rest are answered 503. */
    static constexpr std::size_t kMaxConnections = 256;
    /** Time a connection has to send its request head and body. */
    static constexpr std::chrono::milliseconds kReadDeadline{5000};

    explicit HttpServer(HttpHandler handler);
    ~HttpServer();

    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral) and start accepting.
     * @return false when the port cannot be bound.
     */
    bool start(int port);

    /** The bound port (after start). */
    int port() const { return port_; }

    /**
     * Stop accepting, shut down every open socket and join the
     * accept thread and every worker. A worker blocked in a socket
     * read or write wakes at once; one blocked inside the handler
     * returns when the handler does (CompletionService's do at their
     * next token write or when the ingress drains).
     */
    void stop();

    /** A consistent snapshot of the health counters. */
    ServerStats stats() const;

  private:
    void acceptLoop();
    /** Queue @p fd for a worker. @return false to refuse it. */
    bool admit(int fd);
    void workerLoop();
    void serveConnection(int fd);

    HttpHandler handler_;
    int listenFd_ = -1;
    int port_ = 0;

    mutable std::mutex mu_;
    // Guarded by mu_.
    std::condition_variable work_;
    bool stopping_ = false;
    std::deque<int> queue_;
    std::vector<int> serving_;
    std::size_t idleWorkers_ = 0;
    std::vector<std::thread> workers_;
    ServerStats stats_;

    std::thread acceptThread_;
};

}  // namespace splitwise::server

#endif  // SPLITWISE_SERVER_HTTP_SERVER_H_
