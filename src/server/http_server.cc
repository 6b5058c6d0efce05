#include "server/http_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <system_error>

namespace splitwise::server {

namespace {

const char*
statusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 202: return "Accepted";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 408: return "Request Timeout";
      case 503: return "Service Unavailable";
      default: return "Unknown";
    }
}

/** Cap on a request's header block and on its declared body. */
constexpr std::size_t kMaxMessageBytes = 1u << 20;

/**
 * Parse a Content-Length value: decimal digits, optionally padded
 * with blanks. @return false when malformed or over kMaxMessageBytes.
 */
bool
parseContentLength(const std::string& value, std::size_t& length)
{
    const std::size_t first = value.find_first_not_of(" \t");
    if (first == std::string::npos)
        return false;
    const std::size_t last = value.find_last_not_of(" \t");
    std::size_t n = 0;
    for (std::size_t i = first; i <= last; ++i) {
        if (!std::isdigit(static_cast<unsigned char>(value[i])))
            return false;
        n = n * 10 + static_cast<std::size_t>(value[i] - '0');
        if (n > kMaxMessageBytes)
            return false;
    }
    length = n;
    return true;
}

using ReadClock = std::chrono::steady_clock;
using Deadline = ReadClock::time_point;

/** recvBefore()'s result when @p deadline passed with nothing read. */
constexpr ssize_t kDeadlinePassed = -1;

/**
 * recv() that waits for data only until @p deadline.
 * @return the bytes read, 0 at end of stream or on an error, or
 * kDeadlinePassed.
 */
ssize_t
recvBefore(int fd, char* buffer, std::size_t size, Deadline deadline)
{
    for (;;) {
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
            deadline - ReadClock::now());
        if (left.count() <= 0)
            return kDeadlinePassed;
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
        if (ready == 0 || (ready < 0 && errno == EINTR))
            continue;  // Re-check the deadline.
        if (ready < 0)
            return 0;
        const ssize_t n = ::recv(fd, buffer, size, 0);
        if (n < 0 && errno == EINTR)
            continue;
        return n < 0 ? 0 : n;
    }
}

}  // namespace

bool
ResponseWriter::sendAll(const char* data, std::size_t size)
{
    if (broken_)
        return false;
    std::size_t sent = 0;
    while (sent < size) {
        // MSG_NOSIGNAL: a client hang-up must surface as EPIPE, not
        // kill the process with SIGPIPE.
        const ssize_t n =
            ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            broken_ = true;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
ResponseWriter::writeFull(int status, const std::string& content_type,
                          const std::string& body)
{
    char head[256];
    std::snprintf(head, sizeof head,
                  "HTTP/1.1 %d %s\r\n"
                  "Content-Type: %s\r\n"
                  "Content-Length: %zu\r\n"
                  "Connection: close\r\n\r\n",
                  status, statusText(status), content_type.c_str(),
                  body.size());
    if (!sendAll(head, std::strlen(head)))
        return false;
    return sendAll(body.data(), body.size());
}

bool
ResponseWriter::beginChunked(int status, const std::string& content_type)
{
    char head[256];
    std::snprintf(head, sizeof head,
                  "HTTP/1.1 %d %s\r\n"
                  "Content-Type: %s\r\n"
                  "Transfer-Encoding: chunked\r\n"
                  "Connection: close\r\n\r\n",
                  status, statusText(status), content_type.c_str());
    return sendAll(head, std::strlen(head));
}

bool
ResponseWriter::writeChunk(const std::string& data)
{
    if (data.empty())
        return !broken_;
    // One send per chunk: with TCP_NODELAY, three sends would be
    // three segments and up to three client wake-ups per record.
    char size_line[32];
    const int size_len =
        std::snprintf(size_line, sizeof size_line, "%zx\r\n", data.size());
    frame_.assign(size_line, static_cast<std::size_t>(size_len));
    frame_.append(data);
    frame_.append("\r\n", 2);
    return sendAll(frame_.data(), frame_.size());
}

bool
ResponseWriter::endChunked()
{
    return sendAll("0\r\n\r\n", 5);
}

HttpServer::HttpServer(HttpHandler handler) : handler_(std::move(handler)) {}

HttpServer::~HttpServer()
{
    stop();
}

bool
HttpServer::start(int port)
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return false;
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listenFd_, SOMAXCONN) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    socklen_t len = sizeof addr;
    ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
HttpServer::stop()
{
    if (listenFd_ < 0)
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        for (const int fd : queue_)
            ::close(fd);
        stats_.openConnections -= queue_.size();
        queue_.clear();
        // Wakes a worker blocked in recv/poll/send on the socket; the
        // worker still owns (and closes) the descriptor.
        for (const int fd : serving_)
            ::shutdown(fd, SHUT_RDWR);
    }
    work_.notify_all();
    // shutdown() unblocks the accept() so the loop can observe the
    // flag and exit.
    ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    ::close(listenFd_);
    listenFd_ = -1;

    // The accept thread is gone, so no worker starts after the swap.
    std::vector<std::thread> workers;
    {
        std::lock_guard<std::mutex> lock(mu_);
        workers.swap(workers_);
    }
    for (std::thread& t : workers)
        t.join();
}

ServerStats
HttpServer::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ServerStats out = stats_;
    out.workers = workers_.size();
    return out;
}

void
HttpServer::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            std::lock_guard<std::mutex> lock(mu_);
            if (stopping_)
                return;
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        if (admit(fd))
            continue;
        // Refused: answer without ever blocking the accept thread.
        // Reading what already arrived (one read, so a flooding
        // client cannot hold the thread) keeps close() from resetting
        // the connection before the client reads the 503.
        char scratch[4096];
        (void)::recv(fd, scratch, sizeof scratch, MSG_DONTWAIT);
        static const char kBusy[] =
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: 32\r\n"
            "Connection: close\r\n\r\n"
            "{\"error\":\"too many connections\"}";
        (void)::send(fd, kBusy, sizeof kBusy - 1,
                     MSG_DONTWAIT | MSG_NOSIGNAL);
        ::close(fd);
    }
}

bool
HttpServer::admit(int fd)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || stats_.openConnections >= kMaxConnections) {
        ++stats_.refused;
        return false;
    }
    queue_.push_back(fd);
    // Each queued socket needs an idle worker of its own; start one
    // only when there is none. Workers never outnumber open
    // connections at a start, so never exceed the cap.
    if (idleWorkers_ < queue_.size()) {
        try {
            workers_.emplace_back([this] { workerLoop(); });
        } catch (const std::system_error&) {
            queue_.pop_back();
            ++stats_.refused;
            return false;
        }
    } else {
        work_.notify_one();
    }
    ++stats_.openConnections;
    ++stats_.accepted;
    return true;
}

void
HttpServer::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        ++idleWorkers_;
        work_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        --idleWorkers_;
        if (queue_.empty())
            return;  // Stopping.
        const int fd = queue_.front();
        queue_.pop_front();
        serving_.push_back(fd);
        lock.unlock();

        serveConnection(fd);

        // Held from here to the next wait, so a worker between two
        // connections always counts as busy or idle, never neither.
        lock.lock();
        serving_.erase(std::find(serving_.begin(), serving_.end(), fd));
        --stats_.openConnections;
        ::close(fd);
    }
}

void
HttpServer::serveConnection(int fd)
{
    const Deadline deadline = ReadClock::now() + kReadDeadline;
    auto timed_out = [this, fd] {
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.timedOut;
        }
        ResponseWriter writer(fd);
        writer.writeFull(408, "application/json",
                         "{\"error\":\"request not received in time\"}");
    };

    // Read until the header terminator, then Content-Length more.
    std::string data;
    std::size_t header_end = std::string::npos;
    char buffer[4096];
    while (header_end == std::string::npos) {
        const ssize_t n = recvBefore(fd, buffer, sizeof buffer, deadline);
        if (n == kDeadlinePassed) {
            timed_out();
            return;
        }
        if (n <= 0)
            return;
        data.append(buffer, static_cast<std::size_t>(n));
        header_end = data.find("\r\n\r\n");
        if (data.size() > kMaxMessageBytes)
            return;  // Oversized header: drop the connection.
    }

    // A malformed or unsatisfiable frame gets a 400 without ever
    // reaching the handler.
    auto reject = [fd](const char* error) {
        ResponseWriter writer(fd);
        writer.writeFull(400, "application/json",
                         std::string("{\"error\":\"") + error + "\"}");
    };

    HttpRequest request;
    request.server = this;
    {
        const std::string head = data.substr(0, header_end);
        const auto line_end = head.find("\r\n");
        const std::string line = head.substr(0, line_end);
        const auto sp1 = line.find(' ');
        const auto sp2 = line.find(' ', sp1 + 1);
        if (sp1 == std::string::npos || sp2 == std::string::npos)
            return;
        request.method = line.substr(0, sp1);
        request.path = line.substr(sp1 + 1, sp2 - sp1 - 1);

        std::size_t content_length = 0;
        std::size_t pos = line_end;
        while (pos != std::string::npos && pos < head.size()) {
            const std::size_t start = pos + 2;
            const std::size_t end = head.find("\r\n", start);
            const std::string header =
                head.substr(start, end == std::string::npos
                                       ? std::string::npos
                                       : end - start);
            if (header.size() > 15) {
                std::string name = header.substr(0, 15);
                for (char& c : name)
                    c = static_cast<char>(std::tolower(c));
                if (name == "content-length:" &&
                    !parseContentLength(header.substr(15), content_length)) {
                    reject("bad Content-Length");
                    return;
                }
            }
            pos = end;
        }

        std::string body = data.substr(header_end + 4);
        while (body.size() < content_length) {
            const ssize_t n =
                recvBefore(fd, buffer, sizeof buffer, deadline);
            if (n == kDeadlinePassed) {
                timed_out();
                return;
            }
            if (n <= 0) {
                reject("body shorter than Content-Length");
                return;
            }
            body.append(buffer, static_cast<std::size_t>(n));
        }
        request.body = std::move(body);
    }

    ResponseWriter writer(fd);
    handler_(request, writer);
}

}  // namespace splitwise::server
