#include "live.h"

#include <arpa/inet.h>
#include <sched.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/ingress.h"
#include "core/json.h"
#include "core/recording.h"
#include "core/report_io.h"
#include "core/run.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/serving.h"
#include "sim/clock.h"

namespace perfbench {

namespace {

using namespace splitwise;
using Clock = std::chrono::steady_clock;

/** Requests drawn from the workload's generator for the live phase. */
constexpr std::size_t kLiveRequests = 4096;
/** Seed offset keeping the live requests apart from the offline stream. */
constexpr std::uint64_t kLiveSeedOffset = 1000003;
/** Traced runs time a bare connect() before every Nth open-loop send. */
constexpr std::size_t kConnectProbeEvery = 10;
/** Traced runs time an Ingress::inspect after every Nth direct submit. */
constexpr std::size_t kInspectEvery = 25;
/** Lead time between building the schedule and the first due time. */
constexpr auto kScheduleLead = std::chrono::milliseconds(20);
/** The most one closed-loop window may take before it stops early. */
constexpr double kClosedWindowMaxS = 20.0;
/** Open-loop TTFT is summarised per window of due time this wide. */
constexpr double kTtftWindowS = 0.5;
/** Windows with fewer answered requests are not summarised. */
constexpr std::size_t kTtftWindowMinCount = 20;
/** Streams run before measuring, each time a live stack comes up. */
constexpr std::size_t kWarmUpStreams = 200;
/**
 * p99 generator lateness, pooled over a run's open-loop segments, above
 * which the open loop counts as behind schedule.
 */
constexpr double kBehindP99Ms = 100.0;

double
secondsSince(Clock::time_point start, Clock::time_point t)
{
    return std::chrono::duration<double>(t - start).count();
}

Clock::time_point
at(Clock::time_point start, double offset_s)
{
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

enum class Action { kPlain, kCancel, kAbort };

/** The seeded mix action of request @p index. */
Action
actionFor(const LiveMix& mix, std::uint64_t seed, std::size_t index)
{
    const double u =
        static_cast<double>(splitmix64(seed * 0x100000001b3ULL + index) >> 11) *
        0x1.0p-53;
    if (u < mix.cancelShare)
        return Action::kCancel;
    if (u < mix.cancelShare + mix.abortShare)
        return Action::kAbort;
    return Action::kPlain;
}

}  // namespace

/** The live requests: ingress specs and their HTTP bodies. */
struct LiveRequests {
    std::vector<splitwise::core::IngressRequest> specs;
    std::vector<std::string> bodies;

    std::size_t size() const { return specs.size(); }
};

namespace {

LiveRequests
liveRequests(const Workload& workload, std::uint64_t seed)
{
    LiveRequests out;
    auto stream = workload.stream(seed + kLiveSeedOffset);
    workload::Request r;
    while (out.size() < kLiveRequests && stream->next(r)) {
        core::IngressRequest spec;
        spec.promptTokens = r.promptTokens;
        spec.outputTokens = std::min(r.outputTokens, workload.live.maxOutputTokens);
        spec.priority = r.priority;
        spec.session = r.session;
        spec.turn = r.turn;
        out.bodies.push_back(
            "{\"prompt_tokens\":" + std::to_string(spec.promptTokens) +
            ",\"output_tokens\":" + std::to_string(spec.outputTokens) +
            ",\"priority\":" + std::to_string(spec.priority) +
            ",\"session\":" + std::to_string(spec.session) +
            ",\"turn\":" + std::to_string(spec.turn) + "}");
        out.specs.push_back(spec);
    }
    if (out.specs.empty())
        throw std::runtime_error("live phase: workload stream is empty");
    return out;
}

/** What one HTTP completion stream did. */
struct StreamResult {
    int status = 0;
    bool gotFirst = false;
    Clock::time_point firstAt;
    bool terminal = false;
    bool rejected = false;
    bool cancelled = false;
    bool aborted = false;
    bool bad = false;
};

/**
 * POST one completion and read its NDJSON stream. A cancel action
 * DELETEs the request after its first token record; an abort action
 * hangs up there.
 */
StreamResult
runStream(int port, const std::string& body, Action action)
{
    StreamResult r;
    std::string pending;
    std::int64_t last_tokens = 0;
    r.status = server::httpStream(
        port, "POST", "/v1/completions", body,
        [&](const std::string& data) {
            pending += data;
            for (std::size_t nl; (nl = pending.find('\n')) != std::string::npos;) {
                const std::string line = pending.substr(0, nl);
                pending.erase(0, nl + 1);
                if (!r.gotFirst) {
                    r.gotFirst = true;
                    r.firstAt = Clock::now();
                }
                try {
                    const core::JsonValue rec = core::JsonValue::parse(line);
                    if (rec.has("rejected")) {
                        r.rejected = r.terminal = true;
                        continue;
                    }
                    const std::int64_t tokens = rec.at("tokens").asInt();
                    if (tokens < 1 || tokens < last_tokens)
                        r.bad = true;
                    const bool first_token = last_tokens == 0;
                    last_tokens = tokens;
                    if (rec.at("finished").asBool()) {
                        r.terminal = true;
                        continue;
                    }
                    if (!first_token)
                        continue;
                    if (action == Action::kAbort) {
                        r.aborted = true;
                        return false;
                    }
                    if (action == Action::kCancel) {
                        const server::HttpResult del = server::httpRequest(
                            port, "DELETE",
                            "/v1/completions/" +
                                std::to_string(rec.at("id").asInt()));
                        r.cancelled = true;
                        if (del.status != 202)
                            r.bad = true;
                    }
                } catch (const std::exception&) {
                    r.bad = true;
                }
            }
            return true;
        });
    if (!pending.empty() && !r.aborted)
        r.bad = true;  // A record cut off mid-line.
    return r;
}

/** Fold one stream's outcome into @p counts. */
void
countOutcome(const StreamResult& r, StreamCounts& counts)
{
    ++counts.attempted;
    if (r.status == 0) {
        ++counts.connectErrors;
        return;
    }
    if (r.status == 503) {
        ++counts.refused;
        return;
    }
    if (r.status != 200) {
        ++counts.non200;
        return;
    }
    if (r.bad)
        ++counts.badRecords;
    if (r.cancelled)
        ++counts.cancelled;
    if (r.aborted) {
        ++counts.aborted;
    } else if (!r.terminal) {
        ++counts.noTerminal;
    } else if (r.rejected) {
        ++counts.shed;
    } else {
        ++counts.finished;
    }
}

/** GET /v1/metrics and check it answers with a metrics snapshot. */
bool
readMetrics(int port)
{
    const server::HttpResult res = server::httpRequest(port, "GET", "/v1/metrics");
    if (res.status != 200)
        return false;
    try {
        return core::JsonValue::parse(res.body).has("metrics");
    } catch (const std::exception&) {
        return false;
    }
}

/** Host microseconds for a bare loopback connect(); negative on failure. */
double
connectProbeUs(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1.0;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    const auto t0 = Clock::now();
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    const double us = secondsSince(t0, Clock::now()) * 1e6;
    ::close(fd);
    return rc == 0 ? us : -1.0;
}

/** Current thread count of this process, from /proc/self/status. */
long
threadCount()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::stol(line.substr(8));
    }
    return 0;
}

}  // namespace

/**
 * The in-process serving stack. The serve loop runs on its own
 * thread from construction until finish(); the destructor finishes
 * too, so no path leaves a thread running.
 */
class LiveStack {
  public:
    LiveStack(const Workload& workload, bool traced)
        : service_(ingress_),
          traced_(traced),
          http_([this](const server::HttpRequest& request,
                       server::ResponseWriter& writer) {
              handle(request, writer);
          })
    {
        options_.llm = workload.llm;
        options_.design = workload.design;
        options_.sim = workload.sim;
        if (!http_.start(0))
            throw std::runtime_error("live phase: cannot bind 127.0.0.1");
        serve_ = std::thread([this] {
            try {
                report_ = core::runLive(options_, ingress_, clock_, &capture_);
            } catch (...) {
                serveError_ = std::current_exception();
            }
        });
    }

    LiveStack(const LiveStack&) = delete;
    LiveStack& operator=(const LiveStack&) = delete;

    ~LiveStack()
    {
        try {
            finish();
        } catch (...) {
            // The caller already has (or no longer needs) the failure.
        }
    }

    int port() const { return http_.port(); }
    core::Ingress& ingress() { return ingress_; }
    const core::RunOptions& options() const { return options_; }
    const core::SessionRecording& capture() const { return capture_; }

    /** Block until the serve loop is running (inspect answers). */
    void
    waitServing()
    {
        const auto deadline = Clock::now() + std::chrono::seconds(60);
        while (!ingress_.inspect([](const core::Cluster&) {})) {
            if (serveError_ || Clock::now() > deadline)
                throw std::runtime_error("live phase: serve loop never started");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    /** Drain and stop; returns the live report. Idempotent. */
    const core::RunReport&
    finish()
    {
        if (!finished_) {
            finished_ = true;
            ingress_.shutdown();
            if (serve_.joinable())
                serve_.join();
            http_.stop();
            if (serveError_)
                std::rethrow_exception(serveError_);
        }
        return report_;
    }

    Samples
    handlerMs()
    {
        std::lock_guard<std::mutex> lock(handlerMu_);
        return handlerMs_;
    }

  private:
    void
    handle(const server::HttpRequest& request, server::ResponseWriter& writer)
    {
        if (!traced_) {
            service_.handle(request, writer);
            return;
        }
        const auto t0 = Clock::now();
        service_.handle(request, writer);
        const double ms = secondsSince(t0, Clock::now()) * 1e3;
        if (request.method == "POST" && request.path == "/v1/completions") {
            std::lock_guard<std::mutex> lock(handlerMu_);
            handlerMs_.add(ms);
        }
    }

    core::RunOptions options_;
    core::Ingress ingress_;
    core::SessionRecording capture_;
    sim::SimClock clock_;
    server::CompletionService service_;
    bool traced_;
    std::mutex handlerMu_;
    Samples handlerMs_;
    server::HttpServer http_;
    core::RunReport report_;
    std::exception_ptr serveError_;
    bool finished_ = false;
    std::thread serve_;
};

namespace {

/**
 * Run @p body on @p n threads and join them all; the first exception
 * a thread threw is rethrown here once every thread has ended.
 */
template <typename Fn>
void
onThreads(int n, Fn body)
{
    std::mutex mu;
    std::exception_ptr first_error;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) {
        threads.emplace_back([&, t] {
            try {
                body(t);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!first_error)
                    first_error = std::current_exception();
            }
        });
    }
    for (std::thread& th : threads)
        th.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

/** Samples the process's thread count every 5 ms while alive. */
class ThreadSampler {
  public:
    explicit ThreadSampler(long& peak)
        : thread_([this, &peak] {
              while (!stop_.load()) {
                  peak = std::max(peak, threadCount());
                  std::this_thread::sleep_for(std::chrono::milliseconds(5));
              }
          })
    {
    }
    ThreadSampler(const ThreadSampler&) = delete;
    ThreadSampler& operator=(const ThreadSampler&) = delete;
    ~ThreadSampler()
    {
        stop_.store(true);
        thread_.join();
    }

  private:
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/** Per-thread results merged after the join. */
struct ThreadTally {
    StreamCounts counts;
    Samples ttftMs;
    Samples connectUs;
    std::uint64_t metricsReads = 0;
    std::uint64_t metricsErrors = 0;
    std::uint64_t streams = 0;
};

void
mergeInto(LiveStats& out, const std::vector<ThreadTally>& tallies)
{
    for (const ThreadTally& t : tallies) {
        out.counts.merge(t.counts);
        out.httpTtftMs.addAll(t.ttftMs);
        out.connectUs.addAll(t.connectUs);
        out.metricsReads += t.metricsReads;
        out.metricsErrors += t.metricsErrors;
    }
}

void
maybeReadMetrics(const LiveMix& mix, std::size_t index, int port, ThreadTally& tally)
{
    if (mix.metricsEvery <= 0 || index % static_cast<std::size_t>(mix.metricsEvery) != 0)
        return;
    ++tally.metricsReads;
    if (!readMetrics(port))
        ++tally.metricsErrors;
}

/** Open loop over HTTP on @p schedule. */
void
openLoopHttp(LiveStack& stack, const LiveRequests& requests, const LiveMix& mix,
             std::uint64_t seed, std::size_t base, OpenLoopSchedule& schedule,
             bool traced, LiveStats& out)
{
    const int threads = clientThreads();
    std::vector<ThreadTally> tallies(static_cast<std::size_t>(threads));
    std::atomic<std::size_t> next{0};
    // Writes out.threadsPeak until it is destroyed below.
    auto sampler = traced ? std::make_unique<ThreadSampler>(out.threadsPeak) : nullptr;
    // Written once per index by whichever thread sends it.
    std::vector<double> ttft_ms(schedule.size(), -1.0);
    const Clock::time_point start = Clock::now() + kScheduleLead;
    onThreads(threads, [&](int t) {
        ThreadTally& tally = tallies[static_cast<std::size_t>(t)];
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= schedule.size())
                return;
            const Clock::time_point due = at(start, schedule.due(i));
            std::this_thread::sleep_until(due);
            schedule.recordSend(i, secondsSince(start, Clock::now()));
            const std::size_t g = base + i;
            if (traced && g % kConnectProbeEvery == 0) {
                const double us = connectProbeUs(stack.port());
                if (us >= 0.0)
                    tally.connectUs.add(us);
            }
            const StreamResult r =
                runStream(stack.port(), requests.bodies[g % requests.size()],
                          actionFor(mix, seed, g));
            countOutcome(r, tally.counts);
            if (r.gotFirst && !r.rejected) {
                ttft_ms[i] = secondsSince(due, r.firstAt) * 1e3;
                tally.ttftMs.add(ttft_ms[i]);
            }
            maybeReadMetrics(mix, g, stack.port(), tally);
        }
    });
    sampler.reset();
    mergeInto(out, tallies);
    out.openScheduled += schedule.size();
    std::vector<double> due_s;
    std::vector<double> answered_ms;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        if (ttft_ms[i] >= 0.0) {
            due_s.push_back(schedule.due(i));
            answered_ms.push_back(ttft_ms[i]);
        }
    }
    out.httpTtftWindowMs.addAll(
        windowMedians(due_s, answered_ms, kTtftWindowS, kTtftWindowMinCount));
}

/**
 * Closed loop over HTTP: streams [first, first + count) by index, or
 * fewer if @p deadline passes first.
 *
 * @return completed streams per second.
 */
double
closedWindow(LiveStack& stack, const LiveRequests& requests, const LiveMix& mix,
             std::uint64_t seed, std::size_t first, std::size_t count,
             Clock::time_point deadline, LiveStats& out)
{
    const int threads = clientThreads();
    std::vector<ThreadTally> tallies(static_cast<std::size_t>(threads));
    const std::size_t end = first + count;
    std::atomic<std::size_t> next{first};
    const Clock::time_point start = Clock::now();
    onThreads(threads, [&](int t) {
        ThreadTally& tally = tallies[static_cast<std::size_t>(t)];
        while (Clock::now() < deadline) {
            const std::size_t i = next.fetch_add(1);
            if (i >= end)
                return;
            const StreamResult r =
                runStream(stack.port(), requests.bodies[i % requests.size()],
                          actionFor(mix, seed, i));
            countOutcome(r, tally.counts);
            if (r.status == 200 && (r.terminal || r.aborted))
                ++tally.streams;
            maybeReadMetrics(mix, i, stack.port(), tally);
        }
    });
    const double elapsed = secondsSince(start, Clock::now());
    std::uint64_t streams = 0;
    for (const ThreadTally& t : tallies)
        streams += t.streams;
    out.closedStreams += streams;
    mergeInto(out, tallies);
    return elapsed > 0.0 ? static_cast<double>(streams) / elapsed : 0.0;
}

/** Unmeasured streams that bring the stack to steady state. */
void
warmUp(LiveStack& stack, const LiveRequests& requests, const LiveMix& mix,
       std::uint64_t seed)
{
    LiveStats discard;
    const std::size_t first = std::numeric_limits<std::size_t>::max() / 2;
    closedWindow(stack, requests, mix, seed, first, kWarmUpStreams,
                 at(Clock::now(), 30.0), discard);
    if (discard.counts.failures() != 0)
        throw std::runtime_error("live phase: warm-up streams failed");
}

/**
 * The open-loop schedule again, straight through Ingress::submit:
 * first StreamCallback time, submit cost and inspect cost.
 */
void
openLoopIngress(LiveStack& stack, const LiveRequests& requests,
                OpenLoopSchedule& schedule, LiveStats& out)
{
    // Shared with the streaming callbacks, which run on the serving
    // thread and may outlive this frame if the wait below gives up.
    struct Tracker {
        std::mutex mu;
        std::condition_variable cv;
        std::vector<double> firstS;
        std::size_t terminal = 0;
    };
    auto tracker = std::make_shared<Tracker>();
    tracker->firstS.assign(schedule.size(), -1.0);

    const int threads = clientThreads();
    std::vector<Samples> submit_us(static_cast<std::size_t>(threads));
    std::vector<Samples> inspect_ms(static_cast<std::size_t>(threads));
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> submitted{0};
    const Clock::time_point start = Clock::now() + kScheduleLead;
    onThreads(threads, [&](int t) {
        const auto ti = static_cast<std::size_t>(t);
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= schedule.size())
                return;
            std::this_thread::sleep_until(at(start, schedule.due(i)));
            schedule.recordSend(i, secondsSince(start, Clock::now()));
            const auto t0 = Clock::now();
            core::RequestHandle handle = stack.ingress().submit(
                requests.specs[i % requests.size()],
                [tracker, start, i](const core::TokenUpdate& update) {
                    const double now_s = secondsSince(start, Clock::now());
                    {
                        std::lock_guard<std::mutex> lock(tracker->mu);
                        if (tracker->firstS[i] < 0.0)
                            tracker->firstS[i] = now_s;
                        if (update.finished || update.rejected)
                            ++tracker->terminal;
                    }
                    tracker->cv.notify_one();
                });
            submit_us[ti].add(secondsSince(t0, Clock::now()) * 1e6);
            if (!handle.valid())
                throw std::runtime_error("live phase: ingress refused a submit");
            (void)handle.detach();
            submitted.fetch_add(1);
            if (i % kInspectEvery == 0) {
                const auto q0 = Clock::now();
                stack.ingress().inspect([](const core::Cluster&) {});
                inspect_ms[ti].add(secondsSince(q0, Clock::now()) * 1e3);
            }
        }
    });
    {
        std::unique_lock<std::mutex> lock(tracker->mu);
        const bool done = tracker->cv.wait_for(
            lock, std::chrono::seconds(60),
            [&] { return tracker->terminal >= submitted.load(); });
        if (!done)
            throw std::runtime_error("live phase: ingress streams never finished");
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            if (tracker->firstS[i] >= 0.0)
                out.ingressTtftMs.add(schedule.sinceDue(i, tracker->firstS[i]) * 1e3);
        }
    }
    for (int t = 0; t < threads; ++t) {
        out.ingressSubmitUs.addAll(submit_us[static_cast<std::size_t>(t)]);
        out.ingressInspectMs.addAll(inspect_ms[static_cast<std::size_t>(t)]);
    }
}

}  // namespace

void
StreamCounts::merge(const StreamCounts& o)
{
    attempted += o.attempted;
    finished += o.finished;
    shed += o.shed;
    cancelled += o.cancelled;
    aborted += o.aborted;
    connectErrors += o.connectErrors;
    non200 += o.non200;
    refused += o.refused;
    noTerminal += o.noTerminal;
    badRecords += o.badRecords;
}

int
clientThreads()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    const int cpus =
        sched_getaffinity(0, sizeof allowed, &allowed) == 0 ? CPU_COUNT(&allowed) : 1;
    return std::clamp(cpus, 1, 4);
}

LiveSession::LiveSession(const Workload& workload, std::uint64_t seed, bool traced)
    : workload_(workload),
      seed_(seed),
      traced_(traced),
      requests_(std::make_unique<LiveRequests>(liveRequests(workload, seed))),
      stack_(std::make_unique<LiveStack>(workload, traced))
{
    stack_->waitServing();
    warmUp(*stack_, *requests_, workload.live, seed);
}

LiveSession::~LiveSession() = default;

void
LiveSession::openLoop(double seconds)
{
    // Each segment has its own seeded schedule; request indices run on
    // across segments so bodies and mix draws do not repeat.
    OpenLoopSchedule schedule = OpenLoopSchedule::poisson(
        workload_.live.openRate, seconds, seed_ * 1000 + segments_++);
    openLoopHttp(*stack_, *requests_, workload_.live, seed_, nextIndex_, schedule,
                 traced_, stats_);
    nextIndex_ += schedule.size();
    unsent_ += schedule.unsent();
    stats_.lateMs.addAll(schedule.lateness().scaled(1e3));
}

void
LiveSession::closedLoop(std::size_t streams)
{
    stats_.streamRps.add(closedWindow(*stack_, *requests_, workload_.live, seed_,
                                      nextIndex_, streams,
                                      at(Clock::now(), kClosedWindowMaxS), stats_));
    nextIndex_ += streams;
}

void
LiveSession::ingressOpenLoop(double seconds)
{
    OpenLoopSchedule schedule = OpenLoopSchedule::poisson(
        workload_.live.openRate, seconds, seed_ * 1000 + segments_++);
    openLoopIngress(*stack_, *requests_, schedule, stats_);
    unsent_ += schedule.unsent();
    ingressLateMs_.addAll(schedule.lateness().scaled(1e3));
}

LiveStats
LiveSession::finish()
{
    Samples late_ms = stats_.lateMs;
    late_ms.addAll(ingressLateMs_);
    stats_.behind = unsent_ > 0 || late_ms.percentile(99.0) > kBehindP99Ms;
    const core::RunReport& live_report = stack_->finish();
    stats_.handlerMs = stack_->handlerMs();
    stats_.leaked = stack_->ingress().unresolved();
    stats_.liveCompleted = live_report.requests.completed();
    stats_.replayRequests = stack_->capture().requests.size();
    const auto t0 = Clock::now();
    const core::RunReport replayed =
        core::replay(stack_->options(), stack_->capture());
    stats_.replayS = secondsSince(t0, Clock::now());
    stats_.replayIdentical =
        core::reportToJson(replayed) == core::reportToJson(live_report);
    return stats_;
}

double
liveSetupProbe(const Workload& workload, std::uint64_t seed)
{
    const LiveRequests requests = liveRequests(workload, seed);
    const auto t0 = Clock::now();
    LiveStack stack(workload, false);
    const StreamResult r = runStream(stack.port(), requests.bodies[0], Action::kPlain);
    const double setup = secondsSince(t0, r.firstAt);
    if (r.status != 200 || !r.gotFirst)
        throw std::runtime_error("live setup probe: first request failed");
    stack.finish();
    return setup;
}

}  // namespace perfbench
