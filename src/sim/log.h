#ifndef SPLITWISE_SIM_LOG_H_
#define SPLITWISE_SIM_LOG_H_

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace splitwise::sim {

/** Severity levels for simulator log output. */
enum class LogLevel {
    kDebug = 0,
    kInfo = 1,
    kWarn = 2,
    kError = 3,
    kOff = 4,
};

/** Ordered key/value pairs appended to a structured log line. */
using LogFields = std::vector<std::pair<std::string, std::string>>;

/**
 * Minimal logging facility in the spirit of gem5's inform()/warn()/
 * fatal()/panic() split.
 *
 * The default minimum severity is kWarn. The SPLITWISE_LOG_LEVEL
 * environment variable (debug|info|warn|error|off) overrides it once
 * at first use; setLevel() overrides both.
 *
 * fatal() reports a user-caused error (bad configuration, invalid
 * arguments) and throws std::runtime_error so callers and tests can
 * recover. panic() reports an internal invariant violation and
 * aborts, except inside a PanicScope.
 */
class Log {
  public:
    /** Set the global minimum severity that gets printed. */
    static void setLevel(LogLevel level);

    /** Current global minimum severity. */
    static LogLevel level();

    /** Emit a message at the given level to stderr. */
    static void write(LogLevel level, const std::string& msg);

    /**
     * Parse a level name (debug|info|warn|error|off).
     *
     * @return true and set @p out on success; false on junk.
     */
    static bool parseLevel(const std::string& name, LogLevel& out);
};

/** Log an informational message. */
void inform(const std::string& msg);

/** Log a warning: something suspicious but survivable. */
void warn(const std::string& msg);

/**
 * Structured variants: the fields render as a `key=value` suffix
 * ("machine failed machine=3 t_us=120000"), values with spaces
 * quoted, so log lines stay grep- and parse-friendly.
 *
 * When a simulated clock is attached (see setLogClock) every line -
 * plain or structured - leads its fields with `t_us=<now>`, and when
 * a request scope is open (see LogRequestScope) with `request=<id>`,
 * so any log emitted from inside an event handler self-locates on
 * the simulated timeline without each call site threading the clock.
 */
void inform(const std::string& msg, const LogFields& fields);
void warn(const std::string& msg, const LogFields& fields);

/**
 * Attach the simulated clock for this thread's log prefixes; pass
 * nullptr to detach. The pointer must outlive the attachment (the
 * Simulator attaches its own clock for its lifetime). Kept as a raw
 * int64 pointer so this header stays free of sim/time.h: TimeUs is
 * std::int64_t by definition.
 */
void setLogClock(const std::int64_t* now_us);

/** Currently attached clock for this thread (nullptr if none). */
const std::int64_t* logClock();

/**
 * RAII request-id scope: log lines emitted while a scope is open
 * carry a `request=<id>` field. Scopes nest; the innermost id wins
 * and the previous one is restored on destruction.
 */
class LogRequestScope {
  public:
    explicit LogRequestScope(std::uint64_t id);
    ~LogRequestScope();

    LogRequestScope(const LogRequestScope&) = delete;
    LogRequestScope& operator=(const LogRequestScope&) = delete;

  private:
    std::uint64_t previous_;
    bool hadPrevious_;
};

/**
 * Report an unrecoverable user error (bad config, invalid argument).
 *
 * @throws std::runtime_error always.
 */
[[noreturn]] void fatal(const std::string& msg);

/** What panic() throws inside a PanicScope; what() carries the
 *  message and the log context fields. */
class PanicError : public std::logic_error {
  public:
    using std::logic_error::logic_error;
};

/**
 * While a scope is open on this thread, panic() throws PanicError
 * instead of aborting, so a fuzzing harness can report a simulator
 * bug as a violation and shrink it. Scopes nest.
 */
class PanicScope {
  public:
    PanicScope();
    ~PanicScope();

    PanicScope(const PanicScope&) = delete;
    PanicScope& operator=(const PanicScope&) = delete;
};

/**
 * Report an internal invariant violation (a simulator bug) and abort;
 * inside a PanicScope, throw PanicError instead.
 */
[[noreturn]] void panic(const std::string& msg);

}  // namespace splitwise::sim

#endif  // SPLITWISE_SIM_LOG_H_
