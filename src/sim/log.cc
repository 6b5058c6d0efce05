#include "sim/log.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace splitwise::sim {

namespace {

const char*
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::kDebug: return "debug";
      case LogLevel::kInfo: return "info";
      case LogLevel::kWarn: return "warn";
      case LogLevel::kError: return "error";
      case LogLevel::kOff: return "off";
    }
    return "?";
}

/** Initial severity: SPLITWISE_LOG_LEVEL when set and valid. */
LogLevel
initialLevel()
{
    const char* env = std::getenv("SPLITWISE_LOG_LEVEL");
    if (env) {
        LogLevel level;
        if (Log::parseLevel(env, level))
            return level;
        std::fprintf(stderr,
                     "[warn] SPLITWISE_LOG_LEVEL=%s is not a level "
                     "(debug|info|warn|error|off); using warn\n",
                     env);
    }
    return LogLevel::kWarn;
}

LogLevel&
levelRef()
{
    static LogLevel level = initialLevel();
    return level;
}

/** Per-thread log context: simulated clock and open request scope. */
thread_local const std::int64_t* tlClock = nullptr;
thread_local std::uint64_t tlRequest = 0;
thread_local bool tlHasRequest = false;
/** Open PanicScopes on this thread. */
thread_local int tlPanicScopes = 0;

/** Leading `t_us=`/`request=` fields from the attached context. */
std::string
contextFields()
{
    std::string out;
    if (tlClock) {
        out += " t_us=";
        out += std::to_string(*tlClock);
    }
    if (tlHasRequest) {
        out += " request=";
        out += std::to_string(tlRequest);
    }
    return out;
}

/** Append " key=value" per field, quoting values with spaces. */
std::string
renderFields(const LogFields& fields)
{
    std::string out;
    for (const auto& [key, value] : fields) {
        out += ' ';
        out += key;
        out += '=';
        if (value.find(' ') != std::string::npos) {
            out += '"';
            out += value;
            out += '"';
        } else {
            out += value;
        }
    }
    return out;
}

}  // namespace

bool
Log::parseLevel(const std::string& name, LogLevel& out)
{
    for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                           LogLevel::kError, LogLevel::kOff}) {
        if (name == levelName(level)) {
            out = level;
            return true;
        }
    }
    return false;
}

void
Log::setLevel(LogLevel level)
{
    levelRef() = level;
}

LogLevel
Log::level()
{
    return levelRef();
}

void
Log::write(LogLevel level, const std::string& msg)
{
    if (level < levelRef())
        return;
    std::fprintf(stderr, "[%s] %s\n", levelName(level), msg.c_str());
}

void
setLogClock(const std::int64_t* now_us)
{
    tlClock = now_us;
}

const std::int64_t*
logClock()
{
    return tlClock;
}

LogRequestScope::LogRequestScope(std::uint64_t id)
    : previous_(tlRequest), hadPrevious_(tlHasRequest)
{
    tlRequest = id;
    tlHasRequest = true;
}

LogRequestScope::~LogRequestScope()
{
    tlRequest = previous_;
    tlHasRequest = hadPrevious_;
}

PanicScope::PanicScope()
{
    ++tlPanicScopes;
}

PanicScope::~PanicScope()
{
    --tlPanicScopes;
}

void
inform(const std::string& msg)
{
    Log::write(LogLevel::kInfo, msg + contextFields());
}

void
warn(const std::string& msg)
{
    Log::write(LogLevel::kWarn, msg + contextFields());
}

void
inform(const std::string& msg, const LogFields& fields)
{
    Log::write(LogLevel::kInfo,
               msg + contextFields() + renderFields(fields));
}

void
warn(const std::string& msg, const LogFields& fields)
{
    Log::write(LogLevel::kWarn,
               msg + contextFields() + renderFields(fields));
}

void
fatal(const std::string& msg)
{
    Log::write(LogLevel::kError, "fatal: " + msg + contextFields());
    throw std::runtime_error(msg);
}

void
panic(const std::string& msg)
{
    if (tlPanicScopes > 0)
        throw PanicError(msg + contextFields());
    Log::write(LogLevel::kError, "panic: " + msg + contextFields());
    std::abort();
}

}  // namespace splitwise::sim
