#include "sim/log.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

namespace splitwise::sim {
namespace {

class LogTest : public ::testing::Test {
  protected:
    void SetUp() override { previous_ = Log::level(); }
    void TearDown() override { Log::setLevel(previous_); }

    LogLevel previous_ = LogLevel::kWarn;
};

TEST_F(LogTest, LevelRoundTrips)
{
    Log::setLevel(LogLevel::kDebug);
    EXPECT_EQ(Log::level(), LogLevel::kDebug);
    Log::setLevel(LogLevel::kOff);
    EXPECT_EQ(Log::level(), LogLevel::kOff);
}

TEST_F(LogTest, FatalThrowsRuntimeError)
{
    Log::setLevel(LogLevel::kOff);
    EXPECT_THROW(fatal("user misconfiguration"), std::runtime_error);
}

TEST_F(LogTest, FatalMessagePreserved)
{
    Log::setLevel(LogLevel::kOff);
    try {
        fatal("specific failure detail");
        FAIL() << "fatal did not throw";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "specific failure detail");
    }
}

TEST_F(LogTest, InformAndWarnDoNotThrow)
{
    Log::setLevel(LogLevel::kOff);
    EXPECT_NO_THROW(inform("status message"));
    EXPECT_NO_THROW(warn("suspicious but survivable"));
}

TEST_F(LogTest, ParseLevelAcceptsEveryName)
{
    const std::pair<const char*, LogLevel> names[] = {
        {"debug", LogLevel::kDebug}, {"info", LogLevel::kInfo},
        {"warn", LogLevel::kWarn},   {"error", LogLevel::kError},
        {"off", LogLevel::kOff},
    };
    for (const auto& [name, expected] : names) {
        LogLevel out = LogLevel::kOff;
        EXPECT_TRUE(Log::parseLevel(name, out)) << name;
        EXPECT_EQ(out, expected) << name;
    }
}

TEST_F(LogTest, ParseLevelRejectsJunk)
{
    LogLevel out = LogLevel::kWarn;
    EXPECT_FALSE(Log::parseLevel("verbose", out));
    EXPECT_FALSE(Log::parseLevel("", out));
    EXPECT_FALSE(Log::parseLevel("WARN", out));
    // The output is untouched on failure.
    EXPECT_EQ(out, LogLevel::kWarn);
}

TEST_F(LogTest, StructuredFieldsRenderAsKeyValueSuffix)
{
    Log::setLevel(LogLevel::kInfo);
    ::testing::internal::CaptureStderr();
    inform("machine failed", {{"machine", "3"}, {"t_us", "120000"}});
    const std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(out, "[info] machine failed machine=3 t_us=120000\n");
}

TEST_F(LogTest, StructuredValuesWithSpacesAreQuoted)
{
    Log::setLevel(LogLevel::kInfo);
    ::testing::internal::CaptureStderr();
    warn("shed", {{"why", "queue full"}});
    const std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(out, "[warn] shed why=\"queue full\"\n");
}

TEST_F(LogTest, StructuredMessagesRespectTheLevel)
{
    Log::setLevel(LogLevel::kOff);
    ::testing::internal::CaptureStderr();
    inform("hidden", {{"k", "v"}});
    warn("also hidden", {{"k", "v"}});
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(LogTest, AttachedClockPrefixesEveryLine)
{
    Log::setLevel(LogLevel::kInfo);
    std::int64_t now_us = 120000;
    setLogClock(&now_us);
    ::testing::internal::CaptureStderr();
    inform("machine failed", {{"machine", "3"}});
    now_us = 130000;
    warn("plain message");
    setLogClock(nullptr);
    inform("after detach");
    const std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(out,
              "[info] machine failed t_us=120000 machine=3\n"
              "[warn] plain message t_us=130000\n"
              "[info] after detach\n");
}

TEST_F(LogTest, RequestScopeNestsAndRestores)
{
    Log::setLevel(LogLevel::kInfo);
    std::int64_t now_us = 5;
    setLogClock(&now_us);
    ::testing::internal::CaptureStderr();
    {
        LogRequestScope outer(7);
        inform("outer");
        {
            LogRequestScope inner(9);
            inform("inner", {{"k", "v"}});
        }
        inform("outer again");
    }
    inform("no scope");
    setLogClock(nullptr);
    const std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(out,
              "[info] outer t_us=5 request=7\n"
              "[info] inner t_us=5 request=9 k=v\n"
              "[info] outer again t_us=5 request=7\n"
              "[info] no scope t_us=5\n");
}

TEST_F(LogTest, FatalKeepsThrownMessageFreeOfContext)
{
    Log::setLevel(LogLevel::kOff);
    std::int64_t now_us = 42;
    setLogClock(&now_us);
    try {
        fatal("bad flag");
        FAIL() << "fatal did not throw";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "bad flag");
    }
    setLogClock(nullptr);
}

TEST(LogDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("invariant violated"), "invariant violated");
}

TEST(LogDeathTest, PanicThrowsOnlyInsideAScope)
{
    std::int64_t now_us = 42;
    setLogClock(&now_us);
    {
        PanicScope outer;
        {
            PanicScope inner;
            EXPECT_THROW(panic("nested"), PanicError);
        }
        try {
            panic("invariant violated");
            FAIL() << "panic did not throw inside a scope";
        } catch (const PanicError& e) {
            EXPECT_STREQ(e.what(), "invariant violated t_us=42");
        }
    }
    setLogClock(nullptr);
    // Every scope closed: back to aborting.
    EXPECT_DEATH(panic("after the scope"), "after the scope");
}

}  // namespace
}  // namespace splitwise::sim
