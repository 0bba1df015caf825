// Crash storms (see tests/crash_storm_harness.h) for the kStorms cases picked
// by PrintsAsName. Their parameter prints as the case's name and seed, so
// their ctest names are the same on every build and every run.

#include <gtest/gtest.h>

#include <ostream>
#include <ranges>

#include "tests/crash_storm_harness.h"

namespace finelog {
namespace {

struct NamedStorm {
  StormCase sc;
};

void PrintTo(const NamedStorm& storm, std::ostream* os) {
  *os << storm.sc.name << "_s" << storm.sc.seed;
}

class NamedCrashStormTest : public ::testing::TestWithParam<NamedStorm> {};

TEST_P(NamedCrashStormTest, SurvivesRepeatedCrashes) {
  RunCrashStorm(GetParam().sc);
}

INSTANTIATE_TEST_SUITE_P(
    Storms, NamedCrashStormTest,
    [] {
      auto cases = StormCases(true) |
                   std::views::transform(
                       [](const StormCase& sc) { return NamedStorm{sc}; });
      return ::testing::ValuesIn(cases.begin(), cases.end());
    }(),
    [](const ::testing::TestParamInfo<NamedStorm>& info) {
      return ::testing::PrintToString(info.param);
    });

}  // namespace
}  // namespace finelog
