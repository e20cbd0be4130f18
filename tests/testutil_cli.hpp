// Shared strict-CLI test helper (docs/ROBUSTNESS.md flag conventions).
//
// Every bench/example binary parses its flag families through from_flags
// functions that throw std::invalid_argument on semantic errors, which the
// binaries turn into `error: ...` + exit 2. The tests assert the throwing
// half: build CliFlags from one --flag=value argument and run the caller's
// parser set over it.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"

namespace gilfree::testutil {

/// CliFlags over `args` in throwing mode, so parse errors surface as
/// std::invalid_argument instead of exit(2).
inline CliFlags make_flags(const std::vector<std::string>& args) {
  return flags_from_strings(args);
}

/// Asserts that `parse` rejects the single argument `flag` with
/// std::invalid_argument — the strict-CLI convention every new flag family
/// must follow.
inline void expect_rejected(const std::string& flag,
                            const std::function<void(const CliFlags&)>& parse) {
  CliFlags flags = make_flags({flag});
  EXPECT_THROW(parse(flags), std::invalid_argument) << flag;
}

}  // namespace gilfree::testutil
