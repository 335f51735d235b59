// Per-process scratch directory for tests that write files.
//
// gtest_discover_tests registers every TEST as its own ctest entry, so
// `ctest -j` runs tests of one binary as concurrent processes, and
// ::testing::TempDir() is the same directory for all of them: fixed file
// names there clobber each other.  test_tmp() is unique to this process,
// created empty on first use and removed when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace ipm_test {

inline const std::string& test_tmp() {
  struct Dir {
    std::string path;
    Dir()
        : path((std::filesystem::path(::testing::TempDir()) /
                ("ipm_test_" + std::to_string(::getpid())))
                   .string()) {
      std::filesystem::remove_all(path);
      std::filesystem::create_directories(path);
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

}  // namespace ipm_test
