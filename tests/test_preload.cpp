// End-to-end test of the LD_PRELOAD dynamic interposition (paper §III-A):
// spawns the demo application (linked only against the shared CUDA
// runtime) with and without the interposer preloaded and checks that the
// IPM banner appears exactly when it should — no recompilation, no
// re-linking.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "support/test_tmp.hpp"

namespace {

/// Run a shell command, capture combined stdout+stderr, return exit code.
int run_capture(const std::string& cmd, std::string* output) {
  std::array<char, 4096> buf{};
  output->clear();
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    *output += buf.data();
  }
  return pclose(pipe);
}

const std::string kDemo = std::string(IPM_BINARY_DIR) + "/src/ipm_preload/preload_demo";
const std::string kPreload =
    std::string(IPM_BINARY_DIR) + "/src/ipm_preload/libipm_preload.so";

TEST(Preload, WithoutPreloadNoBanner) {
  std::string out;
  const int rc = run_capture(kDemo, &out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("preload_demo: done"), std::string::npos);
  EXPECT_EQ(out.find("##IPMv2.0"), std::string::npos);
}

TEST(Preload, WithPreloadBannerAppears) {
  std::string out;
  const int rc = run_capture("LD_PRELOAD=" + kPreload + " " + kDemo, &out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("preload_demo: done"), std::string::npos);
  EXPECT_NE(out.find("##IPMv2.0"), std::string::npos) << out;
  // Full monitoring runs through dlsym(RTLD_NEXT): host timing, kernel
  // timing, and host-idle identification all present.
  EXPECT_NE(out.find("cudaMalloc"), std::string::npos);
  EXPECT_NE(out.find("cudaMemcpy(D2H)"), std::string::npos);
  EXPECT_NE(out.find("@CUDA_EXEC_STRM00"), std::string::npos);
  EXPECT_NE(out.find("cudaLaunch"), std::string::npos);
}

TEST(Preload, EnvironmentControlsReporting) {
  std::string out;
  const int rc = run_capture(
      "IPM_REPORT=none LD_PRELOAD=" + kPreload + " " + kDemo, &out);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_EQ(out.find("##IPMv2.0"), std::string::npos) << out;
  // XML log request via environment.
  const std::string log = ipm_test::test_tmp() + "/preload_profile.xml";
  std::remove(log.c_str());
  const int rc2 = run_capture("IPM_REPORT=none IPM_LOG=" + log + " LD_PRELOAD=" +
                                  kPreload + " " + kDemo,
                              &out);
  EXPECT_EQ(rc2, 0) << out;
  FILE* f = std::fopen(log.c_str(), "r");
  ASSERT_NE(f, nullptr) << "XML log not written";
  std::fclose(f);
}

}  // namespace
