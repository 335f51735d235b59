// Fault-injection tests (IPM_FAULT / faultsim): injected errors must
// propagate to the application unchanged, the monitor must keep failed
// work out of the success statistics, and banner/XML/trace error
// summaries must match the injector's ground-truth log exactly.
//
// Exactness caveats baked into these tests (see DESIGN.md):
//  * only non-sticky specs are used where counts must match the log — a
//    sticky error poisons later calls, whose failures are *secondary* and
//    exceed the injector log by design;
//  * cluster specs inject symmetrically (call-index triggers, no rankN
//    filter) on paired/collective MPI operations, so no peer blocks on a
//    message or barrier arrival that an injected fault suppressed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/hpl.hpp"
#include "cudasim/control.hpp"
#include "cudasim/cuda.h"
#include "cudasim/cuda_runtime.h"
#include "cudasim/kernel.hpp"
#include "faultsim/fault.hpp"
#include "ipm/report.hpp"
#include "ipm/trace.hpp"
#include "ipm_cuda/layer.hpp"
#include "ipm_parse/trace.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/mpi.h"
#include "simcommon/clock.hpp"
#include "support/test_tmp.hpp"

namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cusim::Topology topo;
    topo.timing.init_cost = 0.0;
    cusim::configure(topo);
    simx::reset_default_context();
    faultsim::clear();
    ipm::job_begin(ipm::Config{}, "./faults");
  }
  void TearDown() override {
    (void)ipm::job_end();
    faultsim::clear();
  }

  /// Sum of count/bytes over all events named `name` in a rank profile.
  static std::pair<std::uint64_t, std::uint64_t> totals(const ipm::RankProfile& p,
                                                        const std::string& name) {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    for (const auto& e : p.events) {
      if (e.name != name) continue;
      count += e.count;
      bytes += e.bytes;
    }
    return {count, bytes};
  }
};

TEST(FaultSpec, MalformedSpecsAreConfigureErrors) {
  faultsim::clear();  // discount any ambient IPM_FAULT from the environment
  EXPECT_THROW(faultsim::configure("cudaMalloc"), std::invalid_argument);
  EXPECT_THROW(faultsim::configure("frobnicate:oom"), std::invalid_argument);
  EXPECT_THROW(faultsim::configure("cudaMalloc:bogusname"), std::invalid_argument);
  EXPECT_THROW(faultsim::configure("cudaMalloc:oom@p=1.5"), std::invalid_argument);
  EXPECT_THROW(faultsim::configure("cudaMalloc:oom@call0"), std::invalid_argument);
  EXPECT_THROW(faultsim::configure("MPI_Send:fail@notatrigger"), std::invalid_argument);
  // Nothing half-installed after a failed configure.
  EXPECT_FALSE(faultsim::active());
  faultsim::clear();
}

TEST(FaultSpec, BadEnvSpecDisablesInjectionWithoutCrashing) {
  ::setenv("IPM_FAULT", "cudaMalloc:not_an_error_name", 1);
  faultsim::configure_from_env();  // must not throw
  EXPECT_FALSE(faultsim::active());
  ::setenv("IPM_FAULT", "cudaMalloc:oom@1", 1);
  faultsim::configure_from_env();
  EXPECT_TRUE(faultsim::active());
  ::unsetenv("IPM_FAULT");
  faultsim::clear();
}

TEST(FaultSpec, SeededRandomInjectionIsReproducible) {
  const auto fire_pattern = [] {
    faultsim::configure("cudaMemcpy:err@p=0.25:seed=42");
    std::vector<int> fired;
    for (int i = 0; i < 200; ++i) {
      if (faultsim::check("cudaMemcpy", -1)) fired.push_back(i);
    }
    faultsim::clear();
    return fired;
  };
  const std::vector<int> a = fire_pattern();
  const std::vector<int> b = fire_pattern();
  EXPECT_FALSE(a.empty());
  EXPECT_LT(a.size(), 200u);
  EXPECT_EQ(a, b) << "same spec, same call sequence => same injection sites";
}

TEST(FaultSpec, CallAndEveryTriggersAreExact) {
  faultsim::configure("cudaMalloc:oom@3,MPI_Send:fail@every4");
  for (int i = 1; i <= 6; ++i) {
    const faultsim::Hit hit = faultsim::check("cudaMalloc", -1);
    EXPECT_EQ(static_cast<bool>(hit), i == 3) << "call " << i;
  }
  for (int i = 1; i <= 12; ++i) {
    const faultsim::Hit hit = faultsim::check("MPI_Send", 0);
    EXPECT_EQ(static_cast<bool>(hit), i % 4 == 0) << "call " << i;
  }
  EXPECT_EQ(faultsim::injected_count("cudaMalloc"), 1u);
  EXPECT_EQ(faultsim::injected_count("MPI_Send"), 3u);
  EXPECT_EQ(faultsim::injection_log().size(), 4u);
  faultsim::clear();
}

TEST_F(FaultInjectionTest, InjectedErrorsPropagateUnchanged) {
  faultsim::configure("cudaMalloc:oom@2,cuMemAlloc:oom@1,MPI_Send:fail@1");
  void* a = nullptr;
  void* b = nullptr;
  EXPECT_EQ(cudaMalloc(&a, 1 << 20), cudaSuccess);
  EXPECT_EQ(cudaMalloc(&b, 1 << 20), cudaErrorMemoryAllocation);
  EXPECT_EQ(b, nullptr);  // the failing call had no side effects
  CUdeviceptr d = 0;
  EXPECT_EQ(cuMemAlloc(&d, 1 << 20), CUDA_ERROR_OUT_OF_MEMORY);
  MPI_Init(nullptr, nullptr);
  double x = 1.0;
  EXPECT_EQ(MPI_Send(&x, 1, MPI_DOUBLE, 0, 0, MPI_COMM_WORLD), MPI_ERR_OTHER);
  // The stack stays usable after each injected failure.
  EXPECT_EQ(cudaMalloc(&b, 1 << 20), cudaSuccess);
  EXPECT_EQ(MPI_Send(&x, 1, MPI_DOUBLE, 0, 0, MPI_COMM_WORLD), MPI_SUCCESS);
  double y = 0.0;
  EXPECT_EQ(MPI_Recv(&y, 1, MPI_DOUBLE, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
            MPI_SUCCESS);
  MPI_Finalize();
  cudaFree(a);
  cudaFree(b);
  EXPECT_EQ(faultsim::injection_log().size(), 3u);
}

TEST_F(FaultInjectionTest, ProfileTotalsExcludeFailedWork) {
  faultsim::configure("cudaMemcpy:inval@2");
  constexpr std::size_t kBytes = 4096;
  void* dev = nullptr;
  ASSERT_EQ(cudaMalloc(&dev, kBytes), cudaSuccess);
  std::vector<char> host(kBytes);
  EXPECT_EQ(cudaMemcpy(dev, host.data(), kBytes, cudaMemcpyHostToDevice), cudaSuccess);
  EXPECT_EQ(cudaMemcpy(dev, host.data(), kBytes, cudaMemcpyHostToDevice),
            cudaErrorInvalidValue);
  EXPECT_EQ(cudaMemcpy(dev, host.data(), kBytes, cudaMemcpyHostToDevice), cudaSuccess);
  cudaFree(dev);
  const ipm::RankProfile p = ipm::rank_finalize();
  // Success entry: exactly the two completed copies, full bytes.
  const auto [ok_count, ok_bytes] = totals(p, "cudaMemcpy(H2D)");
  EXPECT_EQ(ok_count, 2u);
  EXPECT_EQ(ok_bytes, 2 * kBytes);
  // Error entry: the one failed copy, zero bytes credited.
  const auto [err_count, err_bytes] = totals(p, "cudaMemcpy(H2D)[ERR=inval]");
  EXPECT_EQ(err_count, 1u);
  EXPECT_EQ(err_bytes, 0u);
}

TEST_F(FaultInjectionTest, NonStickyErrorClearsOnGetLastError) {
  faultsim::configure("cudaMemcpy:inval@1");
  void* dev = nullptr;
  ASSERT_EQ(cudaMalloc(&dev, 256), cudaSuccess);
  char host[256] = {};
  EXPECT_EQ(cudaMemcpy(dev, host, 256, cudaMemcpyHostToDevice), cudaErrorInvalidValue);
  EXPECT_EQ(cudaPeekAtLastError(), cudaErrorInvalidValue);  // peek does not clear
  EXPECT_EQ(cudaPeekAtLastError(), cudaErrorInvalidValue);
  EXPECT_EQ(cudaGetLastError(), cudaErrorInvalidValue);  // get returns and clears
  EXPECT_EQ(cudaGetLastError(), cudaSuccess);
  EXPECT_EQ(cudaMemcpy(dev, host, 256, cudaMemcpyHostToDevice), cudaSuccess);
  cudaFree(dev);
}

TEST_F(FaultInjectionTest, StickyErrorSurvivesGetLastErrorUntilReset) {
  faultsim::configure("cudaMalloc:oom@1:sticky");
  void* dev = nullptr;
  EXPECT_EQ(cudaMalloc(&dev, 256), cudaErrorMemoryAllocation);
  // The context is poisoned: unrelated data-path calls fail with the same
  // sticky code even though the rule fired only once.
  char host[16] = {};
  EXPECT_EQ(cudaMemcpy(host, host, 16, cudaMemcpyHostToHost),
            cudaErrorMemoryAllocation);
  // Real CUDA sticky semantics: cudaGetLastError reports but does NOT
  // clear a sticky error; neither does cudaPeekAtLastError.
  EXPECT_EQ(cudaPeekAtLastError(), cudaErrorMemoryAllocation);
  EXPECT_EQ(cudaGetLastError(), cudaErrorMemoryAllocation);
  EXPECT_EQ(cudaGetLastError(), cudaErrorMemoryAllocation);
  // Only a device reset recovers the context.
  EXPECT_EQ(cudaDeviceReset(), cudaSuccess);
  EXPECT_EQ(cudaGetLastError(), cudaSuccess);
  EXPECT_EQ(cudaMalloc(&dev, 256), cudaSuccess);
  cudaFree(dev);
}

TEST_F(FaultInjectionTest, FailedLaunchRollsBackKttEntry) {
  ipm::Config cfg;
  cfg.kernel_timing = true;
  ipm::job_begin(cfg, "./faults_ktt");
  faultsim::configure("cudaLaunch:launch@1");
  static const cusim::KernelDef kDoomed{"doomed_kernel", {.fixed_us = 50.0}, nullptr};
  static const cusim::KernelDef kFine{"fine_kernel", {.fixed_us = 50.0}, nullptr};
  ASSERT_EQ(cudaConfigureCall(dim3(1), dim3(32), 0, nullptr), cudaSuccess);
  EXPECT_EQ(cudaLaunch(&kDoomed), cudaErrorLaunchFailure);
  const ipm::cuda::LayerStats after_fail = ipm::cuda::layer_stats(*ipm::monitor());
  EXPECT_EQ(after_fail.ktt_aborted, 1u);
  // A later launch is timed normally (the aborted slot is reusable).
  EXPECT_EQ(cusim::launch_timed(kFine, dim3(1), dim3(32)), cudaSuccess);
  cudaThreadSynchronize();
  const ipm::RankProfile p = ipm::rank_finalize();
  // Drain never saw the phantom kernel: no @CUDA_EXEC entry for it, but
  // the failed cudaLaunch itself is accounted under its error key.
  EXPECT_EQ(totals(p, "@CUDA_EXEC:doomed_kernel").first, 0u);
  EXPECT_EQ(totals(p, "@CUDA_EXEC:fine_kernel").first, 1u);
  EXPECT_EQ(totals(p, "cudaLaunch[ERR=launch]").first, 1u);
  EXPECT_EQ(totals(p, "cudaLaunch[ERR=launch]").second, 0u);
}

TEST_F(FaultInjectionTest, ErrorStringsCoverEveryEnumerator) {
  const cudaError_t all[] = {
      cudaSuccess,           cudaErrorMissingConfiguration,
      cudaErrorMemoryAllocation, cudaErrorInitializationError,
      cudaErrorLaunchFailure,    cudaErrorInvalidValue,
      cudaErrorInvalidDevicePointer, cudaErrorInvalidMemcpyDirection,
      cudaErrorInvalidResourceHandle, cudaErrorNotReady,
      cudaErrorUnknown,
  };
  for (const cudaError_t e : all) {
    EXPECT_STRNE(cudaGetErrorString(e), "unrecognized error code")
        << "enumerator " << e << " must have a real message";
  }
  EXPECT_STREQ(cudaGetErrorString(static_cast<cudaError_t>(12345)),
               "unrecognized error code");
}

TEST_F(FaultInjectionTest, ConfigFaultFieldInstallsTheInjector) {
  ipm::Config cfg;
  cfg.fault = "cudaMalloc:oom@1";
  ipm::job_begin(cfg, "./faults_cfg");
  void* p = nullptr;
  EXPECT_EQ(cudaMalloc(&p, 256), cudaErrorMemoryAllocation);
  EXPECT_EQ(faultsim::injected_count("cudaMalloc"), 1u);
}

TEST_F(FaultInjectionTest, EnvFaultSpecReachesConfig) {
  ::setenv("IPM_FAULT", "cudaMemset:inval@every2", 1);
  const ipm::Config cfg = ipm::config_from_env();
  EXPECT_EQ(cfg.fault, "cudaMemset:inval@every2");
  ::unsetenv("IPM_FAULT");
}

TEST_F(FaultInjectionTest, TraceTagsFailedCallsWithTheErrorCode) {
  ipm::Config cfg;
  cfg.trace = true;
  cfg.trace_log2_records = 10;
  cfg.trace_path = ipm_test::test_tmp() + "/fault_trace";
  ipm::job_begin(cfg, "./faults_trace");
  faultsim::configure("cudaMemcpy:inval@2");
  void* dev = nullptr;
  ASSERT_EQ(cudaMalloc(&dev, 1024), cudaSuccess);
  std::vector<char> host(1024);
  for (int i = 0; i < 3; ++i) {
    (void)cudaMemcpy(dev, host.data(), host.size(), cudaMemcpyHostToDevice);
  }
  cudaFree(dev);
  const ipm::RankProfile r = ipm::rank_finalize();
  ASSERT_FALSE(r.trace_file.empty());
  const ipm::RankTrace t = ipm::read_trace_file(r.trace_file);
  std::uint64_t err_spans = 0;
  for (const ipm::TraceSpan& s : t.spans) {
    if (s.err == 0) continue;
    ++err_spans;
    EXPECT_EQ(s.name, "cudaMemcpy(H2D)[ERR=inval]");
    EXPECT_EQ(s.err, static_cast<std::int32_t>(cudaErrorInvalidValue));
    EXPECT_EQ(s.bytes, 0u);
  }
  EXPECT_EQ(err_spans, faultsim::injection_log().size());
  EXPECT_EQ(err_spans, 1u);
  // The Chrome-trace merge surfaces the flag: error category + err arg.
  std::ostringstream chrome;
  ipm_parse::write_chrome_trace(chrome, {t});
  EXPECT_NE(chrome.str().find("\"err\":11"), std::string::npos);
  EXPECT_NE(chrome.str().find(",error\""), std::string::npos);
}

// Cluster acceptance: with a deterministic symmetric spec, the banner and
// XML error summaries equal the injector log exactly, per call and code.
TEST(FaultInjectionCluster, ReportsMatchInjectionLogExactly) {
  cusim::Topology topo;
  topo.nodes = 2;
  topo.timing.init_cost = 0.0;
  cusim::configure(topo);
  simx::reset_default_context();
  faultsim::clear();
  ipm::job_begin(ipm::Config{}, "./faults_cluster");
  // Injected operations are chosen so a failure never blocks a peer: the
  // barrier fault fires at the same call index on every rank (all skip
  // together), and failed memcpy/memset calls have no waiting partner.
  faultsim::configure(
      "cudaMemcpy:inval@every3,cudaMemset:oom@every4,MPI_Barrier:comm@2");
  constexpr int kRanks = 2;
  mpisim::ClusterConfig cluster;
  cluster.ranks = kRanks;
  cluster.ranks_per_node = 1;
  mpisim::run_cluster(cluster, [](int) {
    MPI_Init(nullptr, nullptr);
    void* dev = nullptr;
    EXPECT_EQ(cudaMalloc(&dev, 1 << 16), cudaSuccess);
    std::vector<char> host(1 << 16);
    EXPECT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS);  // call 1: clean
    for (int i = 0; i < 5; ++i) {
      (void)cudaMemcpy(dev, host.data(), host.size(), cudaMemcpyHostToDevice);
    }
    for (int i = 0; i < 4; ++i) (void)cudaMemset(dev, 0, 1 << 16);
    EXPECT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_ERR_COMM);  // call 2: injected
    cudaFree(dev);
    MPI_Finalize();
  });
  const ipm::JobProfile job = ipm::job_end();

  // Ground truth: 10 memcpys / every3 -> 3; 8 memsets / every4 -> 2;
  // 2nd barrier on each of 2 ranks -> 2.
  EXPECT_EQ(faultsim::injected_count("cudaMemcpy"), 3u);
  EXPECT_EQ(faultsim::injected_count("cudaMemset"), 2u);
  EXPECT_EQ(faultsim::injected_count("MPI_Barrier"), 2u);
  const std::size_t total = faultsim::injection_log().size();
  EXPECT_EQ(total, 7u);

  const std::vector<ipm::ErrorRow> errs = ipm::error_summary(job);
  ASSERT_EQ(errs.size(), 3u);
  std::uint64_t summed = 0;
  for (const ipm::ErrorRow& e : errs) {
    summed += e.count;
    const std::string api = e.name.substr(0, e.name.find('('));  // strip (H2D)
    EXPECT_EQ(e.count, faultsim::injected_count(api)) << api;
  }
  EXPECT_EQ(summed, total);

  // Banner: an error section with the exact total and per-call rows.
  const std::string banner = ipm::banner_string(job);
  EXPECT_NE(banner.find("# errors     : 7 failed calls"), std::string::npos) << banner;
  EXPECT_NE(banner.find("cudaMemcpy(H2D)[ERR=inval]"), std::string::npos);
  EXPECT_NE(banner.find("cudaMemset[ERR=oom]"), std::string::npos);
  EXPECT_NE(banner.find("MPI_Barrier[ERR=comm]"), std::string::npos);

  // XML: the log round-trips the same error summary through the parser.
  std::ostringstream xml;
  ipm::write_xml(xml, job);
  EXPECT_NE(xml.str().find("<errors failed=\"7\">"), std::string::npos);
  const ipm::JobProfile parsed = ipm::parse_xml(xml.str());
  const std::vector<ipm::ErrorRow> parsed_errs = ipm::error_summary(parsed);
  ASSERT_EQ(parsed_errs.size(), errs.size());
  for (std::size_t i = 0; i < errs.size(); ++i) {
    EXPECT_EQ(parsed_errs[i].name, errs[i].name);
    EXPECT_EQ(parsed_errs[i].err, errs[i].err);
    EXPECT_EQ(parsed_errs[i].count, errs[i].count);
    EXPECT_NEAR(parsed_errs[i].tsum, errs[i].tsum, 1e-9);
  }
  faultsim::clear();
}

// fig9-style acceptance: HPL under an aggressive allocation-fault spec
// completes or fails gracefully, and no failed call contributed bytes.
TEST(FaultInjectionHpl, HplFailsGracefullyAndAccountsExactly) {
  cusim::Topology topo;
  topo.timing.init_cost = 0.0;
  cusim::configure(topo);
  simx::reset_default_context();
  faultsim::clear();
  cusim::set_execute_bodies(false);
  ipm::job_begin(ipm::Config{}, "./faults_hpl");
  faultsim::configure("cudaMalloc:oom@every2");
  MPI_Init(nullptr, nullptr);
  apps::hpl::Config cfg;
  cfg.n = 1024;
  cfg.nb = 128;
  cfg.backend = apps::hpl::Backend::kCublas;
  try {
    apps::hpl::run_rank(cfg);  // graceful abort (exception) is acceptable
  } catch (const std::exception&) {
  }
  MPI_Finalize();
  const ipm::JobProfile job = ipm::job_end();
  cusim::set_execute_bodies(true);

  const std::uint64_t injected = faultsim::injected_count("cudaMalloc");
  EXPECT_GT(injected, 0u);
  // Banner error count for cudaMalloc equals the injector log exactly, and
  // the failed allocations credited no bytes.
  bool found = false;
  for (const ipm::ErrorRow& e : ipm::error_summary(job)) {
    if (e.name != "cudaMalloc") continue;
    found = true;
    EXPECT_EQ(e.err, "oom");
    EXPECT_EQ(e.count, injected);
  }
  EXPECT_TRUE(found);
  for (const ipm::RankProfile& r : job.ranks) {
    for (const auto& e : r.events) {
      if (e.name.find("[ERR=") != std::string::npos) {
        EXPECT_EQ(e.bytes, 0u);
      }
    }
  }
  const std::string banner = ipm::banner_string(job);
  EXPECT_NE(banner.find("cudaMalloc[ERR=oom]"), std::string::npos);
  faultsim::clear();
}

}  // namespace
