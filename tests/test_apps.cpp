// Tests of the mini-applications: numerical correctness of mini-HPL,
// structural properties of the PARATEC and Amber skeletons, and the SDK
// suite's Table I invocation counts.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <string>

#include "apps/amber.hpp"
#include "apps/hpl.hpp"
#include "apps/paratec.hpp"
#include "apps/sdk_suite.hpp"
#include "ipm/monitor.hpp"
#include "ipm_live/merge.hpp"
#include "cudasim/control.hpp"
#include "hostblas/blas.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/mpi.h"
#include "simcommon/clock.hpp"
#include "spec.hpp"

namespace {

class AppsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cusim::Topology topo;
    topo.timing.init_cost = 0.01;
    cusim::configure(topo);
    simx::reset_default_context();
    hostblas::cpu_model().execute_numerics = true;
  }
};

TEST_F(AppsTest, HplHostBackendFactorsCorrectly) {
  MPI_Init(nullptr, nullptr);
  apps::hpl::Config cfg;
  cfg.n = 128;
  cfg.nb = 32;
  cfg.backend = apps::hpl::Backend::kHost;
  cfg.compute_residual = true;
  const apps::hpl::Result r = apps::hpl::run_rank(cfg);
  MPI_Finalize();
  EXPECT_LT(r.residual, 1e-12);
  EXPECT_GT(r.wallclock, 0.0);
}

TEST_F(AppsTest, HplCublasBackendFactorsCorrectly) {
  MPI_Init(nullptr, nullptr);
  apps::hpl::Config cfg;
  cfg.n = 128;
  cfg.nb = 32;
  cfg.backend = apps::hpl::Backend::kCublas;
  cfg.compute_residual = true;
  const apps::hpl::Result r = apps::hpl::run_rank(cfg);
  MPI_Finalize();
  EXPECT_LT(r.residual, 1e-12);
  // nblocks=4: panels 0..3 trigger updates on the blocks right of them.
  EXPECT_EQ(r.gemm_launches, 3 + 2 + 1);
}

TEST_F(AppsTest, HplRejectsBadConfig) {
  MPI_Init(nullptr, nullptr);
  apps::hpl::Config cfg;
  cfg.n = 100;
  cfg.nb = 32;  // n not a multiple of nb
  EXPECT_THROW((void)apps::hpl::run_rank(cfg), std::runtime_error);
  MPI_Finalize();
}

TEST_F(AppsTest, HplDistributedMatchesSingleRankResult) {
  // The distributed factorization must produce the same virtual-time GPU
  // work and complete without deadlock on several rank counts.
  for (const int ranks : {2, 4}) {
    cusim::Topology topo;
    topo.nodes = ranks;
    topo.timing.init_cost = 0.01;
    cusim::configure(topo);
    mpisim::ClusterConfig cluster;
    cluster.ranks = ranks;
    long long total_gemms = 0;
    std::mutex mu;
    mpisim::run_cluster(cluster, [&](int) {
      MPI_Init(nullptr, nullptr);
      apps::hpl::Config cfg;
      cfg.n = 256;
      cfg.nb = 32;
      cfg.backend = apps::hpl::Backend::kCublas;
      const apps::hpl::Result r = apps::hpl::run_rank(cfg);
      MPI_Finalize();
      std::scoped_lock lk(mu);
      total_gemms += r.gemm_launches;
    });
    EXPECT_EQ(total_gemms, 7 * 8 / 2) << ranks;  // nblocks=8 -> 28 updates total
  }
}

TEST_F(AppsTest, ParatecCountsAndModes) {
  MPI_Init(nullptr, nullptr);
  apps::paratec::Config cfg;
  cfg.n_g = 64;
  cfg.n_bands = 128;
  cfg.nb = 32;
  cfg.iterations = 3;
  cfg.host_work_per_iter = 0.01;
  cfg.blas = apps::paratec::BlasMode::kHostMkl;
  const apps::paratec::Result host = apps::paratec::run_rank(cfg);
  // nblk = (128/1 ranks... bands_local=128)/32 = 4 blocks, 2 zgemm each, 3 iters.
  EXPECT_EQ(host.zgemm_calls, 4 * 2 * 3);
  cfg.blas = apps::paratec::BlasMode::kCublasThunking;
  const apps::paratec::Result gpu = apps::paratec::run_rank(cfg);
  EXPECT_EQ(gpu.zgemm_calls, host.zgemm_calls);
  MPI_Finalize();
}

TEST_F(AppsTest, AmberStructure) {
  EXPECT_EQ(apps::amber::kernel_names().size(), 38u);  // + 1 FFT kernel = 39 on rank 0
  MPI_Init(nullptr, nullptr);
  apps::amber::Config cfg;
  cfg.timesteps = 50;
  const apps::amber::Result r = apps::amber::run_rank(cfg);
  MPI_Finalize();
  EXPECT_EQ(r.kernel_launches, 50 * 12);
  EXPECT_GT(r.wallclock, 0.0);
}

TEST_F(AppsTest, SdkSuiteInvocationCountsMatchTable1) {
  const struct {
    const char* name;
    int invocations;
  } kExpected[] = {
      {"BlackScholes", 512}, {"FDTD3d", 5},
      {"MersenneTwister", 202}, {"MonteCarlo", 2},
      {"concurrentKernels", 9}, {"eigenvalues", 300},
      {"quasirandomGenerator", 42}, {"scan", 3300},
  };
  for (const auto& e : kExpected) {
    cusim::Topology topo;
    topo.timing.init_cost = 0.0;
    cusim::configure(topo);
    simx::reset_default_context();
    ipm::job_begin(ipm::Config{}, e.name);  // fresh monitor per workload
    const apps::sdk::WorkloadResult r = apps::sdk::run_workload(e.name);
    ipm::job_end();
    EXPECT_EQ(r.kernel_invocations, e.invocations) << e.name;
  }
  EXPECT_THROW((void)apps::sdk::run_workload("bogus"), std::invalid_argument);
}

TEST_F(AppsTest, AppsAreVirtualTimeDeterministic) {
  const auto run = [] {
    cusim::Topology topo;
    topo.timing.init_cost = 0.01;
    cusim::configure(topo);
    simx::reset_default_context();
    MPI_Init(nullptr, nullptr);
    apps::hpl::Config cfg;
    cfg.n = 256;
    cfg.nb = 64;
    cfg.backend = apps::hpl::Backend::kCublas;
    const apps::hpl::Result r = apps::hpl::run_rank(cfg);
    MPI_Finalize();
    return r.wallclock;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

/// The live merger's one-pass classifier must put every name the sim apps
/// and the generated wrappers register in the family name_in_family()
/// gives it, failed-call [ERR=...] keys included.
TEST_F(AppsTest, MergeClassifierAgreesWithNameInFamily) {
  std::set<std::string> names = {
      "",           "c",          "cu",         "cuX",         "cux",
      "cublas",     "cufft",      "cufftPlan1d", "cudaMalloc", "cuda",
      "MPI",        "MPI_",       "mpi_Send",   "@CUDA_EXEC",  "@CUDA_EXEC:k",
      "@CUDA_EXEC_STRM00", "@CUDA_HOST_IDLE", "@CUDA_HOST", "@CUDA",
      "cudaMemcpy[ERR=cudaErrorInvalidValue]", "MPI_Send[ERR=MPI_ERR_RANK]",
      "cublasDgemm[ERR=cublasStatusExecutionFailed]"};
  for (const char* spec : {"cublas", "cuda_driver", "cuda_runtime", "cufft", "mpi"}) {
    const wrapgen::SpecFile f = wrapgen::parse_spec_file(
        std::string(IPM_SOURCE_DIR) + "/src/wrapgen/specs/" + spec + ".spec");
    ASSERT_FALSE(f.calls.empty()) << spec;
    for (const wrapgen::CallSpec& c : f.calls) {
      names.insert(c.name);
      names.insert(c.name + "[ERR=x]");
    }
  }
  // Names registered at run time: kernels (@CUDA_EXEC:<kernel>), host idle,
  // CUBLAS and CUFFT calls of the mini-apps.
  ipm::job_begin(ipm::Config{}, "./classify");
  MPI_Init(nullptr, nullptr);
  apps::amber::Config amber;
  amber.timesteps = 10;
  (void)apps::amber::run_rank(amber);
  apps::hpl::Config hpl;
  hpl.n = 128;
  hpl.nb = 32;
  hpl.backend = apps::hpl::Backend::kCublas;
  (void)apps::hpl::run_rank(hpl);
  apps::paratec::Config paratec;
  paratec.n_g = 64;
  paratec.n_bands = 64;
  paratec.nb = 32;
  paratec.iterations = 1;
  (void)apps::paratec::run_rank(paratec);
  MPI_Finalize();
  const ipm::JobProfile job = ipm::job_end();
  std::size_t registered = 0;
  for (const ipm::RankProfile& r : job.ranks) {
    for (const ipm::EventRecord& e : r.events) {
      names.insert(e.name);
      ++registered;
    }
  }
  ASSERT_GT(registered, 40u);
  int per_family[6] = {};
  for (const std::string& n : names) {
    const ipm::live::Classified c = ipm::live::classify(n);
    const bool flags[6] = {c.mpi, c.cuda, c.gpu, c.idle, c.blas, c.fft};
    for (int i = 0; i < 6; ++i) per_family[i] += flags[i] ? 1 : 0;
    EXPECT_EQ(c.mpi, ipm::name_in_family(n, "MPI")) << n;
    EXPECT_EQ(c.cuda, ipm::name_in_family(n, "CUDA")) << n;
    EXPECT_EQ(c.gpu, ipm::name_in_family(n, "GPU")) << n;
    EXPECT_EQ(c.idle, ipm::name_in_family(n, "IDLE")) << n;
    EXPECT_EQ(c.blas, ipm::name_in_family(n, "CUBLAS")) << n;
    EXPECT_EQ(c.fft, ipm::name_in_family(n, "CUFFT")) << n;
  }
  for (const int n : per_family) EXPECT_GT(n, 0);
}

}  // namespace
