// Timing-model tests for cudasim: virtual-clock semantics of launches,
// implicit host blocking, stream ordering, the legacy NULL stream, event
// timestamps, concurrency limits, cross-context serialization (GPU
// sharing), and the ground-truth profiler.  These are the exact semantics
// the paper's monitoring methodology relies on.
#include <gtest/gtest.h>

#include <fstream>
#include <thread>
#include <vector>

#include "cudasim/control.hpp"
#include "cudasim/cuda_runtime.h"
#include "cudasim/kernel.hpp"
#include "simcommon/clock.hpp"
#include "simcommon/noise.hpp"
#include "support/test_tmp.hpp"

namespace {

/// A kernel with an exact, configuration-independent device time.
cusim::KernelDef fixed_kernel(const char* name, double seconds) {
  cusim::KernelDef def;
  def.name = name;
  def.cost.fixed_us = seconds * 1e6;
  return def;
}

class CudaTimingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cusim::Topology topo;
    topo.timing.init_cost = 0.0;  // timing tests want a clean origin
    cusim::configure(topo);
    simx::reset_default_context();
  }
  double now() { return simx::virtual_now(); }
};

TEST_F(CudaTimingTest, LaunchIsAsynchronous) {
  static const cusim::KernelDef kSlow = fixed_kernel("slow", 1.0);
  const double before = now();
  ASSERT_EQ(cusim::launch_timed(kSlow, dim3(1), dim3(32)), cudaSuccess);
  // The host regains control in microseconds, not after the 1 s kernel.
  EXPECT_LT(now() - before, 1e-3);
  ASSERT_EQ(cudaThreadSynchronize(), cudaSuccess);
  EXPECT_GE(now() - before, 1.0);
}

TEST_F(CudaTimingTest, SyncMemcpyImplicitlyBlocksOnKernel) {
  // The paper's §III-C observation: a blocking D2H transfer right after an
  // asynchronous launch absorbs the kernel's execution time.
  static const cusim::KernelDef kSlow = fixed_kernel("slow2", 0.8);
  void* dev = nullptr;
  ASSERT_EQ(cudaMalloc(&dev, 1024), cudaSuccess);
  char host[1024] = {};
  ASSERT_EQ(cudaMemcpy(dev, host, 1024, cudaMemcpyHostToDevice), cudaSuccess);
  ASSERT_EQ(cusim::launch_timed(kSlow, dim3(1), dim3(32)), cudaSuccess);
  const double before = now();
  ASSERT_EQ(cudaMemcpy(host, dev, 1024, cudaMemcpyDeviceToHost), cudaSuccess);
  EXPECT_GE(now() - before, 0.8);
  // The same transfer on an idle device takes only the transfer time.
  const double before2 = now();
  ASSERT_EQ(cudaMemcpy(host, dev, 1024, cudaMemcpyDeviceToHost), cudaSuccess);
  EXPECT_LT(now() - before2, 1e-3);
  cudaFree(dev);
}

TEST_F(CudaTimingTest, MemsetDoesNotImplicitlyBlock) {
  // The paper's notable exception: cudaMemset is NOT in the blocking set.
  static const cusim::KernelDef kSlow = fixed_kernel("slow3", 0.7);
  void* dev = nullptr;
  ASSERT_EQ(cudaMalloc(&dev, 1024), cudaSuccess);
  ASSERT_EQ(cusim::launch_timed(kSlow, dim3(1), dim3(32)), cudaSuccess);
  const double before = now();
  ASSERT_EQ(cudaMemset(dev, 0, 1024), cudaSuccess);
  EXPECT_LT(now() - before, 1e-3);  // returned immediately
  cudaThreadSynchronize();
  cudaFree(dev);
}

TEST_F(CudaTimingTest, AsyncMemcpyDoesNotBlock) {
  static const cusim::KernelDef kSlow = fixed_kernel("slow4", 0.5);
  void* dev = nullptr;
  ASSERT_EQ(cudaMalloc(&dev, 1024), cudaSuccess);
  char host[1024] = {};
  ASSERT_EQ(cusim::launch_timed(kSlow, dim3(1), dim3(32)), cudaSuccess);
  const double before = now();
  ASSERT_EQ(cudaMemcpyAsync(host, dev, 1024, cudaMemcpyDeviceToHost, nullptr),
            cudaSuccess);
  EXPECT_LT(now() - before, 1e-3);
  cudaThreadSynchronize();
  EXPECT_GE(now() - before, 0.5);
  cudaFree(dev);
}

TEST_F(CudaTimingTest, MemcpyTimeScalesWithSize) {
  void* dev = nullptr;
  ASSERT_EQ(cudaMalloc(&dev, 64 << 20), cudaSuccess);
  std::vector<char> host(64 << 20);
  const double t0 = now();
  ASSERT_EQ(cudaMemcpy(dev, host.data(), 1 << 20, cudaMemcpyHostToDevice), cudaSuccess);
  const double small = now() - t0;
  const double t1 = now();
  ASSERT_EQ(cudaMemcpy(dev, host.data(), 64 << 20, cudaMemcpyHostToDevice), cudaSuccess);
  const double big = now() - t1;
  EXPECT_GT(big, small * 30);  // ~64x the bytes, minus latency
  // H2D at ~4 GB/s: 64 MiB ≈ 16.8 ms.
  EXPECT_NEAR(big, (64.0 * 1024 * 1024) / 4.0e9, 0.005);
  cudaFree(dev);
}

TEST_F(CudaTimingTest, StreamOrderingIsSequentialWithinAStream) {
  static const cusim::KernelDef kA = fixed_kernel("ka", 0.3);
  static const cusim::KernelDef kB = fixed_kernel("kb", 0.4);
  cudaStream_t s = nullptr;
  ASSERT_EQ(cudaStreamCreate(&s), cudaSuccess);
  const double before = now();
  ASSERT_EQ(cusim::launch_timed(kA, dim3(1), dim3(32), s), cudaSuccess);
  ASSERT_EQ(cusim::launch_timed(kB, dim3(1), dim3(32), s), cudaSuccess);
  ASSERT_EQ(cudaStreamSynchronize(s), cudaSuccess);
  EXPECT_GE(now() - before, 0.7);  // serialized: 0.3 + 0.4
  cudaStreamDestroy(s);
}

TEST_F(CudaTimingTest, DifferentStreamsOverlap) {
  static const cusim::KernelDef kA = fixed_kernel("ov_a", 0.5);
  static const cusim::KernelDef kB = fixed_kernel("ov_b", 0.5);
  cudaStream_t s1 = nullptr;
  cudaStream_t s2 = nullptr;
  ASSERT_EQ(cudaStreamCreate(&s1), cudaSuccess);
  ASSERT_EQ(cudaStreamCreate(&s2), cudaSuccess);
  const double before = now();
  ASSERT_EQ(cusim::launch_timed(kA, dim3(1), dim3(32), s1), cudaSuccess);
  ASSERT_EQ(cusim::launch_timed(kB, dim3(1), dim3(32), s2), cudaSuccess);
  ASSERT_EQ(cudaThreadSynchronize(), cudaSuccess);
  const double elapsed = now() - before;
  EXPECT_GE(elapsed, 0.5);
  EXPECT_LT(elapsed, 0.6);  // concurrent, not 1.0
  cudaStreamDestroy(s1);
  cudaStreamDestroy(s2);
}

TEST_F(CudaTimingTest, ConcurrentKernelLimitOfSixteen) {
  // 20 equal kernels on 20 streams: Fermi executes at most 16 concurrently,
  // so the makespan is two "waves".
  static const cusim::KernelDef kK = fixed_kernel("wave", 0.1);
  std::vector<cudaStream_t> streams(20);
  for (auto& s : streams) ASSERT_EQ(cudaStreamCreate(&s), cudaSuccess);
  const double before = now();
  for (auto& s : streams) ASSERT_EQ(cusim::launch_timed(kK, dim3(1), dim3(32), s), cudaSuccess);
  ASSERT_EQ(cudaThreadSynchronize(), cudaSuccess);
  const double elapsed = now() - before;
  EXPECT_GE(elapsed, 0.2);  // two waves
  EXPECT_LT(elapsed, 0.3);
  for (auto& s : streams) cudaStreamDestroy(s);
}

TEST_F(CudaTimingTest, LegacyNullStreamSynchronizesOtherStreams) {
  static const cusim::KernelDef kA = fixed_kernel("legacy_a", 0.3);
  static const cusim::KernelDef kNull = fixed_kernel("legacy_null", 0.1);
  cudaStream_t s = nullptr;
  ASSERT_EQ(cudaStreamCreate(&s), cudaSuccess);
  const double before = now();
  ASSERT_EQ(cusim::launch_timed(kA, dim3(1), dim3(32), s), cudaSuccess);
  // NULL-stream kernel waits for the other stream's work...
  ASSERT_EQ(cusim::launch_timed(kNull, dim3(1), dim3(32)), cudaSuccess);
  // ...and subsequent other-stream work waits for the NULL-stream kernel.
  ASSERT_EQ(cusim::launch_timed(kA, dim3(1), dim3(32), s), cudaSuccess);
  ASSERT_EQ(cudaThreadSynchronize(), cudaSuccess);
  EXPECT_GE(now() - before, 0.3 + 0.1 + 0.3);
  cudaStreamDestroy(s);
}

TEST_F(CudaTimingTest, EventTimestampsBracketKernels) {
  static const cusim::KernelDef kK = fixed_kernel("ev_kernel", 0.25);
  cudaEvent_t start = nullptr;
  cudaEvent_t stop = nullptr;
  ASSERT_EQ(cudaEventCreate(&start), cudaSuccess);
  ASSERT_EQ(cudaEventCreate(&stop), cudaSuccess);
  ASSERT_EQ(cudaEventRecord(start, nullptr), cudaSuccess);
  ASSERT_EQ(cusim::launch_timed(kK, dim3(1), dim3(32)), cudaSuccess);
  ASSERT_EQ(cudaEventRecord(stop, nullptr), cudaSuccess);
  // Not finished yet: query says not ready, elapsed refuses.
  EXPECT_EQ(cudaEventQuery(stop), cudaErrorNotReady);
  float ms = 0.0F;
  EXPECT_EQ(cudaEventElapsedTime(&ms, start, stop), cudaErrorNotReady);
  ASSERT_EQ(cudaEventSynchronize(stop), cudaSuccess);
  EXPECT_EQ(cudaEventQuery(stop), cudaSuccess);
  ASSERT_EQ(cudaEventElapsedTime(&ms, start, stop), cudaSuccess);
  // Event-based timing reads slightly MORE than the true kernel duration
  // (Table I: the events bracket the kernel, they are not the kernel).
  EXPECT_GE(ms, 250.0F);
  EXPECT_LT(ms, 250.5F);  // bracket overhead is a few microseconds
  cudaEventDestroy(start);
  cudaEventDestroy(stop);
}

TEST_F(CudaTimingTest, StreamWaitEventCreatesDependency) {
  static const cusim::KernelDef kA = fixed_kernel("dep_a", 0.4);
  static const cusim::KernelDef kB = fixed_kernel("dep_b", 0.1);
  cudaStream_t s1 = nullptr;
  cudaStream_t s2 = nullptr;
  ASSERT_EQ(cudaStreamCreate(&s1), cudaSuccess);
  ASSERT_EQ(cudaStreamCreate(&s2), cudaSuccess);
  cudaEvent_t done = nullptr;
  ASSERT_EQ(cudaEventCreate(&done), cudaSuccess);
  const double before = now();
  ASSERT_EQ(cusim::launch_timed(kA, dim3(1), dim3(32), s1), cudaSuccess);
  ASSERT_EQ(cudaEventRecord(done, s1), cudaSuccess);
  ASSERT_EQ(cudaStreamWaitEvent(s2, done, 0), cudaSuccess);
  ASSERT_EQ(cusim::launch_timed(kB, dim3(1), dim3(32), s2), cudaSuccess);
  ASSERT_EQ(cudaStreamSynchronize(s2), cudaSuccess);
  EXPECT_GE(now() - before, 0.5);  // B waited for A despite separate streams
  cudaEventDestroy(done);
  cudaStreamDestroy(s1);
  cudaStreamDestroy(s2);
}

TEST_F(CudaTimingTest, CrossContextKernelsSerialize) {
  // Two ranks sharing one GPU (paper §I item 5): their kernels never
  // overlap on Fermi, so the second context's kernel starts after the
  // first context's kernel ends.
  static const cusim::KernelDef kK = fixed_kernel("shared", 0.5);
  double t_rank1_done = 0.0;
  // Rank A launches and keeps the device busy.
  ASSERT_EQ(cusim::launch_timed(kK, dim3(1), dim3(32)), cudaSuccess);
  std::thread rank_b([&] {
    simx::ExecContext ctx;
    ctx.world_rank = 1;
    ctx.node_id = 0;  // same node, same GPU
    simx::set_current_context(&ctx);
    static const cusim::KernelDef kB = fixed_kernel("shared_b", 0.5);
    EXPECT_EQ(cusim::launch_timed(kB, dim3(1), dim3(32)), cudaSuccess);
    EXPECT_EQ(cudaThreadSynchronize(), cudaSuccess);
    t_rank1_done = simx::virtual_now();
    simx::set_current_context(nullptr);
  });
  rank_b.join();
  // Rank B's kernel waited for rank A's 0.5 s kernel: done >= 1.0.
  EXPECT_GE(t_rank1_done, 1.0);
}

TEST_F(CudaTimingTest, KernelDurationScalesWithWork) {
  cusim::KernelDef light;
  light.name = "light";
  light.cost.flops_per_thread = 100.0;
  cusim::KernelDef heavy = light;
  heavy.name = "heavy";
  heavy.cost.flops_per_thread = 10000.0;
  cusim::set_profiling(true);
  ASSERT_EQ(cusim::launch_timed(light, dim3(64), dim3(256)), cudaSuccess);
  ASSERT_EQ(cusim::launch_timed(heavy, dim3(64), dim3(256)), cudaSuccess);
  cudaThreadSynchronize();
  const auto log = cusim::profile_log();
  cusim::set_profiling(false);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_NEAR(log[1].gpu_time / log[0].gpu_time, 100.0, 1.0);
}

TEST_F(CudaTimingTest, SubWarpBlocksArePenalized) {
  cusim::KernelDef wide;
  wide.name = "wide";
  wide.cost.flops_per_thread = 1000.0;
  cusim::KernelDef narrow = wide;
  narrow.name = "narrow";
  cusim::set_profiling(true);
  // Same total threads; 1-thread blocks waste 31/32 SIMT lanes.
  ASSERT_EQ(cusim::launch_timed(wide, dim3(100), dim3(256)), cudaSuccess);
  ASSERT_EQ(cusim::launch_timed(narrow, dim3(25600), dim3(1)), cudaSuccess);
  cudaThreadSynchronize();
  const auto log = cusim::profile_log();
  cusim::set_profiling(false);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_GT(log[1].gpu_time, log[0].gpu_time * 10);
}

TEST_F(CudaTimingTest, ProfilerRecordsExactKernelTimes) {
  static const cusim::KernelDef kK = fixed_kernel("prof_kernel", 0.125);
  cusim::set_profiling(true);
  ASSERT_EQ(cusim::launch_timed(kK, dim3(2), dim3(64)), cudaSuccess);
  void* dev = nullptr;
  cudaMalloc(&dev, 64);
  char h[64];
  cudaMemcpy(h, dev, 64, cudaMemcpyDeviceToHost);
  const auto log = cusim::profile_log();
  cusim::set_profiling(false);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].method, "prof_kernel");
  EXPECT_DOUBLE_EQ(log[0].gpu_time, 0.125);
  EXPECT_EQ(log[1].method, "memcpyDtoH");
  cudaFree(dev);
}

TEST_F(CudaTimingTest, ProfileLogFileFormat) {
  static const cusim::KernelDef kK = fixed_kernel("logfmt_kernel", 0.001);
  cusim::set_profiling(true);
  ASSERT_EQ(cusim::launch_timed(kK, dim3(1), dim3(32)), cudaSuccess);
  const std::string path = ipm_test::test_tmp() + "/cuda_profile.log";
  cusim::write_profile_log(path);
  cusim::set_profiling(false);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("# CUDA_PROFILE_LOG_VERSION"), std::string::npos);
  EXPECT_NE(all.find("method=[ logfmt_kernel ]"), std::string::npos);
  EXPECT_NE(all.find("gputime=[ 1000.000 ]"), std::string::npos);
}

TEST_F(CudaTimingTest, FirstCallCarriesInitializationCost) {
  cusim::Topology topo;
  topo.timing.init_cost = 1.29;
  cusim::configure(topo);
  simx::reset_default_context();
  const double before = simx::virtual_now();
  void* dev = nullptr;
  ASSERT_EQ(cudaMalloc(&dev, 64), cudaSuccess);
  EXPECT_GE(simx::virtual_now() - before, 1.29);
  const double after_init = simx::virtual_now();
  void* dev2 = nullptr;
  ASSERT_EQ(cudaMalloc(&dev2, 64), cudaSuccess);
  EXPECT_LT(simx::virtual_now() - after_init, 1e-3);  // only once
  cudaFree(dev);
  cudaFree(dev2);
}

TEST_F(CudaTimingTest, NoiseModelPerturbsDurations) {
  simx::ExecContext ctx;
  simx::NoiseModel noise({.sigma = 0.01, .bias = 0.0}, 5, 0);
  ctx.noise = &noise;
  simx::set_current_context(&ctx);
  static const cusim::KernelDef kK = fixed_kernel("noisy", 0.1);
  cusim::set_profiling(true);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(cusim::launch_timed(kK, dim3(1), dim3(32)), cudaSuccess);
  cudaThreadSynchronize();
  const auto log = cusim::profile_log();
  cusim::set_profiling(false);
  simx::set_current_context(nullptr);
  ASSERT_EQ(log.size(), 10u);
  bool any_different = false;
  for (const auto& rec : log) {
    EXPECT_NEAR(rec.gpu_time, 0.1, 0.01);
    if (std::abs(rec.gpu_time - 0.1) > 1e-9) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
