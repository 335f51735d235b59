// Tests of the §VI-extension features: simulated GPU hardware counters
// (PAPI-style flop/DRAM/busy accounting, exact for the cost model), the
// Chrome-tracing export of the ground-truth profiler, and the alignment of
// IPM's event-bracketed kernel spans against that ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "cudasim/control.hpp"
#include "cudasim/cuda_runtime.h"
#include "cudasim/kernel.hpp"
#include "ipm/monitor.hpp"
#include "ipm/trace.hpp"
#include "simcommon/clock.hpp"
#include "support/test_tmp.hpp"

namespace {

class CountersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cusim::Topology topo;
    topo.timing.init_cost = 0.0;
    cusim::configure(topo);
    simx::reset_default_context();
    // This binary is monitored (--wrap); restart the job so each test gets
    // a fresh monitor whose event handles match the engine configured above.
    ipm::job_begin(ipm::Config{}, "./counters");
  }
  void TearDown() override { (void)ipm::job_end(); }
};

TEST_F(CountersTest, FlopAndDramCountsAreExact) {
  cusim::KernelDef def;
  def.name = "counted";
  def.cost.flops_per_thread = 100.0;
  def.cost.dram_bytes_per_thread = 16.0;
  def.cost.serial_iterations = 4.0;
  ASSERT_EQ(cusim::launch_timed(def, dim3(10), dim3(64)), cudaSuccess);
  ASSERT_EQ(cusim::launch_timed(def, dim3(10), dim3(64)), cudaSuccess);
  cudaThreadSynchronize();
  const cusim::DeviceCounters c = cusim::device_counters(0, 0);
  EXPECT_EQ(c.kernels, 2u);
  const double work_threads = 10.0 * 64.0 * 4.0;
  EXPECT_DOUBLE_EQ(c.flops, 2.0 * work_threads * 100.0);
  EXPECT_DOUBLE_EQ(c.dram_bytes, 2.0 * work_threads * 16.0);
  EXPECT_GT(c.busy_time, 0.0);
  EXPECT_EQ(c.warps_launched, 2u * 10u * 2u);  // 64 threads = 2 warps per block
  EXPECT_GT(c.flops_per_busy_second(), 0.0);
}

TEST_F(CountersTest, CountersResetOnConfigure) {
  cusim::KernelDef def;
  def.name = "reset_counted";
  def.cost.flops_per_thread = 1.0;
  ASSERT_EQ(cusim::launch_timed(def, dim3(1), dim3(32)), cudaSuccess);
  EXPECT_EQ(cusim::device_counters(0, 0).kernels, 1u);
  // Finalize the monitor (draining its KTT events) while the engine that
  // owns those events is still alive, only then reset the simulator.
  (void)ipm::job_end();
  cusim::reset();
  simx::reset_default_context();
  ipm::job_begin(ipm::Config{}, "./counters");
  EXPECT_EQ(cusim::device_counters(0, 0).kernels, 0u);
}

TEST_F(CountersTest, PerDeviceAttribution) {
  cusim::Topology topo;
  topo.gpus_per_node = 2;
  topo.timing.init_cost = 0.0;
  cusim::configure(topo);
  simx::reset_default_context();
  cusim::KernelDef def;
  def.name = "dev_counted";
  def.cost.flops_per_thread = 1.0;
  ASSERT_EQ(cudaSetDevice(1), cudaSuccess);
  ASSERT_EQ(cusim::launch_timed(def, dim3(1), dim3(32)), cudaSuccess);
  EXPECT_EQ(cusim::device_counters(0, 0).kernels, 0u);
  EXPECT_EQ(cusim::device_counters(0, 1).kernels, 1u);
}

TEST_F(CountersTest, ChromeTraceIsStructurallySound) {
  cusim::set_profiling(true);
  cusim::KernelDef def;
  def.name = "traced_kernel";
  def.cost.fixed_us = 100.0;
  void* dev = nullptr;
  cudaMalloc(&dev, 1024);
  char h[1024];
  cudaMemcpy(dev, h, 1024, cudaMemcpyHostToDevice);
  ASSERT_EQ(cusim::launch_timed(def, dim3(1), dim3(32)), cudaSuccess);
  cudaMemcpy(h, dev, 1024, cudaMemcpyDeviceToHost);
  cudaFree(dev);
  const std::string path = ipm_test::test_tmp() + "/trace.json";
  cusim::write_chrome_trace(path);
  cusim::set_profiling(false);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Structural checks: array form, one "X" (complete) event per record,
  // kernel on a stream track, copies on the copy track.
  EXPECT_EQ(all.front(), '[');
  EXPECT_NE(all.find("\"name\": \"traced_kernel\""), std::string::npos);
  EXPECT_NE(all.find("\"tid\": \"strm0\""), std::string::npos);
  EXPECT_NE(all.find("\"name\": \"memcpyHtoD\""), std::string::npos);
  EXPECT_NE(all.find("\"tid\": \"copy0\""), std::string::npos);
  EXPECT_NE(all.find("\"ph\": \"X\""), std::string::npos);
  // Balanced braces (cheap well-formedness proxy without a JSON parser).
  EXPECT_EQ(std::count(all.begin(), all.end(), '{'),
            std::count(all.begin(), all.end(), '}'));
  EXPECT_EQ(std::count(all.begin(), all.end(), '['),
            std::count(all.begin(), all.end(), ']'));
}

TEST_F(CountersTest, TraceRequiresWritablePath) {
  EXPECT_THROW(cusim::write_chrome_trace("/nonexistent_dir/trace.json"),
               std::runtime_error);
}

// IPM measures kernels by event brackets (epoch event + start/stop events);
// the simulator's profiler records the exact modelled times.  Every IPM
// kernel span must align with its ground-truth record: duration within the
// modelled bracket overhead, start within the epoch-sync slack.
TEST_F(CountersTest, IpmKernelSpansAlignWithGroundTruthProfile) {
  // The bound the measurement-brackets property test established for the
  // modelled event overhead of one timed region.
  constexpr double kBracketBound = 25e-6;

  (void)ipm::job_end();  // close the untraced job from SetUp
  ipm::Config cfg;
  cfg.trace = true;
  cfg.trace_log2_records = 12;
  cfg.trace_path = ipm_test::test_tmp() + "/align_trace";
  ipm::job_begin(cfg, "./align");
  cusim::set_profiling(true);

  cudaStream_t s1 = nullptr;
  ASSERT_EQ(cudaStreamCreate(&s1), cudaSuccess);
  cusim::KernelDef def;
  def.name = "align_kernel";
  void* dev = nullptr;
  ASSERT_EQ(cudaMalloc(&dev, 4096), cudaSuccess);
  char host[4096];
  for (int i = 0; i < 6; ++i) {
    def.cost.fixed_us = 50.0 + 25.0 * i;
    ASSERT_EQ(cusim::launch_timed(def, dim3(1), dim3(32), i % 2 ? s1 : nullptr),
              cudaSuccess);
  }
  cudaThreadSynchronize();
  // A wrapped sync call after the barrier lets the KTT poll retire every
  // kernel into the table and the ring.
  cudaMemcpy(host, dev, sizeof host, cudaMemcpyDeviceToHost);
  cudaFree(dev);
  cudaStreamDestroy(s1);
  cusim::set_profiling(false);

  std::vector<cusim::ProfileRecord> truth;
  for (const cusim::ProfileRecord& r : cusim::profile_log()) {
    if (r.method == "align_kernel") truth.push_back(r);
  }
  ASSERT_EQ(truth.size(), 6u);

  const ipm::JobProfile job = ipm::job_end();
  ASSERT_EQ(job.nranks, 1);
  ASSERT_FALSE(job.ranks[0].trace_file.empty());
  const ipm::RankTrace trace = ipm::read_trace_file(job.ranks[0].trace_file);
  std::vector<const ipm::TraceSpan*> spans;
  for (const ipm::TraceSpan& s : trace.spans) {
    if (s.kind == ipm::TraceKind::kKernel && s.name == "@CUDA_EXEC:align_kernel") {
      spans.push_back(&s);
    }
  }
  ASSERT_EQ(spans.size(), truth.size());

  // Pair spans with records by start time (each stream serializes, and the
  // fixed_us ramp makes durations distinct as a cross-check).
  std::sort(truth.begin(), truth.end(),
            [](const cusim::ProfileRecord& a, const cusim::ProfileRecord& b) {
              return a.gpu_start < b.gpu_start;
            });
  std::sort(spans.begin(), spans.end(),
            [](const ipm::TraceSpan* a, const ipm::TraceSpan* b) {
              return a->t0 < b->t0;
            });
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const cusim::ProfileRecord& g = truth[i];
    const ipm::TraceSpan& s = *spans[i];
    EXPECT_EQ(s.select, g.stream_index) << "kernel " << i;
    // Bracketed duration: never shorter than the exact modelled time, and
    // longer only by the modelled event overhead.
    EXPECT_GE(s.dur, g.gpu_time) << "kernel " << i;
    EXPECT_LT(s.dur - g.gpu_time, kBracketBound) << "kernel " << i;
    // Absolute start: the epoch-event transform places the span on the host
    // clock within the epoch-sync + event slack of the true device start.
    EXPECT_NEAR(s.t0, g.gpu_start, 2.0 * kBracketBound) << "kernel " << i;
  }
}

}  // namespace
