// Conservation oracle (the trace subsystem's core correctness property):
// every duration folded into the hash table is also appended to the trace
// ring, with the *same* double, so per-key span sums reproduce the
// EventStats totals — in memory bit-exactly, and through the JSONL flush
// (%.17g) to within grouping-order rounding.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "cudasim/control.hpp"
#include "cudasim/cuda_runtime.h"
#include "cudasim/kernel.hpp"
#include "ipm/hashtable.hpp"
#include "ipm/report.hpp"
#include "ipm/trace.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/mpi.h"
#include "simcommon/clock.hpp"
#include "simcommon/rng.hpp"
#include "support/test_tmp.hpp"

namespace {

/// Slot-level key: the exact hash-table granularity, so oracle sums add the
/// same doubles in the same order the table did.
using SlotKey = std::tuple<ipm::NameId, std::uint32_t, std::uint64_t, std::int32_t>;

struct SlotSum {
  std::uint64_t count = 0;
  double tsum = 0.0;
};

/// Randomized CUDA+MPI workload across several streams; returns nothing —
/// the in-rank oracle assertions run before MPI_Finalize tears the
/// monitor down.
void conservation_rank_body(int rank) {
  MPI_Init(nullptr, nullptr);
  simx::Xoshiro256 rng(static_cast<std::uint64_t>(0x5EED + rank));
  constexpr int kStreams = 3;
  cudaStream_t streams[kStreams] = {};
  for (auto& s : streams) ASSERT_EQ(cudaStreamCreate(&s), cudaSuccess);
  cusim::KernelDef def;
  def.name = "conservation_kernel";
  void* dev = nullptr;
  ASSERT_EQ(cudaMalloc(&dev, 1 << 16), cudaSuccess);
  char host[1 << 10];
  for (int i = 0; i < 64; ++i) {
    def.cost.fixed_us = 10.0 + static_cast<double>(rng.uniform_u64(200));
    const auto stream = streams[rng.uniform_u64(kStreams)];
    ASSERT_EQ(cusim::launch_timed(def, dim3(2), dim3(64), stream), cudaSuccess);
    if (rng.uniform_u64(4) == 0) {
      // Sync D2H: host-idle probe + KTT poll on a random schedule.
      cudaMemcpy(host, dev, sizeof host, cudaMemcpyDeviceToHost);
    }
    // Deterministic schedule: collectives must match across ranks (the
    // per-rank RNG seeds differ, so a random barrier would deadlock).
    if (i % 8 == 0) MPI_Barrier(MPI_COMM_WORLD);
  }
  cudaThreadSynchronize();
  // One more D2H so the KTT poll records every completed kernel into both
  // the table and the ring before we snapshot them.
  cudaMemcpy(host, dev, sizeof host, cudaMemcpyDeviceToHost);
  cudaFree(dev);
  for (auto& s : streams) cudaStreamDestroy(s);

  ipm::Monitor* mon = ipm::monitor();
  ASSERT_NE(mon, nullptr);
  ASSERT_TRUE(mon->tracing());
  const ipm::TraceRing& ring = *mon->trace_ring();
  ASSERT_EQ(ring.drops(), 0u);

  // Oracle: re-aggregate the ring at slot granularity.
  std::map<SlotKey, SlotSum> oracle;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const ipm::TraceRecord& r = ring[i];
    if (r.kind == ipm::TraceKind::kMarker) continue;  // instants, not in the table
    SlotSum& s = oracle[{r.name, r.region, r.bytes, r.select}];
    s.count += 1;
    s.tsum += r.dur;
  }
  // Every table slot must be conserved bit-exactly (same doubles, same
  // order), and no slot may exist that the trace missed.
  std::size_t slots = 0;
  mon->table().for_each([&](const ipm::EventKey& key, const ipm::EventStats& st) {
    ++slots;
    const auto it = oracle.find({key.name, key.region, key.bytes, key.select});
    ASSERT_NE(it, oracle.end()) << ipm::name_of(key.name);
    EXPECT_EQ(it->second.count, st.count) << ipm::name_of(key.name);
    EXPECT_EQ(it->second.tsum, st.tsum) << ipm::name_of(key.name);
    oracle.erase(it);
  });
  EXPECT_GT(slots, 4u);  // MPI + CUDA API + @CUDA_EXEC + idle variety
  EXPECT_TRUE(oracle.empty()) << "trace has spans the table never saw";
  MPI_Finalize();
}

TEST(TraceConservation, RingConservesHashTableBitExactly) {
  cusim::Topology topo;
  topo.nodes = 2;
  topo.timing.init_cost = 0.0;
  cusim::configure(topo);
  ipm::Config cfg;
  cfg.trace = true;
  cfg.trace_log2_records = 14;
  cfg.trace_path = ipm_test::test_tmp() + "/conserve_trace";
  ipm::job_begin(cfg, "./conservation");
  mpisim::ClusterConfig cluster;
  cluster.ranks = 4;
  cluster.ranks_per_node = 2;
  mpisim::run_cluster(cluster, conservation_rank_body);
  const ipm::JobProfile job = ipm::job_end();

  // Second leg: the flushed JSONL files conserve the *merged* profile
  // (byte-size variants folded together) through the %.17g round-trip.
  ASSERT_EQ(job.nranks, 4);
  for (const ipm::RankProfile& r : job.ranks) {
    ASSERT_FALSE(r.trace_file.empty());
    const ipm::RankTrace t = ipm::read_trace_file(r.trace_file);
    EXPECT_EQ(t.spans.size(), r.trace_spans);
    std::map<std::tuple<std::string, std::string, std::int32_t>, SlotSum> merged;
    for (const ipm::TraceSpan& s : t.spans) {
      if (s.kind == ipm::TraceKind::kMarker) continue;
      SlotSum& sum = merged[{s.name, s.region, s.select}];
      sum.count += 1;
      sum.tsum += s.dur;
    }
    ASSERT_FALSE(r.events.empty());
    for (const ipm::EventRecord& e : r.events) {
      const auto it = merged.find({e.name, r.regions.at(e.region), e.select});
      ASSERT_NE(it, merged.end()) << e.name;
      EXPECT_EQ(it->second.count, e.count) << e.name;
      // Summation order differs from the table's slot-merge order, so only
      // rounding-level divergence is allowed.
      EXPECT_NEAR(it->second.tsum, e.tsum, 1e-9 * (1.0 + e.tsum)) << e.name;
    }
  }
}

}  // namespace
