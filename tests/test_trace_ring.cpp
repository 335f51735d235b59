// Trace ring semantics (trace.hpp): bounded wait-free appends, drop
// accounting at saturation, file round-trips, and the end-to-end contract
// that a saturated ring degrades the *timeline* only — hash-table profiles,
// XML logs, and banners stay complete, with the drops reported.
#include <gtest/gtest.h>

#include <cstdio>

#include "cudasim/control.hpp"
#include "ipm/report.hpp"
#include "ipm/trace.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/mpi.h"
#include "simcommon/clock.hpp"
#include "support/test_tmp.hpp"

namespace {

ipm::TraceRecord rec(double t0, double dur, ipm::NameId name) {
  ipm::TraceRecord r;
  r.t0 = t0;
  r.dur = dur;
  r.name = name;
  return r;
}

TEST(TraceRing, PushAppendsInOrder) {
  ipm::TraceRing ring(4);
  EXPECT_EQ(ring.capacity(), 16u);
  EXPECT_EQ(ring.size(), 0u);
  const ipm::NameId name = ipm::intern_name("ring_event");
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(ring.push(rec(i * 1.0, 0.5, name)));
  }
  ASSERT_EQ(ring.size(), 10u);
  EXPECT_EQ(ring.drops(), 0u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(ring[i].t0, static_cast<double>(i));
    EXPECT_EQ(ring[i].name, name);
  }
}

TEST(TraceRing, SaturationDropsNewRecordsAndCounts) {
  ipm::TraceRing ring(4);  // 16 records
  const ipm::NameId name = ipm::intern_name("sat_event");
  for (int i = 0; i < 100; ++i) ring.push(rec(i * 1.0, 1.0, name));
  EXPECT_EQ(ring.size(), 16u);
  EXPECT_EQ(ring.drops(), 84u);
  // Append-only, never circular: the *head* of the run is preserved.
  for (std::size_t i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(ring[i].t0, static_cast<double>(i));
}

TEST(TraceRing, CapacityClampedToSaneRange) {
  // Lower clamp (a zero-size ring would make every push a drop); the upper
  // clamp (24 bits) exists too but allocating 16M records in a unit test
  // is not worth it.
  EXPECT_EQ(ipm::TraceRing(0).capacity(), 1u << 4);
  EXPECT_EQ(ipm::TraceRing(10).capacity(), 1u << 10);
}

TEST(TraceRing, ClearForgetsRecordsAndDrops) {
  ipm::TraceRing ring(4);
  const ipm::NameId name = ipm::intern_name("clear_event");
  for (int i = 0; i < 40; ++i) ring.push(rec(0.0, 1.0, name));
  EXPECT_GT(ring.drops(), 0u);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.drops(), 0u);
  EXPECT_TRUE(ring.push(rec(0.0, 1.0, name)));
}

TEST(TraceFile, RoundTripsExactly) {
  ipm::RankTrace t;
  t.rank = 3;
  t.hostname = "dirac03";
  t.start = 0.125;
  t.stop = 17.000000000000004;  // not representable in few digits: %.17g must hold it
  t.drops = 7;
  ipm::TraceSpan s;
  s.name = "MPI_Allreduce";
  s.region = "solve \"quoted\"";
  s.t0 = 1.0000000000000002;
  s.dur = 3.0000000000000004e-6;
  s.bytes = 8000;
  s.select = -1;
  s.kind = ipm::TraceKind::kHost;
  t.spans.push_back(s);
  s.name = "@CUDA_EXEC:dgemm";
  s.kind = ipm::TraceKind::kKernel;
  s.select = 2;
  t.spans.push_back(s);
  s.kind = ipm::TraceKind::kIdle;
  s.name = "@CUDA_HOST_IDLE";
  t.spans.push_back(s);
  s.kind = ipm::TraceKind::kMarker;
  s.dur = 0.0;
  t.spans.push_back(s);

  const std::string path = ipm_test::test_tmp() + "/roundtrip.rank3.jsonl";
  ipm::write_trace_file(path, t);
  const ipm::RankTrace back = ipm::read_trace_file(path);
  EXPECT_EQ(back.rank, t.rank);
  EXPECT_EQ(back.hostname, t.hostname);
  EXPECT_DOUBLE_EQ(back.start, t.start);
  EXPECT_EQ(back.stop, t.stop);  // bit-exact, not just close
  EXPECT_EQ(back.drops, t.drops);
  ASSERT_EQ(back.spans.size(), t.spans.size());
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    EXPECT_EQ(back.spans[i].name, t.spans[i].name) << i;
    EXPECT_EQ(back.spans[i].region, t.spans[i].region) << i;
    EXPECT_EQ(back.spans[i].t0, t.spans[i].t0) << i;
    EXPECT_EQ(back.spans[i].dur, t.spans[i].dur) << i;
    EXPECT_EQ(back.spans[i].bytes, t.spans[i].bytes) << i;
    EXPECT_EQ(back.spans[i].select, t.spans[i].select) << i;
    EXPECT_EQ(back.spans[i].kind, t.spans[i].kind) << i;
  }
}

TEST(TraceFile, PathFormatAndErrors) {
  EXPECT_EQ(ipm::trace_file_path("run_trace", 12), "run_trace.rank12.jsonl");
  EXPECT_THROW((void)ipm::read_trace_file("/nonexistent/trace.jsonl"), std::runtime_error);
  const std::string bogus = ipm_test::test_tmp() + "/bogus.jsonl";
  {
    std::FILE* f = std::fopen(bogus.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"not_a_trace\":true}\n", f);
    std::fclose(f);
  }
  EXPECT_THROW((void)ipm::read_trace_file(bogus), std::runtime_error);
  ipm::RankTrace t;
  EXPECT_THROW(ipm::write_trace_file("/nonexistent_dir/x.jsonl", t), std::runtime_error);
}

// --- end-to-end saturation: profile unharmed, drops reported ----------------

ipm::JobProfile run_traced(unsigned ring_log2, const std::string& prefix,
                           bool trace = true) {
  cusim::Topology topo;
  topo.timing.init_cost = 0.0;
  cusim::configure(topo);
  ipm::Config cfg;
  cfg.trace = trace;
  cfg.trace_log2_records = ring_log2;
  cfg.trace_path = prefix;
  ipm::job_begin(cfg, "./saturation");
  mpisim::ClusterConfig cluster;
  cluster.ranks = 2;
  cluster.ranks_per_node = 1;
  mpisim::run_cluster(cluster, [](int) {
    MPI_Init(nullptr, nullptr);
    for (int i = 0; i < 200; ++i) MPI_Barrier(MPI_COMM_WORLD);
    MPI_Finalize();
  });
  return ipm::job_end();
}

TEST(TraceSaturation, DropsCountedProfileUnchanged) {
  const std::string prefix = ipm_test::test_tmp() + "/sat_trace";
  // 200 barriers + init/finalize >> 16 ring slots: massive saturation.
  const ipm::JobProfile traced = run_traced(4, prefix);
  const ipm::JobProfile plain = run_traced(4, prefix + "_off", /*trace=*/false);
  ASSERT_EQ(traced.nranks, 2);
  for (const ipm::RankProfile& r : traced.ranks) {
    EXPECT_FALSE(r.trace_file.empty());
    EXPECT_EQ(r.trace_spans, 16u);
    EXPECT_GT(r.trace_drops, 100u);
    const ipm::RankTrace t = ipm::read_trace_file(r.trace_file);
    EXPECT_EQ(t.spans.size(), 16u);
    EXPECT_EQ(t.drops, r.trace_drops);
  }
  // The aggregated profile is identical to an untraced run: a full ring
  // degrades the timeline, never the hash-table counters.
  ASSERT_EQ(plain.nranks, traced.nranks);
  for (int r = 0; r < 2; ++r) {
    const auto& a = traced.ranks[static_cast<std::size_t>(r)];
    const auto& b = plain.ranks[static_cast<std::size_t>(r)];
    EXPECT_TRUE(b.trace_file.empty());
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      EXPECT_EQ(a.events[i].name, b.events[i].name);
      EXPECT_EQ(a.events[i].count, b.events[i].count);
      EXPECT_DOUBLE_EQ(a.events[i].tsum, b.events[i].tsum);
    }
  }
}

TEST(TraceSaturation, DropsReportedInBannerAndXml) {
  const std::string prefix = ipm_test::test_tmp() + "/rep_trace";
  const ipm::JobProfile job = run_traced(4, prefix);
  const std::string banner = ipm::banner_string(job, {.max_rows = 4, .full = true});
  EXPECT_NE(banner.find("# trace"), std::string::npos) << banner;
  EXPECT_NE(banner.find("dropped"), std::string::npos) << banner;

  const std::string xml_path = ipm_test::test_tmp() + "/rep_trace.xml";
  ipm::write_xml_file(xml_path, job);
  const ipm::JobProfile back = ipm::parse_xml_file(xml_path);
  ASSERT_EQ(back.nranks, job.nranks);
  for (int r = 0; r < job.nranks; ++r) {
    const auto& a = job.ranks[static_cast<std::size_t>(r)];
    const auto& b = back.ranks[static_cast<std::size_t>(r)];
    EXPECT_EQ(b.trace_file, a.trace_file);
    EXPECT_EQ(b.trace_spans, a.trace_spans);
    EXPECT_EQ(b.trace_drops, a.trace_drops);
  }
}

TEST(TraceSaturation, UntracedXmlHasNoTraceAttributes) {
  const ipm::JobProfile job = run_traced(4, "", /*trace=*/false);
  std::ostringstream ss;
  ipm::write_xml(ss, job);
  EXPECT_EQ(ss.str().find("trace"), std::string::npos) << ss.str();
}

}  // namespace
