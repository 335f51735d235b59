#include "amber.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

#include "apps/amber.hpp"
#include "cudasim/control.hpp"
#include "ipm/monitor.hpp"
#include "ipm_cuda/layer.hpp"
#include "ipm_live/live.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/mpi.h"
#include "simcommon/clock.hpp"

namespace bench {

namespace {

constexpr int kRanks = 2;
constexpr int kTimesteps = 1200;
constexpr double kSnapshotInterval = 0.05;  ///< virtual seconds

/// The seeded input: system size and host work per step vary with the
/// seed, the step count (hence the amount of monitored work) does not.
apps::amber::Config amber_input(std::uint64_t seed) {
  Rng rng(seed ^ 0xA3BE5ull);
  apps::amber::Config c;
  c.timesteps = kTimesteps;
  c.atoms = 22000 + static_cast<int>(rng.next() % 3000);
  c.host_work_overlap = 0.6e-3 * (0.9 + 0.2 * rng.uniform());
  c.host_work_integrate = 2.6e-3 * (0.9 + 0.2 * rng.uniform());
  return c;
}

struct AmberRun {
  double wall_s = 0.0;    ///< job_begin -> job_end returned
  double report_s = 0.0;  ///< inside job_end
  double finalize_s = 0.0;  ///< slowest rank's MPI_Finalize (trace flush)
  std::uint64_t events = 0;
  std::uint64_t ktt_launches = 0;
  std::uint64_t idle_probes = 0;
  ipm::JobProfile job;
};

AmberRun run_amber(const ipm::Config& cfg, const apps::amber::Config& input) {
  AmberRun out;
  std::mutex mu;
  mpisim::ClusterConfig cluster;
  cluster.ranks = kRanks;
  cluster.ranks_per_node = 1;
  const double t0 = now_s();
  ipm::job_begin(cfg, "pmemd.cuda.MPI -O -i mdin");
  mpisim::run_cluster(cluster, [&](int) {
    MPI_Init(nullptr, nullptr);
    apps::amber::run_rank(input);
    if (ipm::Monitor* mon = ipm::monitor()) {
      const ipm::cuda::LayerStats st = ipm::cuda::layer_stats(*mon);
      const std::lock_guard<std::mutex> lock(mu);
      out.ktt_launches += st.ktt_inserts;
      out.idle_probes += st.idle_probes;
    }
    const double f0 = now_s();
    MPI_Finalize();
    const double f = now_s() - f0;
    const std::lock_guard<std::mutex> lock(mu);
    out.finalize_s = std::max(out.finalize_s, f);
  });
  const double t1 = now_s();
  out.job = ipm::job_end();
  const double t2 = now_s();
  out.wall_s = t2 - t0;
  out.report_s = t2 - t1;
  for (const ipm::RankProfile& r : out.job.ranks) {
    for (const ipm::EventRecord& e : r.events) out.events += e.count;
  }
  return out;
}

/// What the real stream looks like: deltas and payload bytes per sample,
/// and the names they carry.  The fleet's generated samples follow it.
struct StreamShape {
  std::vector<double> deltas;
  std::vector<double> bytes;
  std::set<std::string> names;
};

/// The `ipm_parse --conserve` rule: folding every delta the daemon wrote
/// for this job reproduces each rank's finalize profile bit-exactly.
/// Returns the number of mismatching records (and adds the records checked
/// to `checked`).
std::uint64_t conservation_mismatches(const std::string& ts_path,
                                      const ipm::JobProfile& job,
                                      std::uint64_t& checked, StreamShape& shape) {
  const ipm::live::TimeSeries ts = ipm::live::read_timeseries_file(ts_path);
  for (const ipm::live::Sample& s : ts.samples) {
    shape.deltas.push_back(static_cast<double>(s.deltas.size()));
    shape.bytes.push_back(static_cast<double>(ipm::live::sample_line(s).size()));
    for (const ipm::live::KeyDelta& d : s.deltas) shape.names.insert(d.name_str);
  }
  using Key = std::tuple<int, std::string, std::uint32_t, std::int32_t>;
  struct Fold {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    double tsum = 0.0;
  };
  std::map<Key, Fold> fold;
  for (const ipm::live::Sample& s : ts.samples) {
    for (const ipm::live::KeyDelta& d : s.deltas) {
      Fold& f = fold[{s.rank, d.name_str, d.region, d.select}];
      f.count += d.dcount;
      f.bytes += d.dbytes;
      f.tsum += d.dtsum;
    }
  }
  std::uint64_t records = 0;
  std::uint64_t bad = 0;
  for (const ipm::RankProfile& r : job.ranks) {
    for (const ipm::EventRecord& e : r.events) {
      ++records;
      const auto it = fold.find({r.rank, e.name, e.region, e.select});
      if (it == fold.end() || it->second.count != e.count ||
          it->second.bytes != e.bytes || it->second.tsum != e.tsum) {
        ++bad;
      }
    }
  }
  if (fold.size() != records) ++bad;
  checked += records + 1;
  return bad;
}

ipm::Config full_config(const DaemonHost& host, const std::string& id) {
  ipm::Config cfg;  // kernel timing and host-idle detection on by default
  cfg.trace = true;
  cfg.trace_path = id + "-trace";
  cfg.log_path = id + "_profile.xml";
  cfg.snapshot_interval = kSnapshotInterval;
  cfg.agg_addr = host.addr();
  cfg.job_id = id;
  return cfg;
}

/// Remove what a monitored run left in the working directory.
void remove_outputs(const DaemonHost& host, const std::string& id) {
  std::error_code ec;
  std::filesystem::remove(host.dir() + "/" + id + "_timeseries.jsonl", ec);
  std::filesystem::remove(id + "_profile.xml", ec);
  std::filesystem::remove(id + "_timeseries.jsonl", ec);
  for (int r = 0; r < kRanks; ++r) {
    std::filesystem::remove(id + "-trace.rank" + std::to_string(r) + ".jsonl", ec);
  }
}

}  // namespace

void amber_prepare() {
  cusim::Topology topo;
  topo.nodes = kRanks;
  cusim::configure(topo);
  cusim::set_execute_bodies(false);
  simx::reset_default_context();
}

void run_amber_window(DaemonHost& host, std::uint64_t seed, double deadline,
                      RunResult& res) {
  const apps::amber::Config input = amber_input(seed);
  std::vector<double> walls;
  std::vector<double> reports;
  std::vector<double> ns_per_event;
  std::uint64_t checked = 0;
  std::uint64_t bad = 0;
  StreamShape shape;
  double unmonitored_wall = 0.0;
  for (int rep = 0; now_s() < deadline || rep < 2; ++rep) {
    const std::string id = "amber-" + std::to_string(seed) + "-" + std::to_string(rep);
    // Alternate which run goes first so slow drift cancels in the pairs.
    AmberRun mon;
    AmberRun off;
    for (int leg = 0; leg < 2; ++leg) {
      const bool monitored = (leg == 0) == (rep % 2 == 0);
      amber_prepare();
      if (monitored) {
        const Span span("app.monitored_run");
        mon = run_amber(full_config(host, id), input);
      } else {
        const Span span("app.unmonitored_run");
        ipm::Config cfg;
        cfg.enabled = false;
        off = run_amber(cfg, input);
      }
    }
    walls.push_back(mon.wall_s);
    reports.push_back(mon.report_s);
    unmonitored_wall = off.wall_s;
    ns_per_event.push_back((mon.wall_s - off.wall_s) * 1e9 /
                           static_cast<double>(std::max<std::uint64_t>(1, mon.events)));
    {
      const Span span("app.verify");
      bad += conservation_mismatches(host.dir() + "/" + id + "_timeseries.jsonl",
                                     mon.job, checked, shape);
    }
    remove_outputs(host, id);
  }
  res.attempted += checked;
  res.failed += bad;
  res.e2e["app_wall_s"] = {median(walls), "s"};
  res.e2e["report_s"] = {median(reports), "s"};
  res.e2e["monitor_ns_per_event"] = {median(ns_per_event), "ns"};
  note(res, "amber_app: monitored wall p50 %.4f s, p90 %.4f s; report p50 %.3f ms, "
       "p90 %.3f ms over %zu runs", median(walls), quantile(walls, 0.9),
       median(reports) * 1e3, quantile(reports, 0.9) * 1e3, walls.size());
  note(res, "amber_app: %zu monitored + %zu unmonitored runs of %d ranks x %d steps; "
       "wall %.4f s monitored vs %.4f s unmonitored (last pair); %llu records "
       "checked bit-exact, %llu mismatches",
       walls.size(), walls.size(), kRanks, kTimesteps, median(walls), unmonitored_wall,
       static_cast<unsigned long long>(checked), static_cast<unsigned long long>(bad));
  note(res, "amber_app stream: %zu samples; deltas per sample p10 %.0f, p50 %.0f, p90 %.0f; "
       "payload p50 %.0f B; %zu distinct names",
       shape.deltas.size(), quantile(shape.deltas, 0.1), median(shape.deltas),
       quantile(shape.deltas, 0.9), median(shape.bytes), shape.names.size());
}

void run_ladder(DaemonHost& host, std::uint64_t seed, RunResult& res) {
  const apps::amber::Config input = amber_input(seed);
  // Tracing costs several times more than every other layer together, so
  // it is the last rung: measured on top of it, the live and socket
  // increments would drown in its noise.
  enum Rung { kOff, kProfile, kKtt, kHostIdle, kLive, kSocket, kTrace, kRungs };
  constexpr int kRounds = 5;
  const char* const names[kRungs] = {"off",   "profile", "+ktt",  "+hostidle",
                                     "+live", "+socket", "+trace"};
  std::vector<double> wall[kRungs];
  std::vector<double> report[kRungs];
  std::vector<double> fin[kRungs];
  AmberRun last[kRungs];
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kRungs; ++i) {
      const std::string id =
          "ladder-" + std::to_string(seed) + "-" + std::to_string(round) + "-" + std::to_string(i);
      ipm::Config cfg;
      cfg.enabled = i >= kProfile;
      cfg.kernel_timing = i >= kKtt;
      cfg.host_idle = i >= kHostIdle;
      if (i >= kLive) {
        cfg.snapshot_interval = kSnapshotInterval;
        cfg.timeseries_path = id + "_timeseries.jsonl";
      }
      if (i >= kSocket) {
        cfg.agg_addr = host.addr();
        cfg.job_id = id;
      }
      cfg.trace = i >= kTrace;
      cfg.trace_path = id + "-trace";
      cfg.log_path = id + "_profile.xml";
      amber_prepare();
      {
        const Span span("ladder.rung");
        last[i] = run_amber(cfg, input);
      }
      wall[i].push_back(last[i].wall_s);
      report[i].push_back(last[i].report_s);
      fin[i].push_back(last[i].finalize_s);
      remove_outputs(host, id);
    }
  }
  double w[kRungs];
  double rep[kRungs];
  double f[kRungs];
  for (int i = 0; i < kRungs; ++i) {
    w[i] = median(wall[i]);
    rep[i] = median(report[i]);
    f[i] = median(fin[i]);
  }
  const auto per = [](double dt, std::uint64_t n) {
    return dt * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, n));
  };
  std::uint64_t trace_records = 0;
  std::uint64_t trace_drops = 0;
  for (const ipm::RankProfile& r : last[kTrace].job.ranks) {
    trace_records += r.trace_spans;
    trace_drops += r.trace_drops;
  }
  // The trace ring is flushed to disk inside MPI_Finalize, so the run-time
  // part of tracing excludes finalize and job_end.
  const auto run_part = [&](int i) { return w[i] - f[i] - rep[i]; };
  Metrics& l = res.layer;
  l["sim.wall_s"] = {w[kOff], "s"};
  l["core.profile_ns_per_event"] = {per(w[kProfile] - w[kOff], last[kProfile].events), "ns"};
  l["ipm_cuda.ktt_ns_per_launch"] = {per(w[kKtt] - w[kProfile], last[kKtt].ktt_launches), "ns"};
  l["ipm_cuda.hostidle_ns_per_probe"] = {
      per(w[kHostIdle] - w[kKtt], last[kHostIdle].idle_probes), "ns"};
  l["ipm_live.publish_ns_per_event"] = {per(w[kLive] - w[kHostIdle], last[kLive].events), "ns"};
  l["ipm_live.socket_ns_per_event"] = {per(w[kSocket] - w[kLive], last[kSocket].events), "ns"};
  l["core.trace_ns_per_record"] = {per(run_part(kTrace) - run_part(kSocket), trace_records), "ns"};
  l["core.trace_flush_ms"] = {(f[kTrace] - f[kSocket]) * 1e3, "ms"};
  l["core.events"] = {static_cast<double>(last[kTrace].events), "count"};
  l["core.trace_records"] = {static_cast<double>(trace_records), "count"};
  l["core.trace_drops"] = {static_cast<double>(trace_drops), "count"};
  l["ipm_live.samples"] = {static_cast<double>(last[kTrace].job.snapshot_samples()), "count"};
  l["ipm_live.snapshot_drops"] = {static_cast<double>(last[kTrace].job.snapshot_drops()), "count"};
  std::string ladder = "ladder (median of 5; wall / MPI_Finalize / job_end):";
  for (int i = 0; i < kRungs; ++i) {
    char buf[112];
    std::snprintf(buf, sizeof buf, " %s %.4f/%.4f/%.4f s;", names[i], w[i], f[i], rep[i]);
    ladder += buf;
  }
  res.notes.push_back(ladder);
}

}  // namespace bench
