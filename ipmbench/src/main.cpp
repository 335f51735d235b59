// ipmbench: what a monitored job pays and what keeping the fleet's exports
// fresh costs, end to end and per layer.  See ipmbench/README.md for the
// workloads, the metrics and which layer metric each workload should move.
//
//   ipmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--workdir <dir>] [--report-dir <dir>]
//
// One process: the daemon runs in-process, the fleet load comes from one
// generator thread, the app from at most two simulated ranks.  The last
// line of stdout is the JSON result: with --trace 0 the end-to-end metrics,
// with --trace 1 the per-layer metrics.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "amber.hpp"
#include "common.hpp"
#include "fleet.hpp"

namespace {

using namespace bench;

/// Share of an amber_app window spent on the app (the rest is the probe).
constexpr double kAppShare = 0.5;

struct Workload {
  const char* name;
  bool app;          ///< mini-Amber plus a light probe stream
  FleetShape shape;  ///< generated load (the probe for the app workload)
};

std::vector<Workload> workloads(unsigned nproc) {
  // At most nproc connections, so the generator never holds more sockets
  // than the host has cores to serve them.
  const unsigned conns = std::max(1u, std::min(4u, nproc));
  FleetShape probe;
  probe.rate = 2000.0;
  probe.ranks = 8;
  probe.intervals = 50;
  probe.conns = 1;
  probe.job_prefix = "probe";
  FleetShape trickle;
  trickle.rate = 3000.0;
  trickle.ranks = 32;
  trickle.intervals = 64;
  trickle.conns = conns;
  trickle.job_prefix = "trickle";
  FleetShape flood = trickle;
  flood.open_loop = false;
  flood.job_prefix = "flood";
  FleetShape reconnect = trickle;
  reconnect.chaos_every = 200;
  reconnect.job_prefix = "reconnect";
  return {{"amber_app", true, probe},
          {"fleet_trickle", false, trickle},
          {"fleet_flood", false, flood},
          {"fleet_reconnect", false, reconnect}};
}

/// One measured window on a fresh daemon: the workload's load, then the
/// daemon stopped and every output verified.
RunResult run_window(const Env& env, const Workload& w, const std::string& dir) {
  RunResult res;
  DaemonHost host;
  std::string err;
  if (!host.start(dir, err)) {
    std::fprintf(stderr, "ipmbench: daemon start failed: %s\n", err.c_str());
    host.stop();
    std::exit(1);
  }
  const double start = now_s();
  const double deadline = start + env.seconds;
  // The app first, then the probe stream on the same daemon, so the app's
  // timings see no other load and every end-to-end metric exists.
  RunResult app;
  if (w.app) run_amber_window(host, env.seed, start + kAppShare * env.seconds, app);
  const FleetRun run =
      run_fleet(w.shape, host, env.seed, [&](double t_end) { return t_end <= deadline; });
  host.stop();
  report_fleet(w.shape, run, host, res);
  for (auto& [name, m] : app.e2e) res.e2e[name] = m;  // the app's own view
  res.attempted += app.attempted;
  res.failed += app.failed;
  res.notes.insert(res.notes.end(), app.notes.begin(), app.notes.end());
  return res;
}

void print_metrics(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const auto& [name, v] : m) {
    std::printf("  %-36s %.6g %s\n", name.c_str(), v.value, v.unit.c_str());
  }
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), std::isfinite(v.value) ? v.value : 0.0, v.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: ipmbench --workload <amber_app|fleet_trickle|fleet_flood|"
               "fleet_reconnect> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>] [--report-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Env env;
  std::string workdir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") env.workload = v;
    else if (k == "--seed") env.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") env.seconds = std::atoi(v);
    else if (k == "--trace") env.trace = std::atoi(v) != 0;
    else if (k == "--workdir") workdir = v;
    else if (k == "--report-dir") env.report_dir = v;
    else return usage();
  }
  if (argc % 2 == 0 || env.seconds < 1) return usage();
  const HostShape host = host_shape();
  env.nproc = host.nproc;
  const std::vector<Workload> all = workloads(env.nproc);
  const Workload* w = nullptr;
  for (const Workload& x : all) {
    if (env.workload == x.name) w = &x;
  }
  if (w == nullptr) return usage();
  if (!workdir.empty() && ::chdir(workdir.c_str()) != 0) {
    std::perror("ipmbench: chdir");
    return 1;
  }
  std::printf("host: nproc %u, cpu \"%s\", build %s\n", host.nproc, host.cpu_model.c_str(),
              host.build_type.c_str());
  std::printf("workload %s, seed %llu, %d s, trace %d\n", w->name,
              static_cast<unsigned long long>(env.seed), env.seconds, env.trace ? 1 : 0);

  // Set-up: simulator state (app workload), daemon start and a connected
  // client sink, repeated; the median is reported.  Half the set-ups run
  // after the window, so a slow host phase at start-up weighs on only half.
  const std::function<void()> prepare = w->app ? &amber_prepare : nullptr;
  std::vector<double> setups;
  if (!measure_setup("setup", 25, prepare, setups)) return 1;
  RunResult res = run_window(env, *w, "untraced");
  if (!measure_setup("setup", 26, prepare, setups)) return 1;
  res.e2e["setup_s"] = {median(setups), "s"};
  std::printf("set-up: p50 %.3f ms, p90 %.3f ms over %zu set-ups\n", median(setups) * 1e3,
              quantile(setups, 0.9) * 1e3, setups.size());
  res.e2e["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  std::uint64_t attempted = res.attempted;
  std::uint64_t failed = res.failed;
  bool valid = res.valid;
  for (const std::string& n : res.notes) std::printf("%s\n", n.c_str());
  print_metrics("end-to-end (untraced):", res.e2e);
  std::printf("  %-36s %.6g ratio\n", "failed_frac",
              static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted)));

  Metrics out = res.e2e;
  if (env.trace) {
    // A second window of the same workload with spans on; the difference
    // to the first window is the tracing overhead.
    const std::string run_id = std::string(w->name) + "-" + std::to_string(env.seed) +
                               "-" + std::to_string(::getpid());
    tracer().enable(run_id);
    RunResult traced = run_window(env, *w, "traced");
    {
      DaemonHost host2;
      std::string err;
      if (!host2.start("ladder", err)) {
        std::fprintf(stderr, "ipmbench: daemon start failed: %s\n", err.c_str());
        return 1;
      }
      run_ladder(host2, env.seed, traced);
      host2.stop();
    }
    replay_stages(w->shape, env.seed, traced);
    for (const auto& [name, m] : traced.e2e) {
      const auto it = res.e2e.find(name);
      if (it == res.e2e.end()) continue;
      traced.layer["trace.overhead." + name] = {m.value - it->second.value, m.unit};
    }
    traced.layer["trace.spans"] = {static_cast<double>(tracer().size()), "count"};
    for (const std::string& n : traced.notes) std::printf("%s\n", n.c_str());
    std::printf("self time per span name (traced window + ladder + replay):\n");
    for (const auto& [name, s] : tracer().self_seconds()) {
      std::printf("  %-36s %.6f s\n", name.c_str(), s);
    }
    if (!env.report_dir.empty()) {
      const std::string path = env.report_dir + "/ipmbench-spans-" + w->name + ".jsonl";
      if (tracer().write(path)) std::printf("spans written to %s\n", path.c_str());
    }
    print_metrics("per-layer (traced):", traced.layer);
    attempted += traced.attempted;
    failed += traced.failed;
    valid = valid && traced.valid;
    // Reads 0 on a correct build, like the per-layer counts of work a
    // workload does not do; only end-to-end metrics must be nonzero.
    traced.layer["failed_frac"] = {
        static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted)),
        "ratio"};
    out = traced.layer;
  }

  bool finite = true;
  for (const auto& [name, m] : out) {
    if (!std::isfinite(m.value)) {
      std::printf("metric %s is not finite\n", name.c_str());
      finite = false;
    }
  }
  print_json(failed == 0 && valid && finite, attempted, failed, out);
  std::fflush(stdout);
  return 0;
}
