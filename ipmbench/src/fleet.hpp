// The out-of-process path: an in-process ipm_aggd daemon as shipped, and a
// single-threaded fleet generator that streams seeded jobs into it through
// the public client sink (ipm::live::make_socket_sink).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"

namespace ipm::aggd {
class Daemon;
}

namespace bench {

/// An in-process ipm_aggd daemon with only `listen` and `out_dir` set, so
/// everything else (worker pool size, cadences, bounds) is as shipped.
class DaemonHost {
 public:
  DaemonHost();
  ~DaemonHost();
  DaemonHost(const DaemonHost&) = delete;
  DaemonHost& operator=(const DaemonHost&) = delete;

  /// Start in `dir` (created) on a Unix socket there; returns once a client
  /// connection to the socket succeeded.
  bool start(const std::string& dir, std::string& err);
  /// Stop serving and join; the daemon's introspection is valid afterwards.
  void stop();

  [[nodiscard]] ipm::aggd::Daemon& daemon() { return *daemon_; }
  /// Threads the daemon started (IO thread and workers).
  [[nodiscard]] const std::vector<int>& tids() const { return tids_; }
  [[nodiscard]] const std::string& addr() const { return addr_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::string addr_;
  std::unique_ptr<ipm::aggd::Daemon> daemon_;
  std::vector<int> tids_;
  std::thread io_;  ///< runs Daemon::run(); declared after what it uses
};

/// Wall time of each of `reps` set-ups, appended to `times`: `prepare()`
/// (simulator state for the app workload; may be empty), a daemon started,
/// and a client sink's session established; each is torn down again.
/// False when a set-up failed.
[[nodiscard]] bool measure_setup(const std::string& base_dir, int reps,
                                 const std::function<void()>& prepare,
                                 std::vector<double>& times);

/// Shape of the generated load.
struct FleetShape {
  bool open_loop = true;     ///< false: refill each sink whenever ready()
  double rate = 0.0;         ///< offered samples/s over all jobs (open loop)
  int ranks = 64;            ///< ranks per job
  int intervals = 12;        ///< samples per rank per job
  unsigned conns = 4;        ///< jobs, hence connections, open at once
  unsigned chaos_every = 0;  ///< client chaos kill every N sample frames
  std::string job_prefix = "job";
};

/// One finished generated job, kept for verification after the window.
struct JobRecord {
  std::string id;
  std::vector<std::uint64_t> digest;  ///< per rank: fold of the generated deltas
  double wall_s = 0.0;                ///< first sink call -> finish() returned
  double finish_s = 0.0;              ///< inside finish()
  std::uint64_t missing_points = 0;   ///< intervals whose point never appeared
};

/// What the generator measured over its window.
struct FleetRun {
  double t_begin = 0.0;
  double t_end = 0.0;
  double daemon_cpu_s = 0.0;  ///< daemon threads, over the window
  NetStat gen_net;            ///< generator thread's socket traffic
  NetStat daemon_net;         ///< daemon threads' socket traffic
  double sink_cpu_s = 0.0;    ///< generator-thread CPU inside sink calls
  double consume_s = 0.0;     ///< wall inside consume()
  double tick_s = 0.0;        ///< wall inside tick()
  std::uint64_t ticks = 0;
  std::uint64_t samples = 0;  ///< consumed by the sinks
  std::uint64_t events = 0;   ///< application events the samples carry
  std::uint64_t lag_points = 0;
  /// Open loop: generator lateness per sample, and apart from those the
  /// samples that fell due while another job's finish() held the thread.
  std::vector<double> late_s;
  std::vector<double> late_blocked_s;
  /// Export lag per closed interval, and per interval the generator's part
  /// of it: the closing sample's lateness plus the tail-poll gap.
  std::vector<double> lag_s;
  std::vector<double> lag_gen_s;
  /// Intervals left out of lag_s: another job's finish() overlapped them,
  /// or the generator was late with the closing sample or the tail read.
  std::vector<double> lag_blocked_s;
  std::vector<double> lag_stalled_s;
  /// Blocking finish() calls, in order: (start, end).
  std::vector<std::pair<double, double>> finish_windows;
  double last_finish_end = 0.0;
  std::vector<JobRecord> jobs;
};

/// Drive `shape` against `host`: jobs start while keep_starting(t) is true
/// for a job that would end at t; returns once every started job finished.
[[nodiscard]] FleetRun run_fleet(const FleetShape& shape, DaemonHost& host,
                                 std::uint64_t seed,
                                 const std::function<bool(double)>& keep_starting);

/// After host.stop(): verify every job's JSONL against the generator's
/// truth (exactly once, seq strictly increasing, folds bit-exact), then
/// turn the measurements into metrics.  Sets every end-to-end metric except
/// setup_s and peak_rss_mb.
void report_fleet(const FleetShape& shape, const FleetRun& run, DaemonHost& host,
                  RunResult& res);

/// Replay the samples of the shape's first jobs (the same seeded samples
/// the generator streams) single-threaded through the stage functions the
/// daemon calls, with spans around each stage: wire::Decoder feed/next,
/// parse_sample_line, JobMerger::add_sample, emit_due + point_line.
void replay_stages(const FleetShape& shape, std::uint64_t seed, RunResult& res);

}  // namespace bench
