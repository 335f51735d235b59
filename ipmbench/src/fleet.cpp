#include "fleet.hpp"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <iterator>
#include <map>
#include <string_view>
#include <tuple>

#include "apps/amber.hpp"
#include "ipm/monitor.hpp"
#include "ipm_aggd/aggd.hpp"
#include "ipm_live/live.hpp"
#include "ipm_live/merge.hpp"
#include "ipm_live/net.hpp"
#include "ipm_live/wire.hpp"

namespace bench {

namespace {

constexpr double kVirtualInterval = 0.5;  ///< virtual seconds per interval
/// An interval whose closing sample the generator handed over this late, or
/// whose JSONL it left unread this long, measures the generator: it is left
/// out of the lag.  The 2 ms scan alone makes up to 2 ms of either.
constexpr double kGenStallS = 0.005;
/// Share of intervals left out that way which invalidates a run: the
/// generator then fell behind, where a host stall leaves out a few.
constexpr double kMaxStalledShare = 0.1;

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::vector<int> minus(const std::vector<int>& after, const std::vector<int>& before) {
  std::vector<int> out;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(out));
  return out;
}

bool connect_once(const std::string& addr) {
  const ipm::live::net::Addr a = ipm::live::net::parse_addr(addr);
  const double give_up = now_s() + 5.0;
  while (now_s() < give_up) {
    const int fd = ipm::live::net::connect_fd(a);
    if (fd >= 0) {
      // Yield rather than sleep: this wait is part of set-up, and a sleep's
      // timer slack would be a good part of that figure.
      const double attempt_end = now_s() + 0.02;
      bool done = false;
      while (!(done = ipm::live::net::connect_finished(fd)) && now_s() < attempt_end) {
        std::this_thread::yield();
      }
      ipm::live::net::close_fd(fd);
      if (done) return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

// A generated sample has the shape of a real mini-Amber snapshot, as the
// amber_app workload measures it on its own stream: an interval spans about
// ten steps, so it touches every kernel (the minor ones rotate seven per
// step) and each per-step call.  Rank 0 adds the PME FFT pair and its
// device kernel.  That is 45 deltas per sample, 48 on rank 0, all in the
// global region.
const char* const kStepCalls[] = {
    "cudaMemcpyToSymbol(H2D)", "cudaConfigureCall",    "cudaLaunch",   "cudaGetLastError",
    "cudaThreadSynchronize",   "cudaMemcpyAsync(D2H)", "MPI_Allreduce"};

struct KeyShape {
  std::string name;
  std::int32_t select = 0;
  bool bytes = false;  ///< carries a byte count
  bool rank0 = false;  ///< only rank 0 calls it
};

const std::vector<KeyShape>& sample_keys() {
  static const std::vector<KeyShape> keys = [] {
    std::vector<KeyShape> v;
    for (const char* n : kStepCalls) {
      v.push_back({n, 0, std::strstr(n, "Memcpy") != nullptr || std::strstr(n, "MPI_") != nullptr,
                   false});
    }
    for (const std::string& n : apps::amber::kernel_names()) v.push_back({"@CUDA_EXEC:" + n});
    v.push_back({"cufftExecZ2Z", -1, false, true});
    v.push_back({"cufftExecZ2Z", 1, false, true});
    v.push_back({"@CUDA_EXEC:dpRadix0016B::kernel3D", 0, false, true});
    return v;
  }();
  return keys;
}

using FoldKey = std::tuple<std::string, std::uint32_t, std::int32_t>;
struct Fold {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  double tsum = 0.0;
};
using RankFold = std::map<FoldKey, Fold>;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0x100000001B3ull;
}

/// Order-independent over keys (std::map order), bit-exact over values.
std::uint64_t digest(const RankFold& f) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [key, v] : f) {
    for (const char c : std::get<0>(key)) h = mix(h, static_cast<unsigned char>(c));
    h = mix(h, std::get<1>(key));
    h = mix(h, static_cast<std::uint32_t>(std::get<2>(key)));
    h = mix(h, v.count);
    h = mix(h, v.bytes);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v.tsum, sizeof bits);
    h = mix(h, bits);
  }
  return h;
}

void fold_into(RankFold& f, const ipm::live::KeyDelta& d) {
  Fold& x = f[{d.name_str, d.region, d.select}];
  x.count += d.dcount;
  x.bytes += d.dbytes;
  x.tsum += d.dtsum;
}

/// Sample k of rank r of a generated job, with awkward values, folded into
/// `truth` as they are drawn.
ipm::live::Sample gen_sample(Rng& rng, int r, int k, int intervals,
                             std::vector<double>& prev_t1, std::vector<RankFold>& truth,
                             std::uint64_t& events) {
  ipm::live::Sample s;
  s.rank = r;
  s.seq = static_cast<std::uint64_t>(k);
  s.t0 = prev_t1[static_cast<std::size_t>(r)];
  // A capture lands on the first event at or after the grid point.
  s.t1 = kVirtualInterval * (k + 1) + kVirtualInterval * 0.01 * rng.uniform();
  prev_t1[static_cast<std::size_t>(r)] = s.t1;
  s.final_flush = k == intervals - 1;
  s.regions = {"ipm_global"};
  if (r == 0) {  // one rank per node reports the device counters
    s.ddev_flops = rng.awkward(1e9);
    s.ddev_bytes = rng.awkward(1e9);
  }
  for (const KeyShape& key : sample_keys()) {
    if (key.rank0 && r != 0) continue;
    ipm::live::KeyDelta kd;
    kd.name_str = key.name;
    kd.select = key.select;
    kd.dcount = 1 + rng.next() % 24;
    kd.dbytes = key.bytes ? (1 + rng.next() % 4096) * 256 : 0;
    kd.dtsum = rng.awkward(0.05);
    // Flop estimates ride on CUFFT deltas only.
    kd.dflops = key.name.rfind("cufft", 0) == 0 ? rng.awkward(1e9) : 0.0;
    events += kd.dcount;
    fold_into(truth[static_cast<std::size_t>(r)], kd);
    s.deltas.push_back(std::move(kd));
  }
  return s;
}

/// Call `fn` on every sample line of a daemon JSONL, parsed by the strict
/// reader for canonical sample lines; returns how many did not parse.  The
/// general reader (read_timeseries_file) takes several times longer on the
/// flood's files, and the folds checked against the generator's truth catch
/// a wrong parse as well.
std::uint64_t for_each_sample(const std::string& path,
                              const std::function<void(const ipm::live::Sample&)>& fn) {
  std::string text;
  if (const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC); fd >= 0) {
    char chunk[1 << 16];
    for (ssize_t n; (n = ::read(fd, chunk, sizeof chunk)) > 0;) {
      text.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
  }
  static constexpr std::string_view kSample = "{\"type\":\"sample\"";
  std::uint64_t bad = 0;
  ipm::live::Sample s;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string_view line(text.data() + pos, nl - pos);
    if (line.substr(0, kSample.size()) == kSample) {
      if (ipm::live::parse_sample_line(line, s)) {
        fn(s);
      } else {
        bad += 1;
      }
    }
    pos = nl + 1;
  }
  return bad;
}

/// True when another job's blocking finish() overlapped [from, to]: the
/// generator thread could then neither hand over the closing sample nor
/// read the point line, which a job's own consumer thread would have done.
bool overlaps_finish(const std::vector<std::pair<double, double>>& windows, double from,
                     double to) {
  for (auto it = windows.rbegin(); it != windows.rend() && it->second > from; ++it) {
    if (it->first < to) return true;
  }
  return false;
}

std::uint64_t job_seed(std::uint64_t seed, int index) {
  return seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(index) + 1;
}

/// A generated sample waiting for its sink.
struct Queued {
  ipm::live::Sample sample;
  double due = 0.0;
  double late = 0.0;  ///< generated this long after its due time
};

/// One job in flight on the generator thread.
struct ActiveJob {
  JobRecord rec;
  std::unique_ptr<ipm::live::SampleSink> sink;
  Rng rng{0};
  int ranks = 0;
  int intervals = 0;
  double start = 0.0;       ///< scheduled start (open loop) or actual start
  double first_call = -1.0;
  int generated = 0;        ///< samples generated: index k * ranks + r
  int consumed = 0;
  std::deque<Queued> queue;  ///< generated, not yet taken by the sink
  std::vector<double> bounds;  ///< open loop: real-time start of each interval
  std::vector<double> offsets; ///< open loop: per sample, share of its interval
  bool finalized = false;
  std::vector<double> prev_t1;
  std::vector<RankFold> truth;
  // Per interval: due time and generator lateness of its closing sample,
  // when its point line was first read, and the time since the poll before
  // (how much earlier the point may have been readable).
  std::vector<double> close_due;
  std::vector<double> close_late;
  std::vector<double> point_seen;
  std::vector<double> point_gap;
  double last_poll = -1.0;
  std::vector<int> live;
  std::uint32_t span = 0;
  // tail of the daemon's per-job JSONL
  std::string path;
  int fd = -1;
  std::string buf;

  ActiveJob() = default;
  ~ActiveJob() {
    if (fd >= 0) ::close(fd);
  }
  ActiveJob(const ActiveJob&) = delete;
  ActiveJob& operator=(const ActiveJob&) = delete;

  /// Open loop: when sample i is due.  Real ranks do not advance virtual
  /// time at a constant real rate, so interval lengths vary (seeded), which
  /// also keeps interval ends from locking onto the daemon's emit cadence.
  void plan(double t_int, std::uint64_t seed) {
    Rng timing(seed ^ 0x7F4A7C159E3779B9ull);
    std::vector<double> len(static_cast<std::size_t>(intervals));
    double sum = 0.0;
    for (double& l : len) sum += (l = 0.5 + timing.uniform());
    bounds.assign(1, start);
    for (const double l : len) bounds.push_back(bounds.back() + l * t_int * intervals / sum);
    for (int i = 0; i < ranks * intervals; ++i) offsets.push_back(timing.uniform());
  }

  [[nodiscard]] double due(int i) const {
    const auto k = static_cast<std::size_t>(i / ranks);
    const double share = ((i % ranks) + offsets[static_cast<std::size_t>(i)]) / ranks;
    return bounds[k] + share * (bounds[k + 1] - bounds[k]);
  }

  /// Read whatever the daemon appended to this job's JSONL and note when
  /// each interval's point line first became readable.
  void poll_tail(double now) {
    if (fd < 0) {
      fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
      if (fd < 0) return;
    }
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    static constexpr char kPoint[] = "{\"type\":\"point\",\"k\":";
    constexpr std::size_t kLen = sizeof kPoint - 1;
    std::size_t pos = 0;
    for (;;) {
      const std::size_t nl = buf.find('\n', pos);
      if (nl == std::string::npos) break;
      if (nl - pos > kLen && std::memcmp(buf.data() + pos, kPoint, kLen) == 0) {
        const auto k = std::strtoull(buf.c_str() + pos + kLen, nullptr, 10);
        if (k < point_seen.size() && point_seen[k] < 0.0) {
          point_seen[k] = now;
          point_gap[k] = now - (last_poll < 0.0 ? start : last_poll);
        }
      }
      pos = nl + 1;
    }
    buf.erase(0, pos);
    last_poll = now;
  }
};

}  // namespace

// --- daemon host -------------------------------------------------------------------

DaemonHost::DaemonHost() = default;

DaemonHost::~DaemonHost() { stop(); }

bool DaemonHost::start(const std::string& dir, std::string& err) {
  std::filesystem::create_directories(dir);
  dir_ = dir;
  addr_ = "unix:" + dir + "/agg.sock";
  ipm::aggd::Options opt;
  opt.listen = addr_;
  opt.out_dir = dir;
  const std::vector<int> before = thread_ids();
  daemon_ = std::make_unique<ipm::aggd::Daemon>(opt);
  if (!daemon_->start(err)) return false;
  io_ = std::thread([this] { daemon_->run(); });
  if (!connect_once(addr_)) {
    err = "cannot connect to " + addr_;
    return false;
  }
  tids_ = minus(thread_ids(), before);
  return true;
}

void DaemonHost::stop() {
  if (!io_.joinable()) return;
  daemon_->stop();
  io_.join();
}

namespace {

/// Open a client sink for `job_id` and wait until its session is established
/// (HELLO answered by WELCOME, so ready() is true); false after 5 s.
bool establish_session(const DaemonHost& host, const std::string& job_id) {
  ipm::Config cfg;
  cfg.agg_addr = host.addr();
  cfg.job_id = job_id;
  cfg.snapshot_interval = kVirtualInterval;
  auto sink = ipm::live::make_socket_sink(cfg, "./" + job_id);
  const double give_up = now_s() + 5.0;
  const std::vector<int> none;
  while (sink && !sink->ready()) {  // yield, as in connect_once
    if (now_s() > give_up) return false;
    sink->tick(none, 0);
    std::this_thread::yield();
  }
  return sink != nullptr;
}

}  // namespace

bool measure_setup(const std::string& base_dir, int reps,
                   const std::function<void()>& prepare, std::vector<double>& times) {
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    if (prepare) prepare();
    DaemonHost host;
    std::string err;
    // One directory for every set-up: fresh directories each time make the
    // figure follow the file system's directory growth instead.
    bool ok = host.start(base_dir, err);
    if (ok && !establish_session(host, "setup")) {
      ok = false;
      err = "no session within 5 s";
    }
    const double t1 = now_s();
    host.stop();
    if (!ok) {
      std::fprintf(stderr, "ipmbench: set-up failed: %s\n", err.c_str());
      return false;
    }
    times.push_back(t1 - t0);
    // Let the host go idle, as it is before a real job starts: set-ups run
    // back to back find each other's threads and caches warm, and a burst
    // of them samples the host's state only briefly.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

// --- generator ---------------------------------------------------------------------

FleetRun run_fleet(const FleetShape& shape, DaemonHost& host, std::uint64_t seed,
                   const std::function<bool(double)>& keep_starting) {
  FleetRun out;
  const int R = shape.ranks;
  const int K = shape.intervals;
  const bool open = shape.open_loop;
  // Open loop: each connection slot runs its jobs back to back on a fixed
  // schedule, one idle interval between jobs for the end-of-job handshake.
  const double t_int =
      open ? static_cast<double>(shape.conns) * R * K / ((K + 1) * shape.rate) : 0.0;
  const double job_period = (K + 1) * t_int;
  const std::vector<int> me{this_tid()};

  std::vector<std::unique_ptr<ActiveJob>> slots(shape.conns);
  std::vector<double> slot_next(shape.conns);
  std::vector<bool> slot_retired(shape.conns, false);
  int next_index = 0;

  out.t_begin = now_s();
  for (unsigned s = 0; s < shape.conns; ++s) {
    slot_next[s] = out.t_begin + job_period * s / shape.conns;
  }
  const double cpu0 = tasks_cpu_s(host.tids());
  const NetStat gen0 = net_stat(me);
  const NetStat dmn0 = net_stat(host.tids());

  const auto start_job = [&](unsigned s, double now) {
    auto job = std::make_unique<ActiveJob>();
    const int index = next_index++;
    job->rec.id = shape.job_prefix + "-" + std::to_string(seed) + "-" + std::to_string(index);
    job->rng = Rng(job_seed(seed, index));
    job->ranks = R;
    job->intervals = K;
    job->start = open ? slot_next[s] : now;
    if (open) job->plan(t_int, job_seed(seed, index));
    job->prev_t1.assign(static_cast<std::size_t>(R), 0.0);
    job->truth.resize(static_cast<std::size_t>(R));
    job->close_due.assign(static_cast<std::size_t>(K), -1.0);
    job->close_late.assign(static_cast<std::size_t>(K), 0.0);
    job->point_seen.assign(static_cast<std::size_t>(K), -1.0);
    job->point_gap.assign(static_cast<std::size_t>(K), 0.0);
    for (int r = 0; r < R; ++r) job->live.push_back(r);
    job->path = host.dir() + "/" + job->rec.id + "_timeseries.jsonl";
    ipm::Config cfg;
    cfg.agg_addr = host.addr();
    cfg.job_id = job->rec.id;
    cfg.snapshot_interval = kVirtualInterval;
    cfg.agg_chaos_kill_every = shape.chaos_every;
    job->sink = ipm::live::make_socket_sink(cfg, "./" + shape.job_prefix);
    job->span = tracer().begin("gen.job");
    slot_next[s] += job_period;
    slots[s] = std::move(job);
  };

  // Like the in-app consumer thread, the generator scans every 2 ms: it
  // hands each sink what fell due since the last scan, then ticks it once.
  // The closed loop hands each sink at most kClosedBatch samples per pass,
  // so a pass stays short and every job's JSONL is read every few
  // milliseconds.
  constexpr double kScanS = 0.002;
  constexpr int kClosedBatch = 8;
  double next_scan = out.t_begin;
  for (;;) {
    const double scan = now_s();
    bool any = false;
    bool progress = false;
    for (unsigned s = 0; s < shape.conns; ++s) {
      if (!slots[s] && !slot_retired[s]) {
        const double begin = open ? slot_next[s] : scan;
        if (!keep_starting(begin + job_period)) {
          slot_retired[s] = true;
        } else if (scan >= begin) {
          start_job(s, scan);
        }
      }
      if (!slots[s]) {
        any = any || !slot_retired[s];
        continue;
      }
      any = true;
      ActiveJob& job = *slots[s];
      // Generate what is due (not part of the sink's cost).
      while (job.generated < R * K &&
             (open ? job.due(job.generated) <= scan : job.queue.size() < 64)) {
        const int i = job.generated++;
        Queued q;
        q.sample = gen_sample(job.rng, i % R, i / R, K, job.prev_t1, job.truth, out.events);
        if (open) {
          q.due = job.due(i);
          // A sample that fell due while another job's finish() held the
          // thread is late because of that call, not because of the pace.
          q.late = scan - q.due;
          (q.due < out.last_finish_end ? out.late_blocked_s : out.late_s).push_back(q.late);
        }
        job.queue.push_back(std::move(q));
      }
      // Everything between here and the tick is the sink's work.
      const double cpu_begin = thread_cpu_now();
      for (int taken = 0; !job.queue.empty() && (open || taken < kClosedBatch); ++taken) {
        if (!job.sink->ready()) break;
        Queued& q = job.queue.front();
        const int k = job.consumed / R;
        const int r = job.consumed % R;
        const double t0 = now_s();
        if (job.first_call < 0.0) job.first_call = t0;
        {
          const Span span("client.consume", job.span);
          job.sink->consume(std::move(q.sample));
        }
        out.consume_s += now_s() - t0;
        if (r == R - 1) {
          const auto kk = static_cast<std::size_t>(k);
          job.close_due[kk] = open ? q.due : t0;
          job.close_late[kk] = q.late;
        }
        job.queue.pop_front();
        job.consumed += 1;
        out.samples += 1;
        progress = true;
      }
      if (job.consumed == R * K && !job.finalized) {
        const Span span("client.rank_finalized", job.span);
        for (int r = 0; r < R; ++r) {
          job.sink->rank_finalized(r, static_cast<std::uint64_t>(K), 0);
        }
        job.finalized = true;
        job.live.clear();
      }
      {
        const Span span("client.tick", job.span);
        const double t0 = now_s();
        job.sink->tick(job.live, R);
        out.tick_s += now_s() - t0;
        out.ticks += 1;
      }
      out.sink_cpu_s += thread_cpu_now() - cpu_begin;
      {
        const Span span("gen.poll_tail", job.span);
        job.poll_tail(now_s());
      }
      // finish() blocks the generator thread until the daemon acknowledged
      // the job.  Call it only on a connected sink, so a job that ends
      // during a reconnect does not stall every other job for the backoff.
      if (job.finalized && job.sink->ready()) {
        double w0 = 0.0;
        double w1 = 0.0;
        {
          const Span span("client.finish", job.span);
          const double c0 = thread_cpu_now();
          w0 = now_s();
          (void)job.sink->finish(R);
          w1 = now_s();
          out.sink_cpu_s += thread_cpu_now() - c0;
        }
        job.poll_tail(now_s());  // points emitted by the end-of-job flush
        job.rec.wall_s = w1 - job.first_call;
        job.rec.finish_s = w1 - w0;
        for (int k = 1; k < K; ++k) {
          const auto kk = static_cast<std::size_t>(k);
          out.lag_points += 1;
          const double from = job.close_due[kk];
          const double to = job.point_seen[kk];
          if (to < 0.0 || from < 0.0) {
            job.rec.missing_points += 1;
          } else if (overlaps_finish(out.finish_windows, from, to)) {
            out.lag_blocked_s.push_back(to - from);
          } else if (job.close_late[kk] > kGenStallS || job.point_gap[kk] > kGenStallS) {
            out.lag_stalled_s.push_back(to - from);
          } else {
            out.lag_s.push_back(to - from);
            out.lag_gen_s.push_back(job.close_late[kk] + job.point_gap[kk]);
          }
        }
        out.finish_windows.emplace_back(w0, w1);
        out.last_finish_end = w1;
        for (const RankFold& f : job.truth) job.rec.digest.push_back(digest(f));
        tracer().end(job.span);
        out.jobs.push_back(std::move(job.rec));
        slots[s].reset();
        progress = true;
      }
    }
    if (!any) break;
    if (open) {
      next_scan = std::max(next_scan + kScanS, now_s() - kScanS);
      const double wait = next_scan - now_s();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    } else if (!progress) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  out.t_end = now_s();
  out.daemon_cpu_s = tasks_cpu_s(host.tids()) - cpu0;
  out.gen_net = net_stat(me) - gen0;
  out.daemon_net = net_stat(host.tids()) - dmn0;
  return out;
}

// --- verification and metrics -----------------------------------------------------

void report_fleet(const FleetShape& shape, const FleetRun& run, DaemonHost& host,
                  RunResult& res) {
  const int R = shape.ranks;
  const int K = shape.intervals;
  ipm::aggd::Daemon& d = host.daemon();
  std::uint64_t failed = 0;
  std::uint64_t resent = 0;
  std::uint64_t gen_applied = 0;
  std::vector<double> walls;
  std::vector<double> finishes;
  for (const JobRecord& job : run.jobs) {
    walls.push_back(job.wall_s);
    finishes.push_back(job.finish_s);
    failed += job.missing_points;
    const std::string path = host.dir() + "/" + job.id + "_timeseries.jsonl";
    std::vector<std::uint64_t> expect(static_cast<std::size_t>(R), 0);
    std::vector<RankFold> fold(static_cast<std::size_t>(R));
    failed += for_each_sample(path, [&](const ipm::live::Sample& s) {
      if (s.rank < 0 || s.rank >= R) {
        failed += 1;
        return;
      }
      const auto r = static_cast<std::size_t>(s.rank);
      if (s.seq != expect[r]) {  // lost, doubled or reordered
        failed += 1;
        return;
      }
      expect[r] += 1;
      for (const ipm::live::KeyDelta& kd : s.deltas) fold_into(fold[r], kd);
    });
    for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
      failed += static_cast<std::uint64_t>(K) - std::min<std::uint64_t>(expect[r], K);
      if (digest(fold[r]) != job.digest[r]) failed += static_cast<std::uint64_t>(K);
    }
    if (job.finish_s >= ipm::Config{}.agg_flush_timeout) failed += 1;  // timed out
    const auto* ranks = d.job_ranks(job.id);
    if (ranks == nullptr) {
      failed += static_cast<std::uint64_t>(R) * K;
    } else {
      for (const auto& [rank, st] : *ranks) {
        resent += st.resent;
        gen_applied += st.samples;
      }
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);  // keep the disk footprint of a run small
  }
  if (gen_applied != run.samples) {
    failed += gen_applied > run.samples ? gen_applied - run.samples
                                        : run.samples - gen_applied;
  }
  res.attempted += run.samples + run.lag_points + run.jobs.size();
  res.failed += failed;

  const double window = std::max(1e-9, run.t_end - run.t_begin);
  const double n = static_cast<double>(std::max<std::uint64_t>(1, run.samples));
  const double applied = static_cast<double>(std::max<std::uint64_t>(1, gen_applied));
  const double sink_s = run.sink_cpu_s;
  // Every workload closes well over a thousand intervals per window, so
  // p99 has at least ten samples beyond it.
  const double lag_p50 = quantile(run.lag_s, 0.5);
  const double lag_p99 = quantile(run.lag_s, 0.99);
  const double late_p99 = quantile(run.late_s, 0.99);
  // The generator's share of the lag tail: over the intervals at or beyond
  // p99, its mean part of their lag.
  std::vector<double> tail_share;
  for (std::size_t i = 0; i < run.lag_s.size(); ++i) {
    if (run.lag_s[i] >= lag_p99 && run.lag_s[i] > 0.0) {
      tail_share.push_back(std::min(1.0, run.lag_gen_s[i] / run.lag_s[i]));
    }
  }
  double gen_share = 0.0;
  for (const double x : tail_share) gen_share += x;
  gen_share /= static_cast<double>(std::max<std::size_t>(1, tail_share.size()));

  Metrics& e = res.e2e;
  e["app_wall_s"] = {median(walls), "s"};
  e["report_s"] = {median(finishes), "s"};
  e["monitor_ns_per_event"] = {sink_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, run.events)), "ns"};
  e["ingest_samples_per_s"] = {static_cast<double>(gen_applied) / window, "1/s"};
  e["daemon_cpu_us_per_sample"] = {run.daemon_cpu_s * 1e6 / applied, "us"};
  e["client_cpu_us_per_sample"] = {sink_s * 1e6 / n, "us"};
  e["wire_bytes_per_sample"] = {static_cast<double>(run.gen_net.send_bytes) / n, "B"};
  e["export_lag_p50_ms"] = {lag_p50 * 1e3, "ms"};
  e["export_lag_p99_ms"] = {lag_p99 * 1e3, "ms"};

  Metrics& l = res.layer;
  const double reads = static_cast<double>(std::max<std::uint64_t>(1, run.daemon_net.recv_calls));
  l["client.consume_us_per_sample"] = {run.consume_s * 1e6 / n, "us"};
  l["client.tick_us_per_call"] = {run.tick_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, run.ticks)), "us"};
  l["client.writes"] = {static_cast<double>(run.gen_net.send_calls), "count"};
  l["client.samples_per_write"] = {n / static_cast<double>(std::max<std::uint64_t>(1, run.gen_net.send_calls)), "ratio"};
  l["client.finish_ms"] = {median(finishes) * 1e3, "ms"};
  l["client.reconnects"] = {static_cast<double>(run.gen_net.connects) - static_cast<double>(run.jobs.size()), "count"};
  l["wire.ack_bytes_per_sample"] = {static_cast<double>(run.gen_net.recv_bytes) / n, "B"};
  l["aggd.reads"] = {static_cast<double>(run.daemon_net.recv_calls), "count"};
  l["aggd.samples_per_read"] = {applied / reads, "ratio"};
  l["aggd.cpu_us_per_read"] = {run.daemon_cpu_s * 1e6 / reads, "us"};
  l["aggd.workers"] = {static_cast<double>(d.workers()), "count"};
  l["aggd.steals"] = {static_cast<double>(d.steals()), "count"};
  l["aggd.prom_writes"] = {static_cast<double>(d.prom_writes()), "count"};
  l["aggd.resent_frac"] = {static_cast<double>(resent) / n, "ratio"};
  l["aggd.protocol_errors"] = {static_cast<double>(d.protocol_errors()), "count"};
  l["gen.late_p99_ms"] = {late_p99 * 1e3, "ms"};
  l["gen.lag_p99_share"] = {gen_share, "ratio"};
  l["gen.offered_samples_per_s"] = {shape.open_loop ? shape.rate : run.samples / window, "1/s"};
  l["gen.achieved_samples_per_s"] = {run.samples / window, "1/s"};

  note(res, "fleet: %s loop, %u conns, %d ranks x %d intervals per job, %zu jobs, "
       "%llu samples in %.2f s; daemon workers %u",
       shape.open_loop ? "open" : "closed", shape.conns, R, K, run.jobs.size(),
       static_cast<unsigned long long>(run.samples), window, d.workers());
  note(res, "export lag: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, max %.3f ms over %zu intervals%s",
       lag_p50 * 1e3, quantile(run.lag_s, 0.9) * 1e3, lag_p99 * 1e3,
       quantile(run.lag_s, 1.0) * 1e3, run.lag_s.size(),
       run.lag_s.size() < 1000 ? " (fewer than 1000: p99 has under ten beyond it)" : "");
  note(res, "export lag, generator's part (closing sample's lateness + tail-poll gap): "
       "p50 %.3f ms; %.0f %% of the lag at or beyond p99",
       quantile(run.lag_gen_s, 0.5) * 1e3, gen_share * 100.0);
  note(res, "export lag left out: %zu intervals overlapped another job's finish(), "
       "lag p50 %.3f ms, max %.3f ms; %zu more had the generator over %.0f ms late, "
       "lag p50 %.3f ms, max %.3f ms",
       run.lag_blocked_s.size(), quantile(run.lag_blocked_s, 0.5) * 1e3,
       quantile(run.lag_blocked_s, 1.0) * 1e3, run.lag_stalled_s.size(), kGenStallS * 1e3,
       quantile(run.lag_stalled_s, 0.5) * 1e3, quantile(run.lag_stalled_s, 1.0) * 1e3);
  note(res, "job wall p50 %.4f s, finish p50 %.3f ms, p90 %.3f ms over %zu jobs",
       median(walls), median(finishes) * 1e3, quantile(finishes, 0.9) * 1e3, finishes.size());
  if (shape.open_loop) {
    note(res, "generator: offered %.0f samples/s, achieved %.0f samples/s, "
         "late p50 %.3f ms, p99 %.3f ms, max %.3f ms over %zu samples; "
         "%zu more fell due during another job's finish(), late max %.3f ms",
         shape.rate, run.samples / window, quantile(run.late_s, 0.5) * 1e3, late_p99 * 1e3,
         quantile(run.late_s, 1.0) * 1e3, run.late_s.size(), run.late_blocked_s.size(),
         quantile(run.late_blocked_s, 1.0) * 1e3);
  }
  // A generator that fell behind hands over closing samples late, and one
  // busy elsewhere reads point lines late; either way its part of the lag
  // grows until the lag measures it rather than the system.
  const double stalled = static_cast<double>(run.lag_stalled_s.size()) /
                         static_cast<double>(std::max<std::uint64_t>(1, run.lag_points));
  if (stalled > kMaxStalledShare) {
    res.valid = false;
    note(res, "INVALID: the generator was late on %.0f %% of the intervals", stalled * 100.0);
  }
}

// --- stage replay ---------------------------------------------------------------

void replay_stages(const FleetShape& shape, std::uint64_t seed, RunResult& res) {
  constexpr std::size_t kTargetSamples = 10000;
  constexpr std::size_t kReadChunk = 4096;  ///< the daemon's socket read size
  const int R = shape.ranks;
  const int K = shape.intervals;
  const int jobs = std::max<int>(1, static_cast<int>(kTargetSamples / (R * K)));
  double decode_s = 0.0;
  double parse_s = 0.0;
  double merge_s = 0.0;
  double emit_s = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t samples = 0;
  std::uint64_t points = 0;
  std::uint64_t jsonl_bytes = 0;
  std::uint64_t bad = 0;
  const std::uint32_t root = tracer().begin("replay");
  for (int j = 0; j < jobs; ++j) {
    // Encode the job's stream as the client sink does (not timed).
    Rng rng(job_seed(seed, j));
    std::vector<double> prev_t1(static_cast<std::size_t>(R), 0.0);
    std::vector<RankFold> truth(static_cast<std::size_t>(R));
    std::uint64_t events = 0;
    const std::string id = shape.job_prefix + "-replay-" + std::to_string(j);
    std::string stream;
    for (int i = 0; i < R * K; ++i) {
      const ipm::live::Sample s =
          gen_sample(rng, i % R, i / R, K, prev_t1, truth, events);
      ipm::live::wire::Frame f;
      f.type = ipm::live::wire::FrameType::kSample;
      f.rank = static_cast<std::uint32_t>(s.rank);
      f.epoch = s.seq + 1;
      f.job = id;
      f.payload = ipm::live::sample_line(s);
      stream += ipm::live::wire::encode(f);
    }
    ipm::live::JobMerger merger(kVirtualInterval);
    std::vector<int> live;
    for (int r = 0; r < R; ++r) live.push_back(r);
    ipm::live::wire::Decoder dec;
    std::vector<ipm::live::wire::Frame> batch;
    std::vector<ipm::live::Sample> parsed;
    std::vector<ipm::live::ClusterPoint> pts;
    for (std::size_t off = 0; off < stream.size(); off += kReadChunk) {
      const std::size_t n = std::min(kReadChunk, stream.size() - off);
      batch.clear();
      parsed.clear();
      pts.clear();
      double t0 = now_s();
      {
        const Span span("aggd.decode", root);
        dec.feed(stream.data() + off, n);
        ipm::live::wire::Frame f;
        while (dec.next(f)) batch.push_back(std::move(f));
      }
      double t1 = now_s();
      decode_s += t1 - t0;
      frames += batch.size();
      {
        const Span span("aggd.parse", root);
        for (const ipm::live::wire::Frame& f : batch) {
          ipm::live::Sample s;
          if (!ipm::live::parse_sample_line(f.payload, s)) {
            bad += 1;
            continue;
          }
          jsonl_bytes += f.payload.size() + 1;
          parsed.push_back(std::move(s));
        }
      }
      t0 = now_s();
      parse_s += t0 - t1;
      {
        const Span span("aggd.merge", root);
        for (const ipm::live::Sample& s : parsed) merger.add_sample(s);
      }
      t1 = now_s();
      merge_s += t1 - t0;
      samples += parsed.size();
      {
        const Span span("aggd.emit", root);
        merger.emit_due(live, R, pts);
        for (const ipm::live::ClusterPoint& p : pts) {
          jsonl_bytes += ipm::live::point_line(p).size() + 1;
        }
      }
      emit_s += now_s() - t1;
      points += pts.size();
    }
    if (!dec.error().empty() || dec.pending() != 0) bad += 1;
  }
  tracer().end(root);
  res.attempted += frames;
  res.failed += bad;
  const auto per = [](double t, std::uint64_t n) {
    return t * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, n));
  };
  Metrics& l = res.layer;
  l["aggd.decode_ns_per_frame"] = {per(decode_s, frames), "ns"};
  l["aggd.parse_ns_per_sample"] = {per(parse_s, samples), "ns"};
  l["aggd.merge_ns_per_sample"] = {per(merge_s, samples), "ns"};
  l["aggd.emit_ns_per_point"] = {per(emit_s, points), "ns"};
  l["aggd.jsonl_bytes_per_sample"] = {
      static_cast<double>(jsonl_bytes) / static_cast<double>(std::max<std::uint64_t>(1, samples)),
      "B"};
  note(res, "stage replay: %d jobs, %llu frames, %llu points; decode %.0f ns/frame, "
       "parse %.0f ns, merge %.0f ns per sample, emit %.0f ns per point",
       jobs, static_cast<unsigned long long>(frames), static_cast<unsigned long long>(points),
       per(decode_s, frames), per(parse_s, samples), per(merge_s, samples),
       per(emit_s, points));
}

}  // namespace bench
