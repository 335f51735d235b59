// Shared pieces of the benchmark: seeded inputs, statistics, per-thread
// counters read from /proc, spans for the traced mode, and the metric map
// that becomes the JSON result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

/// Seconds on the monotonic clock (only differences are meaningful).
[[nodiscard]] double now_s() noexcept;

/// splitmix64 stream: the only source of generated inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() noexcept;
  /// Uniform in [0, 1).
  double uniform() noexcept;
  /// Full-mantissa positive double in (0, scale): conservation must hold
  /// bit-exactly on awkward values, not round ones.
  double awkward(double scale) noexcept;

 private:
  std::uint64_t s_;
};

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

// --- per-thread counters ------------------------------------------------------

[[nodiscard]] int this_tid() noexcept;
/// Thread ids of this process.
[[nodiscard]] std::vector<int> thread_ids();

/// CPU time of one thread (first field of /proc/self/task/<tid>/schedstat,
/// nanosecond resolution); 0 once the thread has exited.
[[nodiscard]] double task_cpu_s(int tid);
[[nodiscard]] double tasks_cpu_s(const std::vector<int>& tids);

/// Socket traffic, counted where the program calls send()/recv()/connect():
/// the benchmark links with --wrap for those three symbols and keeps one
/// counter block per thread, so client, daemon and app threads are told
/// apart from outside the code that makes the calls.
struct NetStat {
  std::uint64_t send_bytes = 0, send_calls = 0;
  std::uint64_t recv_bytes = 0, recv_calls = 0;
  std::uint64_t connects = 0;
};
[[nodiscard]] NetStat net_stat(const std::vector<int>& tids);
[[nodiscard]] NetStat operator-(const NetStat& a, const NetStat& b);

/// Peak resident set size of the process (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mb();

struct HostShape {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string build_type;
};
[[nodiscard]] HostShape host_shape();

// --- spans (traced mode) --------------------------------------------------------

/// In-memory span log: name, start, end, parent span, run id.  Spans come
/// from the benchmark's own code around its calls into each layer.  When
/// disabled, begin()/end() return immediately.  Spans are recorded on the
/// benchmark's main thread only.
class Tracer {
 public:
  void enable(std::string run_id) {
    on_ = true;
    run_id_ = std::move(run_id);
  }
  /// Open a span; returns its id (0 when tracing is off).  `name` must be a
  /// string literal.
  std::uint32_t begin(const char* name, std::uint32_t parent = 0);
  void end(std::uint32_t id);

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Self time per span name: duration minus the part covered by children.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Write the spans as JSON lines, at most kMaxWritten of them (the rest
  /// are counted in a last line); false when the file cannot be written.
  bool write(const std::string& path) const;
  static constexpr std::size_t kMaxWritten = 200000;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  bool on_ = false;
  std::string run_id_;
  std::vector<Span> spans_;
};

Tracer& tracer();

/// RAII span on the global tracer.
class Span {
 public:
  explicit Span(const char* name, std::uint32_t parent = 0)
      : id_(tracer().begin(name, parent)) {}
  ~Span() { tracer().end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  std::uint32_t id_;
};

// --- results ------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one workload run produced: end-to-end metrics (untraced view),
/// per-layer metrics, verification counts, and human-readable notes.
struct RunResult {
  Metrics e2e;
  Metrics layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool valid = true;  ///< false when the open-loop generator fell behind
  std::vector<std::string> notes;
};

/// Printf-style note appended to `r.notes`.
void note(RunResult& r, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

/// Command-line and environment of one benchmark run.
struct Env {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string report_dir;  ///< where the traced run writes its span log
  unsigned nproc = 1;
};

}  // namespace bench
