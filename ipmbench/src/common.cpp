#include "common.hpp"

#include <dirent.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#ifndef IPMBENCH_BUILD_TYPE
#define IPMBENCH_BUILD_TYPE "unknown"
#endif

namespace bench {

double now_s() noexcept {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

std::uint64_t Rng::next() noexcept {
  s_ += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::awkward(double scale) noexcept {
  return (static_cast<double>(next() >> 11) + 1.0) * (scale / 9007199254740992.0);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

int this_tid() noexcept { return static_cast<int>(::syscall(SYS_gettid)); }

std::vector<int> thread_ids() {
  std::vector<int> out;
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') out.push_back(std::atoi(e->d_name));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

double task_cpu_s(int tid) {
  char path[64];
  std::snprintf(path, sizeof path, "/proc/self/task/%d/schedstat", tid);
  double cpu = 0.0;
  if (std::FILE* f = std::fopen(path, "r")) {
    unsigned long long ns = 0;
    if (std::fscanf(f, "%llu", &ns) == 1) cpu = static_cast<double>(ns) * 1e-9;
    std::fclose(f);
  }
  return cpu;
}

double tasks_cpu_s(const std::vector<int>& tids) {
  double sum = 0.0;
  for (const int tid : tids) sum += task_cpu_s(tid);
  return sum;
}

namespace {

struct NetCounters {
  int tid = 0;
  std::atomic<std::uint64_t> send_bytes{0}, send_calls{0};
  std::atomic<std::uint64_t> recv_bytes{0}, recv_calls{0};
  std::atomic<std::uint64_t> connects{0};
};

struct NetRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<NetCounters>> all;  ///< never shrinks
};

NetRegistry& net_registry() {
  static NetRegistry* r = new NetRegistry;  // outlives every thread
  return *r;
}

NetCounters& my_net() {
  thread_local NetCounters* mine = [] {
    NetRegistry& reg = net_registry();
    auto c = std::make_unique<NetCounters>();
    c->tid = this_tid();
    const std::lock_guard<std::mutex> lock(reg.mu);
    reg.all.push_back(std::move(c));
    return reg.all.back().get();
  }();
  return *mine;
}

}  // namespace

NetStat net_stat(const std::vector<int>& tids) {
  NetStat st;
  NetRegistry& reg = net_registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& c : reg.all) {
    if (std::find(tids.begin(), tids.end(), c->tid) == tids.end()) continue;
    st.send_bytes += c->send_bytes.load(std::memory_order_relaxed);
    st.send_calls += c->send_calls.load(std::memory_order_relaxed);
    st.recv_bytes += c->recv_bytes.load(std::memory_order_relaxed);
    st.recv_calls += c->recv_calls.load(std::memory_order_relaxed);
    st.connects += c->connects.load(std::memory_order_relaxed);
  }
  return st;
}

NetStat operator-(const NetStat& a, const NetStat& b) {
  NetStat d;
  d.send_bytes = a.send_bytes - b.send_bytes;
  d.send_calls = a.send_calls - b.send_calls;
  d.recv_bytes = a.recv_bytes - b.recv_bytes;
  d.recv_calls = a.recv_calls - b.recv_calls;
  d.connects = a.connects - b.connects;
  return d;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

HostShape host_shape() {
  HostShape h;
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  h.build_type = IPMBENCH_BUILD_TYPE;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) h.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  return h;
}

// --- spans ----------------------------------------------------------------------

namespace {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent) {
  if (!on_) return 0;
  spans_.push_back(Span{name, parent, now_ns(), 0});
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::end(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = now_ns();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::int64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child[s.parent - 1] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - child[i]) * 1e-9;
  }
  return self;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::size_t n = std::min(spans_.size(), kMaxWritten);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"run\":\"%s\",\"id\":%zu,\"parent\":%u,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 run_id_.c_str(), i + 1, s.parent, s.name,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  if (n < spans_.size()) {
    std::fprintf(f, "{\"run\":\"%s\",\"spans_not_written\":%zu}\n", run_id_.c_str(),
                 spans_.size() - n);
  }
  return std::fclose(f) == 0;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

void note(RunResult& r, const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  r.notes.emplace_back(buf);
}

}  // namespace bench

// Link-time interposition (-Wl,--wrap=send,--wrap=recv,--wrap=connect): every
// call the program makes goes through these, which count and forward.
extern "C" {
ssize_t __real_send(int fd, const void* buf, size_t n, int flags);
ssize_t __real_recv(int fd, void* buf, size_t n, int flags);
int __real_connect(int fd, const sockaddr* addr, socklen_t len);

ssize_t __wrap_send(int fd, const void* buf, size_t n, int flags) {
  const ssize_t r = __real_send(fd, buf, n, flags);
  bench::NetCounters& c = bench::my_net();
  c.send_calls.fetch_add(1, std::memory_order_relaxed);
  if (r > 0) c.send_bytes.fetch_add(static_cast<std::uint64_t>(r), std::memory_order_relaxed);
  return r;
}

ssize_t __wrap_recv(int fd, void* buf, size_t n, int flags) {
  const ssize_t r = __real_recv(fd, buf, n, flags);
  bench::NetCounters& c = bench::my_net();
  c.recv_calls.fetch_add(1, std::memory_order_relaxed);
  if (r > 0) c.recv_bytes.fetch_add(static_cast<std::uint64_t>(r), std::memory_order_relaxed);
  return r;
}

int __wrap_connect(int fd, const sockaddr* addr, socklen_t len) {
  bench::my_net().connects.fetch_add(1, std::memory_order_relaxed);
  return __real_connect(fd, addr, len);
}
}
