// Time-series file format (JSONL), the operand-size GFLOP model, and the
// ASCII roll-up report used by `ipm_parse --timeseries` and the fig9 demo.
#include "ipm_live/live.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "simcommon/str.hpp"

namespace ipm::live {

namespace {

/// Append `s` JSON-escaped to `out`.
void put_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          const auto u = static_cast<unsigned char>(ch);
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += ch;
        }
    }
  }
}

/// Append the literal `prefix` (e.g. `,"t0":`), then `v` as printf's
/// "%.17g" prints it: to_chars with chars_format::general and precision 17
/// is specified to give the same bytes, without printf's format parsing
/// and its second sizing pass.
void put_dbl(std::string& out, std::string_view prefix, double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general, 17);
  out += prefix;
  out.append(buf, r.ptr);
}

/// Append the literal `prefix`, then the integer `v` in decimal.
template <class Int>
void put_int(std::string& out, std::string_view prefix, Int v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out += prefix;
  out.append(buf, r.ptr);
}

std::string json_unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'u':
        if (i + 4 < s.size()) {
          out += static_cast<char>(
              std::strtoul(std::string(s.substr(i + 1, 4)).c_str(), nullptr, 16));
          i += 4;
        }
        break;
      default: out += s[i];
    }
  }
  return out;
}

/// End index (one past) of the JSON value starting at `i`.  String-aware
/// and bracket-counting, so names containing ',' '}' '[' survive.
std::size_t value_end(std::string_view s, std::size_t i) {
  if (i >= s.size()) return i;
  if (s[i] == '"') {
    for (std::size_t j = i + 1; j < s.size(); ++j) {
      if (s[j] == '\\') {
        ++j;
      } else if (s[j] == '"') {
        return j + 1;
      }
    }
    return s.size();
  }
  if (s[i] == '{' || s[i] == '[') {
    int depth = 0;
    bool in_str = false;
    for (std::size_t j = i; j < s.size(); ++j) {
      const char c = s[j];
      if (in_str) {
        if (c == '\\') ++j;
        else if (c == '"') in_str = false;
      } else if (c == '"') {
        in_str = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (--depth == 0) return j + 1;
      }
    }
    return s.size();
  }
  std::size_t j = i;
  while (j < s.size() && s[j] != ',' && s[j] != '}' && s[j] != ']') ++j;
  return j;
}

std::size_t skip_ws(std::string_view s, std::size_t i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  return i;
}

/// Raw text of top-level field `key` in the object `obj` ("" if absent).
std::string_view object_field(std::string_view obj, std::string_view key) {
  std::size_t i = obj.find('{');
  if (i == std::string_view::npos) return {};
  ++i;
  while (i < obj.size()) {
    i = skip_ws(obj, i);
    if (i >= obj.size() || obj[i] == '}') break;
    if (obj[i] != '"') return {};
    const std::size_t kend = value_end(obj, i);
    const std::string_view k = obj.substr(i + 1, kend - i - 2);
    i = skip_ws(obj, kend);
    if (i >= obj.size() || obj[i] != ':') return {};
    i = skip_ws(obj, i + 1);
    const std::size_t vend = value_end(obj, i);
    if (k == key) return obj.substr(i, vend - i);
    i = skip_ws(obj, vend);
    if (i < obj.size() && obj[i] == ',') ++i;
  }
  return {};
}

/// Top-level elements of the array text `arr` (including "[...]").
std::vector<std::string_view> array_items(std::string_view arr) {
  std::vector<std::string_view> out;
  std::size_t i = arr.find('[');
  if (i == std::string_view::npos) return out;
  ++i;
  while (i < arr.size()) {
    i = skip_ws(arr, i);
    if (i >= arr.size() || arr[i] == ']') break;
    const std::size_t vend = value_end(arr, i);
    out.push_back(arr.substr(i, vend - i));
    i = skip_ws(arr, vend);
    if (i < arr.size() && arr[i] == ',') ++i;
  }
  return out;
}

double num_field(std::string_view obj, std::string_view key, double dflt = 0.0) {
  const std::string_view v = object_field(obj, key);
  return v.empty() ? dflt : std::strtod(std::string(v).c_str(), nullptr);
}

std::uint64_t int_field(std::string_view obj, std::string_view key) {
  const std::string_view v = object_field(obj, key);
  return v.empty() ? 0 : std::strtoull(std::string(v).c_str(), nullptr, 10);
}

std::string str_field(std::string_view obj, std::string_view key) {
  std::string_view v = object_field(obj, key);
  if (v.size() >= 2 && v.front() == '"') v = v.substr(1, v.size() - 2);
  return json_unescape(v);
}

const std::string& delta_name(const KeyDelta& d) {
  return d.name_str.empty() ? name_of(d.name) : d.name_str;
}

}  // namespace

std::string timeseries_path(const Config& cfg) {
  if (!cfg.timeseries_path.empty()) return cfg.timeseries_path;
  if (!cfg.log_path.empty()) {
    std::string base = cfg.log_path;
    if (base.size() > 4 && base.compare(base.size() - 4, 4, ".xml") == 0) {
      base.resize(base.size() - 4);
    }
    return base + "_timeseries.jsonl";
  }
  return "ipm_timeseries.jsonl";
}

std::string timeseries_header_line(const std::string& command, double interval) {
  std::string out = "{\"ipm_timeseries\":1,\"command\":\"";
  put_escaped(out, command);
  put_dbl(out, "\",\"interval\":", interval);
  out += '}';
  return out;
}

std::string sample_line(const Sample& s) {
  std::string out;
  // ~75 bytes of fixed fields, ~85 per delta with its name.
  out.reserve(96 + 24 * s.regions.size() + 96 * s.deltas.size());
  put_int(out, "{\"type\":\"sample\",\"rank\":", s.rank);
  put_int(out, ",\"seq\":", s.seq);
  put_dbl(out, ",\"t0\":", s.t0);
  put_dbl(out, ",\"t1\":", s.t1);
  put_int(out, ",\"final\":", s.final_flush ? 1 : 0);
  if (s.ddev_flops != 0.0) put_dbl(out, ",\"gf\":", s.ddev_flops);
  if (s.ddev_bytes != 0.0) put_dbl(out, ",\"gb\":", s.ddev_bytes);
  out += ",\"regions\":[";
  for (std::size_t i = 0; i < s.regions.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    put_escaped(out, s.regions[i]);
    out += '"';
  }
  out += "],\"deltas\":[";
  for (std::size_t i = 0; i < s.deltas.size(); ++i) {
    const KeyDelta& d = s.deltas[i];
    if (i != 0) out += ',';
    out += "{\"n\":\"";
    put_escaped(out, delta_name(d));
    put_int(out, "\",\"r\":", d.region);
    put_int(out, ",\"s\":", d.select);
    put_int(out, ",\"c\":", d.dcount);
    put_int(out, ",\"b\":", d.dbytes);
    put_dbl(out, ",\"t\":", d.dtsum);
    if (d.dflops != 0.0) put_dbl(out, ",\"f\":", d.dflops);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string point_line(const ClusterPoint& p) {
  std::string out;
  out.reserve(512 + 48 * p.region_flops.size());
  put_int(out, "{\"type\":\"point\",\"k\":", p.k);
  put_dbl(out, ",\"t0\":", p.t0);
  put_dbl(out, ",\"t1\":", p.t1);
  put_int(out, ",\"ranks\":", p.ranks);
  put_int(out, ",\"ranks_live\":", p.ranks_live);
  put_int(out, ",\"samples\":", p.samples);
  put_int(out, ",\"devents\":", p.devents);
  put_dbl(out, ",\"mpi_s\":", p.mpi_s);
  put_dbl(out, ",\"cuda_s\":", p.cuda_s);
  put_dbl(out, ",\"gpu_s\":", p.gpu_s);
  put_dbl(out, ",\"idle_s\":", p.idle_s);
  put_dbl(out, ",\"blas_s\":", p.blas_s);
  put_dbl(out, ",\"fft_s\":", p.fft_s);
  put_int(out, ",\"mpi_bytes\":", p.mpi_bytes);
  put_int(out, ",\"cuda_bytes\":", p.cuda_bytes);
  put_dbl(out, ",\"flops\":", p.flops);
  if (p.dev_flops != 0.0) put_dbl(out, ",\"devflops\":", p.dev_flops);
  if (p.dev_bytes != 0.0) put_dbl(out, ",\"devbytes\":", p.dev_bytes);
  out += ",\"regions\":[";
  for (std::size_t i = 0; i < p.region_flops.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"name\":\"";
    put_escaped(out, p.region_flops[i].first);
    put_dbl(out, "\",\"flops\":", p.region_flops[i].second);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string end_line(std::uint64_t intervals) {
  std::string out;
  put_int(out, "{\"type\":\"end\",\"intervals\":", intervals);
  out += '}';
  return out;
}

bool parse_timeseries_line(const std::string& line, TimeSeries& ts) {
  if (line.empty()) return true;
  if (!object_field(line, "ipm_timeseries").empty()) {
    ts.command = str_field(line, "command");
    ts.interval = num_field(line, "interval");
    return true;
  }
  const std::string_view type = object_field(line, "type");
  if (type == "\"sample\"") {
    Sample s;
    s.rank = static_cast<int>(int_field(line, "rank"));
    s.seq = int_field(line, "seq");
    s.t0 = num_field(line, "t0");
    s.t1 = num_field(line, "t1");
    s.final_flush = int_field(line, "final") != 0;
    s.ddev_flops = num_field(line, "gf");
    s.ddev_bytes = num_field(line, "gb");
    for (const std::string_view r : array_items(object_field(line, "regions"))) {
      std::string_view v = r;
      if (v.size() >= 2 && v.front() == '"') v = v.substr(1, v.size() - 2);
      s.regions.push_back(json_unescape(v));
    }
    for (const std::string_view dv : array_items(object_field(line, "deltas"))) {
      KeyDelta d;
      d.name_str = str_field(dv, "n");
      d.region = static_cast<std::uint32_t>(int_field(dv, "r"));
      d.select = static_cast<std::int32_t>(
          std::strtol(std::string(object_field(dv, "s")).c_str(), nullptr, 10));
      d.dcount = int_field(dv, "c");
      d.dbytes = int_field(dv, "b");
      d.dtsum = num_field(dv, "t");
      d.dflops = num_field(dv, "f");
      s.deltas.push_back(std::move(d));
    }
    ts.samples.push_back(std::move(s));
  } else if (type == "\"point\"") {
    ClusterPoint p;
    p.k = int_field(line, "k");
    p.t0 = num_field(line, "t0");
    p.t1 = num_field(line, "t1");
    p.ranks = static_cast<int>(int_field(line, "ranks"));
    p.ranks_live = static_cast<int>(int_field(line, "ranks_live"));
    p.samples = int_field(line, "samples");
    p.devents = int_field(line, "devents");
    p.mpi_s = num_field(line, "mpi_s");
    p.cuda_s = num_field(line, "cuda_s");
    p.gpu_s = num_field(line, "gpu_s");
    p.idle_s = num_field(line, "idle_s");
    p.blas_s = num_field(line, "blas_s");
    p.fft_s = num_field(line, "fft_s");
    p.mpi_bytes = int_field(line, "mpi_bytes");
    p.cuda_bytes = int_field(line, "cuda_bytes");
    p.flops = num_field(line, "flops");
    p.dev_flops = num_field(line, "devflops");
    p.dev_bytes = num_field(line, "devbytes");
    for (const std::string_view rv : array_items(object_field(line, "regions"))) {
      p.region_flops.emplace_back(str_field(rv, "name"), num_field(rv, "flops"));
    }
    ts.points.push_back(std::move(p));
  } else if (type == "\"end\"") {
    return false;
  }
  return true;
}

bool parse_sample_line(std::string_view line, Sample& out) {
  const char* p = line.data();
  const char* const end = p + line.size();
  // lit() consumes `s` on match and leaves `p` untouched on mismatch, so it
  // doubles as a probe for the optional fields ("gf"/"gb"/"f").
  const auto lit = [&](std::string_view s) {
    if (static_cast<std::size_t>(end - p) < s.size() ||
        std::memcmp(p, s.data(), s.size()) != 0) {
      return false;
    }
    p += s.size();
    return true;
  };
  const auto parse_int = [&](auto& v) {
    const auto [np, ec] = std::from_chars(p, end, v);
    if (ec != std::errc()) return false;
    p = np;
    return true;
  };
  const auto parse_dbl = [&](double& v) {
    const auto [np, ec] = std::from_chars(p, end, v);
    if (ec != std::errc()) return false;
    p = np;
    return true;
  };
  const auto parse_str = [&](std::string& s) {
    if (p >= end || *p != '"') return false;
    ++p;
    const char* const start = p;
    bool escaped = false;
    while (p < end && *p != '"') {
      if (*p == '\\') {
        escaped = true;
        ++p;
        if (p >= end) return false;
      }
      ++p;
    }
    if (p >= end) return false;
    const std::string_view body(start, static_cast<std::size_t>(p - start));
    if (escaped) {
      s = json_unescape(body);
    } else {
      s.assign(body);
    }
    ++p;
    return true;
  };

  // Every field is overwritten below, and the region and delta slots
  // (with their strings) are reused, so a caller that parses into the
  // same Sample again allocates nothing for a same-shaped line.
  out.rank = 0;
  out.seq = 0;
  out.t0 = out.t1 = 0.0;
  out.ddev_flops = out.ddev_bytes = 0.0;
  int final_flag = 0;
  if (!lit("{\"type\":\"sample\",\"rank\":") || !parse_int(out.rank) ||
      !lit(",\"seq\":") || !parse_int(out.seq) || !lit(",\"t0\":") ||
      !parse_dbl(out.t0) || !lit(",\"t1\":") || !parse_dbl(out.t1) ||
      !lit(",\"final\":") || !parse_int(final_flag)) {
    return false;
  }
  out.final_flush = final_flag != 0;
  if (lit(",\"gf\":") && !parse_dbl(out.ddev_flops)) return false;
  if (lit(",\"gb\":") && !parse_dbl(out.ddev_bytes)) return false;
  if (!lit(",\"regions\":[")) return false;
  std::size_t n = 0;
  if (p < end && *p != ']') {
    for (;;) {
      if (n == out.regions.size()) out.regions.emplace_back();
      if (!parse_str(out.regions[n++])) return false;
      if (!lit(",")) break;
    }
  }
  out.regions.resize(n);
  if (!lit("],\"deltas\":[")) return false;
  n = 0;
  if (p < end && *p != ']') {
    for (;;) {
      if (n == out.deltas.size()) out.deltas.emplace_back();
      KeyDelta& d = out.deltas[n++];
      d.name = 0;
      d.dflops = 0.0;
      if (!lit("{\"n\":") || !parse_str(d.name_str) || !lit(",\"r\":") ||
          !parse_int(d.region) || !lit(",\"s\":") || !parse_int(d.select) ||
          !lit(",\"c\":") || !parse_int(d.dcount) || !lit(",\"b\":") ||
          !parse_int(d.dbytes) || !lit(",\"t\":") || !parse_dbl(d.dtsum)) {
        return false;
      }
      if (lit(",\"f\":") && !parse_dbl(d.dflops)) return false;
      if (!lit("}")) return false;
      if (!lit(",")) break;
    }
  }
  out.deltas.resize(n);
  return lit("]}") && p == end;
}

TimeSeries read_timeseries_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ipm: cannot open time-series file " + path);
  std::string line;
  if (!std::getline(in, line) || object_field(line, "ipm_timeseries").empty()) {
    throw std::runtime_error("ipm: " + path + " is not an ipm_timeseries file");
  }
  TimeSeries ts;
  ts.command = str_field(line, "command");
  ts.interval = num_field(line, "interval");
  while (std::getline(in, line)) {
    if (!parse_timeseries_line(line, ts)) break;
  }
  return ts;
}

double flops_per_call(const std::string& name, std::uint64_t bytes) {
  if (bytes == 0) return 0.0;
  if (simx::starts_with(name, "cublas")) {
    if (name.size() < 8) return 0.0;
    double esize;
    double per_elem = 2.0;  // multiply + add per element
    switch (name[6]) {
      case 'S': esize = 4.0; break;
      case 'D': esize = 8.0; break;
      case 'C': esize = 8.0; per_elem = 8.0; break;   // 4 real mul + 4 add
      case 'Z': esize = 16.0; per_elem = 8.0; break;
      default: return 0.0;  // Alloc/Free/Init/Get*/Set*/I?amax: no flops
    }
    std::string op = name.substr(7);
    op = op.substr(0, op.find_first_of("(["));  // strip [ERR=..] annotations
    // Stored bytes are m*n*esize (BLAS-3/2) or n*esize (BLAS-1); k is not
    // recoverable, so BLAS-3 assumes square operands: flops ~ c * elems^1.5.
    const double elems = static_cast<double>(bytes) / esize;
    static constexpr const char* kLevel3[] = {"gemm", "trsm", "trmm", "symm",
                                              "syrk", "herk", "hemm", "syr2k"};
    for (const char* l3 : kLevel3) {
      if (op == l3) return per_elem * std::pow(elems, 1.5);
    }
    static constexpr const char* kLinear[] = {"axpy", "dot",  "dotc", "dotu",
                                              "scal", "sscal", "asum", "nrm2",
                                              "rot",  "gemv", "ger",  "symv",
                                              "syr",  "trmv", "trsv"};
    for (const char* l1 : kLinear) {
      if (op == l1) return per_elem * elems;
    }
    return 0.0;  // copy/swap/Get/Set: data movement, no flops
  }
  if (simx::starts_with(name, "cufftPlan")) {
    // Plan bytes store the total transform points (nx[*ny[*nz]] or
    // nx*batch); cufftExec* records zero bytes, so the FFT's 5*n*log2(n)
    // is attributed at plan time — an estimate, documented in DESIGN.md.
    const double n = static_cast<double>(bytes);
    return n > 1.0 ? 5.0 * n * std::log2(n) : 0.0;
  }
  return 0.0;
}

std::string sparkline(const std::vector<double>& values) {
  static constexpr char kLevels[] = " .:-=+*#%@";
  double peak = 0.0;
  for (const double v : values) peak = std::max(peak, v);
  std::string out;
  out.reserve(values.size());
  for (const double v : values) {
    if (peak <= 0.0 || v <= 0.0) {
      out += kLevels[0];
      continue;
    }
    const int idx = std::min(9, 1 + static_cast<int>(v / peak * 8.999));
    out += kLevels[idx];
  }
  return out;
}

void write_timeseries_report(std::ostream& os, const TimeSeries& ts) {
  const std::vector<ClusterPoint>& pts = ts.points;
  int ranks = 0;
  for (const ClusterPoint& p : pts) ranks = std::max(ranks, p.ranks_live);
  os << "#################################################################\n";
  os << "# time series  : " << ts.command << "\n";
  os << simx::strprintf("# interval     : %.4g s · intervals : %zu · ranks : %d\n",
                        ts.interval, pts.size(), ranks);
  if (pts.empty()) {
    os << "# (no cluster points emitted)\n";
    os << "#################################################################\n";
    return;
  }
  // One row per derived metric: average, peak, and a per-interval sparkline.
  struct Metric {
    const char* label;
    std::vector<double> series;
  };
  std::vector<Metric> metrics = {
      {"gpu busy %", {}},   {"host idle %", {}}, {"mpi %", {}},
      {"cuda api %", {}},   {"blas+fft %", {}},  {"mpi MB/s", {}},
      {"memcpy MB/s", {}},  {"gflop/s", {}},     {"events/s", {}},
  };
  for (const ClusterPoint& p : pts) {
    const double span = p.span() > 0.0 ? p.span() : 1.0;
    const double avail = span * std::max(1, p.ranks_live);
    metrics[0].series.push_back(100.0 * p.gpu_s / avail);
    metrics[1].series.push_back(100.0 * p.idle_s / avail);
    metrics[2].series.push_back(100.0 * p.mpi_s / avail);
    metrics[3].series.push_back(100.0 * p.cuda_s / avail);
    metrics[4].series.push_back(100.0 * (p.blas_s + p.fft_s) / avail);
    metrics[5].series.push_back(static_cast<double>(p.mpi_bytes) / span / 1e6);
    metrics[6].series.push_back(static_cast<double>(p.cuda_bytes) / span / 1e6);
    metrics[7].series.push_back(p.flops / span * 1e-9);
    metrics[8].series.push_back(static_cast<double>(p.devents) / span);
  }
  os << "#\n";
  os << simx::strprintf("# %-14s %12s %12s  %s\n", "metric", "avg", "peak",
                        "per-interval");
  for (const Metric& m : metrics) {
    double sum = 0.0;
    double peak = 0.0;
    for (const double v : m.series) {
      sum += v;
      peak = std::max(peak, v);
    }
    os << simx::strprintf("# %-14s %12.2f %12.2f  [%s]\n", m.label,
                          sum / static_cast<double>(m.series.size()), peak,
                          sparkline(m.series).c_str());
  }
  // Per-region GFLOP rates, aggregated over the whole series.
  std::map<std::string, double> region_flops;
  double total_time = 0.0;
  for (const ClusterPoint& p : pts) {
    total_time += p.span();
    for (const auto& [region, fl] : p.region_flops) region_flops[region] += fl;
  }
  if (!region_flops.empty() && total_time > 0.0) {
    os << "#\n# region gflop/s :";
    for (const auto& [region, fl] : region_flops) {
      os << simx::strprintf(" %s %.2f", region.c_str(), fl / total_time * 1e-9);
    }
    os << "\n";
  }
  // Per-interval roll-up table (elided in the middle for long runs).
  os << "#\n";
  os << simx::strprintf("# %5s %9s %6s %8s %7s %7s %7s %10s %12s\n", "int",
                        "t[s]", "ranks", "samples", "mpi%", "gpu%", "idle%",
                        "gflop/s", "MB/s(mpi)");
  const std::size_t n = pts.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (n > 32 && i == 16) {
      os << simx::strprintf("# %5s (%zu intervals elided)\n", "...", n - 32);
      i = n - 16;
    }
    const ClusterPoint& p = pts[i];
    const double span = p.span() > 0.0 ? p.span() : 1.0;
    const double avail = span * std::max(1, p.ranks_live);
    os << simx::strprintf(
        "# %5llu %9.4f %6d %8llu %7.2f %7.2f %7.2f %10.2f %12.2f\n",
        static_cast<unsigned long long>(p.k), p.t1, p.ranks,
        static_cast<unsigned long long>(p.samples), 100.0 * p.mpi_s / avail,
        100.0 * p.gpu_s / avail, 100.0 * p.idle_s / avail, p.flops / span * 1e-9,
        static_cast<double>(p.mpi_bytes) / span / 1e6);
  }
  os << "#################################################################\n";
}

}  // namespace ipm::live
