// ipm_agg wire protocol (wire.hpp): frame codec round-trips, the strict
// incremental decoder (truncation, bad version/type/length poisoning), the
// hello/welcome payload helpers, aggregator address parsing (net.hpp), and
// the JSONL line format the SAMPLE payload carries: byte identity with a
// printf "%.17g" reference and bit-exact parse round trips.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "ipm_live/live.hpp"
#include "ipm_live/net.hpp"
#include "ipm_live/wire.hpp"
#include "simcommon/str.hpp"

namespace {

using ipm::live::wire::Decoder;
using ipm::live::wire::Frame;
using ipm::live::wire::FrameType;

Frame sample_frame() {
  Frame f;
  f.type = FrameType::kSample;
  f.rank = 7;
  f.epoch = 0x0102030405060708ULL;
  f.job = "hpl-16";
  f.payload = R"({"type":"sample","rank":7,"seq":41})";
  return f;
}

TEST(Wire, EncodeDecodeRoundTripsEveryFrameType) {
  const FrameType types[] = {FrameType::kHello,   FrameType::kSample,
                             FrameType::kRankFin, FrameType::kJobEnd,
                             FrameType::kWelcome, FrameType::kAck,
                             FrameType::kJobEndAck};
  for (const FrameType t : types) {
    Frame f = sample_frame();
    f.type = t;
    const std::string bytes = ipm::live::wire::encode(f);
    Decoder dec;
    dec.feed(bytes.data(), bytes.size());
    Frame out;
    ASSERT_TRUE(dec.next(out));
    EXPECT_EQ(out.type, t);
    EXPECT_EQ(out.rank, f.rank);
    EXPECT_EQ(out.epoch, f.epoch);
    EXPECT_EQ(out.job, f.job);
    EXPECT_EQ(out.payload, f.payload);
    EXPECT_EQ(dec.pending(), 0u);
    EXPECT_FALSE(dec.next(out));  // exactly one frame
    EXPECT_TRUE(dec.error().empty());
  }
}

TEST(Wire, DecoderReassemblesByteByByte) {
  // Three frames, fed one byte at a time: the decoder must never yield a
  // partial frame and must yield all three in order.
  std::string stream;
  for (int i = 0; i < 3; ++i) {
    Frame f = sample_frame();
    f.epoch = static_cast<std::uint64_t>(i + 1);
    f.payload = std::string("p") + std::to_string(i);
    stream += ipm::live::wire::encode(f);
  }
  Decoder dec;
  std::vector<Frame> got;
  for (const char c : stream) {
    dec.feed(&c, 1);
    Frame f;
    while (dec.next(f)) got.push_back(f);
  }
  ASSERT_EQ(got.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].epoch, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(got[i].payload, std::string("p") + std::to_string(i));
  }
  EXPECT_EQ(dec.pending(), 0u);
}

TEST(Wire, TruncatedFrameStaysPendingNeverPartiallyApplied) {
  const std::string bytes = ipm::live::wire::encode(sample_frame());
  Decoder dec;
  dec.feed(bytes.data(), bytes.size() - 5);  // cut mid-payload
  Frame out;
  EXPECT_FALSE(dec.next(out));
  EXPECT_TRUE(dec.error().empty());   // not an error — just incomplete
  EXPECT_GT(dec.pending(), 0u);       // nonzero at EOF = truncated frame
  // The remainder completes it.
  dec.feed(bytes.data() + bytes.size() - 5, 5);
  EXPECT_TRUE(dec.next(out));
  EXPECT_EQ(out.payload, sample_frame().payload);
}

TEST(Wire, BadVersionPoisonsDecoder) {
  std::string bytes = ipm::live::wire::encode(sample_frame());
  bytes[4] = 99;  // version byte follows the u32 length
  Decoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_FALSE(dec.next(out));
  EXPECT_NE(dec.error().find("version"), std::string::npos);
  // Poisoned: even valid follow-up bytes are refused.
  const std::string good = ipm::live::wire::encode(sample_frame());
  dec.feed(good.data(), good.size());
  EXPECT_FALSE(dec.next(out));
}

TEST(Wire, BadTypeAndBadLengthArePoisoned) {
  {
    std::string bytes = ipm::live::wire::encode(sample_frame());
    bytes[5] = 'z';  // unknown frame type
    Decoder dec;
    dec.feed(bytes.data(), bytes.size());
    Frame out;
    EXPECT_FALSE(dec.next(out));
    EXPECT_NE(dec.error().find("type"), std::string::npos);
  }
  {
    // Length below the fixed header is out of range.
    std::string bytes = ipm::live::wire::encode(sample_frame());
    bytes[0] = 3;
    bytes[1] = bytes[2] = bytes[3] = 0;
    Decoder dec;
    dec.feed(bytes.data(), bytes.size());
    Frame out;
    EXPECT_FALSE(dec.next(out));
    EXPECT_NE(dec.error().find("length"), std::string::npos);
  }
  {
    // Length above kMaxFrameLen is rejected before buffering 16 MiB.
    std::string bytes = ipm::live::wire::encode(sample_frame());
    bytes[0] = bytes[1] = bytes[2] = bytes[3] = static_cast<char>(0xff);
    Decoder dec;
    dec.feed(bytes.data(), bytes.size());
    Frame out;
    EXPECT_FALSE(dec.next(out));
    EXPECT_NE(dec.error().find("length"), std::string::npos);
  }
}

TEST(Wire, JobLenOverrunIsRejected) {
  std::string bytes = ipm::live::wire::encode(sample_frame());
  bytes[6] = static_cast<char>(0xff);  // job_len low byte
  bytes[7] = static_cast<char>(0xff);  // job_len high byte
  Decoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_FALSE(dec.next(out));
  EXPECT_NE(dec.error().find("job id"), std::string::npos);
}

TEST(Wire, EncodeEnforcesProtocolBounds) {
  Frame f = sample_frame();
  f.job.assign(ipm::live::wire::kMaxJobLen + 1, 'j');
  EXPECT_THROW((void)ipm::live::wire::encode(f), std::invalid_argument);
  f = sample_frame();
  f.payload.assign(ipm::live::wire::kMaxFrameLen, 'p');
  EXPECT_THROW((void)ipm::live::wire::encode(f), std::invalid_argument);
}

TEST(Wire, WelcomePayloadRoundTrips) {
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> epochs = {
      {0, 12}, {3, 0}, {15, 0xffffffffffULL}};
  const auto back =
      ipm::live::wire::parse_welcome(ipm::live::wire::welcome_payload(epochs));
  ASSERT_EQ(back.size(), epochs.size());
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    EXPECT_EQ(back[i].first, epochs[i].first);
    EXPECT_EQ(back[i].second, epochs[i].second);
  }
  EXPECT_TRUE(ipm::live::wire::parse_welcome("{}").empty());
  EXPECT_TRUE(ipm::live::wire::parse_welcome("not json at all").empty());
}

TEST(Wire, HelloPayloadEscapesCommand) {
  const std::string p =
      ipm::live::wire::hello_payload("./run \"x\" \\w", 0.25);
  EXPECT_NE(p.find("\"ipm_agg\":1"), std::string::npos);
  EXPECT_NE(p.find("\\\"x\\\""), std::string::npos);
  EXPECT_NE(p.find("\"interval\":0.25"), std::string::npos);
}

// --- aggregator address parsing ----------------------------------------------

TEST(Wire, ParseAddrForms) {
  using ipm::live::net::Addr;
  using ipm::live::net::parse_addr;
  Addr a = parse_addr("unix:/tmp/agg.sock");
  EXPECT_EQ(a.kind, Addr::Kind::kUnix);
  EXPECT_EQ(a.path, "/tmp/agg.sock");
  EXPECT_EQ(a.str(), "unix:/tmp/agg.sock");

  a = parse_addr("tcp:127.0.0.1:9321");
  EXPECT_EQ(a.kind, Addr::Kind::kTcp);
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 9321);

  a = parse_addr("localhost:80");  // host:port without the tcp: prefix
  EXPECT_EQ(a.kind, Addr::Kind::kTcp);
  EXPECT_EQ(a.host, "localhost");
  EXPECT_EQ(a.port, 80);

  a = parse_addr("/var/run/ipm.sock");  // bare path = unix
  EXPECT_EQ(a.kind, Addr::Kind::kUnix);
  EXPECT_EQ(a.path, "/var/run/ipm.sock");

  EXPECT_FALSE(parse_addr("").valid());
  EXPECT_FALSE(parse_addr("unix:").valid());
  EXPECT_FALSE(parse_addr("tcp:host-without-port").valid());
  EXPECT_FALSE(parse_addr("tcp:h:99999").valid());  // port out of range
}

// --- seeded fuzz / property wall (ISSUE 7 satellite) -------------------------

/// Deterministic pseudo-random sample for the round-trip property: every
/// field the serializer can emit, including escapes in names/regions and
/// the optional gf/gb/f fields.
ipm::live::Sample random_sample(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> small(0, 5);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const char* names[] = {"MPI_Allreduce", "cudaMemcpy", "weird \"name\"\\n",
                         "region:{a,b}", "MPI_Send"};
  ipm::live::Sample s;
  s.rank = small(rng);
  s.seq = rng() % 1000;
  s.t0 = uni(rng) * 3.0;
  s.t1 = s.t0 + uni(rng);  // arbitrary doubles; %.17g must round-trip
  s.final_flush = (rng() & 1) != 0;
  if ((rng() & 3) == 0) s.ddev_flops = uni(rng) * 1e12;
  if ((rng() & 3) == 0) s.ddev_bytes = uni(rng) * 1e9;
  const int nregions = small(rng);
  for (int i = 0; i < nregions; ++i) {
    s.regions.push_back(std::string("phase-") + std::to_string(i) +
                        ((rng() & 1) != 0 ? "\"q\"" : ""));
  }
  const int ndeltas = 1 + small(rng);
  for (int i = 0; i < ndeltas; ++i) {
    ipm::live::KeyDelta d;
    d.name_str = names[rng() % (sizeof names / sizeof names[0])];
    d.region = static_cast<std::uint32_t>(small(rng));
    d.select = static_cast<std::int32_t>(small(rng)) - 2;
    d.dcount = rng() % 100000;
    d.dbytes = rng() % (1u << 30);
    d.dtsum = uni(rng) * 10.0;
    if ((rng() & 3) == 0) d.dflops = uni(rng) * 1e9;
    s.deltas.push_back(std::move(d));
  }
  return s;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Optional fields (gf, gb, f) are omitted when zero, so -0.0 reads back
/// as +0.0; every other value must come back bit for bit.
bool same_optional(double written, double read) {
  return same_bits(written == 0.0 ? 0.0 : written, read);
}

void expect_samples_equal(const ipm::live::Sample& a, const ipm::live::Sample& b) {
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_TRUE(same_bits(a.t0, b.t0));  // %.17g round-trips IEEE doubles
  EXPECT_TRUE(same_bits(a.t1, b.t1));
  EXPECT_EQ(a.final_flush, b.final_flush);
  EXPECT_TRUE(same_optional(a.ddev_flops, b.ddev_flops));
  EXPECT_TRUE(same_optional(a.ddev_bytes, b.ddev_bytes));
  EXPECT_EQ(a.regions, b.regions);
  ASSERT_EQ(a.deltas.size(), b.deltas.size());
  for (std::size_t i = 0; i < a.deltas.size(); ++i) {
    const ipm::live::KeyDelta& x = a.deltas[i];
    const ipm::live::KeyDelta& y = b.deltas[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.name_str, y.name_str);
    EXPECT_EQ(x.region, y.region);
    EXPECT_EQ(x.select, y.select);
    EXPECT_EQ(x.dcount, y.dcount);
    EXPECT_EQ(x.dbytes, y.dbytes);
    EXPECT_TRUE(same_bits(x.dtsum, y.dtsum));
    EXPECT_TRUE(same_optional(x.dflops, y.dflops));
  }
}

/// Round-trip property: serialize -> fast parse AND serialize -> frame
/// encode -> decode -> fast parse both reproduce every field bit-exactly,
/// for randomized samples covering the serializer's whole surface.
TEST(Wire, SampleRoundTripProperty) {
  std::mt19937_64 rng(20260809u);
  for (int iter = 0; iter < 300; ++iter) {
    const ipm::live::Sample s = random_sample(rng);
    const std::string line = ipm::live::sample_line(s);

    ipm::live::Sample fast;
    ASSERT_TRUE(ipm::live::parse_sample_line(line, fast)) << line;
    expect_samples_equal(s, fast);

    Frame f;
    f.type = FrameType::kSample;
    f.rank = static_cast<std::uint32_t>(s.rank);
    f.epoch = s.seq + 1;
    f.job = "prop-job";
    f.payload = line;
    const std::string bytes = ipm::live::wire::encode(f);
    Decoder dec;
    dec.feed(bytes.data(), bytes.size());
    Frame out;
    ASSERT_TRUE(dec.next(out));
    EXPECT_EQ(out.payload, line);
    ipm::live::Sample wired;
    ASSERT_TRUE(ipm::live::parse_sample_line(out.payload, wired));
    expect_samples_equal(s, wired);
  }
}

// --- line formatting: byte identity with the printf reference -------------

using simx::strprintf;

std::string ref_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out += strprintf("\\u%04x", ch);
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// Reference sample_line: the "%.17g" printf formatting the JSONL and wire
/// format are defined by.
std::string ref_sample_line(const ipm::live::Sample& s) {
  std::string out = strprintf(
      "{\"type\":\"sample\",\"rank\":%d,\"seq\":%llu,\"t0\":%.17g,\"t1\":%.17g,"
      "\"final\":%d",
      s.rank, static_cast<unsigned long long>(s.seq), s.t0, s.t1,
      s.final_flush ? 1 : 0);
  if (s.ddev_flops != 0.0) out += strprintf(",\"gf\":%.17g", s.ddev_flops);
  if (s.ddev_bytes != 0.0) out += strprintf(",\"gb\":%.17g", s.ddev_bytes);
  out += ",\"regions\":[";
  for (std::size_t i = 0; i < s.regions.size(); ++i) {
    if (i != 0) out += ',';
    out += '"' + ref_escape(s.regions[i]) + '"';
  }
  out += "],\"deltas\":[";
  for (std::size_t i = 0; i < s.deltas.size(); ++i) {
    const ipm::live::KeyDelta& d = s.deltas[i];
    if (i != 0) out += ',';
    out += strprintf(
        "{\"n\":\"%s\",\"r\":%u,\"s\":%d,\"c\":%llu,\"b\":%llu,\"t\":%.17g",
        ref_escape(d.name_str).c_str(), d.region, d.select,
        static_cast<unsigned long long>(d.dcount),
        static_cast<unsigned long long>(d.dbytes), d.dtsum);
    if (d.dflops != 0.0) out += strprintf(",\"f\":%.17g", d.dflops);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string ref_point_line(const ipm::live::ClusterPoint& p) {
  std::string out = strprintf(
      "{\"type\":\"point\",\"k\":%llu,\"t0\":%.17g,\"t1\":%.17g,\"ranks\":%d,"
      "\"ranks_live\":%d,\"samples\":%llu,\"devents\":%llu,"
      "\"mpi_s\":%.17g,\"cuda_s\":%.17g,\"gpu_s\":%.17g,\"idle_s\":%.17g,"
      "\"blas_s\":%.17g,\"fft_s\":%.17g,\"mpi_bytes\":%llu,\"cuda_bytes\":%llu,"
      "\"flops\":%.17g",
      static_cast<unsigned long long>(p.k), p.t0, p.t1, p.ranks, p.ranks_live,
      static_cast<unsigned long long>(p.samples),
      static_cast<unsigned long long>(p.devents), p.mpi_s, p.cuda_s, p.gpu_s,
      p.idle_s, p.blas_s, p.fft_s, static_cast<unsigned long long>(p.mpi_bytes),
      static_cast<unsigned long long>(p.cuda_bytes), p.flops);
  if (p.dev_flops != 0.0) out += strprintf(",\"devflops\":%.17g", p.dev_flops);
  if (p.dev_bytes != 0.0) out += strprintf(",\"devbytes\":%.17g", p.dev_bytes);
  out += ",\"regions\":[";
  for (std::size_t i = 0; i < p.region_flops.size(); ++i) {
    if (i != 0) out += ',';
    out += strprintf("{\"name\":\"%s\",\"flops\":%.17g}",
                     ref_escape(p.region_flops[i].first).c_str(),
                     p.region_flops[i].second);
  }
  out += "]}";
  return out;
}

/// Doubles the formatter must handle: signed zeros, subnormals, the range
/// ends, the 1e15-1e22 band where "%.17g" switches notation, and infinities.
std::vector<double> edge_doubles() {
  std::vector<double> v = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           DBL_MIN * 0.5,
                           DBL_MIN,
                           DBL_MAX,
                           -DBL_MAX,
                           DBL_EPSILON,
                           1.0,
                           -1.0,
                           0.1,
                           1.0 / 3.0,
                           -2.5e-300,
                           123456789012345678.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (int e = 15; e <= 22; ++e) {
    const double p = std::pow(10.0, e);
    v.push_back(p);
    v.push_back(-p);
    v.push_back(std::nextafter(p, 0.0));
    v.push_back(std::nextafter(p, HUGE_VAL));
  }
  return v;
}

/// A double from uniformly random bits: every exponent and mantissa shape,
/// NaNs excluded unless `allow_nan` (their payload does not round-trip).
double random_bits_double(std::mt19937_64& rng, bool allow_nan) {
  for (;;) {
    const std::uint64_t bits = rng();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    if (allow_nan || !std::isnan(d)) return d;
  }
}

/// Sample whose every double comes from `next` and whose names and regions
/// need escaping (quotes, backslashes, control characters, high bytes).
template <class Next>
ipm::live::Sample awkward_sample(std::mt19937_64& rng, Next next) {
  static const char* const kNames[] = {
      "MPI_Allreduce",  "cudaMemcpy", "@CUDA_EXEC:k\"q\"", "tab\there",
      "ctl\x01\x1f\x7f", "back\\slash", "nl\nret\r",     "utf8 \xc3\xa9",
      "cublasDgemm[ERR=cublasStatusExecutionFailed]"};
  ipm::live::Sample s;
  s.rank = static_cast<int>(rng() % 7) - 3;
  s.seq = rng();
  s.t0 = next();
  s.t1 = next();
  s.final_flush = (rng() & 1) != 0;
  if ((rng() & 1) != 0) s.ddev_flops = next();
  if ((rng() & 1) != 0) s.ddev_bytes = next();
  const int nregions = static_cast<int>(rng() % 4);
  for (int i = 0; i < nregions; ++i) {
    s.regions.push_back(kNames[rng() % std::size(kNames)]);
  }
  const int ndeltas = static_cast<int>(rng() % 6);
  for (int i = 0; i < ndeltas; ++i) {
    ipm::live::KeyDelta d;
    d.name_str = kNames[rng() % std::size(kNames)];
    d.region = static_cast<std::uint32_t>(rng());
    d.select = static_cast<std::int32_t>(rng());
    d.dcount = rng();
    d.dbytes = rng();
    d.dtsum = next();
    if ((rng() & 1) != 0) d.dflops = next();
    s.deltas.push_back(std::move(d));
  }
  return s;
}

template <class Next>
ipm::live::ClusterPoint awkward_point(std::mt19937_64& rng, Next next) {
  ipm::live::ClusterPoint p;
  p.k = rng();
  p.t0 = next();
  p.t1 = next();
  p.ranks = static_cast<int>(rng());
  p.ranks_live = static_cast<int>(rng());
  p.samples = rng();
  p.devents = rng();
  p.mpi_s = next();
  p.cuda_s = next();
  p.gpu_s = next();
  p.idle_s = next();
  p.blas_s = next();
  p.fft_s = next();
  p.mpi_bytes = rng();
  p.cuda_bytes = rng();
  p.flops = next();
  if ((rng() & 1) != 0) p.dev_flops = next();
  if ((rng() & 1) != 0) p.dev_bytes = next();
  const int nregions = static_cast<int>(rng() % 4);
  for (int i = 0; i < nregions; ++i) {
    p.region_flops.emplace_back(i % 2 == 0 ? "ipm_global" : "a\"b\\\x02", next());
  }
  return p;
}

TEST(LineFormat, MatchesPrintfReferenceOnRandomBitPatterns) {
  std::mt19937_64 rng(20261017u);
  const auto next = [&rng] { return random_bits_double(rng, /*allow_nan=*/true); };
  for (int iter = 0; iter < 2000; ++iter) {
    const ipm::live::Sample s = awkward_sample(rng, next);
    ASSERT_EQ(ipm::live::sample_line(s), ref_sample_line(s));
    const ipm::live::ClusterPoint p = awkward_point(rng, next);
    ASSERT_EQ(ipm::live::point_line(p), ref_point_line(p));
  }
  for (int iter = 0; iter < 200000; ++iter) {
    ipm::live::Sample s;
    s.t0 = next();
    ASSERT_EQ(ipm::live::sample_line(s), ref_sample_line(s));
  }
}

TEST(LineFormat, MatchesPrintfReferenceOnEdgeValues) {
  const std::vector<double> edges = edge_doubles();
  std::mt19937_64 rng(7u);
  std::size_t i = 0;
  const auto next = [&] { return edges[i++ % edges.size()]; };
  for (std::size_t iter = 0; iter < 4 * edges.size(); ++iter) {
    ipm::live::Sample s = awkward_sample(rng, next);
    s.rank = iter % 2 == 0 ? std::numeric_limits<int>::min()
                           : std::numeric_limits<int>::max();
    s.seq = std::numeric_limits<std::uint64_t>::max();
    ASSERT_EQ(ipm::live::sample_line(s), ref_sample_line(s));
    const ipm::live::ClusterPoint p = awkward_point(rng, next);
    ASSERT_EQ(ipm::live::point_line(p), ref_point_line(p));
  }
  for (const double d : edges) {
    ipm::live::ClusterPoint p;
    p.flops = d;
    p.dev_flops = d;
    p.region_flops.emplace_back("r", d);
    ASSERT_EQ(ipm::live::point_line(p), ref_point_line(p)) << d;
  }
  EXPECT_EQ(ipm::live::timeseries_header_line("./a \"b\"\x03", 0.1),
            strprintf("{\"ipm_timeseries\":1,\"command\":\"%s\",\"interval\":%.17g}",
                      ref_escape("./a \"b\"\x03").c_str(), 0.1));
  EXPECT_EQ(ipm::live::end_line(std::numeric_limits<std::uint64_t>::max()),
            "{\"type\":\"end\",\"intervals\":18446744073709551615}");
}

TEST(LineFormat, SampleLinesRoundTripBitExactly) {
  std::mt19937_64 rng(99u);
  const std::vector<double> edges = edge_doubles();
  std::size_t i = 0;
  const auto random = [&rng] { return random_bits_double(rng, /*allow_nan=*/false); };
  const auto edge = [&] { return edges[i++ % edges.size()]; };
  for (int iter = 0; iter < 2000; ++iter) {
    const ipm::live::Sample s =
        iter % 4 == 0 ? awkward_sample(rng, edge) : awkward_sample(rng, random);
    const std::string line = ipm::live::sample_line(s);
    ipm::live::Sample back;
    ASSERT_TRUE(ipm::live::parse_sample_line(line, back)) << line;
    expect_samples_equal(s, back);
  }
}

/// Parsing into a Sample that already holds a longer line (the daemon's
/// per-worker scratch) must give exactly what a fresh parse gives.
TEST(LineFormat, ParseIntoUsedSampleMatchesFreshParse) {
  std::mt19937_64 rng(5u);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const auto next = [&] { return uni(rng); };
  ipm::live::Sample long_s = awkward_sample(rng, next);
  long_s.final_flush = true;
  long_s.ddev_flops = 1.5e12;
  long_s.ddev_bytes = 2.5e9;
  long_s.regions = {"ipm_global", "solve", "halo \"x\""};
  while (long_s.deltas.size() < 6) long_s.deltas.emplace_back();
  for (ipm::live::KeyDelta& d : long_s.deltas) {
    d.name_str = "a_rather_long_kernel_name_that_defeats_small_strings";
    d.dflops = 3.0;
  }
  ipm::live::Sample short_s;
  short_s.rank = 1;
  short_s.seq = 2;
  short_s.t0 = 0.5;
  short_s.t1 = 0.75;
  ipm::live::KeyDelta d;
  d.name_str = "MPI_Send";
  d.dcount = 4;
  d.dtsum = 0.125;
  short_s.deltas.push_back(d);
  for (const ipm::live::Sample& shorter :
       {short_s, ipm::live::Sample{}, awkward_sample(rng, next)}) {
    const std::string line = ipm::live::sample_line(shorter);
    ipm::live::Sample fresh;
    ASSERT_TRUE(ipm::live::parse_sample_line(line, fresh));
    ipm::live::Sample reused;
    ASSERT_TRUE(ipm::live::parse_sample_line(ipm::live::sample_line(long_s), reused));
    reused.deltas.front().name = 42;  // as if interned in-process
    ASSERT_TRUE(ipm::live::parse_sample_line(line, reused));
    expect_samples_equal(fresh, reused);
    EXPECT_EQ(ipm::live::sample_line(reused), line);
  }
  // A malformed line is still rejected after a good one filled the target.
  std::string bad = ipm::live::sample_line(short_s);
  ipm::live::Sample reused;
  ASSERT_TRUE(ipm::live::parse_sample_line(ipm::live::sample_line(long_s), reused));
  EXPECT_FALSE(ipm::live::parse_sample_line(bad.substr(0, bad.size() - 3), reused));
  bad.replace(bad.find("\"t\":"), 4, "\"t\":x");
  EXPECT_FALSE(ipm::live::parse_sample_line(bad, reused));
  EXPECT_FALSE(ipm::live::parse_sample_line("", reused));
}

/// A valid multi-frame stream for the mutator: hello + samples + fin + end.
std::string build_stream(std::mt19937_64& rng, std::vector<Frame>& frames) {
  frames.clear();
  Frame h;
  h.type = FrameType::kHello;
  h.job = "fuzz-job";
  h.payload = ipm::live::wire::hello_payload("./fuzz", 0.5);
  frames.push_back(h);
  const int nsamples = 2 + static_cast<int>(rng() % 4);
  for (int i = 0; i < nsamples; ++i) {
    const ipm::live::Sample s = random_sample(rng);
    Frame f;
    f.type = FrameType::kSample;
    f.rank = static_cast<std::uint32_t>(s.rank);
    f.epoch = static_cast<std::uint64_t>(i) + 1;
    f.job = "fuzz-job";
    f.payload = ipm::live::sample_line(s);
    frames.push_back(f);
  }
  Frame fin;
  fin.type = FrameType::kRankFin;
  fin.job = "fuzz-job";
  fin.epoch = static_cast<std::uint64_t>(nsamples);
  frames.push_back(fin);
  Frame end;
  end.type = FrameType::kJobEnd;
  end.job = "fuzz-job";
  frames.push_back(end);
  std::string stream;
  for (const Frame& f : frames) stream += ipm::live::wire::encode(f);
  return stream;
}

/// Feed `bytes` to `dec` in random chunks, collecting every decoded frame.
/// Verifies the poisoned-decoder contract along the way: once error() is
/// set, next() never yields again.
std::vector<Frame> drain_chunked(Decoder& dec, const std::string& bytes,
                                 std::mt19937_64& rng) {
  std::vector<Frame> out;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t n =
        std::min(bytes.size() - off, static_cast<std::size_t>(1 + rng() % 37));
    dec.feed(bytes.data() + off, n);
    off += n;
    Frame f;
    while (dec.next(f)) {
      EXPECT_TRUE(dec.error().empty()) << "frame yielded after poisoning";
      out.push_back(f);
    }
  }
  if (!dec.error().empty()) {
    Frame f;
    EXPECT_FALSE(dec.next(f)) << "poisoned decoder must stay poisoned";
  }
  return out;
}

/// Interleaved partial writes of a VALID stream (arbitrary chunk
/// boundaries) must reproduce every frame exactly — the reassembly
/// property chaos-killed clients rely on.
TEST(Wire, FuzzChunkedReassemblyLossless) {
  std::mt19937_64 rng(1u);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<Frame> frames;
    const std::string stream = build_stream(rng, frames);
    Decoder dec;
    const std::vector<Frame> got = drain_chunked(dec, stream, rng);
    EXPECT_TRUE(dec.error().empty());
    EXPECT_EQ(dec.pending(), 0u);
    ASSERT_EQ(got.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(got[i].type, frames[i].type);
      EXPECT_EQ(got[i].rank, frames[i].rank);
      EXPECT_EQ(got[i].epoch, frames[i].epoch);
      EXPECT_EQ(got[i].job, frames[i].job);
      EXPECT_EQ(got[i].payload, frames[i].payload);
    }
  }
}

/// Truncation at every possible byte offset: the decoder yields exactly the
/// complete frame prefix, never poisons, and reports the cut as pending
/// bytes (the daemon's EOF handler turns that into a protocol error).
TEST(Wire, FuzzTruncationYieldsOnlyCompletePrefix) {
  std::mt19937_64 rng(2u);
  std::vector<Frame> frames;
  const std::string stream = build_stream(rng, frames);
  // Frame boundaries for the prefix-count oracle.
  std::vector<std::size_t> ends;
  {
    std::size_t off = 0;
    for (const Frame& f : frames) {
      off += ipm::live::wire::encode(f).size();
      ends.push_back(off);
    }
  }
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    Decoder dec;
    dec.feed(stream.data(), cut);
    std::size_t want = 0;
    while (want < ends.size() && ends[want] <= cut) ++want;
    Frame f;
    std::size_t got = 0;
    while (dec.next(f)) ++got;
    EXPECT_EQ(got, want) << "cut at " << cut;
    EXPECT_TRUE(dec.error().empty()) << "cut at " << cut;
    EXPECT_EQ(dec.pending() > 0, cut != (want < ends.size() ? 0 : ends.back()) &&
                                     (want == 0 ? cut > 0 : cut > ends[want - 1]))
        << "cut at " << cut;
  }
}

/// Seeded mutator: length-field lies, type flips, version skew, and random
/// bit flips.  The decoder must never crash, never yield a frame after
/// poisoning, never yield an out-of-contract frame (oversized job id), and
/// must reject length lies that escape the frame bounds.
TEST(Wire, FuzzMutatedStreamsNeverYieldMalformedFrames) {
  std::mt19937_64 rng(3u);
  int poisoned = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<Frame> frames;
    std::string stream = build_stream(rng, frames);
    const int mode = static_cast<int>(rng() % 4);
    const std::size_t pos = rng() % stream.size();
    switch (mode) {
      case 0: {  // length-field lie on the first frame
        std::uint32_t lie;
        switch (rng() % 3) {
          case 0: lie = ipm::live::wire::kMaxFrameLen + 1 + static_cast<std::uint32_t>(rng() % 1000); break;
          case 1: lie = static_cast<std::uint32_t>(rng() % 8); break;  // < header
          default: lie = static_cast<std::uint32_t>(rng() % stream.size()); break;
        }
        std::memcpy(stream.data(), &lie, sizeof lie);
        break;
      }
      case 1:  // type flip to a random byte at a frame's type offset
        stream[5] = static_cast<char>(rng() & 0xff);
        break;
      case 2:  // version skew
        stream[4] = static_cast<char>(1 + rng() % 254);
        break;
      default:  // arbitrary bit flip anywhere
        stream[pos] = static_cast<char>(stream[pos] ^ (1 << (rng() % 8)));
        break;
    }
    Decoder dec;
    const std::vector<Frame> got = drain_chunked(dec, stream, rng);
    if (!dec.error().empty()) ++poisoned;
    EXPECT_LE(got.size(), frames.size() + 4);  // a lie can resync mid-bytes,
                                               // but never invents many frames
    for (const Frame& f : got) {
      EXPECT_LE(f.job.size(), ipm::live::wire::kMaxJobLen);
      EXPECT_LE(f.payload.size(), ipm::live::wire::kMaxFrameLen);
    }
  }
  // The mutator must actually exercise the poison path, not just no-ops.
  EXPECT_GT(poisoned, 100);
}

}  // namespace
