// The run-directory readers (obs/readers.hpp), called in-process.
//
// Readers trust the arrays a document holds, not its header counts: a
// metrics.json claiming 100,000 ranks over empty arrays prints no rank rows,
// header numbers no integer holds are diagnostics, and a Perfetto rank
// outside the export's lanes is a diagnostic, not the Tracer's abort. The
// Perfetto export draws one arrow per leg of each msgtrace.json message.
//
// ReaderMutations applies a fixed, seeded set of mutations to a real small
// run directory (a profiled NA stencil with every recorder on) and to a
// crash directory ($NARMA_CRASH_DIR of a fail-stop run that deadlocks):
// truncation at every structural boundary, byte flips (invalid UTF-8
// among them), out-of-range numbers, nesting past json::kMaxNesting, a
// wrong schema and wrong member types. Every case must end in a report or
// a returned diagnostic; an abort or undefined behaviour (under the
// sanitizer build) fails the suite. msgtrace.json cases run through
// `critpath` and through `timeline --perfetto`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "apps/pingpong.hpp"
#include "apps/stencil.hpp"
#include "common/json.hpp"
#include "core/world.hpp"
#include "obs/readers.hpp"

using namespace narma;

namespace {

namespace fs = std::filesystem;

/// A fresh, empty directory under the test temp dir.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Replaces the contents of `path`, rewriting the file in place: opening
/// with truncation costs more here than the parse a mutation case runs.
void put(const std::string& path, const std::string& text) {
  if (!fs::exists(path)) std::ofstream(path, std::ios::binary);
  std::fstream(path, std::ios::binary | std::ios::in | std::ios::out) << text;
  fs::resize_file(path, text.size());
}

/// A reader's result and everything it printed.
struct Outcome {
  obs::ReadResult result;
  std::string out;
};

Outcome capture(
    const std::function<obs::ReadResult(std::FILE*)>& reader) {
  std::FILE* f = std::tmpfile();
  Outcome o{reader(f), {}};
  std::rewind(f);
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
    o.out.append(buf, n);
  std::fclose(f);
  return o;
}

Outcome report(const std::string& dir) {
  return capture([&](std::FILE* f) { return obs::report(dir, {}, f); });
}
Outcome critpath(const std::string& dir) {
  return capture([&](std::FILE* f) { return obs::critpath(dir, {}, f); });
}
Outcome timeline(const std::string& dir, const std::string& perfetto = "") {
  obs::ReadOptions opt;
  opt.perfetto = perfetto;
  return capture([&](std::FILE* f) { return obs::timeline(dir, opt, f); });
}

std::size_t count(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (auto p = hay.find(needle); p != std::string::npos;
       p = hay.find(needle, p + 1))
    ++n;
  return n;
}

// --- header counts and document numbers -------------------------------------

TEST(Readers, ReportRowsFollowTheArraysNotNranks) {
  const std::string dir = fresh_dir("readers_nranks");
  put(dir + "/metrics.json",
      R"({"schema":"narma.metrics.v1","nranks":100000,"metrics":[)"
      R"({"name":"sim.busy_ns","kind":"gauge","per_rank":[]},)"
      R"({"name":"sim.total_ns","kind":"gauge","per_rank":[]}]})");
  const Outcome empty = report(dir);
  EXPECT_EQ(empty.result.status, obs::ReadStatus::kOk);
  EXPECT_LT(empty.out.size(), 400u) << empty.out;
  EXPECT_NE(empty.out.find("busy_frac"), std::string::npos);

  // Two cells under the same header: two rows, whatever nranks says.
  put(dir + "/metrics.json",
      R"({"schema":"narma.metrics.v1","nranks":100000,"metrics":[)"
      R"({"name":"sim.busy_ns","kind":"gauge",)"
      R"("per_rank":[{"value":1e6},{"value":2e6}]},)"
      R"({"name":"sim.total_ns","kind":"gauge","per_rank":[{"value":4e6}]}]})");
  const Outcome two = report(dir);
  EXPECT_EQ(two.result.status, obs::ReadStatus::kOk);
  EXPECT_EQ(count(two.out, "\n0 "), 1u) << two.out;
  EXPECT_EQ(count(two.out, "\n1 "), 1u) << two.out;
  EXPECT_EQ(count(two.out, "\n2 "), 0u) << two.out;
}

TEST(Readers, HeaderNumbersNoIntHoldsAreDiagnostics) {
  for (const char* n : {"1e300", "1e999", "-1e999", "1e10", "-3e9"}) {
    const std::string dir = fresh_dir("readers_header");
    put(dir + "/msgtrace.json",
        std::string(R"({"schema":"narma.msgtrace.v1","nranks":)") + n +
            R"(,"messages":[],"critical_path":{}})");
    put(dir + "/timeseries.json",
        std::string(R"({"schema":"narma.timeseries.v1","nranks":)") + n +
            R"(,"families":[],"windows":[]})");
    for (const Outcome& o : {critpath(dir), timeline(dir)}) {
      EXPECT_EQ(o.result.status, obs::ReadStatus::kFailed) << n;
      EXPECT_NE(o.result.diagnostic.find(dir), std::string::npos)
          << n << ": " << o.result.diagnostic;
      EXPECT_TRUE(o.result.diagnostic.find("nranks") != std::string::npos ||
                  o.result.diagnostic.find("2^64") != std::string::npos)
          << n << ": " << o.result.diagnostic;
    }
  }
}

TEST(Readers, PerfettoLanesAreTheRanksTheWindowsName) {
  const std::string dir = fresh_dir("readers_perfetto");
  const std::string perfetto = dir + "/perfetto.json";
  auto doc = [](const std::string& rank, const std::string& family) {
    return R"({"schema":"narma.timeseries.v1","nranks":100000,)"
           R"("families":[{"name":"net.puts","kind":"counter"}],)"
           R"("windows":[{"t_begin_ps":0,"t_end_ps":2000000,"ranks":[)"
           R"({"rank":3,"total_ps":10,"busy_ps":5}],"cells":[{"family":)" +
           family + R"(,"rank":)" + rank + R"(,"delta":7}]}]})";
  };
  // Header of 100,000 ranks, ranks 3 and 5 named: six lanes, not 100,000.
  put(dir + "/timeseries.json", doc("5", "0"));
  Outcome ok = timeline(dir, perfetto);
  ASSERT_EQ(ok.result.status, obs::ReadStatus::kOk) << ok.result.diagnostic;
  const json::ParseResult written = json::parse_file(perfetto);
  ASSERT_TRUE(written.ok) << written.error;
  EXPECT_EQ(count(slurp(perfetto), "\"thread_name\""), 6u);
  EXPECT_EQ(count(slurp(perfetto), "\"ts.net.puts\""), 1u);

  // A cell naming a family past the list exports under "?", as the tables
  // skip it.
  put(dir + "/timeseries.json", doc("5", "9"));
  ok = timeline(dir, perfetto);
  EXPECT_EQ(ok.result.status, obs::ReadStatus::kOk) << ok.result.diagnostic;
  EXPECT_EQ(count(slurp(perfetto), "\"ts.?\""), 1u);

  // Ranks outside the lanes the export can have are diagnostics.
  for (const char* rank : {"-1", "100000", "2000000", "1e19"}) {
    put(dir + "/timeseries.json", doc(rank, "0"));
    const Outcome bad = timeline(dir, perfetto);
    EXPECT_EQ(bad.result.status, obs::ReadStatus::kFailed) << rank;
    EXPECT_NE(bad.result.diagnostic.find("rank"), std::string::npos)
        << rank << ": " << bad.result.diagnostic;
  }
  put(dir + "/timeseries.json", doc("1", "-2"));
  EXPECT_EQ(timeline(dir, perfetto).result.status, obs::ReadStatus::kFailed);
}

TEST(Readers, PerfettoWithNeitherFileIsAUsageError) {
  const std::string dir = fresh_dir("readers_usage");
  put(dir + "/journal.json",
      R"({"schema":"narma.journal.v1","records":[]})");
  const Outcome o = timeline(dir, dir + "/perfetto.json");
  EXPECT_EQ(o.result.status, obs::ReadStatus::kUsage);
  EXPECT_NE(o.result.diagnostic.find("--perfetto needs"), std::string::npos);
  EXPECT_FALSE(fs::exists(dir + "/perfetto.json"));
}

// --- the Perfetto arrows -----------------------------------------------------

/// An arrow of a Chrome trace: (from tid, to tid, begin ps, end ps, id).
using Arrow = std::tuple<long long, long long, long long, long long,
                         std::int64_t>;

/// The arrows of a rendered trace, each flow start paired with the end of
/// the same id that follows it in time (ids repeat across a message's legs).
std::multiset<Arrow> rendered_arrows(const json::Value& doc) {
  std::map<std::int64_t, std::vector<const json::Value*>> starts, ends;
  for (const json::Value& e : doc["traceEvents"].as_array()) {
    const std::string ph = e.string_or("ph", "");
    if (ph == "s") starts[e["id"].as_int()].push_back(&e);
    if (ph == "f") ends[e["id"].as_int()].push_back(&e);
  }
  auto ps = [](const json::Value* e) {
    return std::llround(e->number_or("ts", 0) * 1e6);
  };
  std::multiset<Arrow> out;
  for (auto& [id, ss] : starts) {
    std::vector<const json::Value*>& fs = ends[id];
    auto by_time = [&](const json::Value* a, const json::Value* b) {
      return ps(a) < ps(b);
    };
    std::sort(ss.begin(), ss.end(), by_time);
    std::sort(fs.begin(), fs.end(), by_time);
    EXPECT_EQ(ss.size(), fs.size()) << "flow id " << id;
    for (std::size_t i = 0; i < std::min(ss.size(), fs.size()); ++i)
      out.insert({ss[i]->number_or("tid", -1), fs[i]->number_or("tid", -1),
                  ps(ss[i]), ps(fs[i]), id});
  }
  return out;
}

/// The legs of one msgtrace.json message, by the rule the export documents:
/// a leg runs from a chan_start to the next deliver, and departs at the
/// last issue or match_hit its rank recorded between the previous leg and
/// the chan_start, else at the chan_start.
std::vector<Arrow> legs_of(const json::Value& m) {
  const json::Array& hops = m["hops"].as_array();
  const auto id = static_cast<std::int64_t>(m.number_or("flow_id", 0));
  auto num = [](const json::Value& h, const char* key) {
    return static_cast<long long>(h.number_or(key, -1));
  };
  std::vector<Arrow> out;
  std::size_t after = 0;  // first hop past the previous leg's chan_start
  for (std::size_t c = 0; c < hops.size(); ++c) {
    if (hops[c].string_or("kind", "") != "chan_start") continue;
    const long long rank = num(hops[c], "rank"), t = num(hops[c], "t_ps");
    long long begin = t;
    for (std::size_t i = after; i < c; ++i) {
      const std::string kind = hops[i].string_or("kind", "");
      if ((kind == "issue" || kind == "match_hit") &&
          num(hops[i], "rank") == rank)
        begin = num(hops[i], "t_ps");
    }
    after = c + 1;
    for (std::size_t d = c + 1; d < hops.size(); ++d) {
      const std::string kind = hops[d].string_or("kind", "");
      if (kind == "chan_start") break;
      if (kind != "deliver") continue;
      out.push_back({rank, num(hops[d], "rank"), begin, num(hops[d], "t_ps"),
                     id});
      break;
    }
  }
  return out;
}

/// Renders run directory `dir` with `timeline --perfetto` and expects its
/// arrows to be exactly the legs of its msgtrace.json; `legs_per_msg` gets
/// each message's leg count, by op.
void expect_arrows_are_legs(
    const std::string& dir,
    std::map<std::string, std::vector<std::size_t>>* legs_per_msg) {
  const std::string perfetto = dir + "/perfetto.json";
  const Outcome o = timeline(dir, perfetto);
  ASSERT_EQ(o.result.status, obs::ReadStatus::kOk) << o.result.diagnostic;
  EXPECT_NE(o.out.find("wrote Perfetto trace to " + perfetto),
            std::string::npos)
      << o.out;

  const json::ParseResult mt = json::parse_file(dir + "/msgtrace.json");
  const json::ParseResult rendered = json::parse_file(perfetto);
  ASSERT_TRUE(mt.ok) << mt.error;
  ASSERT_TRUE(rendered.ok) << rendered.error;
  std::multiset<Arrow> legs;
  for (const json::Value& m : mt.value["messages"].as_array()) {
    const std::vector<Arrow> l = legs_of(m);
    legs.insert(l.begin(), l.end());
    (*legs_per_msg)[m.string_or("op", "?")].push_back(l.size());
  }
  EXPECT_EQ(rendered_arrows(rendered.value), legs);
}

// A 2-rank run of every message shape the paper's schemes put on the wire:
// a notified put, an eager send, a rendezvous send (RTS, CTS and data legs)
// and a PSCW epoch (post and complete). Its rendered arrows are exactly the
// legs of its msgtrace.json.
TEST(Readers, PerfettoArrowsAreTheMsgtraceLegs) {
  const std::string dir = fresh_dir("readers_arrows");
  WorldParams wp;
  wp.obs.msgtrace = true;
  World world(2, wp);
  world.run([](Rank& self) {
    auto win = self.win_allocate(64, 1);
    const int peer = 1 - self.id();
    std::vector<double> big(4096, 1.0);  // 32 KiB: past the eager threshold
    double v = 1.0;
    if (self.id() == 0) {
      self.na().put_notify(*win, na::as_bytes(&v, 8), 1, 0, 3);
      win->flush(1);
      self.send(&v, 8, 1, 4);
      self.send(big.data(), big.size() * 8, 1, 5);
      win->start(std::span<const int>(&peer, 1));
      win->put(&v, 8, peer, 0);
      win->complete();
    } else {
      auto req = self.na().notify_init(*win, na::MatchSpec{0, 3}, 1);
      self.na().start(req);
      self.na().wait(req);
      self.na().free(req);
      self.recv(&v, 8, 0, 4);
      self.recv(big.data(), big.size() * 8, 0, 5);
      win->post(std::span<const int>(&peer, 1));
      win->wait();
    }
  });
  ASSERT_EQ(world.write_artifacts(dir), "");
  std::map<std::string, std::vector<std::size_t>> legs_per_msg;
  ASSERT_NO_FATAL_FAILURE(expect_arrows_are_legs(dir, &legs_per_msg));

  // One leg per one-way message, three for the rendezvous (RTS, CTS, data).
  auto distinct = [&](const char* op) {
    const std::vector<std::size_t>& v = legs_per_msg[op];
    return std::set<std::size_t>(v.begin(), v.end());
  };
  const std::set<std::size_t> one{1}, three{3};
  EXPECT_EQ(distinct("put_notify"), one);
  EXPECT_EQ(distinct("put"), one);
  EXPECT_EQ(distinct("pscw_sync"), one);
  EXPECT_EQ(distinct("rdzv_send"), three);
  EXPECT_TRUE(distinct("eager_send").count(1));
}

// A non-inline intra-node put_notify moves its payload with a put on the
// shm channel, then sends the notification behind it. Both are messages on
// the wire, so a 64-byte intra-node ping-pong draws two arrows per
// put_notify: the data put's and the notification's, each one leg.
TEST(Readers, PerfettoDrawsIntranodePutNotifyDataLegs) {
  const std::string dir = fresh_dir("readers_intranode");
  WorldParams wp;
  wp.obs.msgtrace = true;
  wp.fabric.ranks_per_node = 2;
  apps::PingPongConfig cfg;
  cfg.bytes = 64;  // past the inline capacity of a ring entry
  cfg.scheme = apps::PingPongScheme::kNotifiedPut;
  World world(2, wp);
  world.run([&](Rank& self) { apps::run_pingpong(self, cfg); });
  ASSERT_EQ(world.write_artifacts(dir), "");
  std::map<std::string, std::vector<std::size_t>> legs_per_msg;
  ASSERT_NO_FATAL_FAILURE(expect_arrows_are_legs(dir, &legs_per_msg));

  const std::vector<std::size_t> each_one(2 * (cfg.reps + 3), 1);
  EXPECT_EQ(legs_per_msg["put_notify"], each_one);
  EXPECT_EQ(legs_per_msg["put"], each_one);
}

// --- the residual table ------------------------------------------------------

/// A channel stage of 3108 ps.
constexpr const char* kSlowDecomp =
    R"("chan_queue":0,"gap":100,"ser":8,"wire":3000)";

/// A two-window timeseries.json and a one-message msgtrace.json whose FMA
/// lane (L 1000 ps, g 100 ps, G 1 ps/B) carried 8 bytes ending at
/// `t_end`: a 1108 ps floor. `lane`, `decomp` and `ends` replace parts.
void put_residual_dir(const std::string& dir, const std::string& lane = "fma",
                      const std::string& decomp = kSlowDecomp,
                      const std::string& t_end = "150",
                      const std::string& ends = "100,200") {
  const auto comma = ends.find(',');
  put(dir + "/timeseries.json",
      R"({"schema":"narma.timeseries.v1","nranks":2,"families":[],)"
      R"("windows":[{"t_end_ps":)" + ends.substr(0, comma) +
          R"(},{"t_end_ps":)" + ends.substr(comma + 1) + "}]}");
  put(dir + "/msgtrace.json",
      R"({"schema":"narma.msgtrace.v1","nranks":2,"lanes":[)"
      R"({"name":"shm","L_ps":250,"g_ps":5,"G_ps_per_byte":0.5},)"
      R"({"name":"fma","L_ps":1000,"g_ps":100,"G_ps_per_byte":1}],)"
      R"("messages":[{"src":0,"dst":1,"bytes":8,"complete":true,"lane":")" +
          lane + R"(","t_end_ps":)" + t_end + R"(,"decomp_ps":{)" + decomp +
          "}}]}");
}

TEST(Readers, ResidualRowsComeFromTheLanesTable) {
  const std::string dir = fresh_dir("readers_residual");
  put_residual_dir(dir);
  Outcome o = timeline(dir);
  ASSERT_EQ(o.result.status, obs::ReadStatus::kOk) << o.result.diagnostic;
  // 3108 ps measured over a 1108 ps floor: flagged, in the window ending
  // after 150 ps.
  EXPECT_NE(o.out.find("\n1         aries     1     1.108        2.000"),
            std::string::npos)
      << o.out;
  EXPECT_NE(o.out.find("FLAGGED"), std::string::npos);
  EXPECT_NE(o.out.find("aries: mean residual 2000 ps over model 1108 ps (1 "
                       "msgs)"),
            std::string::npos)
      << o.out;
  // A message ending at or past the last window's end lands in it.
  put_residual_dir(dir, "fma", kSlowDecomp, "900");
  o = timeline(dir);
  EXPECT_NE(o.out.find("\n1         aries"), std::string::npos) << o.out;
  // The shm lane is the shm backend.
  put_residual_dir(dir, "shm", R"("chan_queue":0,"gap":5,"ser":4,"wire":250)");
  o = timeline(dir);
  EXPECT_NE(o.out.find("\n1           shm     1     0.259        0.000"),
            std::string::npos)
      << o.out;
  EXPECT_NE(o.out.find("anomalies: none"), std::string::npos) << o.out;
}

TEST(Readers, MalformedResidualInputsAreDiagnostics) {
  const std::string dir = fresh_dir("readers_residual_bad");
  auto diagnostic = [&] {
    const Outcome o = timeline(dir);
    EXPECT_EQ(o.result.status, obs::ReadStatus::kFailed) << o.out;
    return o.result.diagnostic;
  };
  put_residual_dir(dir, "bte");
  EXPECT_NE(diagnostic().find("lane 'bte' is not in the lanes table"),
            std::string::npos);
  put_residual_dir(dir, "fma", R"("chan_queue":0,"gap":100,"ser":8)");
  EXPECT_NE(diagnostic().find("wire: missing"), std::string::npos);
  put_residual_dir(dir, "fma", R"("chan_queue":0,"gap":100,"ser":8,"wire":-1)");
  EXPECT_NE(diagnostic().find("wire: -1 is not an integer"), std::string::npos);
  put_residual_dir(dir, "fma", kSlowDecomp, "150", "200,100");
  EXPECT_NE(diagnostic().find("window 1 ends before"), std::string::npos);
}

// --- seeded mutations over real run directories -----------------------------

/// The profiled NA stencil with every recorder on, small enough that one
/// parse of each file costs microseconds; faults fill the journal.
std::string run_directory() {
  const std::string dir = fresh_dir("readers_run");
  WorldParams wp;
  wp.obs.msgtrace = wp.obs.timeseries = true;
  wp.obs.timeseries_window_ps = us(2);
  wp.fabric.faults.seed = 7;
  wp.fabric.faults.drop_rate = 0.05;
  wp.fabric.faults.delay_rate = 0.1;
  World world(2, wp);
  world.enable_profiling();
  apps::StencilConfig cfg;
  cfg.rows = 4;
  cfg.total_cols = 4;
  cfg.iters = 2;
  world.run([&](Rank& self) { apps::run_stencil(self, cfg); });
  EXPECT_EQ(world.write_artifacts(dir), "");
  return dir;
}

/// The crash hook's run directory: a no-recover fail-stop deadlocks, and
/// the dying process leaves metrics.json and journal.json behind.
std::string crash_directory() {
  const std::string dir = fresh_dir("readers_crash");
  setenv("NARMA_CRASH_DIR", dir.c_str(), 1);
  EXPECT_DEATH(
      {
        WorldParams wp;
        wp.fabric.faults.fail_rate = 1.0;
        apps::StencilConfig cfg;
        cfg.rows = 8;
        cfg.total_cols = 32;
        cfg.iters = 4;
        cfg.ft.enabled = true;
        cfg.ft.recover = false;
        World world(4, wp);
        world.run([&](Rank& self) { apps::run_stencil(self, cfg); });
      },
      "simulation deadlock");
  unsetenv("NARMA_CRASH_DIR");
  return dir;
}

/// Where the lexical pieces of a (well-formed) JSON text are.
struct Lexed {
  std::vector<std::size_t> structural;                  // {}[],: offsets
  std::vector<std::pair<std::size_t, std::size_t>> numbers;  // [begin, end)
  std::vector<std::pair<std::string, std::size_t>> keys;  // key, value start
};

Lexed lex(const std::string& s) {
  Lexed lx;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"') {
      const std::size_t begin = ++i;
      while (i < s.size() && s[i] != '"') i += s[i] == '\\' ? 2 : 1;
      if (i + 1 < s.size() && s[i + 1] == ':')
        lx.keys.push_back({s.substr(begin, i - begin), i + 2});
    } else if (std::string_view("{}[],:").find(c) != std::string_view::npos) {
      lx.structural.push_back(i);
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      const std::size_t begin = i;
      while (i + 1 < s.size() &&
             std::string_view("0123456789+-.eE").find(s[i + 1]) !=
                 std::string_view::npos)
        ++i;
      lx.numbers.push_back({begin, i + 1});
    }
  }
  return lx;
}

/// End of the JSON value that starts at `i`.
std::size_t value_end(const std::string& s, std::size_t i) {
  int depth = 0;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"') {
      for (++i; i < s.size() && s[i] != '"'; i += s[i] == '\\' ? 2 : 1) {
      }
      if (depth == 0) return i + 1;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}') {
      if (depth == 0) return i;
      if (--depth == 0) return i + 1;
    } else if (c == ',' && depth == 0) {
      return i;
    }
  }
  return i;
}

/// The fixed mutation set of one file's text, drawn from `rng`; the
/// truncations come first, `*truncations` of them.
std::vector<std::string> mutations(const std::string& text,
                                   std::mt19937_64& rng,
                                   std::size_t* truncations) {
  const Lexed lx = lex(text);
  std::vector<std::string> out;
  // Truncation at every structural boundary.
  out.push_back("");
  for (std::size_t i : lx.structural) out.push_back(text.substr(0, i + 1));
  *truncations = out.size();
  // Byte flips: one bit, and bytes no UTF-8 sequence may hold where they
  // land (0xFF, a lone continuation byte, a lead byte without its tail,
  // a surrogate lead).
  constexpr unsigned char kBad[] = {0xFF, 0x80, 0xC3, 0xED};
  for (int k = 0; k < 64; ++k) {
    std::string t = text;
    const std::size_t at = rng() % t.size();
    t[at] = k % 2 ? static_cast<char>(t[at] ^ (1 << (rng() % 8)))
                  : static_cast<char>(kBad[rng() % 4]);
    out.push_back(std::move(t));
  }
  // Out-of-range numbers (and -0, a negative index, 2^32) at the first 16
  // number tokens, which hold the header counts, and at 16 drawn ones.
  std::vector<std::pair<std::size_t, std::size_t>> picks(
      lx.numbers.begin(),
      lx.numbers.begin() + std::min<std::size_t>(16, lx.numbers.size()));
  for (int k = 0; k < 16 && !lx.numbers.empty(); ++k)
    picks.push_back(lx.numbers[rng() % lx.numbers.size()]);
  for (const auto& [b, e] : picks)
    for (const char* n : {"1e308", "-1e308", "1e999", "-0", "-1",
                          "4294967296"})
      out.push_back(text.substr(0, b) + n + text.substr(e));
  // Nesting past json::kMaxNesting: around the document, and in place of
  // its first number.
  const std::string open(json::kMaxNesting + 4, '['),
      close(json::kMaxNesting + 4, ']');
  out.push_back(open + text + close);
  if (!lx.numbers.empty())
    out.push_back(text.substr(0, lx.numbers[0].first) + open + "0" + close +
                  text.substr(lx.numbers[0].second));
  // A wrong schema.
  if (const auto p = text.find(".v1\""); p != std::string::npos)
    out.push_back(text.substr(0, p) + ".v0\"" + text.substr(p + 4));
  // Wrong member types: the first occurrence of every key, its value
  // replaced by each other kind.
  std::set<std::string> seen;
  for (const auto& [key, at] : lx.keys) {
    if (!seen.insert(key).second) continue;
    const std::size_t end = value_end(text, at);
    for (const char* v : {"5", "{}", "[]", "\"x\"", "null", "true"})
      out.push_back(text.substr(0, at) + v + text.substr(end));
  }
  return out;
}

/// Counts of how the mutated cases of one file ended.
struct Tally {
  std::size_t cases = 0, ok = 0, failed = 0;
};

/// Runs the mutations of `dir`/`name` through the readers of that file;
/// each must end in a report (no diagnostic) or a diagnostic naming the
/// reader. A truncated document stops in the parser all readers share, so
/// truncations run through one reader, and only with `truncate`.
Tally sweep(const std::string& dir, const char* name, std::uint64_t seed,
            bool truncate) {
  const std::string text = slurp(dir + "/" + name);
  EXPECT_FALSE(text.empty()) << dir << "/" << name;
  if (text.empty()) return {};
  const std::string mut = fresh_dir("readers_mut");
  const std::string perfetto = mut + "/perfetto.out";
  // timeline reads msgtrace.json with timeseries.json (the residual table):
  // the mutations of each run beside the other's unmutated file.
  for (const char* pair : {"msgtrace.json", "timeseries.json"})
    if (std::string_view(name) != pair &&
        (std::string_view(name) == "msgtrace.json" ||
         std::string_view(name) == "timeseries.json"))
      fs::copy_file(dir + "/" + pair, mut + "/" + pair);
  std::mt19937_64 rng(seed);
  Tally tally;
  std::FILE* sink = std::tmpfile();
  auto check = [&](const obs::ReadResult& r, const std::string& what,
                   std::size_t i) {
    ++tally.cases;
    if (r.status == obs::ReadStatus::kOk) {
      ++tally.ok;
      EXPECT_TRUE(r.diagnostic.empty()) << name << " case " << i;
    } else {
      ++tally.failed;
      EXPECT_EQ(r.diagnostic.rfind(what + ": ", 0), 0u)
          << name << " case " << i << ": " << r.diagnostic;
    }
  };
  std::size_t truncations = 0;
  const std::vector<std::string> cases = mutations(text, rng, &truncations);
  for (std::size_t i = truncate ? 0 : truncations; i < cases.size(); ++i) {
    put(mut + "/" + name, cases[i]);
    std::rewind(sink);
    const std::string n = name;
    if (n == "metrics.json") {
      check(obs::report(mut, {}, sink), "report", i);
      if (i >= truncations) check(obs::diff(dir, mut, {}, sink), "diff", i);
    } else if (n == "msgtrace.json") {
      check(obs::critpath(mut, {}, sink), "critpath", i);
      if (i >= truncations) {
        obs::ReadOptions opt;
        opt.perfetto = perfetto;
        check(obs::timeline(mut, opt, sink), "timeline", i);
      }
    } else {
      obs::ReadOptions opt;
      if (n == "timeseries.json") opt.perfetto = perfetto;
      check(obs::timeline(mut, opt, sink), "timeline", i);
    }
  }
  std::fclose(sink);
  return tally;
}

TEST(ReaderMutations, SeededSweepEndsInReportOrDiagnostic) {
  const std::string run = run_directory();
  const std::string crash = crash_directory();
  ASSERT_TRUE(fs::exists(crash + "/metrics.json"));
  struct File {
    const std::string& dir;
    const char* name;
  };
  // The crash files share the run's structure: they skip the truncations.
  std::uint64_t seed = 0x6e61726d61;  // fixed: the sweep is reproducible
  for (const File& f : {File{run, "metrics.json"}, File{run, "msgtrace.json"},
                        File{run, "timeseries.json"},
                        File{run, "journal.json"}, File{crash, "metrics.json"},
                        File{crash, "journal.json"}}) {
    const Tally t = sweep(f.dir, f.name, seed++, &f.dir == &run);
    // Both endings occur: the mutations reach the readers' checks, and
    // some leave a readable document.
    EXPECT_GT(t.ok, 0u) << f.dir << "/" << f.name;
    EXPECT_GT(t.failed, 0u) << f.dir << "/" << f.name;
    std::printf("%s/%s: %zu cases, %zu reports, %zu diagnostics\n",
                f.dir == run ? "run" : "crash", f.name, t.cases, t.ok,
                t.failed);
  }
}

}  // namespace
