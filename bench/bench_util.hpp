// Shared helpers for the figure/table reproduction harnesses.
//
// Every bench binary prints: a header naming the paper artifact it
// regenerates, the fixed parameters, and one plain-text table whose rows
// mirror the paper's series. Repetition counts and problem sizes accept
// environment overrides (NARMA_REPS, NARMA_SCALE) so the full suite can be
// shrunk for smoke runs. With NARMA_JSON=<path> set, the same tables are
// additionally written at exit as machine-readable JSON
// (schema "narma.bench.v1": artifact, parameter notes, headers, rows).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "apps/pingpong.hpp"
#include "common/env.hpp"
#include "common/fatal.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "narma/narma.hpp"

namespace narma::bench {

/// Repetitions per configuration; NARMA_REPS must be at least 1.
inline int reps(int fallback) {
  return env::get_int("NARMA_REPS", fallback, 1);
}

/// Largest NARMA_SCALE: the biggest scaled size, fig1's 12800 columns,
/// stays far inside int at 1.28e8.
inline constexpr double kMaxScale = 1e4;

/// Global problem-size multiplier (1.0 = paper-shaped defaults); a finite
/// value in (0, kMaxScale].
inline double scale() {
  return env::get_double("NARMA_SCALE", 1.0, 0.0, kMaxScale);
}

namespace detail {

/// Collects the artifact header, parameter notes, and printed tables of the
/// running bench binary; flushed to NARMA_JSON at exit.
struct JsonSink {
  struct Recorded {
    std::string artifact;
    std::string what;
    std::vector<std::string> notes;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };

  std::string path = env::get_string("NARMA_JSON", "");
  std::string artifact, what;
  std::vector<std::string> notes;
  std::vector<Recorded> tables;

  static JsonSink& instance() {
    static JsonSink sink;
    return sink;
  }

  void flush() const {
    if (path.empty() || tables.empty()) return;
    std::ofstream out(path);
    if (!out) return;
    out << "{\n  \"schema\": \"narma.bench.v1\",\n  \"tables\": [\n";
    for (std::size_t t = 0; t < tables.size(); ++t) {
      const Recorded& r = tables[t];
      out << "    {\n      \"artifact\": " << json::quote(r.artifact)
          << ",\n      \"what\": " << json::quote(r.what)
          << ",\n      \"notes\": [";
      for (std::size_t i = 0; i < r.notes.size(); ++i)
        out << (i ? ", " : "") << json::quote(r.notes[i]);
      out << "],\n      \"headers\": [";
      for (std::size_t i = 0; i < r.headers.size(); ++i)
        out << (i ? ", " : "") << json::quote(r.headers[i]);
      out << "],\n      \"rows\": [\n";
      for (std::size_t i = 0; i < r.rows.size(); ++i) {
        out << "        [";
        for (std::size_t j = 0; j < r.rows[i].size(); ++j)
          out << (j ? ", " : "") << json::quote(r.rows[i][j]);
        out << (i + 1 < r.rows.size() ? "],\n" : "]\n");
      }
      out << (t + 1 < tables.size() ? "      ]\n    },\n" : "      ]\n    }\n");
    }
    out << "  ]\n}\n";
  }

 private:
  // Registered as a crash hook so a NARMA_CHECK abort mid-sweep still writes
  // the tables recorded so far (fatal_exit runs the hooks before abort).
  static void crash_flush(void* self) {
    static_cast<const JsonSink*>(self)->flush();
  }

  JsonSink() { register_crash_hook(&crash_flush, this); }
  // Flushed when the function-local static dies at normal exit; an atexit
  // callback registered from the ctor would instead run *after* that
  // destructor and read freed strings.
  ~JsonSink() {
    unregister_crash_hook(&crash_flush, this);
    flush();
  }
};

}  // namespace detail

inline void header(const char* artifact, const char* what) {
  std::printf("\n=== %s — %s ===\n", artifact, what);
  detail::JsonSink& sink = detail::JsonSink::instance();
  sink.artifact = artifact;
  sink.what = what;
  sink.notes.clear();
}

inline void note(const std::string& s) {
  std::printf("%s\n", s.c_str());
  detail::JsonSink::instance().notes.push_back(s);
}

/// Prints the table and records it for the NARMA_JSON export. Benches call
/// this instead of Table::print() so both outputs stay in sync.
inline void print(const Table& t) {
  t.print();
  detail::JsonSink& sink = detail::JsonSink::instance();
  sink.tables.push_back({sink.artifact, sink.what, sink.notes, t.headers(),
                         t.rows()});
}

/// Formats a byte count the way the paper's axes do.
inline std::string fmt_bytes(std::size_t b) {
  if (b >= 1024 * 1024)
    return std::to_string(b / (1024 * 1024)) + "MiB";
  if (b >= 1024) return std::to_string(b / 1024) + "KiB";
  return std::to_string(b) + "B";
}

/// The standard message-size sweep of Fig. 3 (8 B to 512 KiB).
inline std::vector<std::size_t> fig3_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 8; s <= (512u << 10); s <<= 2) sizes.push_back(s);
  return sizes;
}

/// One Fig. 3 cell: a fresh 2-rank World running apps::run_pingpong; the
/// client's median half round trip in microseconds.
inline double pingpong_half_rtt_us(const WorldParams& wp, std::size_t bytes,
                                   apps::PingPongScheme scheme, int reps) {
  World world(2, wp);
  double us = 0;
  world.run([&](Rank& self) {
    const apps::PingPongResult r =
        apps::run_pingpong(self, {bytes, scheme, reps});
    if (self.id() == 0) us = r.half_rtt_us;
  });
  return us;
}

/// One-way latency in microseconds, the median of `reps` rounds after two
/// untimed ones: rank 0 sends `bytes` to rank 1 by a notified put (or, with
/// `message_passing`, a send), timed from the send's issue to the
/// receiver's completion. The issue time is shared through program memory:
/// virtual clocks are globally comparable, and the cooperative scheduler
/// orders the write (before the send) before the read (after the wait).
inline double one_way_us(const WorldParams& wp, std::size_t bytes, int reps,
                         bool message_passing = false) {
  World world(2, wp);
  std::vector<double> samples;
  Time t_issue = 0;
  world.run([&](Rank& self) {
    auto win = self.win_allocate(bytes + 64, 1);
    std::vector<std::byte> buf(bytes, std::byte{1});
    auto req = self.na().notify_init(*win, na::MatchSpec{0, 1}, 1);
    for (int r = 0; r < reps + 2; ++r) {
      self.barrier();
      if (self.id() == 0) {
        t_issue = self.now();
        if (message_passing) {
          self.send(buf.data(), bytes, 1, 1);
        } else {
          self.na().put_notify(*win, na::as_bytes(buf.data(), bytes), 1, 0, 1);
          win->flush(1);
        }
        continue;
      }
      if (message_passing) {
        self.recv(buf.data(), bytes, 0, 1);
      } else {
        self.na().start(req);
        self.na().wait(req);
      }
      if (r >= 2) samples.push_back(to_us(self.now() - t_issue));
    }
    self.barrier();
  });
  return stats::median(samples);
}

}  // namespace narma::bench
