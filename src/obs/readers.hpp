// Run-directory readers: `report`, `critpath`, `timeline` and `diff` over
// the files World::write_artifacts writes (DESIGN.md §7). Each prints its
// tables to `out` and returns a status plus, on failure, one diagnostic
// line naming the file. Whatever a file holds, a reader ends in a report or
// a diagnostic: it loops over the arrays a document holds, never over its
// header counts, and turns a document number into an integer only through
// one range check.
//
//   obs::ReadResult r = obs::critpath("run", {.top = 10}, stdout);
//   if (r.status != obs::ReadStatus::kOk)
//     std::fprintf(stderr, "%s\n", r.diagnostic.c_str());
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>

namespace narma::obs {

/// How a reader ended. The values are narma_cli's exit statuses.
enum class ReadStatus {
  kOk = 0,
  kFailed = 1,  // a file is missing, unreadable or malformed
  kUsage = 2,   // the options ask for something the directory cannot give
};

struct ReadResult {
  ReadStatus status = ReadStatus::kOk;
  std::string diagnostic;  // one line; empty on success
};

struct ReadOptions {
  std::size_t top = 10;  // rows of each top-N table
  /// timeline only: also write a Chrome trace for Perfetto to this file
  /// (empty: no export): an arrow per message leg of msgtrace.json and
  /// counter tracks of timeseries.json.
  std::string perfetto;
};

/// metrics.json: per-rank busy fractions, host-time phase attribution,
/// per-backend notifications, histogram percentiles and obs self-cost.
ReadResult report(const std::string& dir, const ReadOptions& opt,
                  std::FILE* out);

/// msgtrace.json: the decomposition identity, the critical path by latency
/// category and by rank, per-category latency statistics and the slowest
/// messages. Fails when a complete message breaks the identity.
ReadResult critpath(const std::string& dir, const ReadOptions& opt,
                    std::FILE* out);

/// timeseries.json: per-window rank activity, busiest families and the
/// stragglers among the recorded ranks; with msgtrace.json beside it, each
/// window's LogGP residual per backend, computed from the messages' lanes;
/// journal.json: the anomaly journal. timeseries.json and journal.json may
/// each be absent, not both. With ReadOptions::perfetto, also renders
/// msgtrace.json and timeseries.json, whichever the directory holds, as a
/// Chrome trace (a usage error when it holds neither).
ReadResult timeline(const std::string& dir, const ReadOptions& opt,
                    std::FILE* out);

/// Two runs' metrics.json, each family reduced to one number: the largest
/// movers and the families added or removed.
ReadResult diff(const std::string& base_dir, const std::string& dir,
                const ReadOptions& opt, std::FILE* out);

}  // namespace narma::obs
