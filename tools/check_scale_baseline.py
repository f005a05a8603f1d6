#!/usr/bin/env python3
"""Rank-scaling regression gate for CI (the fiber-engine PR's headline).

Compares a fresh scale_sweep NARMA_JSON export against the committed
baseline (bench/BENCH_scale.json):

  * every (app, ranks) row with ranks >= --min-ranks must keep its
    Mevents/s >= (1 - tolerance) of the baseline row (default tolerance
    30%). Smaller rows finish in a few milliseconds and are printed for
    information only;
  * every row's peak RSS must stay <= --rss-factor (default 2.0) times the
    baseline row — memory scaling is the point of the fiber engine, and a
    reintroduced O(ranks^2) table shows up here long before it shows up in
    wall time;
  * every row of the *current* run must finish under --max-wall-ms
    (default 5 minutes): 4096 simulated ranks must stay interactive on one
    core, not merely terminate.

Observability-cost gate (DESIGN.md §14): when the current run carries the
stencil_obs0 / stencil_obs pair, the --obs-* flags compare the two rows of
the *same* run (no committed baseline, so host speed cancels out): at every
gated rank count the full observability stack must cost at most
--obs-wall-factor in wall clock and --obs-rss-delta-mib of extra RSS over
the observability-off row.

Exit status 0 on pass, 1 on any violation, 2 on malformed input.
"""

import argparse
import json
import sys


def load_rows(path):
    """Returns {(app, ranks): (meps, rss_mib, wall_ms)} from a
    narma.bench.v1 doc, merging every scale_sweep table in the file."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "narma.bench.v1":
        raise ValueError(f"{path}: unexpected schema {doc.get('schema')!r}")
    rows = {}
    for table in doc.get("tables", []):
        if table.get("artifact") != "scale_sweep":
            continue
        headers = table["headers"]
        ai = headers.index("app")
        ri = headers.index("ranks")
        mi = headers.index("Mevents/s")
        si = headers.index("peak RSS MiB")
        wi = headers.index("wall ms")
        for row in table["rows"]:
            rows[(row[ai], int(row[ri]))] = (
                float(row[mi]), float(row[si]), float(row[wi]))
    if not rows:
        raise ValueError(f"{path}: no scale_sweep table")
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed bench/BENCH_scale.json")
    ap.add_argument("current", help="NARMA_JSON export from this run")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional events/sec regression per row")
    ap.add_argument("--rss-factor", type=float, default=2.0,
                    help="allowed peak-RSS growth factor per row")
    ap.add_argument("--max-wall-ms", type=float, default=300000.0,
                    help="hard wall-clock ceiling per current row")
    ap.add_argument("--min-ranks", type=int, default=256,
                    help="rows below this rank count are informational only")
    ap.add_argument("--obs-app", default=None,
                    help="app name of the observability-on rows "
                         "(e.g. stencil_obs); enables the obs-cost gate")
    ap.add_argument("--obs-base-app", default="stencil_obs0",
                    help="app name of the observability-off rows")
    ap.add_argument("--obs-wall-factor", type=float, default=1.10,
                    help="allowed wall-clock factor of obs-on over obs-off")
    ap.add_argument("--obs-rss-delta-mib", type=float, default=32.0,
                    help="allowed extra peak RSS (MiB) of obs-on over "
                         "obs-off")
    ap.add_argument("--obs-min-ranks", type=int, default=4096,
                    help="obs rows below this rank count are informational "
                         "only (small runs are noise-dominated)")
    args = ap.parse_args()

    try:
        base = load_rows(args.baseline)
        cur = load_rows(args.current)
    except (OSError, ValueError, KeyError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    ok = True
    for key, (base_meps, base_rss, _) in sorted(base.items()):
        app, ranks = key
        if key not in cur:
            print(f"error: current run has no row for {app}/{ranks}",
                  file=sys.stderr)
            ok = False
            continue
        cur_meps, cur_rss, cur_wall = cur[key]
        gated = ranks >= args.min_ranks
        floor = base_meps * (1.0 - args.tolerance)
        ceiling = base_rss * args.rss_factor

        verdict = "ok"
        if cur_meps < floor:
            verdict = "REGRESSION (events/s)" if gated \
                else "below floor (info only)"
            ok = ok and not gated
        if cur_rss > ceiling:
            verdict = "REGRESSION (RSS)"
            ok = False
        if cur_wall > args.max_wall_ms:
            verdict = "REGRESSION (wall clock)"
            ok = False
        print(f"{app:8s} {ranks:>5d}  Mev/s {cur_meps:6.2f} "
              f"(floor {floor:5.2f})  RSS {cur_rss:7.1f} MiB "
              f"(ceiling {ceiling:7.1f})  wall {cur_wall:9.1f} ms  {verdict}")

    if args.obs_app:
        on_rows = {r: v for (a, r), v in cur.items() if a == args.obs_app}
        off_rows = {r: v for (a, r), v in cur.items()
                    if a == args.obs_base_app}
        if not on_rows or not off_rows:
            print(f"error: current run lacks {args.obs_app}/"
                  f"{args.obs_base_app} rows for the obs-cost gate",
                  file=sys.stderr)
            ok = False
        for ranks in sorted(on_rows):
            if ranks not in off_rows:
                print(f"error: no {args.obs_base_app} row at {ranks} ranks",
                      file=sys.stderr)
                ok = False
                continue
            _, on_rss, on_wall = on_rows[ranks]
            _, off_rss, off_wall = off_rows[ranks]
            gated = ranks >= args.obs_min_ranks
            factor = on_wall / off_wall if off_wall > 0 else float("inf")
            delta = on_rss - off_rss
            verdict = "ok" if gated else "info only"
            if factor > args.obs_wall_factor:
                verdict = "OBS REGRESSION (wall)" if gated \
                    else "over wall factor (info only)"
                ok = ok and not gated
            if delta > args.obs_rss_delta_mib and gated:
                verdict = "OBS REGRESSION (RSS)"
                ok = False
            print(f"obs-cost {ranks:>5d}  wall x{factor:5.3f} "
                  f"(limit x{args.obs_wall_factor:.2f})  "
                  f"RSS +{delta:6.1f} MiB "
                  f"(limit +{args.obs_rss_delta_mib:.1f})  {verdict}")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
