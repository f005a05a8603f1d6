#!/usr/bin/env python3
"""Engine-throughput regression gate for CI.

Holds a fresh micro_engine NARMA_JSON export to an absolute events/s floor
derived from the committed baseline (bench/BENCH_engine.json): every
hold-model row with events >= --min-events must keep its Mevents/s at or
above baseline * (1 - tolerance) (default tolerance 30%). Smaller rows finish
in well under a millisecond and are printed for information only — a single
scheduler hiccup swings them by 2x.

Exit status 0 on pass, 1 on any violation, 2 on malformed input.
"""

import argparse
import json
import sys


def load_throughput(path):
    """Returns {events: mevents_per_sec} from a narma.bench.v1 doc."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "narma.bench.v1":
        raise ValueError(f"{path}: unexpected schema {doc.get('schema')!r}")
    for table in doc.get("tables", []):
        if table.get("artifact") != "micro_engine":
            continue
        headers = table["headers"]
        ei = headers.index("events")
        mi = headers.index("Mevents/s")
        return {int(row[ei]): float(row[mi]) for row in table["rows"]}
    raise ValueError(f"{path}: no micro_engine table")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed bench/BENCH_engine.json")
    ap.add_argument("current", help="NARMA_JSON export from this run")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional events/sec regression per row")
    ap.add_argument("--min-events", type=int, default=100000,
                    help="rows below this event count are informational only")
    args = ap.parse_args()

    try:
        base = load_throughput(args.baseline)
        cur = load_throughput(args.current)
    except (OSError, ValueError, KeyError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    ok = True
    for events, base_mps in sorted(base.items()):
        cur_mps = cur.get(events)
        if cur_mps is None:
            # Row counts differ when NARMA_SCALE changes the sweep; that is
            # a configuration error for the gate, not a perf regression.
            print(f"error: current run has no row for {events} events",
                  file=sys.stderr)
            ok = False
            continue
        floor = base_mps * (1.0 - args.tolerance)
        gated = events >= args.min_events
        verdict = ("ok" if cur_mps >= floor else
                   "REGRESSION" if gated else "below floor (info only)")
        print(f"{events:>10d}  baseline {base_mps:8.2f}  "
              f"current {cur_mps:8.2f}  floor {floor:8.2f}  {verdict}")
        if gated and cur_mps < floor:
            ok = False

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
