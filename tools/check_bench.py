#!/usr/bin/env python3
"""Host-time regression gate: check_bench.py BASELINE CURRENT...

Checks fresh NARMA_JSON exports (schema narma.bench.v1) against a committed
baseline export, so re-baselining is a file copy. Every artifact of RULES
that the baseline carries is gated. Its rows are matched by the artifact's
key columns, merged over every table of that artifact in the files given;
a later row with the same key replaces an earlier one.

The four rule kinds:
  Bound(col, factor, gate_col, gate_min)
      per baseline row: current <= factor x baseline (factor > 1, a
      ceiling) or >= factor x baseline (factor < 1, a floor). Rows whose
      baseline gate_col reads below gate_min are informational.
  Yes(col)             every current row reads "yes".
  Ceiling(col, limit)  every current row reads <= limit.
  Pair(app, base_app, wall_factor, rss_mib, min_ranks)
      within the current run, at every rank count: app's wall ms <=
      wall_factor x base_app's, and its peak RSS <= base_app's + rss_mib.
      Rank counts below min_ranks are informational. Host speed cancels
      out of this ratio, so it needs no baseline row.

Exit status 0 on pass, 1 on a violation or a missing table or row, 2 on
a malformed document.
"""

import json
import sys
from collections import namedtuple

Bound = namedtuple("Bound", "col factor gate_col gate_min")
Yes = namedtuple("Yes", "col")
Ceiling = namedtuple("Ceiling", "col limit")
Pair = namedtuple("Pair", "app base_app wall_factor rss_mib min_ranks")

# artifact: (key columns, rules). Wall clock is noisy on shared runners, so
# its tolerance is generous; verification is the hard part of the apps
# gate. Memory depends on the allocator, not on host speed, so the RSS
# ceiling is tight on every row: a reintroduced O(ranks^2) table shows up
# there long before it shows up in wall time.
RULES = {
    "Figure 1": (("ranks",), [Bound("wall_ms", 1.60, "wall_ms", 5.0),
                              Yes("verified")]),
    "Figure 5": (("ranks",), [Bound("wall_ms", 1.60, "wall_ms", 5.0),
                              Yes("residual ok")]),
    "micro_engine": (("events",), [Bound("Mevents/s", 0.70,
                                         "events", 100000)]),
    "scale_sweep": (("app", "ranks"), [
        Bound("Mevents/s", 0.70, "ranks", 256),
        Bound("peak RSS MiB", 1.30, None, None),
        Ceiling("wall ms", 300000.0),
        Pair("stencil_obs", "stencil_obs0", 1.10, 32.0, 4096)]),
}


def load(paths):
    """Returns {artifact: {key: {header: cell}}} over the gated tables."""
    out = {}
    for path in paths:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        if not isinstance(doc, dict) or doc.get("schema") != "narma.bench.v1":
            schema = doc.get("schema") if isinstance(doc, dict) else None
            raise ValueError(f"{path}: unexpected schema {schema!r}")
        for table in doc.get("tables", []):
            if table["artifact"] not in RULES:
                continue
            keys = RULES[table["artifact"]][0]
            rows = out.setdefault(table["artifact"], {})
            for cells in table["rows"]:
                if len(cells) != len(table["headers"]):
                    raise ValueError(f"{path}: {table['artifact']}: row "
                                     f"{cells} does not match its headers")
                row = dict(zip(table["headers"], cells))
                rows[tuple(row[k] for k in keys)] = row
    return out


def num(row, col):
    return float(row[col])


def checks(rule, base, cur):
    """Yields (key, check, value, limit, ok, gated) for one rule."""
    if isinstance(rule, Bound):
        for key, brow in base.items():
            if key not in cur:
                continue
            value = num(cur[key], rule.col)
            limit = rule.factor * num(brow, rule.col)
            ok = value >= limit if rule.factor < 1 else value <= limit
            gated = (rule.gate_col is None
                     or num(brow, rule.gate_col) >= rule.gate_min)
            yield key, rule.col, value, limit, ok, gated
    elif isinstance(rule, Yes):
        for key, row in cur.items():
            value = row[rule.col]
            yield key, rule.col, value, "yes", value == "yes", True
    elif isinstance(rule, Ceiling):
        for key, row in cur.items():
            value = num(row, rule.col)
            yield key, rule.col, value, rule.limit, value <= rule.limit, True
    else:
        on = {k[1]: row for k, row in cur.items() if k[0] == rule.app}
        off = {k[1]: row for k, row in cur.items() if k[0] == rule.base_app}
        if not on:
            yield (rule.app,), "rows", "missing", "present", False, True
        for ranks in sorted(on, key=int):
            key, gated = (rule.app, ranks), int(ranks) >= rule.min_ranks
            if ranks not in off:
                yield (key, f"{rule.base_app} row", "missing", "present",
                       False, True)
                continue
            off_wall = num(off[ranks], "wall ms")
            factor = (num(on[ranks], "wall ms") / off_wall if off_wall > 0
                      else float("inf"))
            delta = (num(on[ranks], "peak RSS MiB")
                     - num(off[ranks], "peak RSS MiB"))
            yield (key, "obs wall x", factor, rule.wall_factor,
                   factor <= rule.wall_factor, gated)
            yield (key, "obs RSS +MiB", delta, rule.rss_mib,
                   delta <= rule.rss_mib, gated)

def fmt(v):
    return f"{v:g}" if isinstance(v, float) else str(v)


def main(argv):
    if len(argv) < 3 or any(a.startswith("-") for a in argv[1:]):
        print("usage: check_bench.py BASELINE CURRENT...", file=sys.stderr)
        return 2
    errors, failed, total = [], 0, 0
    try:
        base, cur = load(argv[1:2]), load(argv[2:])
        if not base:
            errors.append(f"{argv[1]} has no table of {', '.join(RULES)}")
        for art, brows in base.items():
            if art not in cur:
                errors.append(f"current run lacks table {art!r}")
                continue
            for key in sorted(brows.keys() - cur[art].keys()):
                errors.append(
                    f"{art}: current run has no row {'/'.join(key)}")
            for rule in RULES[art][1]:
                for key, check, value, limit, ok, gated in checks(
                        rule, brows, cur[art]):
                    verdict = "ok" if ok else "FAIL" if gated else "info only"
                    print(f"{art} [{'/'.join(key)}] {check}: {fmt(value)} "
                          f"vs limit {fmt(limit)}: {verdict}")
                    total, failed = total + 1, failed + (verdict == "FAIL")
    except KeyError as e:
        print(f"error: no field {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, TypeError, AttributeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(f"{total} checks, {failed} failed, {len(errors)} missing")
    return 1 if failed or errors else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv))
