#!/usr/bin/env python3
"""Check that `rtrt json FIGURE` tables keep the deterministic values of
the JSON that `rtrt json` printed before the figures became rtrt.table/1
tables (one {"figure", "scale", "trace_steps", "rows"} object per
figure).

usage: python3 bench/figures_match.py OLD_DIR NEW_DIR

Both directories hold datasets.json, figure6.json, figure7.json and
figure17.json, written by `rtrt json FIGURE --scale 512 --steps 1` with
the old and the new binary. Compared exactly, with the same rows: every
value of datasets and figure17, and normalized_cycles of figure6 and
figure7 (modeled by the cache simulator; the wall clocks are not
deterministic). Exits 1 on any difference.
"""

import json
import os
import sys


def old_rows(figure, doc):
    """{row key: {metric: value}} from the old format."""
    rows = {}
    for r in doc["rows"]:
        if figure == "datasets":
            metrics = {k: r[k] for k in ("nodes", "edges", "paper_nodes", "paper_edges")}
            for bench, mb in r["paper_footprint_mb"].items():
                metrics["paper_footprint_mb_" + bench] = mb
            rows[(r["dataset"],)] = metrics
        elif figure == "figure17":
            key = (r["bench"], r["dataset"], str(r["target_kb"]))
            rows[key] = {"gl": r["gl"], "cl_fst": r["cl_fst"]}
        else:
            for p in r["plans"]:
                key = (r["bench"], r["dataset"], p["plan"])
                rows[key] = {"normalized_cycles": p["normalized_cycles"]}
    return rows


def new_rows(doc):
    """{row key: {metric: value}} from a table, without its summary and
    profile rows."""
    assert doc["schema"] == "rtrt.table/1", doc.get("schema")
    return {
        tuple(r["labels"].values()): {k: m["value"] for k, m in r["metrics"].items()}
        for r in doc["rows"]
        if r["labels"] and "section" not in r["labels"]
    }


def main(old_dir, new_dir):
    failures = 0
    for figure in ("datasets", "figure6", "figure7", "figure17"):
        def load(d):
            with open(os.path.join(d, figure + ".json")) as f:
                return json.load(f)

        old, new = old_rows(figure, load(old_dir)), new_rows(load(new_dir))
        compared = 0
        if set(old) != set(new):
            print(f"{figure}: rows differ: {sorted(set(old) ^ set(new))}")
            failures += 1
        for key, metrics in old.items():
            for name, value in metrics.items():
                got = new.get(key, {}).get(name)
                compared += 1
                if got != value:
                    print(f"{figure} {'/'.join(key)}.{name}: {value} -> {got}")
                    failures += 1
        print(f"{figure}: {len(old)} rows, {compared} values compared")
    print("match" if failures == 0 else f"{failures} differences")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
