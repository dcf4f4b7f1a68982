#!/usr/bin/env python3
"""Compares two benchmark records written by benchmark/run.py.

    python3 benchmark/compare.py A.json B.json

A is the baseline (the parent), B the change. For every (workload,
end-to-end metric) it prints both medians with their quartiles across the
record's runs and a verdict against the bound in BENCHMARK.json:

  better / worse  the median moved by more than the bound
  unchanged       it moved by less
  unresolved      either side's run-to-run spread (q3 - q1, as a share of
                  the median) exceeds the bound, and B's runs do not all
                  read better than A's

Per-layer metrics come from one traced run each and have no bound: both
values are printed, and the exact counts must be equal. Exits 1 when an
end-to-end metric is worse, failed_frac rose, B's correctness gates
failed or an exact count differs; 2 on bad input.
Standard library only.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Per-layer metrics that are exact counts on these workloads: two records
# of the same code must agree on them (to 1e-6: heartbeat frames on the
# worker pipes add a few bytes to 155 MB read per partitioned session).
EXACT = {
    ("session_inmem", "storage.read_amplification"),
    ("session_paged_cold", "storage.read_amplification"),
    ("session_partitioned_subproc", "storage.read_amplification"),
}
EXACT_TOLERANCE = 1e-6


def spread(metric):
    if not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / metric["value"]


def verdict(a, b, spec):
    lower = spec["better"] == "lower"
    bound = spec["bound"]

    def improves(x, y):  # y better than x
        return y < x if lower else y > x

    if max(spread(a), spread(b)) > bound:
        if all(improves(x, y) for x in a["runs"] for y in b["runs"]):
            return "better"
        return "unresolved"
    change = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
    worse_by = change if lower else -change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def fmt(metric):
    return (f"{metric['value']:.5g} [{metric['q1']:.5g}, {metric['q3']:.5g}]"
            f" {metric['unit']}")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            base = json.load(f)
        with open(argv[2]) as f:
            change = json.load(f)
        with open(BENCHMARK) as f:
            bench = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        print(f"compare.py: {error}", file=sys.stderr)
        return 2

    failing = []
    for workload in base["workloads"]:
        if workload not in change["workloads"]:
            print(f"{workload}: missing from {argv[2]}")
            continue
        a = base["workloads"][workload]
        b = change["workloads"][workload]
        print(f"== {workload}")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            v = verdict(a["end_to_end"][name], b["end_to_end"][name], spec)
            delta = ((b["end_to_end"][name]["value"]
                      - a["end_to_end"][name]["value"])
                     / a["end_to_end"][name]["value"])
            print(f"  {name:30s} {fmt(a['end_to_end'][name]):44s} -> "
                  f"{fmt(b['end_to_end'][name]):44s} {delta:+7.1%}  {v}"
                  f"  (bound {spec['bound']:.0%})")
            if v == "worse":
                failing.append(f"{workload} {name}")
        frac_a, frac_b = a["failed_frac"], b["failed_frac"]
        v = "worse" if frac_b > frac_a else "unchanged"
        print(f"  {'failed_frac':30s} {frac_a:<44.5g} -> {frac_b:<44.5g} "
              f"{'':7s}  {v}")
        if v == "worse":
            failing.append(f"{workload} failed_frac")
        if not b["correct"]:
            print(f"  gates failed in {argv[2]}: "
                  + ", ".join(c["name"] for c in b["checks"]))
            failing.append(f"{workload} gates")
        for spec in bench["per_layer"]:
            name = spec["name"]
            ma, mb = a["per_layer"][name], b["per_layer"][name]
            note = ""
            if (workload, name) in EXACT:
                same = abs(ma["value"] - mb["value"]) <= \
                    EXACT_TOLERANCE * max(abs(ma["value"]), 1.0)
                note = "exact: equal" if same else "exact: DIFFERS"
                if not same:
                    failing.append(f"{workload} {name} exact")
            print(f"  {name:30s} {fmt(ma):44s} -> {fmt(mb):44s} {note}"
                  .rstrip())
    if failing:
        print("failing: " + "; ".join(failing))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
