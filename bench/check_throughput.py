#!/usr/bin/env python3
"""Checks the shape of a bench/throughput JSON file. There is no timing gate.

    python3 bench/check_throughput.py BENCH_throughput.json

The fixed-cost rows must be K = 0, 1, 8 and 16 copies, each with
min <= median <= max ns per packet and all with the same hops per packet,
and fabric_16sw must carry min/median/max of its wall time and hops per
wall-second. Prints every problem and exits 1 if there is one.
"""
import json
import sys


def spread_problem(where, row, name):
    try:
        lo, mid, hi = row[name + "_min"], row[name], row[name + "_max"]
    except KeyError as e:
        return "%s: no %s" % (where, e)
    if not lo <= mid <= hi:
        return "%s: %s min %s, median %s, max %s are out of order" % (
            where, name, lo, mid, hi)
    return None


def main(path):
    with open(path) as f:
        doc = json.load(f)
    rows = doc["fixed_cost"]["rows"]
    problems = []
    copies = [r["copies"] for r in rows]
    if copies != [0, 1, 8, 16]:
        problems.append("fixed_cost rows are K = %s, not [0, 1, 8, 16]" %
                        copies)
    for r in rows:
        problems.append(spread_problem("fixed_cost K = %d" % r["copies"], r,
                                       "ns_per_packet"))
    hops = sorted({r["hops_per_packet"] for r in rows})
    if len(hops) != 1:
        problems.append("fixed_cost hops_per_packet differs across rows: %s" %
                        hops)
    for name in ("wall_s", "hops_per_wall_s"):
        problems.append(spread_problem("fabric_16sw", doc["fabric_16sw"],
                                       name))
    problems = [p for p in problems if p]
    for p in problems:
        print("%s: %s" % (path, p), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
