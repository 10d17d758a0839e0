#!/usr/bin/env python3
"""Reads saved outputs of perfbench/run.py (one run per file, its whole
standard output) and reports, per workload and metric, either the spread of
one set of runs or the change from a base set to a new set.

    python3 perfbench/compare.py spread RUN_OUTPUTS...
    python3 perfbench/compare.py diff --base BASE_OUTPUTS... --new NEW_OUTPUTS... [--cross-host]

`spread` gives the median and the quartile distance as a share of the
median (statistics.quantiles(values, n=4)), against each end-to-end
metric's bound. `diff` marks a metric REGRESSED when the new median is worse
than the base median by more than its bound, and UNRESOLVED when the base
runs' own spread is wider than the bound. Results from different hosts
(CPU model, core count or v2 fill ISA) are refused unless --cross-host is
given, and are then labelled CROSS-HOST on every line. Exit status: 0 when
every spread is within bound (spread) or nothing regressed (diff), else 1.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(paths):
    """[(fingerprint line, result line)] from run.py outputs."""
    runs = []
    for path in paths:
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.startswith("{")]
        if len(lines) < 2:
            sys.exit(f"compare: {path} holds no run.py result")
        meta, result = json.loads(lines[-2]), json.loads(lines[-1])
        if "fingerprint" not in meta or "metrics" not in result:
            sys.exit(f"compare: {path} is not run.py output")
        runs.append((meta, result))
    return runs


def bounds():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        contract = json.load(f)
    return {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}


def by_workload(runs):
    out = {}
    for meta, result in runs:
        key = (meta["workload"], meta["trace"])
        for name, m in result["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def hosts(runs):
    return {json.dumps(meta["fingerprint"]["host"], sort_keys=True) for meta, _ in runs}


def cmd_spread(args):
    runs = load_runs(args.runs)
    if len(hosts(runs)) > 1:
        print("WARNING: these runs come from more than one host")
    spec, ok = bounds(), True
    failed = sum(r["failed"] for _, r in runs)
    attempted = sum(r["attempted"] for _, r in runs)
    print(f"{len(runs)} runs, {failed} of {attempted} calls failed")
    for (workload, trace), metrics in sorted(by_workload(runs).items()):
        for name, values in metrics.items():
            med, s = spread(values)
            bound = spec.get(name, {}).get("bound")
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                ok = ok and s <= bound
            print(f"{workload:<11} {name:<28} n={len(values):<3} median={med:<14.6g} "
                  f"spread={s:7.2%}  bound={bound if bound is not None else '-'}  {verdict}")
    return 0 if ok and failed == 0 else 1


def cmd_diff(args):
    base, new = load_runs(args.base), load_runs(args.new)
    label = ""
    if len(hosts(base) | hosts(new)) > 1:
        if not args.cross_host:
            print("REFUSED: base and new runs come from different hosts:")
            for h in sorted(hosts(base) | hosts(new)):
                print("  " + h)
            print("re-run both on one host, or pass --cross-host to compare anyway")
            return 1
        label = "  CROSS-HOST"
    spec, regressed = bounds(), False
    b, n = by_workload(base), by_workload(new)
    for key in sorted(set(b) & set(n)):
        for name in b[key]:
            if name not in n[key]:
                continue
            bmed, bspread = spread(b[key][name])
            nmed = statistics.median(n[key][name])
            m = spec.get(name, {})
            change = (nmed - bmed) / abs(bmed) if bmed else 0.0
            worse = change if m.get("better") == "lower" else -change
            bound = m.get("bound")
            if bound is None:
                verdict = "(per-layer, no bound)"
            elif bspread > bound:
                verdict = "UNRESOLVED (base spread exceeds bound)"
            elif worse > bound:
                verdict, regressed = "REGRESSED", True
            else:
                verdict = "ok"
            print(f"{key[0]:<11} {name:<28} base={bmed:<14.6g} new={nmed:<14.6g} "
                  f"change={change:+7.2%}  {verdict}{label}")
    return 1 if regressed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("runs", nargs="+")
    d = sub.add_parser("diff")
    d.add_argument("--base", nargs="+", required=True)
    d.add_argument("--new", nargs="+", required=True)
    d.add_argument("--cross-host", action="store_true")
    args = ap.parse_args()
    return cmd_spread(args) if args.cmd == "spread" else cmd_diff(args)


if __name__ == "__main__":
    sys.exit(main())
