#!/usr/bin/env python3
"""Print the delta between two google-benchmark JSON result files.

Usage: bench_delta.py [--fail-above PCT] BASELINE.json CURRENT.json [...CURRENT.json]

Matches benchmarks by name and prints real_time and the Medges/s counter
side by side with the relative change.

A delta means something only between runs on one host. The script compares
the google-benchmark `context` of every file (host_name, num_cpus and
caches). When they differ it prints a CROSS-HOST banner naming the fields,
and under --fail-above it refuses the comparison (exit 1).

By default the exit code is 0 — the CI perf-smoke job is explicitly
non-gating (shared runners are far too noisy to fail a build on), the
point is a readable trend line next to the committed BENCH_6.json
baseline. With --fail-above PCT the script becomes a regression gate: it
exits 1 if any benchmark present in both files slowed down by more than
PCT percent (real_time). Use that locally or on a quiet dedicated runner,
where the noise argument does not apply.
"""
import argparse
import json
import sys


HOST_FIELDS = ("host_name", "num_cpus", "caches")


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        out[b["name"]] = b
    return data.get("context", {}), out


def host_differences(base, other):
    """Names of the HOST_FIELDS on which two benchmark contexts differ."""
    diffs = []
    for field in HOST_FIELDS:
        a, b = base.get(field), other.get(field)
        if a != b:
            shown = "differ" if field == "caches" else f"{a} != {b}"
            diffs.append(f"{field} {shown}")
    return diffs


def fmt_rate(bench):
    rate = bench.get("Medges/s")
    return f"{rate:9.2f}" if isinstance(rate, (int, float)) else "        -"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--fail-above", type=float, metavar="PCT", default=None,
                        help="exit 1 if any matched benchmark's real_time "
                             "regressed by more than PCT percent")
    parser.add_argument("baseline", help="baseline google-benchmark JSON")
    parser.add_argument("current", nargs="+", help="current result JSON(s)")
    args = parser.parse_args()

    base_context, baseline = load(args.baseline)
    current, diffs = {}, []
    for path in args.current:
        context, benches = load(path)
        current.update(benches)
        diffs += [f"{path}: {d}" for d in host_differences(base_context, context)]

    if diffs:
        print("CROSS-HOST: these files do not come from one host; deltas mix "
              "hardware with code changes:")
        for d in diffs:
            print("  " + d)
        if args.fail_above is not None:
            print("REFUSED: --fail-above gates only runs from one host",
                  file=sys.stderr)
            return 1
        print()

    regressions = []
    print(f"{'benchmark':55s} {'base_ms':>9s} {'now_ms':>9s} {'d_time':>8s} "
          f"{'base_Me/s':>9s} {'now_Me/s':>9s}")
    for name in sorted(set(baseline) | set(current)):
        b, c = baseline.get(name), current.get(name)
        if b is None or c is None:
            status = "new" if b is None else "gone"
            print(f"{name:55s} [{status}]")
            continue
        bt, ct = b["real_time"], c["real_time"]
        delta = (ct - bt) / bt * 100.0 if bt else float("nan")
        print(f"{name:55s} {bt:9.2f} {ct:9.2f} {delta:+7.1f}% "
              f"{fmt_rate(b)} {fmt_rate(c)}")
        if args.fail_above is not None and delta > args.fail_above:
            regressions.append((name, delta))

    if args.fail_above is not None:
        if regressions:
            print(f"\nFAIL: {len(regressions)} benchmark(s) regressed beyond "
                  f"+{args.fail_above:.1f}%:", file=sys.stderr)
            for name, delta in regressions:
                print(f"  {name}: {delta:+.1f}%", file=sys.stderr)
            return 1
        print(f"\nOK: no benchmark regressed beyond +{args.fail_above:.1f}%")
        return 0

    print("\n(non-gating: deltas on shared runners are indicative only; "
          "the committed baseline is BENCH_6.json — see EXPERIMENTS.md)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
