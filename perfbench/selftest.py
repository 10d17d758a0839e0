#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to the benchmark contract, that the
workload and metric names run.py prints are exactly those of BENCHMARK.json,
and that a damaged output is reported as a failed run: one flipped payload
byte in a file workload, and an edge count off by one in a count workload.
Takes about a minute (short runs). Exit status 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(*args):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                       capture_output=True, text=True, cwd=REPO, timeout=600)
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    return p.returncode, result, p.stdout + p.stderr


def contract_checks(c):
    check(set(c) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract's keys")
    check(2 <= len(c["workloads"]) <= 8 and
          all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in c["workloads"]), "2-8 workloads, each a name and a one-line why")
    check(1 <= len(c["end_to_end"]) <= 16 and
          all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
              for m in c["end_to_end"]), "end_to_end metrics carry name, unit, better, bound <= 0.25")
    setup = [m for m in c["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in c["end_to_end"]),
          "setup_s is present, in s, lower is better, with the largest bound")
    check(1 <= len(c["per_layer"]) <= 128 and
          all(set(m) == {"name", "unit", "better"} for m in c["per_layer"]),
          "per_layer metrics carry name, unit, better")
    names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in c[k]]
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
          "names are well-formed and unique")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
              for m in c["end_to_end"] + c["per_layer"]), "units and directions are well-formed")
    check(isinstance(c["run_seconds"], int) and 1 <= c["run_seconds"] <= 60,
          "run_seconds is a whole number from 1 to 60")
    check(c["paths"] == ["perfbench"] and c["command"][1:] == ["perfbench/run.py"],
          "command runs perfbench/run.py, the one path")


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        c = json.load(f)
    contract_checks(c)
    e2e = sorted(m["name"] for m in c["end_to_end"])
    layers = sorted(m["name"] for m in c["per_layer"])

    rc, result, out = run("--workload", "gnm_count", "--seed", "2", "--seconds", "1")
    check(rc == 0 and result is not None and result["correct"] and result["failed"] == 0,
          "gnm_count run passes its checks")
    check(result is not None and sorted(result["metrics"]) == e2e and
          all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in c["end_to_end"]),
          "untraced metric names and units match BENCHMARK.json end_to_end")
    printed = {line.split()[0] for line in out.splitlines() if " = " in line}
    check(printed == {"gnm_count"}, "printed workload name matches BENCHMARK.json")

    rc, result, _ = run("--workload", "rmat_count", "--seed", "2", "--trace", "1")
    check(rc == 0 and result is not None and result["correct"],
          "traced rmat_count run passes its checks")
    check(result is not None and sorted(result["metrics"]) == layers,
          "traced metric names match BENCHMARK.json per_layer")

    rc, result, _ = run("--workload", "gnm_file", "--seconds", "1", "--inject", "corrupt")
    check(rc == 0 and result is not None and not result["correct"] and result["failed"] >= 1,
          "one corrupted output byte fails the gnm_file run")

    rc, result, _ = run("--workload", "dist_file", "--seconds", "1", "--inject", "corrupt")
    check(rc == 0 and result is not None and not result["correct"] and result["failed"] >= 1,
          "one corrupted output byte fails the dist_file run")

    rc, result, _ = run("--workload", "rhg_count", "--seconds", "1", "--inject", "count")
    check(rc == 0 and result is not None and not result["correct"] and result["failed"] >= 1,
          "an edge count off by one fails the rhg_count run")

    rc, result, _ = run("--workload", "nonesuch")
    check(rc != 0, "an unknown workload is refused")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
