#!/usr/bin/env python3
"""Benchmark of the KaGen reproduction: five generator workloads, end-to-end
throughput, memory, CPU and set-up time, and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gnm_file [--seed 1] [--seconds 10] [--trace 0|1]
    python3 perfbench/run.py --workload all          # every workload, one after another

The first call builds the `kagen` library from `src/` with the repository's
own CMake target, plus the benchmark binary `perfbench/kagen_bench.cpp`, into
`$CARGO_TARGET_DIR` (default `.bench_build`). Every run checks the outputs
it produces; a failed check, a crash or an exception is a failed call and
makes the result `"correct": false`. The last line of standard output is the
result object; the line before it carries the host and build fingerprint.

Process layout of an untraced run (`--trace 0`), per workload:
  * four fresh processes each make one cold call, and so does the
    measuring process below with its warm-up call: `setup_s` is the median
    wall time of these five (pool construction, first slab mappings and a
    new output file are all inside it);
  * one process makes a warm-up call, then timed calls for `--seconds`;
    `edges_per_s`, `peak_rss_bytes` and `cpu_s` are medians over the timed
    calls. rhg_count's calls cycle through four graphs (seeds seed + j·2^32,
    one warm-up each), because RHG's cost and memory depend on the graph. Each call resets VmHWM first, so its peak is its own; forked
    ranks add four times the largest rank's peak. CPU is user plus system
    time of the process and its reaped children during the call;
  * file workloads also write the same graph through the other path
    (in-process <-> forked ranks) in a fresh process, and both files must
    have the same sha256; at seed 1 it must equal the pinned digest.
The fraction of failed calls (`failed` / `attempted` in the result) is
printed as `failed_frac`; it is not a metric of the result object, because
the contract wants metrics that are never 0.

A traced run (`--trace 1`) runs the workload's own calls with and without
the program's trace and metrics files switched on, then times every layer
from outside, one call at a time on one thread, and prints the layer totals
next to the program's own phase totals (generate, deliver, sink_write,
merge). Layers the workload itself does not run through are measured on the
workload that does (see BENCHMARK.json and perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

# sha256 of the gnm_file / dist_file output at seed 1 (G(n,m) directed,
# n = 2^20, m = 2^23, sampler v1, 16 chunks). Sampler v1 has the same bytes
# on every ISA, so this digest is host-independent.
GNM_FILE_SHA256_SEED1 = "988475f1ee1f45f62566fca571a7e2d4dca972f96d00b75d5476e6b1d4010df4"

FILE_WORKLOADS = ("gnm_file", "dist_file")
IN_PROCESS_WORKLOADS = ("gnm_file", "gnm_count", "rhg_count", "rmat_count")
SETUP_PROCESSES = 4
THREADS = 4            # pool participants of the in-process workloads
RUN_LIMIT_S = 170      # a run ends within this, build time not counted
DEADLINE = float("inf")  # set once the build is done
AGREEMENT_BOUND = 0.25  # outside-in layer total vs program phase total


class BenchError(Exception):
    pass


def load_contract():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(REPO, ".bench_build"))


def build():
    """Configures once and builds kagen_bench; returns the binary path."""
    if not os.path.isfile(os.path.join(REPO, "src", "kagen.hpp")):
        raise BenchError("no KaGen sources next to perfbench/ (src/kagen.hpp missing)")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "kagen_bench", "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "kagen_bench")


def bench_lines(binary, mode, workload=None, seed=None, work=None, extra=()):
    """Runs one kagen_bench process; returns its output lines. A nonzero exit or
    a timeout raises BenchError, which the caller counts as a failed call."""
    cmd = [binary, mode]
    if workload is not None:
        cmd += ["-w", workload, "-s", str(seed), "-d", work]
    cmd += list(extra)
    timeout = max(1.0, DEADLINE - time.monotonic())
    # Own process group, so that a timeout also kills the ranks a call forked.
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as p:
        try:
            stdout, stderr = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            raise BenchError(f"{mode} still running at the run's deadline")
    if p.returncode != 0:
        raise BenchError(f"{mode} exited {p.returncode}: {stderr.strip()[-500:]}")
    return stdout.splitlines()


def bench(*args, **kwargs):
    """bench_lines, parsed: one JSON object per line."""
    return [json.loads(l) for l in bench_lines(*args, **kwargs) if l.startswith("{")]


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


def filesystem_of(path):
    """fstype of the mount holding `path`, from /proc/mounts."""
    real, best, fstype = os.path.realpath(path), "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1].replace("\\040", " ")
                if (real == mnt or real.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over src/ (paths and contents): identifies the build even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(REPO, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(REPO, ".git")):
        return None
    try:
        p = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def fingerprint(binary, work):
    info = bench(binary, "info")[0]
    return {
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "v2_fill_isa": info["v2_fill_isa"],
        },
        "build": {
            "compiler": info["compiler"],
            "build_type": info["build_type"],
            "git_sha": git_sha(),
            "src_sha256": source_digest(),
        },
        "output_fs": filesystem_of(work),
    }


class Tally:
    """Attempted and failed calls of one run, with the reasons."""

    def __init__(self):
        self.attempted, self.failed, self.errors = 0, 0, []

    def call(self, what, error=""):
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append(f"{what}: {error}")

    def record(self, what, rec):
        self.call(what, "" if rec.get("ok") else rec.get("error") or "failed")


def sample_text(values, better):
    """Sample count, quartiles and, past ten samples, the value that k% of
    the samples match or beat while ten samples still do worse (`pk=`)."""
    n = len(values)
    text = f" (median of {n}"
    if n >= 2:
        q = statistics.quantiles(values, n=4)
        text += f" q1={q[0]:.6g} q3={q[2]:.6g}"
    if n > 10:
        ordered = sorted(values, reverse=(better == "higher"))
        text += f" p{100 * (n - 10) // n}={ordered[n - 11]:.6g}"
    return text + ")"


# ---------------------------------------------------------------------------
# Untraced run
# ---------------------------------------------------------------------------

def run_e2e(binary, workload, seed, seconds, work, tally, inject):
    setup = []
    setup_digests = []
    for i in range(SETUP_PROCESSES):
        try:
            rec = bench(binary, "setup", workload, seed, work)[0]
            tally.record(f"setup {i}", rec)
            setup.append(rec["wall_s"])
            setup_digests.append(rec["digest"])
        except BenchError as e:
            tally.call(f"setup {i}", str(e))

    extra = ["-t", str(seconds)] + (["--inject", inject] if inject else [])
    timed = []
    try:
        records = bench(binary, "measure", workload, seed, work, extra)
        if not records:
            raise BenchError("measure printed nothing")
        warm = records[0]
        if warm["ok"]:
            setup.append(warm["wall_s"])  # also a cold call in a fresh process
        for i, rec in enumerate(records):
            tally.record(f"{rec['call']} {i}", rec)
            if rec["ok"] and rec["call"] == "timed":
                timed.append(rec)
    except BenchError as e:
        tally.call("measure", str(e))
        warm = None

    details = {"setup_s": setup, "timed_calls": len(timed)}
    if workload in FILE_WORKLOADS and warm is not None and warm["ok"]:
        ref_sha = sha256_file(os.path.join(work, "ref.bin"))
        details["sha256"] = ref_sha
        if seed == 1:
            tally.call("pinned digest", "" if ref_sha == GNM_FILE_SHA256_SEED1 else
                       f"sha256 {ref_sha} != pinned {GNM_FILE_SHA256_SEED1}")
        for i, d in enumerate(setup_digests):
            tally.call(f"setup {i} bytes", "" if d == warm["digest"] else
                       "setup output differs from the warm-up output")
        try:
            rec = bench(binary, "xref", workload, seed, work)[0]
            tally.record("other path", rec)
            xref_sha = sha256_file(os.path.join(work, "xref.bin"))
            details["other_path_sha256"] = xref_sha
            tally.call("in-process vs ranks", "" if xref_sha == ref_sha else
                       f"sha256 {xref_sha} of the other path != {ref_sha}")
        except (BenchError, OSError) as e:
            tally.call("other path", str(e))

    samples = {
        "edges_per_s": [r["edges"] / r["wall_s"] for r in timed],
        "peak_rss_bytes": [r["peak_rss_bytes"] for r in timed],
        "cpu_s": [r["cpu_s"] for r in timed],
        "setup_s": setup,
    }
    return samples, details


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def phase_totals(trace_path):
    """Σ span durations (s) per (phase, tid) of a Chrome trace the program
    wrote through cfg.trace_path."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    totals = {}
    for e in events:
        if e.get("ph") == "X":
            key = (e["name"], (e.get("pid", 0), e.get("tid", 0)))
            totals[key] = totals.get(key, 0.0) + e["dur"] * 1e-6
    return totals


def phase_sum(totals, phase):
    return sum(v for (name, _), v in totals.items() if name == phase)


def counters(metrics_path):
    with open(metrics_path) as f:
        return json.load(f)["counters"]


def run_trace(binary, workload, seed, work, tally):
    rec = bench(binary, "trace", workload, seed, work)[0]
    tally.attempted += rec["attempted"]
    tally.failed += rec["failed"]
    if rec["errors"]:
        tally.errors.append(rec["errors"])

    own_trace = phase_totals(rec["own_trace"])
    gnm_trace = phase_totals(rec["gnm_trace"])
    dist_trace = phase_totals(rec["dist_trace"])

    # Pool counters of the workload's own traced call; the forked ranks of
    # dist_file run single-threaded and never enter the pool, so that
    # workload reports the pool of the gnm_file call in the same sweep.
    if workload in IN_PROCESS_WORKLOADS:
        pool, pool_wall = counters(rec["own_metrics"]), rec["own_traced_s"][-1]
    else:
        pool, pool_wall = counters(rec["gnm_metrics"]), rec["gnm_wall_s"]
    busy = [v for k, v in pool.items() if re.fullmatch(r"pool\.w\d+\.busy_ns", k)]
    busy_total = sum(busy)

    # The drainer is the thread that ran the ordered deliveries.
    deliver_by_tid = {tid: v for (name, tid), v in gnm_trace.items() if name == "deliver"}
    drainer = max(deliver_by_tid, key=deliver_by_tid.get) if deliver_by_tid else None
    drainer_gen = gnm_trace.get(("generate", drainer), 0.0)
    drainer_del = gnm_trace.get(("deliver", drainer), 0.0)
    drainer_write = gnm_trace.get(("sink_write", drainer), 0.0)

    rhg_chunks = rec["rhg_chunk_s"]
    gnm_counters = counters(rec["gnm_metrics"])
    untraced = statistics.median(rec["own_untraced_s"])
    values = {
        "er.ns_per_edge": rec["er_s"] * 1e9 / rec["er_edges"],
        "rhg.ns_per_edge": sum(rhg_chunks) * 1e9 / rec["rhg_edges"],
        "rhg.chunk_skew": max(rhg_chunks) / statistics.mean(rhg_chunks),
        "rmat.ns_per_edge": rec["rmat_s"] * 1e9 / rec["rmat_edges"],
        "sink.ownership.ns_per_edge": rec["ownership_s"] * 1e9 / rec["rhg_edges"],
        "sink.ownership.keep_frac": rec["ownership_kept"] / rec["rhg_edges"],
        "pe.deliver_s": rec["pe_deliver_s"],
        "pe.peak_buffered_bytes": rec["pe_peak_buffered_bytes"],
        "pe.arena.slabs_reserved": gnm_counters.get("pe.arena.slabs_reserved", 0),
        "pe.spilled_bytes": rec["pe_spilled_bytes"],
        "pe.drainer.generate_s": drainer_gen,
        "pe.drainer.deliver_s": drainer_del,
        "pe.drainer.sink_write_s": drainer_write,
        "pe.drainer.busy_frac": (drainer_gen + drainer_del) / rec["gnm_wall_s"],
        "pool.busy_frac": busy_total * 1e-9 / (THREADS * pool_wall),
        "pool.imbalance": max(busy) / (busy_total / THREADS) if busy_total else 0.0,
        "pool.steal_successes": pool.get("pool.steal_successes", 0),
        "sink.file.write_s": rec["file_write_s"],
        "sink.file.bytes": rec["file_bytes"],
        "dist.rank_job_s": rec["dist_rank_job_s"],
        "dist.merge_s": rec["dist_merge_s"],
        "dist.overhead_s": rec["dist_e2e_s"] - rec["dist_rank_job_s"] - rec["dist_merge_s"],
        "dist.copy_file_range_frac": rec["dist_cfr_bytes"] / rec["dist_merged_bytes"],
        "obs.trace_overhead_frac": statistics.median(rec["own_traced_s"]) / untraced - 1.0,
        "obs.dropped_events": rec["own_dropped_events"],
        "obs.phase.generate_s": phase_sum(own_trace, "generate"),
        "obs.phase.deliver_s": phase_sum(gnm_trace, "deliver"),
        "obs.phase.sink_write_s": phase_sum(gnm_trace, "sink_write"),
        "obs.phase.merge_s": phase_sum(dist_trace, "merge"),
    }

    # Outside-in layer totals beside the program's own phase totals. The
    # generator layer of the workload: er for the G(n,m) workloads, rhg plus
    # the ownership filter (exact_once filters inside generate), or rmat.
    if workload == "rhg_count":
        gen_outside = sum(rhg_chunks) + rec["ownership_s"]
    elif workload == "rmat_count":
        gen_outside = rec["rmat_s"]
    else:
        gen_outside = rec["er_s"]
    rows = [
        ("generate", gen_outside, values["obs.phase.generate_s"],
         f"{workload} generator chunks on one thread vs Σ generate spans of its traced call"),
        ("deliver", rec["pe_deliver_s"] + rec["file_write_s"], values["obs.phase.deliver_s"],
         "pe.deliver_s + sink.file.write_s vs Σ deliver spans of gnm_file"),
        ("sink_write", rec["file_write_s"], values["obs.phase.sink_write_s"],
         "sink.file.write_s vs Σ sink_write spans of gnm_file"),
        ("merge", rec["dist_merge_s"], values["obs.phase.merge_s"],
         "dist.merge_s vs Σ merge spans of dist_file"),
    ]
    table = []
    for name, outside, program, what in rows:
        ratio = outside / program if program > 0 else float("inf")
        flag = "ok" if abs(ratio - 1.0) <= AGREEMENT_BOUND else "DISAGREE"
        table.append(f"layer {name:<10} outside-in {outside:9.4f} s  program {program:9.4f} s"
                     f"  ratio {ratio:6.3f}  {flag:<8} ({what})")
    details = {"drainer_tid": drainer, "layer_table": table}
    return values, details


# ---------------------------------------------------------------------------

def run_workload(binary, contract, workload, seed, seconds, trace, inject):
    work = os.path.join(build_dir(), f"work-{os.getpid()}-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tally = Tally()
    try:
        fp = fingerprint(binary, work)
        if trace:
            values, details = run_trace(binary, workload, seed, work, tally)
            samples = {}
            wanted = contract["per_layer"]
        else:
            samples, details = run_e2e(binary, workload, seed, seconds, work, tally, inject)
            values = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
            wanted = contract["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise BenchError(f"metric names {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    metrics = {}
    for m in wanted:
        v = float(values[m["name"]])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        spread = sample_text(samples[m["name"]], m["better"]) if samples.get(m["name"]) else ""
        print(f"{workload} {m['name']} = {v:.6g} {m['unit']}{spread}")
    if not trace:
        frac = tally.failed / tally.attempted if tally.attempted else 1.0
        print(f"{workload} failed_frac = {frac:.6g} ratio ({tally.failed} of {tally.attempted} calls)")
    for line in details.get("layer_table", []):
        print(f"{workload} {line}")
    for err in tally.errors:
        print(f"{workload} FAILED {err}")
    details["errors"] = tally.errors
    print(json.dumps({"fingerprint": fp, "workload": workload, "seed": seed,
                      "trace": trace, "details": details}))
    return tally, metrics


def main():
    global DEADLINE
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("corrupt", "count"),
                    help="self-test only: damage the first timed call's output")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        contract = load_contract()
        known = [w["name"] for w in contract["workloads"]]
        if args.workload != "all" and args.workload not in known:
            raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(known)}")
        binary = build()
        todo = known if args.workload == "all" else [args.workload]
        DEADLINE = time.monotonic() + RUN_LIMIT_S * len(todo)
        listed = bench_lines(binary, "list")
        if listed != known:
            raise BenchError(f"kagen_bench workloads {listed} != BENCHMARK.json {known}")
        attempted = failed = 0
        metrics = {}
        for w in todo:
            tally, m = run_workload(binary, contract, w, args.seed, args.seconds,
                                    args.trace, args.inject)
            attempted += tally.attempted
            failed += tally.failed
            if args.workload == "all":
                metrics.update({f"{w}.{k}": v for k, v in m.items()})
            else:
                metrics = m
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
