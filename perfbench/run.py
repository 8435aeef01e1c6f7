"""kdvlri benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run it from the repository root; it imports the package from ./src.  Every
repetition runs in a fresh single-threaded interpreter (perfbench/rep.py)
with KDVLRI_WORKERS unset and the numpy/BLAS thread variables at 1.

--trace 0 repeats the workload as often as it expects to end within S
seconds (at least once), then runs five set-up-only processes.  Each of
these processes also times a fixed calibration kernel.  It reports the
end-to-end metrics: the fastest repetition's wall_s and cpu_s and the
median setup_s, each divided by the run's fastest calibration and scaled
to reference seconds; the median of peak_rss_mb; and ok_frac over all
operations.  The raw times are in the line before the result.
--trace 1 alternates untraced and traced repetitions, as many pairs as it
expects to end within S seconds (at least one), then runs one probe
process.  It reports the per-layer metrics (medians over traced
repetitions) and the tracing overhead.  Both print, as the last line, one
JSON object with correct, attempted, failed and metrics.
`--workload all` runs every workload both ways and prints a table of every
metric with its unit.

Each repetition checks its outputs (see workloads.py); an operation whose
output bytes differ from another repetition of the same run also fails, so
the traced run's reports must equal the untraced run's byte for byte.
Scratch files go to .perfbench_out/ and are removed at the end, except the
spans of the last traced repetition: .perfbench_out/spans-<workload>-<seed>.tsv.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
# the names of workloads.WORKLOADS; this process does not import kdvlri
WORKLOADS = ("study-pair-n1024", "paper-slice-n16384", "verify-small-n")
# set-up-only processes per run, on top of the set-up of every repetition
SETUP_SAMPLES = 5
# no repetition may run past this, whatever --seconds asks for
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# typical best calibration time on the 2-vCPU VM (Intel Xeon) where the
# benchmark was defined; timings read as seconds on that VM at that speed
CALIBRATION_REF_S = 0.075
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB", "ok_frac": "ratio"}


def layer_unit(name):
    if name.endswith("_us") or "_us." in name:
        return "us"
    if "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("_share"):
        return "ratio"
    return "count"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed program operation)."""


def child_env():
    env = dict(os.environ)
    env.pop("KDVLRI_WORKERS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.abspath("src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    return env


def spawn(workload, seed, mode, scratch, deadline):
    """Run one rep.py process to completion and return its result dict."""
    workdir = tempfile.mkdtemp(prefix=f"{mode}-", dir=scratch)
    out = os.path.join(workdir, "result.json")
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
             "--seed", str(seed), "--mode", mode, "--t0-ns", str(t0),
             "--workdir", workdir, "--out", out],
            env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} repetition of {workload} ran past {timeout:.0f} s")
    if proc.returncode != 0 or not os.path.exists(out):
        raise BenchError(f"{mode} repetition of {workload} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out) as fh:
        result = json.load(fh)
    spans = os.path.join(workdir, "result.spans.tsv")
    if os.path.exists(spans):
        os.replace(spans, os.path.join(OUT_DIR, f"spans-{workload}-{seed}.tsv"))
    shutil.rmtree(workdir)
    return result


def count_ops(reps):
    """(attempted, failed, failure messages) over every op of every repetition.

    An op fails on its own problems, or when its output digest differs from
    the first repetition that produced the same op.
    """
    first_digest, attempted, failures = {}, 0, []
    for i, rep in enumerate(reps):
        for rec in rep["records"]:
            attempted += 1
            problems = list(rec["problems"])
            digest = rec["digest"]
            if digest is not None:
                want = first_digest.setdefault(rec["op"], digest)
                if digest != want:
                    problems.append("output bytes differ from an earlier repetition")
            if problems:
                failures.append(f"rep {i} {rec['op']}: " + "; ".join(problems))
    return attempted, len(failures), failures


def repeat_within(seconds, once):
    """Call `once` at least once, and again while the next call is expected
    (from the last one's duration) to end within `seconds` of the start."""
    start, results = time.monotonic(), []
    while True:
        begin = time.monotonic()
        results.append(once())
        now = time.monotonic()
        if now + (now - begin) > start + seconds:
            return results


def end_to_end(seconds, spawn_one):
    """Plain repetitions, then set-up-only processes.

    On a shared host the same work runs up to ~1.9x slower in phases of
    seconds to minutes.  Every process therefore also times a fixed
    calibration kernel.  wall_s and cpu_s are the fastest repetition and
    setup_s the median set-up, each divided by the run's fastest calibration
    and scaled by CALIBRATION_REF_S: of the statistics tried, these varied
    least from run to run (see README.md).
    """
    timed = repeat_within(seconds, lambda: spawn_one("plain"))
    processes = timed + [spawn_one("setup") for _ in range(SETUP_SAMPLES)]
    scale = CALIBRATION_REF_S / min(r["calibration_s"] for r in processes)
    metrics = {
        "wall_s": scale * min(r["wall_s"] for r in timed),
        "setup_s": scale * statistics.median(r["setup_s"] for r in processes),
        "cpu_s": scale * min(r["cpu_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    return metrics, E2E_UNITS, timed, processes


def per_layer(seconds, spawn_one):
    """Untraced/traced pairs, then one probe process."""
    pairs = repeat_within(seconds, lambda: (spawn_one("plain"), spawn_one("traced")))
    plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
    probe = spawn_one("probe")
    metrics = {name: statistics.median(r["metrics"][name] for r in traced)
               for name in traced[0]["metrics"]}
    metrics["trace.overhead_s"] = (
        metrics["trace.wall_s"] - statistics.median(r["program_s"] for r in plain))
    metrics.update(probe["metrics"])
    return metrics, {n: layer_unit(n) for n in metrics}, traced, plain + traced


def measure(workload, seed, seconds, trace):
    """One benchmark run: returns (result line dict, environment dict)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    def spawn_one(mode):
        return spawn(workload, seed, mode, scratch, deadline)

    try:
        metrics, units, timed, processes = (per_layer if trace else end_to_end)(
            seconds, spawn_one)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted, failed, failures = count_ops(processes)
    if not trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
    for line in failures:
        print(f"FAILED {workload}: {line}", file=sys.stderr)
    for note in sorted({n for r in processes for n in r.get("notes", ())}):
        print(f"NOTE {workload} seed {seed}: {note}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    env = dict(timed[0]["env"], workload=workload, seed=seed, seconds=seconds,
               trace=trace, repetitions=len(timed),
               raw_wall_s=[r["wall_s"] for r in timed])
    if not trace:
        env.update(raw_cpu_s=[r["cpu_s"] for r in timed],
                   raw_setup_s=[r["setup_s"] for r in processes],
                   calibration_s=[r["calibration_s"] for r in processes])
    return result, env


def run_all(seed, seconds):
    results, envs = {}, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, env = measure(workload, seed, seconds, trace)
            results[f"{workload}/trace{trace}"] = result
            envs[f"{workload}/trace{trace}"] = env
            for name, m in result["metrics"].items():
                print(f"{workload:20s} {name:45s} {m['value']:<14.6g} {m['unit']}")
            ok, attempted = result["attempted"] - result["failed"], result["attempted"]
            print(f"{workload:20s} {'checks':45s} {ok}/{attempted} operations ok")
    print(json.dumps({"env": envs}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "results": results,
    }))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join("src", "kdvlri", "__init__.py")):
        print("run.py: no src/kdvlri here; run it from the repository root",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print(f"run.py: --seed must fit in 64 unsigned bits, got {args.seed}",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            run_all(args.seed, args.seconds)
        else:
            result, env = measure(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps({"env": env}))
            print(json.dumps(result))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
