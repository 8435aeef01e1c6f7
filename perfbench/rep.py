"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --mode MODE \
        --t0-ns T --workdir DIR --out RESULT.json

`run.py` starts this script once per repetition, so nothing cached inside
the process carries over from one repetition to the next.  Modes:

* plain  -- set-up, then the workload, untraced (end-to-end metrics),
            then the calibration kernel;
* traced -- the same with the tracer installed before set-up; adds the
            per-layer numbers and writes the spans next to RESULT.json;
* setup  -- set-up and the calibration kernel, for more set-up samples;
* probe  -- operator micro-timings at N = 256, 1024, 16384, and per-step
            FFT counts and step times of each scheme at the workload's N.

T is the parent's CLOCK_MONOTONIC reading just before it started this
process, so set-up time counts from interpreter start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time
import timeit

import numpy as np

import kdvlri
import workloads
from kdvlri.integrators import SchemeKind, SolverRun
from kdvlri.rough_data import RoughSpec
from kdvlri.spectral import Field, Grid, exp_airy, inv_dx
from tracer import FFT_NAMES, Tracer, summarize

SCHEMES = ("lri1", "elri1", "elri2")
OPERATOR_GRIDS = (256, 1024, 16384)
PROBE_TAU = 2.0**-10
PROBE_THETA = 3.0


def environment():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kdvlri": kdvlri.__version__,
    }


def trace_metrics(tracer, wall_s):
    """Per-layer numbers of one traced repetition.

    wall_s is the program time of the repetition (set-up calls plus work).
    A layer that some workload never calls is reported as a share of wall_s
    and a call count, so it reads 0 there instead of a constant 0 s time.
    """
    s = summarize(tracer.spans)
    total, self_ns, calls = s["total_ns"], s["self_ns"], s["calls"]

    def sec(table, *names):
        return sum(table.get(n, 0) for n in names) / 1e9

    def layer_self(layer):
        return sum(v for k, v in self_ns.items() if k.startswith(layer + ".")) / 1e9

    io = ("spectral.read_field", "spectral.write_field")
    return {
        "spectral.fft_calls": tracer.fft_calls,
        "spectral.fft_s": sec(total, *FFT_NAMES),
        "spectral.self_s": layer_self("spectral"),
        "spectral.io_calls": sum(calls.get(n, 0) for n in io),
        "spectral.io_share": sec(total, *io) / wall_s,
        "rough_data.calls": calls.get("rough_data.generate_rough", 0),
        "rough_data.generate_share": sec(total, "rough_data.generate_rough") / wall_s,
        "rough_data.self_share": layer_self("rough_data") / wall_s,
        "integrators.evolve_s": sec(total, "integrators.evolve"),
        "integrators.evolve_calls": calls.get("integrators.evolve", 0),
        "integrators.steps": sum(int(note.split(":")[1]) for name, *_, note
                                 in tracer.spans if name == "integrators.evolve"),
        "integrators.self_s": layer_self("integrators"),
        "oracles.reference_calls": calls.get("oracles.reference_solution", 0),
        "oracles.reference_share": sec(total, "oracles.reference_solution") / wall_s,
        "oracles.ifrk4_share": sec(total, "oracles.ifrk4_solve") / wall_s,
        "oracles.embedded_form_share": sec(total, "oracles.embedded_form_step") / wall_s,
        "oracles.verify_share": sec(total, "oracles.verification_suite") / wall_s,
        "oracles.self_share": layer_self("oracles") / wall_s,
        "studies.study_share": sec(total, "studies.run_convergence_study") / wall_s,
        "studies.ladder_share": s["ladder_ns"] / 1e9 / wall_s,
        "studies.self_share": sec(self_ns, "studies.run_convergence_study") / wall_s,
        "studies.fit_share": sec(total, "studies.estimate_order") / wall_s,
        "studies.emit_share": sec(total, "studies.emit_report") / wall_s,
        "cli.calls": calls.get("cli.main", 0),
        "cli.main_s": sec(total, "cli.main"),
        "cli.self_s": layer_self("cli"),
        "trace.wall_s": wall_s,
        "trace.spans": len(tracer.spans),
    }


def calibration_s():
    """Best of three timings of fixed numpy work, independent of kdvlri.

    The work is shaped like the workloads: FFTs at N = 64, 1024 and 16384
    with an Airy-like phase product.  Its time tracks only how fast this
    host runs at the moment, which run.py divides out of the timings.
    """
    rng = np.random.default_rng(12345)
    inputs = [(n, calls, rng.standard_normal(n), np.fft.fftfreq(n, 1.0 / n) ** 3)
              for n, calls in ((64, 1500), (1024, 250), (16384, 12))]

    def kernel():
        acc = 0.0
        for n, calls, x, k3 in inputs:
            for i in range(calls):
                s = np.fft.fft(x) / n * np.exp(1j * (i * 1e-3) * k3)
                acc += np.fft.ifft(s * n).real[i % n]
        return acc

    return min(timeit.repeat(kernel, number=1, repeat=3))


def _best_us(stmt, env, batch_s=0.005, repeat=7):
    """Per-call time in microseconds: repeat timed batches, keep the minimum."""
    timer = timeit.Timer(stmt, globals=env)
    number, elapsed = 1, timer.timeit(1)
    if elapsed < batch_s:
        number = max(1, int(batch_s / max(elapsed, 1e-7)))
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def operator_timings(seed):
    """One operator call through the public functions, untraced."""
    out = {}
    for n in OPERATOR_GRIDS:
        f = kdvlri.generate_rough(RoughSpec(n, PROBE_THETA, seed))
        env = {"Field": Field, "exp_airy": exp_airy, "inv_dx": inv_dx,
               "grid": Grid(n), "f": f, "v": np.array(f.values),
               "s": np.array(f.spectrum), "tau": PROBE_TAU}
        for op, stmt in (
            ("exp_airy", "exp_airy(f, tau)"),
            ("inv_dx", "inv_dx(f)"),
            ("fft", "Field.from_values(grid, v).spectrum"),
            ("ifft", "Field.from_spectrum(grid, s).values"),
            ("product", "Field.from_values(grid, v * v)"),
        ):
            out[f"spectral.{op}_us.n{n}"] = _best_us(stmt, env)
    return out


def step_probe(n, seed):
    """Exact FFTs per step and step times of each scheme at grid size n.

    Every evolve starts from a fresh copy of the initial spectrum, so no
    cached grid values carry over between evolves.  The per-step FFT count
    and computed bytes are the difference between a 3-step and a 2-step
    evolve: the steady state of the evolve loop, where each step starts
    from the previous step's spectrum.  Step times are the best of three
    K-step evolves, inclusive and as the evolve span's self time (its own
    algebra, without the traced operators and FFTs).
    """
    spectrum = np.array(kdvlri.generate_rough(RoughSpec(n, PROBE_THETA, seed)).spectrum)
    grid = Grid(n)
    k = 8 if n >= 8192 else 64
    tracer = Tracer()
    tracer.install()
    out = {}

    def evolve(name, steps):
        run = SolverRun(scheme=SchemeKind(name), tau=PROBE_TAU, t_final=steps * PROBE_TAU,
                        initial=Field.from_spectrum(grid, spectrum))
        calls, nbytes, first = tracer.fft_calls, tracer.fft_bytes, len(tracer.spans)
        kdvlri.integrators.evolve(run)
        return tracer.fft_calls - calls, tracer.fft_bytes - nbytes, first

    try:
        for name in SCHEMES:
            c2, b2, _ = evolve(name, 2)
            c3, b3, _ = evolve(name, 3)
            out[f"spectral.fft_per_step.{name}"] = c3 - c2
            out[f"spectral.fft_bytes_computed_per_step.{name}"] = b3 - b2
            totals, selfs = [], []
            for _ in range(3):
                first = evolve(name, k)[2]
                _, start, end, _, _ = tracer.spans[first]
                child = sum(e - b for _, b, e, parent, _ in tracer.spans[first + 1:]
                            if parent == first)
                totals.append((end - start) / k / 1e6)
                selfs.append((end - start - child) / k / 1e6)
            out[f"integrators.step_ms.{name}"] = min(selfs)
            out[f"integrators.step_total_ms.{name}"] = min(totals)
    finally:
        tracer.uninstall()
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("plain", "traced", "setup", "probe"))
    p.add_argument("--t0-ns", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    result = {"env": environment()}

    if args.mode == "probe":
        result["metrics"] = {**operator_timings(args.seed),
                             **step_probe(workload.n_points, args.seed)}
    else:
        tracer = None
        if args.mode == "traced":
            tracer = Tracer()
            tracer.install()
        ctx = workloads.Context(args.workdir, args.seed)
        state = workload.setup(ctx)
        result["setup_s"] = (time.monotonic_ns() - args.t0_ns) / 1e9
        setup_program_ns, ctx.program_ns = ctx.program_ns, 0
        if args.mode != "setup":
            workload.run(ctx, state)
            result["wall_s"] = ctx.program_ns / 1e9
            result["program_s"] = (setup_program_ns + ctx.program_ns) / 1e9
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
        if args.mode != "traced":
            result["calibration_s"] = calibration_s()
        result["records"] = ctx.records
        result["values"] = ctx.values
        result["notes"] = ctx.notes
        if tracer is not None:
            tracer.uninstall()
            result["metrics"] = trace_metrics(tracer, result["program_s"])
            tracer.write_spans(
                os.path.splitext(args.out)[0] + ".spans.tsv",
                json.dumps({"workload": args.workload, "seed": args.seed,
                            **result["env"]}),
            )
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
