"""The benchmark's tracer and runner still find the package's public names."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_functions_resolve():
    # the tracer wraps each (module, name) it lists, so a renamed or removed
    # public function would fail a traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for _, module_name, attr in tracer.TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )


def test_benchmark_runner_starts():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "rep.py"), "--help"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_outputs_match_the_benchmark_expected_values(tmp_path):
    # each workload's set-up and run, once at the default seed 42: the
    # study-pair error_rel columns and paper-slice L2/H1 norms must stay
    # within perfbench/expected_seed42.json's relative tolerance, the field
    # files must round-trip through read_field and write_field, and verify
    # must pass its 13 named checks, so a rounding change or a changed call
    # the benchmark makes fails this suite before it fails the benchmark
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    for name, workload in wl.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        ctx = wl.Context(str(workdir), wl.DEFAULT_SEED)
        workload.run(ctx, workload.setup(ctx))
        assert ctx.records, name
        failed = [r for r in ctx.records if r["problems"]]
        assert not failed, (name, failed)
