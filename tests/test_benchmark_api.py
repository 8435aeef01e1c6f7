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
