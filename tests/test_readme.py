"""The README's python examples run against the source tree, and the options
it names exist."""

import argparse
import os
import pathlib
import re
import subprocess
import sys

import pytest

from kdvlri.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
TEXT = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)


def test_readme_has_its_two_python_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_prose_names_only_options_the_parser_has():
    # a removed option must not linger in the docs: every --flag outside the
    # code blocks is an option of some subcommand
    prose = re.sub(r"^```.*?^```", "", TEXT, flags=re.DOTALL | re.MULTILINE)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", prose))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {o for sub in subparsers.choices.values()
               for a in sub._actions for o in a.option_strings}
    assert "--tau-ladder" in named
    assert named <= options, sorted(named - options)
