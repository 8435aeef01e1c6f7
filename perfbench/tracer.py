"""Span tracer that wraps kdvlri's public functions from outside the package.

`Tracer.install()` replaces each traced function at every module attribute
where a caller looks it up: `from .spectral import exp_airy` in
`integrators` binds its own name, so patching `kdvlri.spectral.exp_airy`
alone would miss those calls.  `numpy.fft.fft` and `numpy.fft.ifft` are
patched on the numpy module, since kdvlri calls them as `np.fft.fft(...)`.

Every wrapped call becomes one span (name, start, end, parent, note) held in
a list; `write_spans` dumps the list once the run is over and `summarize`
turns it into per-layer totals and self times.  Wrappers only time and
count, so traced outputs are bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (layer, module that defines it, function name); the span name is
# "<layer>.<function>".  The layers are the modules of src/kdvlri.
TRACED = (
    ("spectral", "kdvlri.spectral", "exp_airy"),
    ("spectral", "kdvlri.spectral", "inv_dx"),
    ("spectral", "kdvlri.spectral", "read_field"),
    ("spectral", "kdvlri.spectral", "write_field"),
    ("rough_data", "kdvlri.rough_data", "generate_rough"),
    ("integrators", "kdvlri.integrators", "evolve"),
    ("oracles", "kdvlri.oracles", "reference_solution"),
    ("oracles", "kdvlri.oracles", "ifrk4_solve"),
    ("oracles", "kdvlri.oracles", "embedded_form_step"),
    ("oracles", "kdvlri.oracles", "verification_suite"),
    ("studies", "kdvlri.studies", "run_convergence_study"),
    ("studies", "kdvlri.studies", "estimate_order"),
    ("studies", "kdvlri.studies", "emit_report"),
    ("cli", "kdvlri.cli", "main"),
)

FFT_NAMES = ("spectral.fft", "spectral.ifft")


def _evolve_note(run, *args, **kwargs):
    return f"{run.scheme.value}:{run.n_steps}"


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent_index, note)
        self._stack = [-1]
        self.fft_calls = 0
        self.fft_bytes = 0  # input plus output array bytes, computed
        self._originals = []  # (owner, attribute, original) for uninstall

    def _wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    name, start, end, parent,
                    note(*args, **kwargs) if note else "",
                )

        return wrapper

    def _wrap_fft(self, name, fn):
        timed = self._wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = timed(a, *args, **kwargs)
            self.fft_calls += 1
            self.fft_bytes += getattr(a, "nbytes", 0) + out.nbytes
            return out

        return wrapper

    def _patch(self, owner, attribute, replacement):
        self._originals.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        """Patch every binding site of the traced functions and numpy's FFTs."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "kdvlri" or k.startswith("kdvlri.")]
        for layer, module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            note = _evolve_note if attr == "evolve" else None
            wrapped = self._wrap(f"{layer}.{attr}", original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        for attr in ("fft", "ifft"):
            self._patch(np.fft, attr,
                        self._wrap_fft(f"spectral.{attr}", getattr(np.fft, attr)))

    def uninstall(self):
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def write_spans(self, path, header):
        """Write spans as tab-separated lines after a '#'-prefixed header."""
        with open(path, "w") as fh:
            fh.write(f"# {header}\n# index\tparent\tname\tstart_ns\tend_ns\tnote\n")
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\t{note}\n")


def summarize(spans):
    """Per-name inclusive totals, self times and counts, plus derived sums.

    Inclusive totals count only outermost spans of a name, so a nested call
    of the same function is not counted twice.  Self time is a span's
    duration minus the time covered by its direct children.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    total, self_ns, calls = {}, {}, {}
    ladder_ns = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        self_ns[name] = self_ns.get(name, 0) + duration - child_ns[i]
        calls[name] = calls.get(name, 0) + 1
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][3]
        if name not in ancestors:
            total[name] = total.get(name, 0) + duration
        if (name == "integrators.evolve"
                and "studies.run_convergence_study" in ancestors
                and "oracles.reference_solution" not in ancestors
                and name not in ancestors):
            ladder_ns += duration
    return {"total_ns": total, "self_ns": self_ns, "calls": calls,
            "ladder_ns": ladder_ns}
