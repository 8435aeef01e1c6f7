"""Desk-size convergence study: first- vs second-order scheme on rough data.

Smaller than the acceptance configuration (N=256 instead of 1024, a short
ladder) so it finishes in seconds; the fitted orders land near 1 and 2 all
the same.

Run: python3 demos/convergence_mini.py
"""

import time

from kdvlri.integrators import SchemeKind
from kdvlri.studies import StudyConfig, render_report, run_convergence_study

cfg = StudyConfig(
    schemes=(SchemeKind.ELRI1, SchemeKind.ELRI2),
    taus=tuple(2.0**-k for k in range(4, 10)),
    n_points=256,
    theta=3.0,
    gamma_err=0.0,
    t_final=1.0,
    ref_tau=2.0**-13,
)
start = time.perf_counter()
report = run_convergence_study(cfg)
wall = time.perf_counter() - start

print(render_report(report, "csv"), end="")
print(f"\nwall time {wall:.1f}s")
for fit in report.fits:
    note = f" (dropped {len(fit.excluded_taus)} pre-asymptotic points)" if fit.excluded_taus else ""
    print(f"{fit.scheme.value}: fitted order {fit.fitted_order:.3f}{note}")
for flag in report.flags:
    print("flag:", flag)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4.5))
    for scheme in cfg.schemes:
        pts = [(r.tau, r.error_rel) for r in report.rows if r.scheme == scheme]
        ax.loglog(*zip(*pts), "o-", label=scheme.value)
    ax.set_xlabel("tau")
    ax.set_ylabel("relative L2 error at T=1")
    ax.legend()
    ax.grid(True, which="both", alpha=0.3)
    fig.tight_layout()
    fig.savefig("convergence_mini.png", dpi=120)
    print("wrote convergence_mini.png")
except ImportError:
    print("matplotlib not installed, skipping the figure")
