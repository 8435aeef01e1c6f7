"""Rough initial data: same seed, different smoothing exponents.

The generator shapes a deterministic uniform stream by |xi|^(-theta), so
theta controls the Sobolev regularity.  The plot (if matplotlib is around)
shows how smaller theta keeps more high-frequency content.

Run: python3 demos/rough_data_demo.py
"""

import numpy as np

from kdvlri.rough_data import RoughSpec, generate_rough
from kdvlri.spectral import sobolev_norm

N = 1024
fields = {}
for theta in (1.0, 2.0, 3.0):
    f = generate_rough(RoughSpec(N, theta, seed=42))
    fields[theta] = f
    print(f"theta={theta:g}: peak {np.max(np.abs(f.values)):.15f}, "
          f"mean {f.spectrum[0].real:.1e}, "
          f"H^1 {sobolev_norm(f, 1.0):.4f}, H^2 {sobolev_norm(f, 2.0):.4f}")

# spectral decay by dyadic band: |uhat| should fall roughly like 2^(-j theta).
# A spectrum holds the modes xi = 0..N/2; uhat(-xi) is the conjugate of uhat(xi)
print("\nband-averaged |uhat| (bands 2^j <= |xi| < 2^(j+1)):")
k = fields[2.0].grid.wavenumbers
header = "  j    " + "".join(f"theta={t:g}      " for t in fields)
print(header)
for j in range(2, 9):
    sel = (k >= 2**j) & (k < 2 ** (j + 1))
    row = f"  {j}    "
    for theta, f in fields.items():
        row += f"{np.abs(f.spectrum[sel]).mean():.3e}    "
    print(row)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 1, figsize=(8, 6))
    for theta, f in fields.items():
        axes[0].plot(f.grid.x, f.values, lw=0.8, label=f"theta={theta:g}")
        axes[1].loglog(k[1:], np.abs(f.spectrum[1:]), lw=0.8, label=f"theta={theta:g}")
    axes[0].set_title("rough data, seed 42")
    axes[1].set_title("spectral decay")
    axes[1].set_xlabel("|xi|")
    for ax in axes:
        ax.legend()
    fig.tight_layout()
    fig.savefig("rough_data_demo.png", dpi=120)
    print("\nwrote rough_data_demo.png")
except ImportError:
    print("\nmatplotlib not installed, skipping the figure")
