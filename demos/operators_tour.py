"""Tour of the spectral building blocks on the 2 pi torus.

Run: python3 demos/operators_tour.py
"""

import numpy as np

from kdvlri.spectral import (
    Field,
    Grid,
    dx,
    exp_airy,
    inv_dx,
    project_zero_mean,
    sobolev_norm,
    translate,
)

g = Grid(64)
print(f"grid: n={g.n}, spacing {2*np.pi/g.n:.4f}, "
      f"wavenumbers {g.wavenumbers[:4]} ... {g.wavenumbers[-1]}")

# a spectrum holds the modes xi = 0..N/2; uhat(-xi) is the conjugate of uhat(xi)
u = Field.from_values(g, np.cos(g.x) + 0.3 * np.sin(3 * g.x))
print("coefficients at xi = 0..3:", np.round(u.spectrum[:4], 3))
print("spectrum entries:", u.spectrum.size, "for", g.n, "grid values")

# derivative / antiderivative are inverse on zero-mean fields
du = dx(u, 1)
back = inv_dx(du)
print("max |inv_dx(dx u) - u| =", np.max(np.abs(back.values - u.values)))

# the free-propagator is a pure phase: cos(2x) -> cos(2x + 8t)
t = 0.25
moved = exp_airy(Field.from_values(g, np.cos(2 * g.x)), t)
print(
    "airy flow of cos(2x) vs cos(2x + 8t):",
    np.max(np.abs(moved.values - np.cos(2 * g.x + 8 * t))),
)

# ... and an H^gamma isometry
for gamma in (0.0, 1.0, 2.0):
    a = sobolev_norm(u, gamma)
    b = sobolev_norm(exp_airy(u, 1.7), gamma)
    print(f"H^{gamma:g} norm before/after airy flow: {a:.12f} / {b:.12f}")

# translate shifts the argument
sh = translate(u, np.pi / 2)
print(
    "translate by pi/2, compare against analytic shift:",
    np.max(np.abs(sh.values - (np.cos(g.x + np.pi / 2) + 0.3 * np.sin(3 * (g.x + np.pi / 2))))),
)

lifted = Field.from_values(g, 2.0 + np.cos(g.x))
print("mean after projection:", project_zero_mean(lifted).spectrum[0].real)
