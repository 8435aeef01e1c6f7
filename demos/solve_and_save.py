"""Evolve rough data with the second-order scheme and round-trip the result.

Run: python3 demos/solve_and_save.py
"""

import os
import tempfile

import numpy as np

from kdvlri.integrators import SchemeKind, SolverRun, evolve
from kdvlri.rough_data import RoughSpec, generate_rough
from kdvlri.spectral import read_field, sobolev_norm, write_field

u0 = generate_rough(RoughSpec(512, theta=2.0, seed=42))
run = SolverRun(
    scheme=SchemeKind.ELRI2,
    tau=2.0**-8,
    t_final=1.0,
    initial=u0,
    record_every=64,  # keep a few snapshots along the way
)
traj = evolve(run)

print(f"{run.n_steps} steps of {run.scheme.name} at tau=2^-8")
print(f"max mode-0 drift: {traj.max_mean_drift:.3e}")
print("snapshots:")
for t, f in traj.samples:
    print(f"  t={t:5.2f}  L2={sobolev_norm(f, 0.0):.10f}  H1={sobolev_norm(f, 1.0):.6f}")

# L2 norm is conserved by the equation; the table above shows how well the
# scheme tracks that at this step size
drift = abs(sobolev_norm(traj.final, 0.0) - sobolev_norm(u0, 0.0))
print(f"L2 norm change over the run: {drift:.3e}")

tmp = tempfile.mkdtemp()
csv_path = os.path.join(tmp, "final.csv")
bin_path = os.path.join(tmp, "final.bin")
write_field(traj.final, csv_path, fmt="csv")
write_field(traj.final, bin_path, fmt="bin")
print(f"\nwrote {csv_path} ({os.path.getsize(csv_path)} bytes)")
print(f"wrote {bin_path} ({os.path.getsize(bin_path)} bytes)")

# both formats restore the field exactly (text uses 17 significant digits)
for path in (csv_path, bin_path):
    back = read_field(path)
    print(f"round trip {os.path.basename(path)}: bit-equal =",
          np.array_equal(back.values, traj.final.values))
