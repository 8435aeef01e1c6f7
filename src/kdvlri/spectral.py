"""Fourier pseudo-spectral core for real periodic fields on the torus (0, 2*pi).

Conventions shared by every module in this package:

* N even grid nodes x_j = 2*pi*j/N, j = 0, ..., N-1.
* Spectral coefficients are normalized as uhat(xi) = (1/N) sum_j u(x_j)
  exp(-i xi x_j), so for a band-limited trigonometric polynomial the discrete
  coefficients equal the continuous Fourier coefficients and operator
  formulas transfer verbatim.  A spectrum holds the modes xi = 0, 1, ...,
  N/2, Nyquist last (numpy's rfft layout, norm="forward"); each mode
  0 < xi < N/2 stands for its conjugate partner -xi too, so every spectrum
  is that of a real field.
* The Nyquist mode N/2 has no partner on the grid.  Every odd-order
  multiplier (dx with odd order, inv_dx) and phase symbol (exp_airy,
  translate) is built from Grid's one copy of the wavenumbers with that entry
  set to 0, so the first vanish there and the second carry no phase (symbol
  1).  This makes exp_airy an exact isometry of every H^gamma norm and
  preserves the group law exp_airy(f, s + t) = exp_airy(exp_airy(f, s), t).
* inv_dx is the mean-free antiderivative: multiplier 1/(i xi) for xi != 0
  and 0 at xi = 0, so inv_dx(dx(f, 1)) == project_zero_mean(f).

A Field holds one field, shape (N,) of values and (N/2 + 1,) of spectrum, or
a stack of fields with a leading axis (B, .).  The operators act on the last
axis, row by row and bit for bit (exp_airy takes one time per row); norms and
integrals give a float, or one value per row.  What writes or steps a field
refuses a stack (require_single).

write_field writes one field as "csv" (the header '# n=<N> length=<2 pi>',
then one %.17g value per line) or "bin" (a 16-byte header: the magic bytes
KDVF, u32 N and 8 reserved bytes; then N little-endian float64); read_field
reads either, picking the format from the first 4 bytes.  Both round trips
are bit-exact.

All operations are pure: a Field is immutable after construction (its arrays
are marked read-only) and safe to share between threads.
"""

from __future__ import annotations

import struct
import warnings

import numpy as np
# numpy's own real FFT kernels, the ones np.fft.rfft/irfft call, without their
# per-call argument handling.  Private numpy API (numpy >= 2.0, which
# pyproject requires); tests/test_spectral.py pins it bit for bit to np.fft.
from numpy.fft._pocketfft_umath import irfft as _irfft, rfft_n_even as _rfft

TWO_PI = 2.0 * np.pi

_BINARY_MAGIC = b"KDVF"
# 16-byte header: magic, little-endian u32 N, 8 reserved zero bytes.
_BINARY_HEADER = struct.Struct("<4sII4x")

#: largest grid size; paper scale is 2^14, so only a mistyped size reaches it
MAX_GRID_N = 2**24


def check_grid_size(n) -> int:
    """Return int(n); refuse a size that is not even or not in [4, MAX_GRID_N]."""
    if n % 2 != 0 or not 4 <= n <= MAX_GRID_N:
        raise ValueError(f"grid size n = {n} must be even and in [4, {MAX_GRID_N}]")
    return int(n)


class Grid:
    """Uniform N-point grid on (0, 2*pi), N even and at least 4.

    Caches the float wavenumbers 0..N/2 of a spectrum and the multipliers
    the operators share, and holds the one Nyquist rule: _paired_k is the
    wavenumbers with the unpaired N/2 entry 0, and ik (i xi), inv_ik (the
    mean-free 1/(i xi)), airy(t) and every odd multiplier and phase symbol
    come from it.  rfft/irfft are the package's one transform pair.  Cached
    arrays are read-only, so a Grid can be used concurrently.
    """

    def __init__(self, n: int):
        self.n = n = check_grid_size(n)
        self.x = TWO_PI * np.arange(n) / n
        self.wavenumbers = k = np.arange(n // 2 + 1, dtype=np.float64)
        self.nyquist_index = n // 2
        self._inv_n = 1.0 / n  # the norm="forward" factor of rfft

        self._paired_k = paired = k.copy()
        paired[-1] = 0.0  # unpaired mode: no odd multiplier, no phase
        self.ik = ik = 1j * paired
        inv_ik = np.zeros_like(ik)
        inv_ik[1:-1] = 1.0 / ik[1:-1]
        # modes 1..N/2-1 count for their conjugate partners in norms
        pairs = np.full(k.size, 2.0)
        pairs[[0, -1]] = 1.0
        self.inv_ik, self._k3, self._pairs = inv_ik, paired**3, pairs
        for arr in (self.x, k, paired, ik, inv_ik, self._k3, pairs):
            arr.flags.writeable = False

    def airy(self, t) -> np.ndarray:
        """Symbol e^{i t xi^3} of e^{-t d^3/dx^3}; phase 1 at the Nyquist mode.

        An array of times gives one symbol row per time, shape
        t.shape + (N/2 + 1,).
        """
        return np.exp(1j * np.asarray(t)[..., None] * self._k3)

    def rfft(self, values, out=None) -> np.ndarray:
        """Spectrum (modes 0..N/2) of the grid values on the last axis, bit for
        bit np.fft.rfft(values, norm="forward"); written into out if given."""
        if out is None:
            out = np.empty(values.shape[:-1] + (self.nyquist_index + 1,), complex)
        return _rfft(values, self._inv_n, out=out)

    def irfft(self, spectrum, out=None) -> np.ndarray:
        """Grid values of the spectrum on the last axis, bit for bit
        np.fft.irfft(spectrum, N, norm="forward"); written into out if given.
        Like it, drops the imaginary parts of modes 0 and N/2."""
        if out is None:
            out = np.empty(spectrum.shape[:-1] + (self.n,))
        return _irfft(spectrum, 1.0, out=out)

    def __repr__(self):
        return f"Grid(n={self.n})"


class Field:
    """Real periodic field on a Grid, or a stack of them (leading axis).

    Built from grid values or from normalized spectral coefficients of the
    modes 0..N/2, not both; the other representation is computed on first
    access (Grid.rfft/irfft) and cached.  Both arrays are read-only: a Field
    never mutates after construction.
    """

    __slots__ = ("grid", "_values", "_spectrum")

    def __init__(self, grid: Grid, values=None, spectrum=None):
        if (values is None) == (spectrum is None):
            raise ValueError("Field needs values or spectrum, not both")
        self.grid = grid
        self._values = self._spectrum = None
        if values is not None:
            values = np.asarray(values)
            if values.dtype.kind == "c":  # a cast would drop the imaginary part
                raise ValueError(f"values must be real, got dtype {values.dtype}")
            self._values = _frozen_copy(values, np.float64, grid.n, grid, "values")
        else:
            spectrum, m = np.asarray(spectrum), grid.nyquist_index + 1
            self._spectrum = _frozen_copy(spectrum, np.complex128, m, grid, "spectrum")

    @classmethod
    def from_values(cls, grid: Grid, values) -> "Field":
        return cls(grid, values=values)

    @classmethod
    def from_spectrum(cls, grid: Grid, spectrum) -> "Field":
        return cls(grid, spectrum=spectrum)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            v = self.grid.irfft(self._spectrum)
            v.flags.writeable = False
            self._values = v
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            s = self.grid.rfft(self._values)
            s.flags.writeable = False
            self._spectrum = s
        return self._spectrum

    def __repr__(self):
        return f"Field(n={self.grid.n})"


def _frozen_copy(a, dtype, size, grid, name):
    """A read-only dtype copy of the array a; refuse a last axis not size long."""
    if a.shape[-1:] != (size,):
        modes = f" (modes 0..{grid.n // 2})" if name == "spectrum" else ""
        raise ValueError(
            f"{name} shape {a.shape} does not match grid n={grid.n}{modes}"
        )
    a = a.astype(dtype)
    a.flags.writeable = False
    return a


def require_single(f: Field, where: str) -> None:
    """Refuse a stack where one field is needed, naming its shape of values."""
    shape = (f._spectrum if f._values is None else f._values).shape[:-1] + (f.grid.n,)
    if shape != (f.grid.n,):
        raise ValueError(f"{where} needs one field of shape ({f.grid.n},), got {shape}")


def _per_field(x):
    return float(x) if np.ndim(x) == 0 else x


def _apply_symbol(f: Field, symbol) -> Field:
    return Field.from_spectrum(f.grid, f.spectrum * symbol)


def dx(f: Field, order: int = 1) -> Field:
    """Spectral derivative d^order/dx^order; Nyquist zeroed for odd order."""
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")
    if order == 0:
        return f
    if order == 1:
        return _apply_symbol(f, f.grid.ik)
    k = f.grid._paired_k if order % 2 else f.grid.wavenumbers
    return _apply_symbol(f, (1j * k) ** order)


def inv_dx(f: Field) -> Field:
    """Mean-free antiderivative: uhat(xi)/(i xi) for xi != 0, else 0."""
    return _apply_symbol(f, f.grid.inv_ik)


def exp_airy(f: Field, t: float) -> Field:
    """Airy propagator e^{-t d^3/dx^3}: symbol e^{i t xi^3}; one time per row.

    exp_airy(cos(x), t) = cos(x + t).  Exact inverse is exp_airy(., -t);
    the map is an isometry of every H^gamma norm and a group action in t.
    """
    return _apply_symbol(f, f.grid.airy(t))


def translate(f: Field, a: float) -> Field:
    """f(x + a) via the phase symbol e^{i xi a} (exact for band-limited f)."""
    return _apply_symbol(f, np.exp(1j * (f.grid._paired_k * a)))


def project_zero_mean(f: Field) -> Field:
    """Remove the mean: mode-0 coefficient set to exactly 0."""
    s = f.spectrum.copy()
    s[..., 0] = 0.0
    return Field.from_spectrum(f.grid, s)


def sobolev_norm(f: Field, gamma: float = 0.0) -> float:
    """H^gamma norm sqrt(2 pi) * (sum_xi (1 + xi^2)^gamma |uhat(xi)|^2)^(1/2).

    The sum runs over the full discrete band including the Nyquist mode, each
    mode 0 < xi < N/2 counted twice for its partner -xi; gamma = 0 gives the
    L^2 norm.
    """
    k = f.grid.wavenumbers
    s = f.spectrum
    weighted = f.grid._pairs * (1.0 + k * k) ** gamma * (s.real**2 + s.imag**2)
    return _per_field(np.sqrt(TWO_PI * np.sum(weighted, axis=-1)))


def sobolev_distance(a: Field, b: Field, gamma: float = 0.0) -> float:
    """H^gamma norm of a - b, taken on the spectra of a's grid."""
    return sobolev_norm(Field.from_spectrum(a.grid, a.spectrum - b.spectrum), gamma)


def integral(f: Field) -> float:
    """Integral over the torus: 2 pi * uhat(0) = (2 pi / N) sum_j f(x_j).

    Trapezoid sums are exact spectral quadrature on the periodic grid.
    """
    if f._values is not None:
        return _per_field(TWO_PI * np.mean(f._values, axis=-1))
    return _per_field(TWO_PI * f.spectrum[..., 0].real)


def mean_value(f: Field) -> float:
    """Mean (1/2pi) * integral(f), i.e. the mode-0 coefficient."""
    return integral(f) / TWO_PI


# ---------------------------------------------------------------------------
# serialization


def write_field(f: Field, path, fmt: str = "csv") -> None:
    """Write one field as "csv" or "bin" (see the module docstring)."""
    require_single(f, "write_field")
    n = f.grid.n
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(f"# n={n} length={TWO_PI!r}\n")
            fh.write(("%.17g\n" * n) % tuple(f.values.tolist()))  # one C-level pass
    elif fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(_BINARY_HEADER.pack(_BINARY_MAGIC, n, 0))
            fh.write(f.values.astype("<f8", copy=False).tobytes())
    else:
        raise ValueError(f"unknown field format {fmt!r}")


def read_field(path) -> Field:
    """Read a field write_field wrote, in the format its first 4 bytes name."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] == _BINARY_MAGIC:
        if len(raw) < _BINARY_HEADER.size:
            raise ValueError(f"{path}: truncated header")
        _, n, _ = _BINARY_HEADER.unpack_from(raw)
        if len(raw) != _BINARY_HEADER.size + 8 * n:
            raise ValueError(
                f"{path}: expected {_BINARY_HEADER.size + 8 * n} bytes, got {len(raw)}"
            )
        values = np.frombuffer(raw, "<f8", offset=_BINARY_HEADER.size).astype(float)
    else:
        header, *lines = raw.decode(errors="replace").splitlines() or [""]
        header = header.strip()
        if not header.startswith("# n="):  # bytes not UTF-8 read as U+FFFD
            raise ValueError(f"{path}: missing field header, got {header!r}")
        try:
            n_part, length_part = header[2:].split()
            n = int(n_part.split("=", 1)[1])
            length = float(length_part.split("=", 1)[1])
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{path}: malformed header {header!r}") from exc
        if abs(length - TWO_PI) > 1e-12:
            raise ValueError(f"{path}: unsupported domain length {length}")
        try:
            with warnings.catch_warnings():  # an empty body is refused below
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(lines, dtype=np.float64, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if values.shape != (n,):
            raise ValueError(
                f"{path}: header says n={n} but file has {values.shape[0]} values"
            )
    # checked here, not in Field, so the stepping loop pays nothing for it
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(
            f"{path}: non-finite value {values[bad[0]]} at index {bad[0]}"
        )
    try:
        grid = Grid(values.size)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return Field.from_values(grid, values)
