"""Two-point correlation matrices of the biased steady state.

The steady state fills left-incoming scattering states up to k_fl and
right-incoming ones up to k_fr, so the two-point function is

    <c_j^dag c_m> = int_{-k_fr}^{k_fl} dk/2pi  u_j(k)^* u_m(k),

with u_m(k) the scattering-state amplitudes.  Expanding the product of
amplitudes gives a handful of terms f(k) * exp(i*x*k), each integrated over
one momentum window at an integer rate x: j - m (Toeplitz) or j + m
(Hankel).  Every entry of either regime is thus a sum of Fourier
coefficients W(window, factor, x).  ``CorrelationBuilder`` holds one table
per (window, factor), filled in aligned blocks of consecutive rates, and
both matrix builders assemble whole blocks from it by numpy indexing.

Two regimes are implemented:

* finite distance: the integral above, windows (0, k_fl) and (0, k_fr).
* far limit: the limit d_i/ell_i -> infinity at fixed d_l - d_r, where
  all terms whose phase grows with d_i average out (Riemann-Lebesgue) and
  the matrix becomes block-Toeplitz.  With indices counted outward from the
  scatterer on both sides, and writing W_T(x) and W_X(x) for the signed
  voltage-window integrals of T(k) e^{ikx} and t_l(k)^* r_l(k) e^{ikx},

      within A_R:  sea(k_fr, j-m) + W_T(m-j)
      within A_L:  sea(k_fl, j-m) - W_T(m-j)
      A_R row j, A_L column m:  W_X(d_l - d_r - j + m)

  where sea(kf, x) = sin(kf x)/(pi x) is the filled-sea kernel.  Only the
  voltage window contributes to the cross block; for k_fl = k_fr it vanishes
  identically.  The signed convention makes the same expressions valid for
  either sign of k_fl - k_fr.

Index convention: within each block, row/column 1 is the site nearest the
scatterer and indices ascend away from it.  A flipped convention would
silently conjugate the cross block.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError, QuadratureSpec, integrate_oscillatory_batch
from .numerics import integrate_oscillatory  # noqa: F401  read by perfbench/tracer.py
from .scattering import BiasState, ScatteringModel

__all__ = [
    "SubsystemGeometry",
    "CorrelationMatrix",
    "correlation_entry_finite",
    "correlation_matrix_finite",
    "correlation_matrix_far",
    "CorrelationBuilder",
    "write_matrix_dump",
    "read_matrix_dump",
]

#: entries need to resolve 1/d^2 tails of the measures, so they are computed
#: a few digits tighter than the default
ENTRY_SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=0.0, max_panels=60000, nodes_per_panel=16)


@dataclass(frozen=True)
class SubsystemGeometry:
    """Distances and lengths of the two intervals, counted from the scatterer.

    A_L holds the sites -(m0+d_l+1) .. -(m0+d_l+ell_l) and A_R the sites
    +(m0+d_r+1) .. +(m0+d_r+ell_r).
    """

    m0: int = 0
    d_l: int = 0
    ell_l: int = 1
    d_r: int = 0
    ell_r: int = 1

    def __post_init__(self) -> None:
        if self.m0 < 0 or self.d_l < 0 or self.d_r < 0:
            raise ValueError("m0 and distances must be non-negative")
        if self.ell_l < 1 or self.ell_r < 1:
            raise ValueError("interval lengths must be at least 1")

    @property
    def ell_mirror(self) -> int:
        """Number of site pairs (-m, m) with one member in each interval."""
        lo = max(self.d_l, self.d_r)
        hi = min(self.d_l + self.ell_l, self.d_r + self.ell_r)
        return max(hi - lo, 0)

    @property
    def delta_ell_l(self) -> int:
        return self.ell_l - self.ell_mirror

    @property
    def delta_ell_r(self) -> int:
        return self.ell_r - self.ell_mirror

    @property
    def sorted_lengths(self) -> tuple[int, int, int, int]:
        """d_l, d_l+ell_l, d_r, d_r+ell_r in ascending order."""
        return tuple(sorted((self.d_l, self.d_l + self.ell_l, self.d_r, self.d_r + self.ell_r)))

    @property
    def is_symmetric(self) -> bool:
        return self.d_l == self.d_r and self.ell_l == self.ell_r

    def sites_left(self) -> tuple[int, ...]:
        base = self.m0 + self.d_l
        return tuple(-(base + j) for j in range(1, self.ell_l + 1))

    def sites_right(self) -> tuple[int, ...]:
        base = self.m0 + self.d_r
        return tuple(base + j for j in range(1, self.ell_r + 1))


@dataclass(frozen=True)
class CorrelationMatrix:
    """Correlation matrix of A_L u A_R split after its first n_left rows.

    Rows/columns run over A_L then A_R, each ordered outward from the
    scatterer.  Either side may be empty.
    """

    matrix: np.ndarray
    n_left: int

    def __post_init__(self) -> None:
        shape = self.matrix.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"correlation matrix must be square, got shape {shape}")
        if not 0 <= self.n_left <= shape[0]:
            raise ValueError(f"split n_left={self.n_left} outside [0, {shape[0]}]")

    @property
    def n_right(self) -> int:
        return self.dim - self.n_left

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def block_left(self) -> "CorrelationMatrix":
        n = self.n_left
        return CorrelationMatrix(self.matrix[:n, :n], n)

    def block_right(self) -> "CorrelationMatrix":
        n = self.n_left
        return CorrelationMatrix(self.matrix[n:, n:], 0)

    def cross_block(self) -> np.ndarray:
        """<c_L^dag c_R> block (rows A_L, columns A_R)."""
        n = self.n_left
        return self.matrix[:n, n:]


# ---------------------------------------------------------------------------
# Fourier tables

#: rates per table block; a block holds the rates BLOCK*b .. BLOCK*b + BLOCK-1
BLOCK = 64

#: smooth factors f(k) of the window integrals, from the amplitudes
#: (r_l, t_r, t_l, r_r).  The conjugates of r_l and r_r are not listed:
#: their terms are read as conjugates of the r_l and r_r tables.
_FACTORS = {
    "one": lambda r_l, t_r, t_l, r_r: np.ones_like(t_l),
    "T": lambda r_l, t_r, t_l, r_r: np.abs(t_l) ** 2,
    "R": lambda r_l, t_r, t_l, r_r: 1.0 - np.abs(t_l) ** 2,
    "rL": lambda r_l, t_r, t_l, r_r: r_l,
    "rR": lambda r_l, t_r, t_l, r_r: r_r,
    "tLc": lambda r_l, t_r, t_l, r_r: np.conj(t_l),
    "tLc_rL": lambda r_l, t_r, t_l, r_r: np.conj(t_l) * r_l,
    "tR": lambda r_l, t_r, t_l, r_r: t_r,
    "tR_rRc": lambda r_l, t_r, t_l, r_r: t_r * np.conj(r_r),
}


class CorrelationBuilder:
    """Fourier tables W(window, factor, x) shared by every matrix of a sweep.

    The builder is the one owner of the model, the bias and the quadrature
    spec; both matrix builders read them from it and take only a geometry.

    W(window, factor, x) = sign/(2pi) * int f(k) exp(i*x*k) dk over one of
    three windows: "L" = (0, k_fl) and "R" = (0, k_fr), the occupied
    left- and right-incoming states, and "V", the voltage window from k_fr
    to k_fl (sign -1 when k_fl < k_fr).  Each table is filled in aligned
    blocks of BLOCK consecutive integer rates, one batched quadrature per
    block on a grid sized by the block alone, so every coefficient is a
    pure function of (window, factor, block): it does not depend on which
    matrix, or which thread, asked for it first.  Two threads filling the
    same block compute the same values, so the race is harmless.
    """

    def __init__(self, model: ScatteringModel, bias: BiasState, spec: QuadratureSpec = ENTRY_SPEC):
        self.model = model
        self.bias = bias
        self.spec = spec
        self._windows = {
            "L": (0.0, bias.k_fl, 1.0),
            "R": (0.0, bias.k_fr, 1.0),
            "V": (bias.k_minus, bias.k_plus, 1.0 if bias.k_fl >= bias.k_fr else -1.0),
        }
        self._blocks: dict[tuple[str, str, int], np.ndarray] = {}

    def prefetch(self, keys) -> None:
        """Fill the missing table blocks among the (window, factor, block) keys."""
        for key in keys:
            if key in self._blocks:
                continue
            window, factor, block = key
            lo, hi, sign = self._windows[window]
            f = _FACTORS[factor]
            rates = range(BLOCK * block, BLOCK * (block + 1))
            try:
                vals = integrate_oscillatory_batch(lambda k: f(*self.model.amplitudes(k)), rates, lo, hi, self.spec)
            except NumericsError as exc:
                where = f"W(window {window}, factor {factor}, rates {rates[0]}..{rates[-1]})"
                raise type(exc)(f"{where}: {exc}") from exc
            self._blocks[key] = sign * vals / (2.0 * np.pi)

    def coefficients(self, window: str, factor: str, rates: np.ndarray) -> np.ndarray:
        """W(window, factor, x) at an integer array of rates x, same shape."""
        first = int(rates.min()) // BLOCK
        span = range(first, int(rates.max()) // BLOCK + 1)
        self.prefetch([(window, factor, b) for b in span])
        table = np.concatenate([self._blocks[(window, factor, b)] for b in span])
        return table[rates - BLOCK * first]


def _hermitian(block: np.ndarray) -> np.ndarray:
    """The upper triangle of a diagonal block, mirrored by conjugation."""
    upper = np.triu(block, 1)
    return upper + upper.conj().T + np.diag(block.diagonal().real)


# ---------------------------------------------------------------------------
# finite-distance regime

#: <c_j^dag c_m> for j and m outside the scattering region, per block of
#: (side of j, side of m), as sums of table reads (window, factor, a, b,
#: pair) at the rate a*j + b*m.  Window "R" holds the right-incoming states
#: after the substitution k -> -k, which conjugates every exponent.  A pair
#: term also stands for its conjugate partner (the conjugate factor at the
#: opposite rate) and contributes 2*Re of the table value.  The block with
#: j on the left and m on the right is the conjugate transpose of "RL".
_FINITE_TERMS = {
    "RR": (
        ("L", "T", -1, 1, False),
        ("R", "one", 1, -1, False),
        ("R", "rR", 1, 1, True),
        ("R", "R", -1, 1, False),
    ),
    "LL": (
        ("L", "one", -1, 1, False),
        ("L", "rL", -1, -1, True),
        ("L", "R", 1, -1, False),
        ("R", "T", 1, -1, False),
    ),
    "RL": (
        ("L", "tLc", -1, 1, False),
        ("L", "tLc_rL", -1, -1, False),
        ("R", "tR", 1, -1, False),
        ("R", "tR_rRc", -1, -1, False),
    ),
}


def _finite_block(builder: CorrelationBuilder, kind: str, rows, cols) -> np.ndarray:
    """Entries <c_j^dag c_m> for the sites j in rows and m in cols."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    out = np.zeros((rows.size, cols.size), dtype=complex)
    for window, factor, a, b, pair in _FINITE_TERMS[kind]:
        vals = builder.coefficients(window, factor, np.add.outer(a * rows, b * cols))
        out += 2.0 * vals.real if pair else vals
    return out


def correlation_entry_finite(
    model: ScatteringModel,
    bias: BiasState,
    j: int,
    m: int,
    spec: QuadratureSpec = ENTRY_SPEC,
) -> complex:
    """Steady-state <c_j^dag c_m> for sites outside the scattering region."""
    m0 = model.m0
    if abs(j) <= m0 or abs(m) <= m0:
        raise ValueError(f"sites must satisfy |site| > m0={m0}")
    builder = CorrelationBuilder(model, bias, spec)
    if j < -m0 and m > m0:
        return complex(np.conj(_finite_block(builder, "RL", [m], [j])[0, 0]))
    kind = ("R" if j > m0 else "L") + ("R" if m > m0 else "L")
    return complex(_finite_block(builder, kind, [j], [m])[0, 0])


def correlation_matrix_finite(builder: CorrelationBuilder, geom: SubsystemGeometry) -> CorrelationMatrix:
    """Finite-distance correlation matrix of A_L u A_R in the builder's state.

    The diagonal blocks are Hermitian by construction (upper triangle
    mirrored by conjugation).  A builder shared across matrices reuses its
    Fourier tables (useful for sweeps over nearby distances).
    """
    left, right = geom.sites_left(), geom.sites_right()
    nl, n = len(left), len(left) + len(right)
    out = np.zeros((n, n), dtype=complex)
    out[:nl, :nl] = _hermitian(_finite_block(builder, "LL", left, left))
    out[nl:, nl:] = _hermitian(_finite_block(builder, "RR", right, right))
    rl = _finite_block(builder, "RL", right, left)
    out[nl:, :nl] = rl
    out[:nl, nl:] = rl.conj().T
    return CorrelationMatrix(out, nl)


# ---------------------------------------------------------------------------
# far limit


def _sea_kernel(kf: float, x: np.ndarray) -> np.ndarray:
    """Filled-sea kernel sin(kf x)/(pi x), with the x = 0 limit kf/pi."""
    safe = np.where(x == 0, 1, x)
    return np.where(x == 0, kf / np.pi, np.sin(kf * x) / (np.pi * safe))


def _far_diagonal(builder: CorrelationBuilder, kf: float, sign: float, n: int) -> np.ndarray:
    """sea(kf, j-m) + sign * W_T(m-j) for j, m = 1..n, gathered from its
    2n - 1 Toeplitz values at the offsets x = j - m.  As in _hermitian, the
    upper triangle (x < 0) is kept, the lower one is its conjugate and the
    diagonal is real, so W_T is read at the rates -x = 0..n-1 only; adding
    0.0 to the conjugate gives a zero imaginary part the sign _hermitian's
    sum gives it, so the bytes match."""
    x = np.arange(1 - n, 1)
    values = _sea_kernel(kf, x) + sign * builder.coefficients("V", "T", -x)
    upper = values[:-1]
    values = np.concatenate([upper, values[-1:].real, upper[::-1].conj() + 0.0])
    idx = np.arange(n)
    return values[np.subtract.outer(idx, idx) + n - 1]


def correlation_matrix_far(builder: CorrelationBuilder, geom: SubsystemGeometry) -> CorrelationMatrix:
    """Far-limit correlation matrix of A_L u A_R in the builder's state
    (d_i / ell_i -> infinity, d_l - d_r fixed).

    Within-block entries are Toeplitz; the cross block carries the phase
    exp(i k (d_l - d_r)) through its shifted argument and vanishes when the
    voltage window is empty.
    """
    nl, nr = geom.ell_l, geom.ell_r
    out = np.zeros((nl + nr, nl + nr), dtype=complex)
    out[:nl, :nl] = _far_diagonal(builder, builder.bias.k_fl, -1.0, nl)
    out[nl:, nl:] = _far_diagonal(builder, builder.bias.k_fr, 1.0, nr)
    # A_R row j, A_L column m: W_X(d_l - d_r - j + m)
    rates = geom.d_l - geom.d_r - np.subtract.outer(np.arange(1, nr + 1), np.arange(1, nl + 1))
    rl = builder.coefficients("V", "tLc_rL", rates)
    out[nl:, :nl] = rl
    out[:nl, nl:] = rl.conj().T
    return CorrelationMatrix(out, nl)


# ---------------------------------------------------------------------------
# debugging dump: dim as uint64 LE, then row-major complex pairs as float64 LE


def write_matrix_dump(cm: CorrelationMatrix, path) -> None:
    a = np.ascontiguousarray(cm.matrix, dtype=complex)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", a.shape[0]))
        pairs = np.empty((a.size, 2), dtype="<f8")
        pairs[:, 0] = a.real.ravel()
        pairs[:, 1] = a.imag.ravel()
        fh.write(pairs.tobytes())


def read_matrix_dump(path) -> np.ndarray:
    with open(path, "rb") as fh:
        (dim,) = struct.unpack("<Q", fh.read(8))
        data = np.frombuffer(fh.read(16 * dim * dim), dtype="<f8").reshape(dim * dim, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(dim, dim)
