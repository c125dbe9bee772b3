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
  either sign of k_fl - k_fr.  ``correlation_matrix_far`` returns a
  ``FarMatrix``: these site entries, plus the builder's diagonal blocks in
  folded real form and the cross block in the folded basis, real when the
  union folds and complex otherwise, which the ``entanglement`` module
  docstring derives.

A ``CorrelationMatrix`` is finite and Hermitian: its constructor checks any
matrix handed in from outside (``numerics.check_hermitian``), once, and the
builders here, which make their matrices Hermitian exactly, say so with
``built_hermitian=True``.  Nothing downstream checks again.

Index convention: within each block, row/column 1 is the site nearest the
scatterer and indices ascend away from it.  A flipped convention would
silently conjugate the cross block.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import NumericsError, QuadratureSpec, check_hermitian, integrate_oscillatory_batch
from .numerics import integrate_oscillatory  # noqa: F401  read by perfbench/tracer.py
from .scattering import BiasState, ScatteringModel

__all__ = [
    "SubsystemGeometry",
    "CorrelationMatrix",
    "FarBlock",
    "FarMatrix",
    "correlation_matrix_finite",
    "correlation_matrix_far",
    "CorrelationBuilder",
    "write_matrix_dump",
    "read_matrix_dump",
]

#: entries need to resolve 1/d^2 tails of the measures, so they are computed
#: a few digits tighter than the default
ENTRY_SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=0.0, max_panels=60000, nodes_per_panel=16)

#: a far-limit union folds when the parity defect of the W_X values it reads,
#: max |w(x) + conj w(-x)|, is at most this relative to its largest diagonal
#: entry (far matrices reach about 3e-16)
FOLD_TOL = 1e-14


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
    scatterer.  Either side may be empty.  The matrix is checked for
    Hermiticity here, unless its maker built it Hermitian exactly and says
    so with ``built_hermitian``.
    """

    matrix: np.ndarray
    n_left: int
    built_hermitian: bool = field(default=False, kw_only=True)

    def __post_init__(self) -> None:
        shape = self.matrix.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"correlation matrix must be square, got shape {shape}")
        if not 0 <= self.n_left <= shape[0]:
            raise ValueError(f"split n_left={self.n_left} outside [0, {shape[0]}]")
        if not self.built_hermitian:
            check_hermitian(self.matrix)

    @property
    def n_right(self) -> int:
        return self.dim - self.n_left

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def block_left(self) -> "CorrelationMatrix":
        n = self.n_left
        return CorrelationMatrix(self.matrix[:n, :n], n, built_hermitian=True)

    def block_right(self) -> "CorrelationMatrix":
        n = self.n_left
        return CorrelationMatrix(self.matrix[n:, n:], 0, built_hermitian=True)

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
        self._far: dict[str, FarBlock] = {}

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

    def far_block(self, side: str, n: int) -> "FarBlock":
        """The far-limit diagonal block of n sites on side "L" (A_L) or "R"
        (A_R).  The builder keeps the last block of each side, so a sweep at
        fixed lengths reuses its blocks, and their eigenpairs, at every
        point, and a length sweep holds at most two.
        A block is a pure function of its key, so two threads building the
        same one build equal blocks."""
        block = self._far.get(side)
        if block is None or block.site.shape[0] != n:
            kf, sign = (self.bias.k_fl, -1.0) if side == "L" else (self.bias.k_fr, 1.0)
            # B[j, m] = values[j - m + n - 1]: a read-only view of the 2n - 1 values
            site = sliding_window_view(_far_diagonal(self, kf, sign, n), n)[:, ::-1]
            # Re B - s J Im B with s = -sign: P = J on A_L and -J on A_R
            self._far[side] = block = FarBlock(site, site.real + sign * site.imag[::-1])
        return block


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


def correlation_matrix_finite(builder: CorrelationBuilder, geom: SubsystemGeometry) -> CorrelationMatrix:
    """Finite-distance correlation matrix of A_L u A_R in the builder's state.

    Hermitian by construction: the diagonal blocks mirror their upper
    triangle by conjugation, and the cross block is conjugate-transposed.  A
    builder shared across matrices reuses its
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
    return CorrelationMatrix(out, nl, built_hermitian=True)


# ---------------------------------------------------------------------------
# far limit


def _sea_kernel(kf: float, x: np.ndarray) -> np.ndarray:
    """Filled-sea kernel sin(kf x)/(pi x), with the x = 0 limit kf/pi."""
    safe = np.where(x == 0, 1, x)
    return np.where(x == 0, kf / np.pi, np.sin(kf * x) / (np.pi * safe))


def _far_diagonal(builder: CorrelationBuilder, kf: float, sign: float, n: int) -> np.ndarray:
    """The 2n - 1 Toeplitz values of the block sea(kf, j-m) + sign * W_T(m-j)
    for j, m = 1..n, at the offsets x = j - m = 1-n .. n-1.  As in
    _hermitian, the upper triangle (x < 0) is kept, the lower one is its
    conjugate and the diagonal is real, so W_T is read at the rates
    -x = 0..n-1 only; adding 0.0 to the conjugate gives a zero imaginary part
    the sign _hermitian's sum gives it, so the bytes match."""
    x = np.arange(1 - n, 1)
    values = _sea_kernel(kf, x) + sign * builder.coefficients("V", "T", -x)
    upper = values[:-1]
    return np.concatenate([upper, values[-1:].real, upper[::-1].conj() + 0.0])


@dataclass
class FarBlock:
    """A far-limit diagonal block B of a builder: its site entries, its
    folded real form Re B - s J Im B (s = 1 on A_L, -1 on A_R), symmetric
    entry for entry, and the folded form's clamped eigenpairs once a
    partition has asked for them (``entanglement.partition``)."""

    site: np.ndarray
    folded: np.ndarray
    pairs: tuple | None = None


@dataclass(frozen=True, kw_only=True)
class FarMatrix(CorrelationMatrix):
    """A far-limit correlation matrix with what its builder knows about it:
    the builder's diagonal blocks ``left`` and ``right``, and the cross block
    in the folded basis, ``coupling`` = F = Q_L^dag C_LR Q_R, of shape
    (n_left, n_right).  F is real exactly when the union folds (``folds``),
    and complex otherwise."""

    left: FarBlock
    right: FarBlock
    coupling: np.ndarray

    @property
    def folds(self) -> bool:
        return not np.iscomplexobj(self.coupling)


def correlation_matrix_far(builder: CorrelationBuilder, geom: SubsystemGeometry) -> FarMatrix:
    """Far-limit correlation matrix of A_L u A_R in the builder's state
    (d_i / ell_i -> infinity, d_l - d_r fixed).

    Within-block entries are Toeplitz; the cross block carries the phase
    exp(i k (d_l - d_r)) through its shifted argument and vanishes when the
    voltage window is empty.  The union folds to real form when the centres
    of the two intervals are mirror images, 2(d_l - d_r) = ell_r - ell_l,
    and the W_X values read satisfy w(-x) = -conj w(x) to FOLD_TOL of the
    largest entry (0 <= C <= I bounds every entry by the largest diagonal
    one).  Either way F is gathered from the same W_X values as the cross
    block, one Toeplitz and one Hankel read.
    """
    nl, nr = geom.ell_l, geom.ell_r
    left, right = builder.far_block("L", nl), builder.far_block("R", nr)
    # W_X(d_l - d_r + x) at x = 1 - nr .. nl - 1.  A_L site m and A_R site j
    # (from 0) read x = m - j in the cross block, a Toeplitz view of w, and F
    # reads also x = m + j + 1 - nr (J_R reverses j), a Hankel view
    low = geom.d_l - geom.d_r - nr + 1
    w = builder.coefficients("V", "tLc_rL", np.arange(low, low + nl + nr - 1))
    out = np.zeros((nl + nr, nl + nr), dtype=complex)
    out[:nl, :nl] = left.site
    out[nl:, nl:] = right.site
    # A_R row j, A_L column m: W_X(d_l - d_r - j + m)
    out[nl:, :nl] = sliding_window_view(w, nl)[::-1]
    out[:nl, nl:] = out[nl:, :nl].conj().T
    tol = FOLD_TOL * max(abs(left.site[0, 0]), abs(right.site[0, 0]))
    if 2 * (geom.d_l - geom.d_r) == nr - nl and np.abs(w + w[::-1].conj()).max() <= tol:
        coupling = sliding_window_view(w.real[::-1], nr)[::-1] + sliding_window_view(w.imag, nr)
    else:
        # F = (C - J_L C J_R)/2 + i (J_L C + C J_R)/2 with C = C_LR, each
        # half formed on the 1-D values before its view
        u, v = w.conj(), w[::-1].conj()
        toe, han = (u - v) / 2, 0.5j * (u + v)
        coupling = sliding_window_view(toe[::-1], nr)[::-1] + sliding_window_view(han, nr)
    return FarMatrix(out, nl, left=left, right=right, coupling=coupling, built_hermitian=True)


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
