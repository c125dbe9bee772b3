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
both matrix builders assemble whole blocks from it by numpy indexing.  The
factors asked for together on one (window, block) share one batched
quadrature: its nodes, amplitudes and Chebyshev moments.

Two regimes are implemented:

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
  ``FarMatrix``: the builder's diagonal blocks, their folded real form and
  the cross block in the folded basis, real when the union folds and
  complex otherwise, which the ``entanglement`` module docstring derives.
  The solvers read only these, so the site entries are assembled when
  something first reads them.
* finite distance: the far-limit matrix of the same d_l - d_r plus the
  four terms Riemann-Lebesgue removes, one in each diagonal block and two in
  the cross block.  Their rates j + m (up to sign) grow with the distance,
  so they are Hankel in the outward indices; they are integrated over the
  Fermi windows (0, k_fl) and (0, k_fr).  The distance-independent
  (Toeplitz) terms of the integral above sum to the far-limit entries
  exactly: on the diagonal blocks the two windows combine into the sea
  kernel and W_T, and on the cross block the (0, k_fr) parts of
  conj(t_l) r_l and t_r conj(r_r) cancel by the unitarity of S, which
  leaves W_X.  ``correlation_matrix_finite`` returns a ``FiniteMatrix``:
  the ``FarMatrix`` of the same d_l - d_r and lengths, which the builder
  keeps, and the 1-D values of the four Hankel terms, 2 ell_l - 1 and
  2 ell_r - 1 real ones for the diagonal blocks and ell_l + ell_r - 1
  complex ones for the cross block.  So a distance sweep builds its far
  matrix once and each matrix reads only its Hankel values.  The solvers
  partition it in the eigenbasis of the far blocks (``entanglement``
  module docstring), and its site entries, too, are assembled from views
  when something first reads them.  The diagonal Hankel terms are real and
  symmetric, so the sum stays Hermitian exactly.

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
from functools import cached_property

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
    "FiniteMatrix",
    "correlation_matrix_finite",
    "correlation_matrix_far",
    "CorrelationBuilder",
    "cross_rates",
    "has_parity",
    "write_matrix_dump",
    "read_matrix_dump",
]

#: entries need to resolve 1/d^2 tails of the measures, so they are computed
#: a few digits tighter than the default
ENTRY_SPEC = QuadratureSpec(abs_tol=1e-11, max_panels=60000)

#: a far-limit union folds, and a far sweep shares the values of mirror-image
#: geometries, when the parity defect of the W_X values read,
#: max |w(x) + conj w(-x)|, is at most this relative to the largest diagonal
#: entry (far matrices reach about 3e-16); ``has_parity`` applies it
FOLD_TOL = 1e-14


@dataclass(frozen=True)
class SubsystemGeometry:
    """Distances and lengths of the two intervals, counted from the scatterer.

    The scatterer sits at site 0; A_L holds the sites -(d_l+1) .. -(d_l+ell_l)
    and A_R the sites d_r+1 .. d_r+ell_r.
    """

    d_l: int = 0
    ell_l: int = 1
    d_r: int = 0
    ell_r: int = 1

    def __post_init__(self) -> None:
        if self.d_l < 0 or self.d_r < 0:
            raise ValueError("distances must be non-negative")
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
        return tuple(-(self.d_l + j) for j in range(1, self.ell_l + 1))

    def sites_right(self) -> tuple[int, ...]:
        return tuple(self.d_r + j for j in range(1, self.ell_r + 1))


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
        object.__setattr__(self, "matrix", np.asarray(self.matrix))
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
    "T": lambda r_l, t_r, t_l, r_r: np.abs(t_l) ** 2,
    "rL": lambda r_l, t_r, t_l, r_r: r_l,
    "rR": lambda r_l, t_r, t_l, r_r: r_r,
    "tLc": lambda r_l, t_r, t_l, r_r: np.conj(t_l),
    "tLc_rL": lambda r_l, t_r, t_l, r_r: np.conj(t_l) * r_l,
    "tR": lambda r_l, t_r, t_l, r_r: t_r,
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
        self._far_matrix: tuple | None = None

    def prefetch(self, keys) -> None:
        """Fill the missing table blocks among the (window, factor, block)
        keys: one batched quadrature per (window, block), whose factors share
        its nodes, amplitudes and Chebyshev moments."""
        groups: dict[tuple[str, int], dict[str, None]] = {}  # dicts as ordered sets
        for window, factor, block in keys:
            if (window, factor, block) not in self._blocks:
                groups.setdefault((window, block), {})[factor] = None
        for (window, block), factors in groups.items():
            factors = list(factors)
            lo, hi, sign = self._windows[window]
            fs = [_FACTORS[factor] for factor in factors]
            rates = range(BLOCK * block, BLOCK * (block + 1))

            def f_rows(k: np.ndarray) -> list:
                amps = self.model.amplitudes(k)
                return [f(*amps) for f in fs]

            try:
                vals = integrate_oscillatory_batch(f_rows, rates, lo, hi, self.spec)
            except NumericsError as exc:
                if len(factors) > 1:
                    # a block fails in company exactly when one of its factors
                    # fails alone, so filling them alone names that integral
                    for factor in factors:
                        self.prefetch([(window, factor, block)])
                where = f"W(window {window}, factor {factors[0]}, rates {rates[0]}..{rates[-1]})"
                raise type(exc)(f"{where}: {exc}") from exc
            for factor, row in zip(factors, vals):
                self._blocks[(window, factor, block)] = sign * row / (2.0 * np.pi)

    def coefficients(self, window: str, factor: str, rates: np.ndarray) -> np.ndarray:
        """W(window, factor, x) at an integer array of rates x, same shape."""
        span = _span(rates)
        self.prefetch([(window, factor, b) for b in span])
        table = np.concatenate([self._blocks[(window, factor, b)] for b in span])
        return table[rates - BLOCK * span[0]]

    def far_block(self, side: str, n: int) -> "FarBlock":
        """The far-limit diagonal block of n sites on side "L" (A_L) or "R"
        (A_R).  The builder keeps the last block of each side, so a sweep at
        fixed lengths reuses its blocks, and their eigenpairs, at every
        point, and a length sweep holds at most two.  A finite-distance
        matrix reads the same blocks.  A block is a pure function of its
        key, so two threads building the same one build equal blocks."""
        block = self._far.get(side)
        if block is None or block.site.shape[0] != n:
            kf, sign = (self.bias.k_fl, -1.0) if side == "L" else (self.bias.k_fr, 1.0)
            # B[j, m] = values[j - m + n - 1]: a read-only view of the 2n - 1 values
            site = sliding_window_view(_far_diagonal(self, kf, sign, n), n)[:, ::-1]
            # Re B - s J Im B with s = -sign: P = J on A_L and -J on A_R
            self._far[side] = block = FarBlock(site, site.real + sign * site.imag[::-1])
        return block


def _span(rates: np.ndarray) -> range:
    """The table blocks an integer array of rates reads."""
    return range(int(rates.min()) // BLOCK, int(rates.max()) // BLOCK + 1)


def hermitian_matrix(left: np.ndarray, right: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """The matrix with diagonal blocks ``left`` (A_L) and ``right`` (A_R),
    ``cross`` in the A_R rows and A_L columns and its conjugate transpose in
    the A_L rows, in the blocks' common dtype."""
    nl = left.shape[0]
    out = np.zeros((nl + right.shape[0],) * 2, dtype=np.result_type(left, right, cross))
    out[:nl, :nl] = left
    out[nl:, nl:] = right
    out[nl:, :nl] = cross
    out[:nl, nl:] = cross.conj().T
    return out


# ---------------------------------------------------------------------------
# finite-distance regime


class FiniteMatrix(CorrelationMatrix):
    """A finite-distance correlation matrix as its builder makes it: the
    ``FarMatrix`` ``far`` of the same d_l - d_r and lengths, plus the four
    Hankel terms as their 1-D values.  A_L sites j, m (from 0) add
    ``hankel_left[j + m]`` (real), A_R sites add ``hankel_right[j + m]``
    (real), and A_R row j, A_L column m of the cross block adds
    ``hankel_cross[j + m]``.  The solvers read ``far`` and these values
    (``entanglement.partition``), so the site matrix is assembled only when
    something reads ``matrix``."""

    def __init__(self, far: FarMatrix, hankel_left: np.ndarray, hankel_right: np.ndarray, hankel_cross: np.ndarray):
        # frozen like any CorrelationMatrix, and built Hermitian exactly
        vars(self).update(far=far, hankel_left=hankel_left, hankel_right=hankel_right, hankel_cross=hankel_cross)
        vars(self).update(n_left=far.n_left, built_hermitian=True)

    @property
    def dim(self) -> int:
        return self.far.dim

    @cached_property
    def matrix(self) -> np.ndarray:
        far, nl = self.far, self.n_left
        return hermitian_matrix(
            far.left.site + sliding_window_view(self.hankel_left, nl),
            far.right.site + sliding_window_view(self.hankel_right, self.dim - nl),
            _cross_block(far.cross_values, nl) + sliding_window_view(self.hankel_cross, nl),
        )


def correlation_matrix_finite(builder: CorrelationBuilder, geom: SubsystemGeometry) -> FiniteMatrix:
    """Finite-distance correlation matrix of A_L u A_R in the builder's state.

    The far-limit matrix of the same d_l - d_r and lengths
    (``correlation_matrix_far``; the builder keeps the last one, a pure
    function of d_l - d_r and the lengths) plus the four
    Hankel terms of <c_j^dag c_m> for j and m off the scatterer's site,
    read after one prefetch of all their table blocks.  Their rates grow
    with the distance; window "R" holds the right-incoming states after the
    substitution k -> -k, which conjugates every exponent.  With sites j, m
    counted from 1:

        within A_R:  2 Re W(R, rR, 2 d_r + j + m)
        within A_L:  2 Re W(L, rL, 2 d_l + j + m)
        A_R row j, A_L column m:  W(L, tLc, -s) + W(R, tR, s),  s = d_l + d_r + j + m

    (a diagonal term stands for itself and its conjugate partner, the
    conjugate factor at the opposite rate).  Hermitian by construction: the
    far blocks are, the diagonal Hankel terms are real and symmetric, and
    the A_L rows of the cross block are the conjugate transpose of its A_R
    rows.  A builder shared across matrices reuses its tables and its far
    matrix, so a distance sweep reads only the Hankel values per matrix.
    """
    key = (geom.d_l - geom.d_r, geom.ell_l, geom.ell_r)
    kept = builder._far_matrix
    if kept is not None and kept[0] == key:
        far = kept[1]
    else:
        far = correlation_matrix_far(builder, geom)
        # one assignment: a thread reads the last pair or the one before it
        builder._far_matrix = (key, far)
    d_l, d_r, nl, nr = geom.d_l, geom.d_r, geom.ell_l, geom.ell_r
    cross = np.arange(d_l + d_r + 2, d_l + d_r + nl + nr + 1)
    reads = (
        ("R", "rR", np.arange(2 * d_r + 2, 2 * d_r + 2 * nr + 1)),
        ("L", "rL", np.arange(2 * d_l + 2, 2 * d_l + 2 * nl + 1)),
        ("L", "tLc", -cross),
        ("R", "tR", cross),
    )
    builder.prefetch([(window, factor, blk) for window, factor, rates in reads for blk in _span(rates)])
    right, left, t_lc, t_r = (builder.coefficients(window, factor, rates) for window, factor, rates in reads)
    return FiniteMatrix(far, 2.0 * left.real, 2.0 * right.real, t_lc + t_r)


# ---------------------------------------------------------------------------
# far limit


def _sea_kernel(kf: float, x: np.ndarray) -> np.ndarray:
    """Filled-sea kernel sin(kf x)/(pi x), with the x = 0 limit kf/pi."""
    safe = np.where(x == 0, 1, x)
    return np.where(x == 0, kf / np.pi, np.sin(kf * x) / (np.pi * safe))


def _far_diagonal(builder: CorrelationBuilder, kf: float, sign: float, n: int) -> np.ndarray:
    """The 2n - 1 Toeplitz values of the block sea(kf, j-m) + sign * W_T(m-j)
    for j, m = 1..n, at the offsets x = j - m = 1-n .. n-1.  The upper
    triangle (x < 0) is kept, the lower one is its conjugate and the
    diagonal is real, so W_T is read at the rates -x = 0..n-1 only; adding
    0.0 to the conjugate gives a zero imaginary part the sign that mirroring
    the upper triangle entry by entry (U + U^dag) gives it."""
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


class FarMatrix(CorrelationMatrix):
    """A far-limit correlation matrix with what its builder knows about it:
    the builder's diagonal blocks ``left`` and ``right``, the W_X values
    ``cross_values`` its cross block reads, and that block in the folded basis,
    ``coupling`` = F = Q_L^dag C_LR Q_R, of shape (n_left, n_right).  F is
    real exactly when the union folds, and complex otherwise.
    The solvers read the blocks and F, so the site matrix is assembled only
    when something reads ``matrix``."""

    def __init__(self, left: FarBlock, right: FarBlock, cross_values: np.ndarray, coupling: np.ndarray) -> None:
        # frozen like any CorrelationMatrix, and built Hermitian exactly
        vars(self).update(left=left, right=right, cross_values=cross_values, coupling=coupling)
        vars(self).update(n_left=left.site.shape[0], built_hermitian=True)

    @property
    def dim(self) -> int:
        return self.n_left + self.right.site.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        return hermitian_matrix(self.left.site, self.right.site, _cross_block(self.cross_values, self.n_left))


def cross_rates(geom: SubsystemGeometry) -> np.ndarray:
    """The rates d_l - d_r + x, x = 1 - ell_r .. ell_l - 1, at which the
    cross block of a geometry reads W_X.  Its mirror image, the offset
    ell_r - ell_l - (d_l - d_r) at the same lengths, reads their negatives."""
    low = geom.d_l - geom.d_r - geom.ell_r + 1
    return np.arange(low, low + geom.ell_l + geom.ell_r - 1)


def has_parity(w: np.ndarray, left: FarBlock, right: FarBlock) -> bool:
    """Whether W_X values w, read at rates whose reversal is their negation,
    satisfy w(-x) = -conj w(x) to FOLD_TOL of the largest diagonal entry of
    the far blocks ``left`` and ``right`` (0 <= C <= I bounds every entry by
    it).  A parity-symmetric unitary S-matrix makes t_l^* r_l imaginary, so
    the relation holds up to round-off.  It decides both whether a far-limit
    union folds and whether a sweep takes the values of a geometry from its
    mirror image."""
    tol = FOLD_TOL * max(abs(left.site[0, 0]), abs(right.site[0, 0]))
    return bool(np.abs(w + w[::-1].conj()).max() <= tol)


def _cross_block(w: np.ndarray, nl: int) -> np.ndarray:
    """The cross block, A_R row j and A_L column m (from 0) holding
    W_X(d_l - d_r - j + m): a read-only Toeplitz view of the W_X values w
    at the rates ``cross_rates``."""
    return sliding_window_view(w, nl)[::-1]


def correlation_matrix_far(builder: CorrelationBuilder, geom: SubsystemGeometry) -> FarMatrix:
    """Far-limit correlation matrix of A_L u A_R in the builder's state
    (d_i / ell_i -> infinity, d_l - d_r fixed).

    Within-block entries are Toeplitz; the cross block carries the phase
    exp(i k (d_l - d_r)) through its shifted argument and vanishes when the
    voltage window is empty.  The union folds to real form when the centres
    of the two intervals are mirror images, 2(d_l - d_r) = ell_r - ell_l,
    and the W_X values read satisfy w(-x) = -conj w(x) (``has_parity``).
    Either way F is gathered from the same W_X values as the cross
    block, one Toeplitz and one Hankel read.
    """
    nl, nr = geom.ell_l, geom.ell_r
    # A_L site m and A_R site j (from 0) read x = m - j in the cross block,
    # and F reads also x = m + j + 1 - nr (J_R reverses j), a Hankel view
    left, right = builder.far_block("L", nl), builder.far_block("R", nr)
    w = builder.coefficients("V", "tLc_rL", cross_rates(geom))
    if 2 * (geom.d_l - geom.d_r) == nr - nl and has_parity(w, left, right):
        coupling = sliding_window_view(w.real[::-1], nr)[::-1] + sliding_window_view(w.imag, nr)
    else:
        # F = (C - J_L C J_R)/2 + i (J_L C + C J_R)/2 with C = C_LR, each
        # half formed on the 1-D values before its view
        u, v = w.conj(), w[::-1].conj()
        toe, han = (u - v) / 2, 0.5j * (u + v)
        coupling = sliding_window_view(toe[::-1], nr)[::-1] + sliding_window_view(han, nr)
    return FarMatrix(left, right, w, coupling)


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
