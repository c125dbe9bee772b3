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
Every factor is a rational function of z = e^{ik} (the model's
``pole_data``), so a block is integrated in closed form
(``window_fourier``): no quadrature runs, and nothing in a table can fail
to converge.

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
  complex ones for the cross block; for a list of geometries at one
  d_l - d_r and lengths it returns a ``FiniteStack``, one row of Hankel
  values per matrix.  So a distance sweep builds its far matrix once, and
  each stack of its distances reads only its Hankel values.  The solvers
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

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import check_hermitian
from .numerics import integrate_oscillatory  # noqa: F401  read by perfbench/tracer.py
from .scattering import BiasState, PoleData, ScatteringModel

#: no batch quadrature is left to wrap; perfbench/tracer.py reads both names
#: at install until the benchmark reads a run sidecar instead (ROADMAP item 4)
integrate_oscillatory_batch = None

__all__ = [
    "SubsystemGeometry",
    "CorrelationMatrix",
    "FarBlock",
    "FarMatrix",
    "FiniteMatrix",
    "FiniteStack",
    "correlation_matrix_finite",
    "correlation_matrix_far",
    "CorrelationBuilder",
    "window_fourier",
    "cross_rates",
    "has_parity",
]

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

    def cross_block(self) -> np.ndarray:
        """<c_L^dag c_R> block (rows A_L, columns A_R)."""
        n = self.n_left
        return self.matrix[:n, n:]


# ---------------------------------------------------------------------------
# Fourier tables

#: rates per table block; a block holds the rates BLOCK*b .. BLOCK*b + BLOCK-1
BLOCK = 64

#: factors f(z) of the window integrals, from the pole data of the amplitudes
#: (r_l, t_r, t_l, r_r).  The conjugate factors are not listed: W(window,
#: "tLc", x) is read as conj W(window, "tL", -x), and the conjugates of r_l
#: and r_r as conjugates of the r_l and r_r tables.
_FACTORS = {
    "T": lambda r_l, t_r, t_l, r_r: t_l.conj() * t_l,
    "rL": lambda r_l, t_r, t_l, r_r: r_l,
    "rR": lambda r_l, t_r, t_l, r_r: r_r,
    "tL": lambda r_l, t_r, t_l, r_r: t_l,
    "tLc_rL": lambda r_l, t_r, t_l, r_r: t_l.conj() * r_l,
    "tR": lambda r_l, t_r, t_l, r_r: t_r,
}

#: the longest geometric series a block start sums for a pole.  A pole
#: within about 7e-4 of the unit circle (the single impurity below
#: epsilon0 = 1.4e-3 eta) needs more, and ``_near_pole`` starts its blocks
#: from J_0 where it can.
MAX_SERIES = 1 << 16


def _ratio(p: complex) -> complex:
    """The ratio of a pole's geometric series: p inside the unit circle,
    1/p outside it."""
    return p if abs(p) < 1 else 1 / p


def _series_length(rho: complex) -> int:
    """For a ratio |rho| < 1: the number n of terms of a geometric series
    after which the rest, at most |rho|^n/(1 - |rho|), falls below 2^-54."""
    a = abs(rho)
    return max(1, int(np.ceil(np.log(2.0**-54 * (1.0 - a)) / np.log(a))))


@lru_cache(maxsize=64)
def _toeplitz(rho: complex) -> np.ndarray:
    """The BLOCK x BLOCK lower-triangular Toeplitz matrix of powers
    rho^(i-j), every entry at most 1 in modulus for |rho| < 1."""
    powers = rho ** np.arange(BLOCK)
    r = np.arange(BLOCK)
    return np.tril(powers[np.subtract.outer(r, r)])


@lru_cache(maxsize=64)
def _weights(rho: complex) -> np.ndarray:
    """rho^(n-1) .. rho^0, the weights of a series of n = _series_length(rho)
    <= MAX_SERIES terms."""
    return rho ** np.arange(_series_length(rho) - 1, -1, -1)


def _exponentials(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """E_x = int_a^b e^{ixk} dk = e^{ixm} 2 sin(xh)/x, with m and h the
    window's centre and half width: exactly 0 on an empty window."""
    m, h = 0.5 * (a + b), 0.5 * (b - a)
    safe = np.where(x == 0, 1, x)
    return np.exp(1j * m * x) * np.where(x == 0, 2.0 * h, 2.0 * np.sin(h * x) / safe)


def _j0(rho: complex, a: float, b: float) -> complex:
    """J_0 = int_a^b dk/(z - rho) = [log(1 - rho e^{-ik})]/(i rho) for
    |rho| < 1, over the arc, on which 1 - rho e^{-ik} stays in the right
    half plane."""
    return (np.log(1 - rho * np.exp(-1j * b)) - np.log(1 - rho * np.exp(-1j * a))) / (1j * rho)


def _near_pole(rho: complex, a: float, b: float, x0: int) -> np.ndarray:
    """J_x = int_a^b z^x/(z - rho) dk at x = x0 .. x0 + BLOCK - 1 for a
    ratio |rho| < 1 whose series is longer than MAX_SERIES, upward from one
    start value J_x0.  J_x0 comes from J_0 by the recurrence wherever that
    amplifies round-off by at most 2: upward for 0 <= x0 < n, at a cost of
    x0 terms, or downward for |x0| ln(1/|rho|) <= ln 2.  Otherwise it is the
    series of n = _series_length(rho) terms: at x0 >= n, where n <= x0, and
    below rate -ln 2/ln(1/|rho|), where k -> -k takes an outer pole's blocks
    above rate ln 2/ln(1/|rho|).  Such a block costs n terms, 65-75 times
    that threshold rate: at epsilon0 = 1e-3, 90,063 terms past rate 1,386,
    and at 1e-6, 1e8 terms past rate 1.4e6, which no sweep reads."""
    n = _series_length(rho)
    if x0 < n and x0 * np.log(abs(rho)) <= np.log(2.0):
        if x0 >= 0:
            start = rho**x0 * _j0(rho, a, b) + _exponentials(a, b, np.arange(x0)) @ rho ** np.arange(x0 - 1, -1, -1)
        else:
            start = rho**x0 * _j0(rho, a, b) - _exponentials(a, b, np.arange(x0, 0)) @ rho ** np.arange(-1, x0 - 1, -1)
    else:
        start = _exponentials(a, b, np.arange(x0 - n, x0)) @ rho ** np.arange(n - 1, -1, -1)
    v = _exponentials(a, b, np.arange(x0 - 1, x0 + BLOCK - 1))
    v[0] = start
    return _toeplitz(rho) @ v


def window_fourier(f: PoleData, a: float, b: float, x0: int) -> np.ndarray:
    """int_a^b f(e^{ik}) e^{ixk} dk at the rates x = x0 .. x0 + BLOCK - 1, in
    closed form.

    With E_x = int e^{ixk} dk (``_exponentials``) and
    J_x(p) = int z^x/(z - p) dk, the integral is
    const E_x + sum_j c_j J_x(p_j), and J_{x+1} = p J_x + E_x.  That
    recurrence runs only in its stable direction (Miller's method; Gautschi,
    SIAM Rev. 9, 24 (1967)).  For |p| < 1 it runs upward: from J_0 to a
    block that starts within the series length n of ``_series_length``
    above rate 0, and otherwise from the series J_x = sum_n p^n E_{x-1-n}
    cut after n terms.  For |p| > 1 it runs downward from the series
    J_x = -sum_n p^(-n-1) E_{x+n}, cut likewise.  Over the block that is
    one start value and one lower-triangular Toeplitz matrix of powers, so
    each value is a pure function of (a, b, f, x0).  A pole whose series
    is longer than MAX_SERIES is ``_near_pole``'s, by k -> -k when
    |p| > 1: J_x(p) over (a, b) = -J_{1-x}(1/p)/p over (-b, -a).
    """
    rhos = [_ratio(p) for p in f.poles]
    lengths = [_series_length(rho) for rho in rhos]
    n = max((k for k in lengths if k <= MAX_SERIES), default=0)
    e = _exponentials(a, b, np.arange(x0 - n, x0 + BLOCK + n))
    out = f.const * e[n : n + BLOCK]
    for c, p, rho, k in zip(f.residues, f.poles, rhos, lengths):
        inside = abs(p) < 1
        if k > MAX_SERIES:
            s = _near_pole(rho, a, b, x0) if inside else _near_pole(rho, -b, -a, 2 - x0 - BLOCK)
        else:
            # E along the stable direction: the k terms of the start sum, then the block
            run = e[n - k : n + BLOCK - 1] if inside else e[n : n + BLOCK + k - 1][::-1]
            v = run[k - 1 :].copy()
            weights = _weights(rho)
            if inside and 0 <= x0 < k:
                v[0] = p**x0 * _j0(p, a, b) + run[k - x0 : k] @ weights[k - x0 :]
            else:
                v[0] = run[:k] @ weights
            s = _toeplitz(rho) @ v
        out = out + c * (s if inside else -rho * s[::-1])
    return out


class CorrelationBuilder:
    """Fourier tables W(window, factor, x) shared by every matrix of a sweep.

    The builder is the one owner of the model and the bias; both matrix
    builders read them from it and take only a geometry.

    W(window, factor, x) = sign/(2pi) * int f(k) exp(i*x*k) dk over one of
    three windows: "L" = (0, k_fl) and "R" = (0, k_fr), the occupied
    left- and right-incoming states, and "V", the voltage window from k_fr
    to k_fl (sign -1 when k_fl < k_fr).  Each factor is a rational function
    of z = e^{ik}, formed from the model's ``pole_data`` when the builder is
    made, so a model without pole data fails here with ``TypeError``.  Each
    table is filled in aligned blocks of BLOCK consecutive integer rates
    (``prefetch``) by ``window_fourier``, in closed form, and read through
    ``coefficients`` alone.  Every coefficient is a pure function of
    (window, factor, block): it does not depend on which matrix, in which
    order, or which thread asked for it first.  Two threads filling the
    same block compute the same values, so the race is harmless.
    """

    def __init__(self, model: ScatteringModel, bias: BiasState):
        self.model = model
        self.bias = bias
        amplitudes = model.pole_data()
        self._factors = {name: f(*amplitudes) for name, f in _FACTORS.items()}
        self._windows = {
            "L": (0.0, bias.k_fl, 1.0),
            "R": (0.0, bias.k_fr, 1.0),
            "V": (bias.k_minus, bias.k_plus, 1.0 if bias.k_fl >= bias.k_fr else -1.0),
        }
        self._blocks: dict[tuple[str, str, int], np.ndarray] = {}
        self._far: dict[str, FarBlock] = {}
        self._far_matrix: tuple | None = None

    def prefetch(self, keys: list) -> None:
        """Fill the missing table blocks among the (window, factor, block)
        keys."""
        for key in keys:
            if key not in self._blocks:
                window, factor, block = key
                lo, hi, sign = self._windows[window]
                self._blocks[key] = sign * window_fourier(self._factors[factor], lo, hi, BLOCK * block) / (2.0 * np.pi)

    def coefficients(self, window: str, factor: str, rates: np.ndarray) -> np.ndarray:
        """W(window, factor, x) at an integer array of rates x, same shape:
        the one read of the tables, which first fills the blocks the rates
        lie in, and no block between them.  The factor "tLc", conj t_l,
        reads W(tLc, x) = conj W(tL, -x)."""
        conjugate = factor == "tLc"
        if conjugate:
            factor, rates = "tL", -rates
        blocks = rates // BLOCK
        # the blocks the rates lie in, ascending: a sorted set, not np.unique,
        # which imports numpy.ma on first use (numpy 2.4)
        read = sorted(set(blocks.ravel().tolist()))
        self.prefetch([(window, factor, b) for b in read])
        table = np.stack([self._blocks[(window, factor, b)] for b in read])
        values = table[np.searchsorted(read, blocks), rates - BLOCK * blocks]
        return values.conj() if conjugate else values

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
    ``hankel_cross[j + m]``.  The solvers read ``far`` and these values, as
    a stack of one (``entanglement.partition``), so the site matrix is
    assembled only when something reads ``matrix``."""

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


@dataclass(frozen=True)
class FiniteStack:
    """Finite-distance matrices that share one far matrix ``far``, as their
    builder makes them: the Hankel values of ``FiniteMatrix``, one row per
    matrix, in arrays of shape (len, 2 n_left - 1), (len, 2 n_right - 1) and
    (len, n_left + n_right - 1).  Item i is the i-th matrix."""

    far: FarMatrix
    hankel_left: np.ndarray
    hankel_right: np.ndarray
    hankel_cross: np.ndarray

    @property
    def dim(self) -> int:
        return self.far.dim

    def __len__(self) -> int:
        return self.hankel_left.shape[0]

    def __getitem__(self, i: int) -> FiniteMatrix:
        return FiniteMatrix(self.far, self.hankel_left[i], self.hankel_right[i], self.hankel_cross[i])


def _hankel_reads(geoms: list[SubsystemGeometry]) -> tuple:
    """(window, factor, rates) of the four Hankel terms of finite-distance
    matrices at the same lengths, in the order right, left, cross from L,
    cross from R; the rates have one row per geometry."""
    d_l, d_r = (np.array([[getattr(g, side)] for g in geoms]) for side in ("d_l", "d_r"))
    nl, nr = geoms[0].ell_l, geoms[0].ell_r
    cross = d_l + d_r + np.arange(2, nl + nr + 1)
    return (
        ("R", "rR", 2 * d_r + np.arange(2, 2 * nr + 1)),
        ("L", "rL", 2 * d_l + np.arange(2, 2 * nl + 1)),
        ("L", "tLc", -cross),
        ("R", "tR", cross),
    )


def correlation_matrix_finite(
    builder: CorrelationBuilder, geom: SubsystemGeometry | list[SubsystemGeometry]
) -> FiniteMatrix | FiniteStack:
    """Finite-distance correlation matrix of A_L u A_R in the builder's
    state, or a ``FiniteStack`` of them for a list of geometries that share
    d_l - d_r and the lengths.

    The far-limit matrix of the same d_l - d_r and lengths
    (``correlation_matrix_far``; the builder keeps the last one, a pure
    function of d_l - d_r and the lengths) plus the four
    Hankel terms of <c_j^dag c_m> for j and m off the scatterer's site.
    Their rates grow
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
    matrix, so a distance sweep reads only the Hankel values, one gather
    per term for a whole stack.
    """
    geoms = [geom] if isinstance(geom, SubsystemGeometry) else list(geom)
    key = (geoms[0].d_l - geoms[0].d_r, geoms[0].ell_l, geoms[0].ell_r)
    if any((g.d_l - g.d_r, g.ell_l, g.ell_r) != key for g in geoms):
        raise ValueError("a stack of finite-distance matrices shares d_l - d_r and the lengths")
    kept = builder._far_matrix
    if kept is not None and kept[0] == key:
        far = kept[1]
    else:
        far = correlation_matrix_far(builder, geoms[0])
        # one assignment: a thread reads the last pair or the one before it
        builder._far_matrix = (key, far)
    right, left, t_lc, t_r = (builder.coefficients(*read) for read in _hankel_reads(geoms))
    stack = FiniteStack(far, 2.0 * left.real, 2.0 * right.real, t_lc + t_r)
    return stack[0] if isinstance(geom, SubsystemGeometry) else stack


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
