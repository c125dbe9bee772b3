"""Entanglement measures of Gaussian fermion states from correlation matrices.

For a non-interacting state every reduced density matrix is Gaussian, so all
measures follow from the eigenvalues nu of the restricted correlation matrix:

    Renyi:        S_n = 1/(1-n) * sum ln[nu^n + (1-nu)^n]
    von Neumann:  S   = -sum [nu ln nu + (1-nu) ln(1-nu)]

(Peschel, J. Phys. A 36, L205 (2003)).  Every measure reads a
``PartitionStack`` (below), the partitions of a stack of matrices, where a
single matrix of any kind is a stack of one: ``block_spectra`` takes the
spectra of A_L, A_R and A of each matrix once, and
``report_from_spectra`` turns them into one ``EntanglementReport`` per
order: mutual information S(A_L) + S(A_R) - S(A) and the coherent
information, fixed to the direction I(A_L > A_R) = S(A_R) - S(A).

Deflation.  Most eigenvalues of each diagonal block lie within round-off of
0 or 1 (sine-kernel spectra cluster at the edges: Slepian, Bell Syst. Tech.
J. 57, 1371 (1978)), and such modes barely entangle A_L with A_R.
``partition`` takes the eigenpairs (nu, u) of the A_L and A_R blocks, forms
their coupling Y = U_L^dag C_LR U_R, and keeps the active modes; the rest
are deflated.  It returns the reduced matrix U^dag C U on the active modes
and the deflated eigenvalues; where U diagonalizes both blocks, as for a
far-limit or hand-built matrix, the reduced matrix is the active
occupations on the diagonal, bordered by their coupling.  A
finite-distance matrix takes the eigenpairs of its far matrix's blocks
instead (below), so its modes carry same-block entries too, and nu is the
diagonal of U^dag C U.  Why this is
exact to round-off:

* 0 <= C <= I, so Cauchy-Schwarz for C and for I - C bounds every coupling
  |Y_ij| of a block mode with min(nu, 1 - nu) = mu by sqrt(mu);
* a block-local unitary U_L + U_R leaves every spectrum, hence MI, CI and
  the negativity, unchanged (it commutes with D = diag(I, -iI) below, so
  Gamma_+ -> U Gamma_+ U^dag);
* a decoupled mode adds the same entropy to S(A) as to its own block, so it
  adds 0 to MI, and 0 to E_1.  A block's entropy is its active part plus
  its deflated part; S(A) is the reduced union's entropy plus both deflated
  parts, so CI = S(A_R) - S(A) keeps the A_L deflated entropy.

Dropping a coupling of size sqrt(mu) moves the union spectrum by O(mu), so
an order-n >= 1 entropy moves by O(mu ln mu) per mode.  E_1 is more
sensitive: a two-mode state with occupations nu_i, nu_j coupled by y has
E_1 of about min(2|y|, 2|y|^2 / (1 - |nu_i - nu_j|)), first order in |y|
when a nearly full mode faces a nearly empty one.  So a mode is deflated
when min(nu, 1 - nu) <= DEFLATION_TOL and the sum over its partners of
min(|Y_ij|, |Y_ij|^2 / (1 - |nu_i - nu_j|)) is at most DEFLATION_TOL too, or
when its coupling row is exactly zero.  Its partners are every other mode
of its row of U^dag C U, the same block's included; in the eigenbasis of
its own blocks those entries are exactly 0.  If either block is left
without active modes, the other one's are decoupled as well, with the
spectrum of their block where the modes do not diagonalize it.  Orders
n < 1 keep more modes (below).  A far-limit matrix brings its diagonal blocks from its
builder (``FarMatrix``), which keeps the last block of each side, with its
eigenpairs once a partition has solved them, so a fig. 3 sweep, whose
blocks do not depend on the offset, decomposes each block once.  The eigenpairs are a pure function of the
block, so every value is the same whichever thread asks first.

Folding.  Every far-limit diagonal block B is Hermitian Toeplitz, hence
centrohermitian: J conj(B) J = B, J reversing the sites (Lee, LAA 29, 205
(1980); Hill, Bates & Waters, SIAM J. Matrix Anal. Appl. 11, 128 (1990)).
So Q = (I - isJ)/sqrt 2 (s = 1 on A_L, -1 on A_R), a block-local unitary,
makes Q^dag B Q = Re B - sJ Im B real symmetric.  The builder keeps each
block in that folded form, symmetric entry for entry, and ``partition``
decomposes it with a real ``eigh``.  The cross
block enters through F = Q_L^dag C_LR Q_R, which the builder gathers in
O(n_l n_r) from the same W_X values as C_LR, one Toeplitz and one Hankel
view, and the coupling of the block modes is V_L^T F V_R for the real
eigenvectors V.  F is real when the geometry is mirror symmetric,
2(d_l - d_r) = ell_r - ell_l (the centres of the two intervals equally far
from the scatterer), because t_l^* r_l is imaginary for a parity-symmetric
unitary S-matrix, so that w(-x) = -conj w(x) for the W_X values; the
builder checks that relation on the O(n_l + n_r) values it reads, to
``correlation.FOLD_TOL`` times the largest diagonal entry (far matrices reach about
3e-16).  The whole matrix then satisfies P conj(C) P = C with
P = diag(J_L, -J_R), and Q = (I - iP)/sqrt 2 makes Q^dag C Q =
Re C - P Im C real symmetric: the coupling V_L^T F V_R is real, and so are
the reduced matrix and its negativity pencil.  Otherwise, as at fig. 3's
offsets, F is complex, and ``partition`` takes V_L^T (Re F) V_R and
V_L^T (Im F) V_R in real arithmetic, where a real V times a complex F
would run in complex arithmetic.  A matrix built by hand takes the plain
complex path: ``eigh`` of its own blocks.

Finite distance.  A finite-distance matrix (``correlation.FiniteMatrix``)
is its far matrix plus four Hankel terms, Toeplitz plus Hankel blocks that
are never centrohermitian, so it never folds.  ``partition`` takes it in
the far blocks' eigenbasis U = Q V, the same block-local unitary for every
distance: there its blocks are diag(nu_far) + U^dag H U for the Hankel
term H of each block, and its coupling is U_L^dag C_LR U_R, both formed
from the folded far coupling F and the Hankel terms folded on their 1-D
values, Q^dag H Q = (H + JHJ)/2 + is (JH - HJ)/2 and likewise for the
cross term, then carried to the modes by real products.  The deflation rule
reads the same-block entries as well, and the spectra of the active
blocks are the ``eigvalsh`` of the reduced matrix's diagonal blocks, about
28 x 28 on Fig. S2, so no block of a finite matrix is decomposed with
``eigh``: a distance sweep decomposes only its two far blocks, once.  Far
from the scatterer the Hankel terms are small, and the far basis keeps
the modes the blocks' own eigenbasis would (56 of 100 at every Fig. S2
distance); near it every mode may stay active, and the result is exact to
round-off either way.  Over the 288 Fig. S2 points, MI and E_1 of the
partition stay within 6.7e-13 and 6.2e-14 of the undeflated spectra and
pencil of the whole matrix, which the tests keep as their oracle.

Since the basis is the same at every distance, a distance sweep solves its
matrices in stacks (``correlation.FiniteStack``, one far matrix and a row
of Hankel values per matrix): every step above is one array operation for
the whole stack, the Hankel terms folded and carried to the modes by one
stacked product per term.  The rule reads an E_1 share only where a mode
is within DEFLATION_TOL of 0 or 1, so the shares are formed on the rows of
such edge modes alone, and the kept modes are those of the whole share
matrix.  The stack's matrices are then grouped by their active modes
(``PartitionStack``; a Fig. S2 stack is one group), and each group takes
its block and union spectra with one batched ``eigvalsh`` each and its
negativity from one whitened pencil, one Cholesky factor, solve and SVD
for the group.  numpy's linear algebra runs each matrix of a batch through
the LAPACK call a single matrix takes, and the stacked products run the
same gemm per matrix, so every value is the one the matrix gives alone,
to the last bit.  Every other matrix is a stack of one, a single group: a
far-limit or hand-built one reads its block spectra off the diagonal of
its reduced matrix and takes the union spectrum with
``occupation_spectrum``.

Non-finite values.  The builders make finite entries, and
``check_hermitian`` rejects a non-finite entry of a matrix made outside the
package.  A NaN that still reaches the partition fails it by name: a NaN
occupation raises SpectrumError where the occupations are clamped, as does
a block whose ``eigh`` fails on it, and a non-finite first-order share (a
coupling row sum) raises NotHermitian, where it would otherwise fail every
comparison of the rule and be deflated unseen.

Hermiticity.  Every matrix here is a ``CorrelationMatrix``: checked once,
for finite entries and Hermiticity, when it is made from outside the
package (``numerics.check_hermitian``), or built Hermitian exactly by the
package (``correlation`` module docstring).  So the spectra and block
eigenpairs come straight from ``numpy.linalg.eigvalsh`` and ``eigh``, which
read one triangle, and no solver here checks again.

Orders n < 1 read the same partition, with a wider active set.  An
order-n term of an edge mode reads mu^n, so at n = 1/2 it is first order in
a dropped coupling: y moves an edge eigenvalue by about y^2 / gap, whose
square root is about |y|.  So for n < 1 a mode is deflated only when the
E_1 rule above deflates it and its first-order share sum_j |Y_ij| is at most
LOW_ORDER_TOL = 3e-9 as well, 5x below the sqrt(eps) = 1.5e-8 round-off
floor of the order-1/2 spectra themselves.  The n < 1 active modes are thus
a superset of the others, and both sets are read from the one Y: a
``PartitionStack`` keeps its block modes, and ``partition(p, order)``
deflates it again for another order without a further decomposition.  On
fig. 2 far matrices (epsilon0 = 0.5, 1, 2 and constant T = 1/2) 38-39 of 40
modes stay at ell = 20, 80-81 of 200 at ell = 100 and 106-108 of 400 at
ell = 200.
Their order-1/2 MI was compared with a reference
S_1/2 = 2 sum ln(sigma + sigma'), sigma and sigma' the singular values of
the rows of V and W, where C = V V^dag and I - C = W W^dag (V V^dag matches
the far builder to 8.3e-15 at ell <= 100; the reference moves by 1.4e-12
with 1.5x the quadrature nodes; tests/test_factored_projector.py).  The
error against it is

    ell    partition, n < 1 rule    full folded spectra     E_1 rule
     20    -4.1e-8 .. +3.1e-8       -6.0e-8 .. +5.8e-8      -1.4e-7 .. -2.3e-7
    100    -2.5e-7 .. -4.7e-7       -3.1e-7 .. -4.9e-7      -1.2e-6 .. -1.6e-6
    200    -1.2e-6 .. -1.6e-6       -1.6e-6 .. -2.5e-6      -2.0e-6 .. -2.3e-6

(unfolded complex spectra: up to 7.5e-8, 1.1e-6 and 3.4e-6, the band the
test holds both paths to).  A looser tolerance leaves the band: 1.5e-8
errs by up to 1.9x it at ell = 20, and 1e-7 by 3x.  Keeping every coupled
mode (a tolerance of 1e-13) errs more than the full spectra, by up to
-4.9e-6 at ell = 200.  The digits left are round-off of the spectra
themselves.

The fermionic negativity uses the partial time-reversal of one block.  With
C_A = [[C_LL, C_LR], [C_RL, C_RR]] one forms

    Gamma_pm = [[2 C_LL - I, -/+ 2i C_LR], [-/+ 2i C_RL, I - 2 C_RR]]
    C_X = (I - (I + Gamma_+ Gamma_-)^(-1) (Gamma_+ + Gamma_-)) / 2

and the logarithmic negativity

    E_1 = ln det[C_X^(1/2) + (I - C_X)^(1/2)]
        + (1/2) ln det[C_A^2 + (I - C_A)^2].

C_X is never formed.  Gamma_- = Gamma_+^dag, so B = I + Gamma_+ Gamma_+^dag
is Hermitian positive definite and B -/+ (Gamma_+ + Gamma_-) =
(I -/+ Gamma_+)(I -/+ Gamma_+)^dag.  With B = L L^dag, the eigenvalues xi of
C_X are sigma^2 / 2 for the singular values sigma of M_- = L^-1 (I - Gamma_+),
and 1 - xi = sigma'^2 / 2 for those of M_+ = L^-1 (I + Gamma_+).  The pencil
drops the phases: with Gamma = 2 C_A - I and D = diag(I, -iI), Gamma_+ =
D Gamma D, so B = D (I + Gamma^2) D^dag, L = D L0 D^dag for I + Gamma^2 =
L0 L0^dag, and M_-/+ = D L0^-1 (Z -/+ Gamma) D with Z = D^dag D^dag =
diag(I, -I), which stays in the matrix's own dtype, real for a folded one.
M_- M_-^dag + M_+ M_+^dag = 2I, so the two share left singular vectors,
sigma^2 + sigma'^2 = 2 pair by pair, and the products s = sigma sigma' =
2 sqrt(xi (1 - xi)) are the singular values of the one matrix
M_-^dag M_+ = W = (Z - Gamma)(I + Gamma^2)^-1 (Z + Gamma), formed by one
solve and one product.  Since (sigma + sigma')^2 / 2 = 1 + s,

    E_1 = (1/2) sum ln(1 + s) + sum ln L0_ii - (N/2) ln 2,

with det(I + Gamma^2) = 2^N det[C_A^2 + (I - C_A)^2] from the diagonal of the
Cholesky factor L0.  One SVD replaces the two of sigma and sigma' and their
two solves, and ln(1 + s) reads no difference of nearly equal values, so no
square root is taken of an eigenvalue that is noise around the branch point.
s <= 1 in exact arithmetic, so the pairing residual max(s) - 1 is asserted
at most PAIRING_TOL and reported in the diagnostics; a NaN fails that
check.  The C_X construction is from Shapourian, Shiozaki & Ryu, PRB 95,
165101 (2017), and Eisler & Zimboras, NJP 17, 053048 (2015).
The pencil runs on the reduced matrices of a partition stack only, one
pencil per group, a bare matrix or ``FiniteStack`` being partitioned at
order 1 first; a deflated mode adds nothing to E_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.linalg import eigvals as eig_general, inv as mat_inverse  # noqa: F401  read by perfbench/tracer.py

from .correlation import CorrelationMatrix, FarMatrix, FiniteMatrix, FiniteStack
from .numerics import NotHermitian, NumericsError

__all__ = [
    "SpectrumError",
    "SingularResolvent",
    "EntanglementReport",
    "occupation_spectrum",
    "renyi_index",
    "entropy",
    "PartitionStack",
    "partition",
    "BlockSpectra",
    "block_spectra",
    "report_from_spectra",
    "measures",
    "fermionic_negativity",
]

#: eigenvalues may stray outside [0, 1] by at most this much before erroring
CLAMP_SLACK = 1e-8

#: a block mode within this of 0 or 1 whose estimated share of E_1 is also
#: below it is deflated (see the module docstring)
DEFLATION_TOL = 1e-13

#: orders n < 1 deflate such a mode only when its first-order share
#: sum_j |Y_ij| is at most this too, 5x below the sqrt(eps) = 1.5e-8 round-off
#: floor of their spectra (see the module docstring)
LOW_ORDER_TOL = 3e-9

#: tolerated C_X pairing residual max(s) - 1 for the singular values
#: s = 2 sqrt(xi (1 - xi)) of W, which are at most 1 in exact arithmetic
PAIRING_TOL = 1e-7


class SpectrumError(ValueError):
    """Correlation-matrix spectrum outside [0, 1] beyond the clamping slack,
    NaN, or not computed at all."""


class SingularResolvent(NumericsError):
    """The whitened pencil of I + Gamma_+ Gamma_- failed: no Cholesky factor,
    or a C_X pairing residual above PAIRING_TOL."""


@dataclass
class EntanglementReport:
    """Measures of one parameter point, plus numerical diagnostics."""

    renyi_order: float | str
    s_al: float
    s_ar: float
    s_a: float
    mutual_info: float
    coherent_info: float
    negativity: float | None = None
    pairing_residual: float = 0.0
    clamp_count: int = 0


def occupation_spectrum(c: CorrelationMatrix) -> tuple[np.ndarray, int]:
    """Eigenvalues of a correlation matrix clamped to [0, 1].

    Values within CLAMP_SLACK of the interval are clamped; anything further
    out raises SpectrumError, since log(negative) must be impossible yet a
    genuine spectral violation has to surface.
    """
    return _clamped(np.linalg.eigvalsh(c.matrix))


def _clamped(nu: np.ndarray):
    """nu clamped to [0, 1] and the number of values clamped, an int for a
    spectrum and one per row for a stack of them; SpectrumError beyond
    CLAMP_SLACK, and on a NaN, which fails both comparisons."""
    if nu.size and not (nu.min() >= -CLAMP_SLACK and nu.max() <= 1.0 + CLAMP_SLACK):
        worst = nu.min() if -nu.min() > nu.max() - 1.0 else nu.max()
        raise SpectrumError(f"correlation eigenvalue {worst} outside [0, 1] beyond slack")
    clamped = (nu < 0.0).sum(axis=-1) + (nu > 1.0).sum(axis=-1)
    return np.clip(nu, 0.0, 1.0), clamped if clamped.ndim else int(clamped)


def renyi_index(order: float | str) -> float:
    """The Renyi index n of an entropy order: "vn" (von Neumann) and 1 are
    both n = 1.0, any other order must be a positive finite number."""
    n = 1.0 if order == "vn" else float(order)
    if not 0 < n < np.inf:
        raise ValueError(f"Renyi order must be positive and finite, or 'vn'; got {order!r}")
    return n


def entropy(nu: np.ndarray, order: float | str = "vn") -> float:
    """Entropy of a clamped occupation spectrum: Renyi of finite order n > 0,
    or von Neumann at n = 1.  The order is checked before any shortcut, so a
    bad order fails on every spectrum."""
    n = renyi_index(order)
    interior = nu[(nu > 0.0) & (nu < 1.0)]
    if interior.size == 0:
        return 0.0
    if n == 1.0:
        return float(-(interior * np.log(interior) + (1.0 - interior) * np.log1p(-interior)).sum())
    return float(np.log(interior**n + (1.0 - interior) ** n).sum() / (1.0 - n))


class BlockModes(NamedTuple):
    """What every order's deflation of a stack of matrices reads, in a basis
    U of block modes (module docstring); every array has a leading axis over
    the matrices.  ``nu`` holds the clamped occupations of the modes, those
    of A_L and then those of A_R, the diagonal of U^dag C U, and
    ``clamp_count`` per matrix the values clamped; ``coupling`` is
    Y = U_L^dag C_LR U_R; ``kept`` marks the modes the E_1 rule keeps, and
    ``first`` holds each mode's first-order share, the sum of the
    |off-diagonal entries| of its row.  ``matrix`` is None when U
    diagonalizes both blocks, as for a far-limit or hand-built matrix, and
    otherwise the whole of U^dag C U, whose same-block entries the rule
    reads too."""

    nu: np.ndarray
    clamp_count: np.ndarray
    coupling: np.ndarray
    kept: np.ndarray
    first: np.ndarray
    matrix: np.ndarray | None = None


def _block_eigenpairs(block: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Clamped eigenvalues, clamp count and eigenvectors of a diagonal block;
    SpectrumError where ``eigh`` fails, as it may on a block with a NaN."""
    try:
        nu, vecs = np.linalg.eigh(block)
    except np.linalg.LinAlgError as exc:
        raise SpectrumError(f"block spectrum not computed: {exc}") from exc
    return (*_clamped(nu), vecs)


def _far_eigenpairs(c: FarMatrix) -> tuple:
    """The eigenpairs of a far matrix's folded blocks.  Each builder block
    is decomposed once and its eigenpairs kept on it, in one assignment: a
    thread reading them sees None or the result, a pure function of the
    block."""
    for block in (c.left, c.right):
        if block.pairs is None:
            block.pairs = _block_eigenpairs(block.folded)
    return c.left.pairs, c.right.pairs


def _real_congruence(left: np.ndarray, middle: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left^T (Re middle) right and left^T (Im middle) right, stacked on the
    axis before the last two (middle may be a stack), for real left and
    right: a real matrix times a complex one would run in complex
    arithmetic."""
    return left.T @ np.stack([middle.real, middle.imag], axis=-3) @ right


@lru_cache(maxsize=4)
def _hankel_index(rows: int, cols: int) -> np.ndarray:
    """Gather indices of shape (2, rows, cols) into two vectors of
    rows + cols - 1 values laid end to end, the first read as the Hankel
    matrix [j, m] -> v[j + m], the second as the Toeplitz matrix
    [j, m] -> v[rows - 1 - j + m].  Read-only, since callers share it; a
    finite matrix reads at most three shapes."""
    hankel = np.add.outer(np.arange(rows), np.arange(cols))
    index = np.stack([hankel, hankel[::-1] + rows + cols - 1])
    index.flags.writeable = False
    return index


def _folded(v: np.ndarray, rows: int, a: float, b: float) -> np.ndarray:
    """Q_a^dag K Q_b for the Hankel matrices K[j, m] = v[i, j + m] of the rows
    v[i] of v, each with ``rows`` rows and Q_s = (I - i s J)/sqrt 2, as the
    stack of its real part (K + ab JKJ)/2, Hankel, and its imaginary part
    (a JK - b KJ)/2, Toeplitz, each formed on the 1-D values before its
    gather: shape (len(v), 2, rows, columns)."""
    flip = v[:, ::-1]
    terms = np.concatenate([0.5 * (v + a * b * flip), 0.5 * (a * v - b * flip)], axis=1)
    return terms[:, _hankel_index(rows, v.shape[1] + 1 - rows)]


def _shares(size: np.ndarray, nu_a: np.ndarray, nu_b: np.ndarray) -> np.ndarray:
    """Two-mode estimate of each coupling's share of E_1,
    min(|y|, |y|^2 / pair), between the modes of occupations nu_a, one per
    row of ``size``, and those of occupations nu_b along its rows."""
    pair = np.maximum(1.0 - np.abs(nu_a[:, None] - nu_b), size)
    return np.divide(size * size, pair, out=np.zeros_like(size), where=pair > 0.0)


def _coupled(nu: np.ndarray, share: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The modes the E_1 rule keeps, from their occupations, their summed
    E_1 shares and their first-order shares, which are 0 exactly when a
    mode couples to nothing."""
    edge = (np.minimum(nu, 1.0 - nu) <= DEFLATION_TOL) & (share <= DEFLATION_TOL)
    return ~edge & (first > 0.0)


def _finite_modes(c: FiniteStack) -> BlockModes:
    """The block modes of a stack of finite-distance matrices in the
    eigenbasis U = Q V of their far matrix's folded blocks.  There
    M = U^dag C U is diag(nu_far) plus V^T X V for the folded far coupling
    and Hankel terms X, each folded on its 1-D values and carried to the
    modes by real products, one per term for the whole stack.  The rule
    reads every off-diagonal entry of a mode's row, same-block ones
    included, and the E_1 shares are formed on the rows of edge modes only,
    since the rule reads no other share."""
    far, nl, dim = c.far, c.far.n_left, c.dim
    (nu_l, _, vec_l), (nu_r, _, vec_r) = _far_eigenpairs(far)
    m = np.empty((len(c), dim, dim), dtype=complex)
    for rows, vec, h, sign in ((slice(0, nl), vec_l, c.hankel_left, 1.0), (slice(nl, dim), vec_r, c.hankel_right, -1.0)):
        parts = vec.T @ _folded(h, vec.shape[0], sign, sign) @ vec
        re, im = parts[:, 0], parts[:, 1]
        # exactly Hermitian: the symmetric part of re, the antisymmetric one of im
        np.add(re, re.swapaxes(1, 2), out=m.real[:, rows, rows])
        np.subtract(im, im.swapaxes(1, 2), out=m.imag[:, rows, rows])
        m[:, rows, rows] *= 0.5
    # the cross term of the A_L rows is K[m, j] = conj hankel_cross[j + m]
    cross = _folded(c.hankel_cross.conj(), nl, 1.0, -1.0)
    parts = _real_congruence(vec_l, far.coupling + (cross[:, 0] + 1j * cross[:, 1]), vec_r)
    re, im = parts[:, 0], parts[:, 1]
    m.real[:, :nl, nl:], m.imag[:, :nl, nl:] = re, im
    m.real[:, nl:, :nl], m.imag[:, nl:, :nl] = re.swapaxes(1, 2), -im.swapaxes(1, 2)
    diag = np.arange(dim)
    nu, clamp_count = _clamped(np.concatenate([nu_l, nu_r]) + m.real[:, diag, diag])
    m[:, diag, diag] = nu
    size = np.abs(m)
    size[:, diag, diag] = 0.0
    first = size.sum(axis=2)
    share = np.zeros_like(nu)
    at, row = np.nonzero(np.minimum(nu, 1.0 - nu) <= DEFLATION_TOL)
    share[at, row] = _shares(size[at, row], nu[at, row], nu[at]).sum(axis=1)
    return BlockModes(nu, clamp_count, m[:, :nl, nl:], _coupled(nu, share, first), first, m)


def _block_modes(c: CorrelationMatrix) -> BlockModes:
    """The block modes of a far-limit or hand-built matrix, a stack of one.

    A far-limit matrix (``FarMatrix``) takes the eigenpairs of its builder's
    folded blocks and couples them through F in real arithmetic.  Any other
    matrix takes the eigenpairs of its own blocks and its cross block, read
    from the rows of A_L.
    """
    if c.n_left == 0 or c.n_right == 0:
        raise ValueError("a partition needs both blocks non-empty")
    nl = c.n_left
    if isinstance(c, FarMatrix):
        pairs, cross = _far_eigenpairs(c), c.coupling
    else:
        pairs, cross = map(_block_eigenpairs, (c.matrix[:nl, :nl], c.matrix[nl:, nl:])), c.matrix[:nl, nl:]
    (nu_l, clamp_l, vec_l), (nu_r, clamp_r, vec_r) = pairs
    if np.iscomplexobj(cross) and not np.iscomplexobj(vec_l):
        re, im = _real_congruence(vec_l, cross, vec_r)
        coupling = re + 1j * im
    else:
        coupling = vec_l.conj().T @ cross @ vec_r
    size = np.abs(coupling)
    share = _shares(size, nu_l, nu_r)
    nu = np.concatenate([nu_l, nu_r])
    first = np.concatenate([size.sum(axis=1), size.sum(axis=0)])
    kept = _coupled(nu, np.concatenate([share.sum(axis=1), share.sum(axis=0)]), first)
    return BlockModes(nu[None], np.array([clamp_l + clamp_r]), coupling[None], kept[None], first[None])


class PartitionGroup(NamedTuple):
    """The matrices of a stack that keep the same active modes: their
    positions ``members`` in the stack, and their reduced matrices U^dag C U
    on the active modes, those of A_L and then those of A_R, as one array of
    shape (len(members), k, k) split after ``n_left`` rows.  Per member,
    ``deflated_left`` and ``deflated_right`` hold the clamped occupations of
    the other modes and ``clamp_count`` the values clamped.  Either both
    blocks keep active modes or neither does."""

    members: np.ndarray
    reduced: np.ndarray
    n_left: int
    deflated_left: np.ndarray
    deflated_right: np.ndarray
    clamp_count: np.ndarray


class PartitionStack(NamedTuple):
    """The partitions of ``size`` matrices at one order, grouped by their
    active modes (``PartitionGroup``), so that the spectra and the
    negativity of a group are taken in one batched call each.  ``modes``
    (``BlockModes``) holds what every order's deflation reads."""

    groups: tuple
    size: int
    modes: BlockModes


def _partition_stack(modes: BlockModes, order: float | str) -> PartitionStack:
    """The partitions of the order from the block modes of a stack.  A
    non-finite first-order share raises NotHermitian: it would fail every
    comparison and deflate its mode unseen."""
    nu, clamp_count, coupling, kept, first, m = modes
    bad = np.argwhere(~np.isfinite(first))
    if bad.size:
        raise NotHermitian(f"non-finite coupling of block mode {bad[0, 1]}")
    nl = coupling.shape[1]
    if renyi_index(order) < 1.0:
        kept = kept | (first > LOW_ORDER_TOL)
    # a block without partners is decoupled whole, and the other with it
    active = kept & (kept[:, :nl].any(axis=1) & kept[:, nl:].any(axis=1))[:, None]
    members: dict[bytes, list[int]] = {}
    for i, mask in enumerate(active):
        members.setdefault(mask.tobytes(), []).append(i)
    groups = []
    for rows in members.values():
        idx, mask = np.array(rows), active[rows[0]]
        keep, k = np.flatnonzero(mask), int(mask[:nl].sum())
        if m is None:
            # diagonal blocks: the active occupations, bordered by their coupling
            reduced = np.zeros((len(idx), keep.size, keep.size), dtype=coupling.dtype)
            diag = np.arange(keep.size)
            reduced[:, diag, diag] = nu[np.ix_(idx, keep)]
            reduced[:, :k, k:] = coupling[np.ix_(idx, keep[:k], keep[k:] - nl)]
            reduced[:, k:, :k] = reduced[:, :k, k:].conj().swapaxes(1, 2)
        else:
            reduced = m[np.ix_(idx, keep, keep)]
        if mask.any() or m is None:
            deflated = nu[idx][:, ~mask]
            left, right, clamps = deflated[:, : nl - k], deflated[:, nl - k :], clamp_count[idx]
        else:
            # decoupled whole: the spectra of their blocks, which the modes
            # do not diagonalize
            (left, clamp_l), (right, clamp_r) = (
                _clamped(np.linalg.eigvalsh(m[idx, b, b])) for b in (slice(0, nl), slice(nl, None))
            )
            clamps = clamp_count[idx] + clamp_l + clamp_r
        groups.append(PartitionGroup(idx, reduced, k, left, right, clamps))
    return PartitionStack(tuple(groups), len(active), modes)


def partition(c: CorrelationMatrix | FiniteStack | PartitionStack, order: float | str = "vn") -> PartitionStack:
    """The partitions of a matrix, a stack of one, or of a ``FiniteStack``,
    deflated for an entropy of this order; the rule is in the module
    docstring, and the negativity reads order 1.  A ``PartitionStack``
    passed in is deflated again from its ``modes``, so the partitions of
    several orders share one decomposition."""
    if isinstance(c, FiniteMatrix):
        c = FiniteStack(c.far, c.hankel_left[None], c.hankel_right[None], c.hankel_cross[None])
    if isinstance(c, PartitionStack):
        modes = c.modes
    elif isinstance(c, FiniteStack):
        modes = _finite_modes(c)
    else:
        modes = _block_modes(c)
    return _partition_stack(modes, order)


class BlockSpectra(NamedTuple):
    """The clamped occupation spectra of a partition's active A_L, A_R and
    A modes, their clamp count, and the spectra it deflated."""

    left: np.ndarray
    right: np.ndarray
    union: np.ndarray
    clamp_count: int
    deflated_left: np.ndarray
    deflated_right: np.ndarray


def _reduced_spectra(a: np.ndarray, k: int) -> tuple:
    """The clamped spectra of the A_L block, the A_R block and the whole of
    each reduced matrix of a stack split after k rows, and the values
    clamped.  The blocks are not diagonal: their spectra, never their
    eigenvectors."""
    (left, clamp_l), (right, clamp_r), (union, clamp_a) = (
        _clamped(np.linalg.eigvalsh(b)) for b in (a[..., :k, :k], a[..., k:, k:], a)
    )
    return left, right, union, clamp_l + clamp_r + clamp_a


def _diagonal_spectra(a: np.ndarray, k: int):
    """The spectra of each reduced matrix of a stack whose blocks are
    diagonal: the blocks' read off the diagonal, the union's from
    ``occupation_spectrum``, matrix by matrix."""
    for member in a:
        nu = member.diagonal().real
        yield (nu[:k], nu[k:], *occupation_spectrum(CorrelationMatrix(member, k, built_hermitian=True)))


def block_spectra(c: PartitionStack) -> list[BlockSpectra]:
    """The spectra every entropy-based measure of a partition reads, one
    ``BlockSpectra`` per matrix: the active and deflated spectra, whose
    union spectrum is that of the reduced matrix.  A group whose blocks the
    modes do not diagonalize takes them with one batched ``eigvalsh`` per
    block and one for the union."""
    if not isinstance(c, PartitionStack):
        raise TypeError(f"block_spectra reads a PartitionStack, not a {type(c).__name__}: pass partition(c)")
    out = [None] * c.size
    for g in c.groups:
        if c.modes.matrix is None:
            spectra = _diagonal_spectra(g.reduced, g.n_left)
        else:
            spectra = zip(*_reduced_spectra(g.reduced, g.n_left))
        for i, (left, right, union, clamp), offset, off_l, off_r in zip(
            g.members, spectra, g.clamp_count, g.deflated_left, g.deflated_right
        ):
            out[i] = BlockSpectra(left, right, union, int(clamp + offset), off_l, off_r)
    return out


def report_from_spectra(spectra: BlockSpectra, order: float | str = "vn") -> EntanglementReport:
    """Entropies of the two blocks and of the union, assembled into MI and CI.

    The coherent information direction is I(A_L > A_R) = S(A_R) - S(A).
    Deflated entropies cancel from MI, and only the A_L one stays in CI.
    """
    s_l, s_r, s_u, off_l, off_r = (
        entropy(nu, order)
        for nu in (spectra.left, spectra.right, spectra.union, spectra.deflated_left, spectra.deflated_right)
    )
    return EntanglementReport(
        renyi_order=order,
        s_al=s_l + off_l,
        s_ar=s_r + off_r,
        s_a=s_u + off_l + off_r,
        mutual_info=s_l + s_r - s_u,
        coherent_info=s_r - s_u - off_l,
        clamp_count=spectra.clamp_count,
    )


def _whitened_pencil(a: np.ndarray, n_left: int) -> tuple[np.ndarray, np.ndarray]:
    """(E_1, pairing residual max(s) - 1) of a matrix split after n_left
    rows, both blocks non-empty, in its own dtype, or of each matrix of a
    stack of them, from one Cholesky factor, one solve and one SVD."""
    dim = a.shape[-1]
    diag = np.arange(dim)
    z = np.where(diag < n_left, 1.0, -1.0)
    gamma = 2.0 * a - np.eye(dim)
    b = gamma @ gamma.conj().swapaxes(-1, -2)
    b[..., diag, diag] += 1.0
    minus = -gamma
    minus[..., diag, diag] += z
    gamma[..., diag, diag] += z
    try:
        log_det_half = np.log(np.linalg.cholesky(b).diagonal(axis1=-2, axis2=-1).real).sum(axis=-1)
        s = np.linalg.svd(minus @ np.linalg.solve(b, gamma), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(f"whitened pencil of I + Gamma_+ Gamma_-: {exc}") from exc

    residual = s.max(axis=-1) - 1.0
    # not max(0, ...): a NaN must fail the check
    failed = ~(residual <= PAIRING_TOL)
    if failed.any():
        raise SingularResolvent(f"C_X pairing residual {residual[failed][0]:.3e} exceeds {PAIRING_TOL:.1e}")
    return 0.5 * np.log1p(s).sum(axis=-1) + (log_det_half - 0.5 * dim * np.log(2.0)), residual


def _negativity(c: PartitionStack) -> tuple[list[float], list[float]]:
    """E_1 and the pairing residual of each matrix of a partition stack,
    from one whitened pencil per group; a deflated mode adds nothing, so a
    group without active modes reads 0 for both."""
    e1, residual = np.zeros(c.size), np.zeros(c.size)
    for g in c.groups:
        if g.reduced.shape[-1]:
            e1[g.members], residual[g.members] = _whitened_pencil(g.reduced, g.n_left)
    return e1.tolist(), residual.tolist()


def fermionic_negativity(c: CorrelationMatrix | FiniteStack | PartitionStack) -> list[float]:
    """Logarithmic fermionic negativity E_1 of each matrix of a partition
    stack, or of a matrix (a stack of one) or a ``FiniteStack`` partitioned
    at order 1."""
    return _negativity(c if isinstance(c, PartitionStack) else partition(c))[0]


def measures(
    c: CorrelationMatrix,
    order: float | str = "vn",
    with_negativity: bool = False,
) -> EntanglementReport:
    """MI, CI and the entropies of one matrix, plus the negativity on request."""
    part = partition(c, order)
    (spectra,) = block_spectra(part)
    report = report_from_spectra(spectra, order)
    if with_negativity:
        (report.negativity,), (report.pairing_residual,) = _negativity(partition(part))
    return report
