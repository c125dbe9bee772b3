"""Entanglement measures of Gaussian fermion states from correlation matrices.

For a non-interacting state every reduced density matrix is Gaussian, so all
measures follow from the eigenvalues nu of the restricted correlation matrix:

    Renyi:        S_n = 1/(1-n) * sum ln[nu^n + (1-nu)^n]
    von Neumann:  S   = -sum [nu ln nu + (1-nu) ln(1-nu)]

(Peschel, J. Phys. A 36, L205 (2003)).  Every measure reads a ``Partition``
(below): ``block_spectra`` takes its spectra of A_L, A_R and A once, and
``report_from_spectra`` turns them into one ``EntanglementReport`` per
order: mutual information S(A_L) + S(A_R) - S(A) and the coherent
information, fixed to the direction I(A_L > A_R) = S(A_R) - S(A).

Deflation.  Most eigenvalues of each diagonal block lie within round-off of
0 or 1 (sine-kernel spectra cluster at the edges: Slepian, Bell Syst. Tech.
J. 57, 1371 (1978)), and such modes barely entangle A_L with A_R.
``partition`` takes the eigenpairs (nu, u) of the A_L and A_R blocks, forms
their coupling Y = U_L^dag C_LR U_R, and keeps the active modes; the rest
are deflated.  It returns the reduced matrix U^dag C U on the active modes
and the deflated eigenvalues.  A finite-distance matrix takes the
eigenpairs of its far matrix's blocks instead (below), so its modes carry
same-block entries too, and nu is the diagonal of U^dag C U.  Why this is
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
``Partition`` keeps its block modes, and ``partition(p, order)`` deflates it
again for another order without a further decomposition.  On fig. 2 far
matrices (epsilon0 = 0.5, 1, 2 and constant T = 1/2) 38-39 of 40 modes stay
at ell = 20, 80-81 of 200 at ell = 100 and 106-108 of 400 at ell = 200.
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
The pencil runs on a partition's reduced matrix only, a bare matrix being
partitioned at order 1 first; a deflated mode adds nothing to E_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.linalg import eigvals as eig_general, inv as mat_inverse  # noqa: F401  read by perfbench/tracer.py

from .correlation import CorrelationMatrix, FarMatrix, FiniteMatrix
from .numerics import NumericsError

__all__ = [
    "SpectrumError",
    "SingularResolvent",
    "EntanglementReport",
    "occupation_spectrum",
    "renyi_index",
    "entropy",
    "Partition",
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
    """Correlation-matrix spectrum outside [0, 1] beyond the clamping slack."""


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


def _clamped(nu: np.ndarray) -> tuple[np.ndarray, int]:
    """nu clamped to [0, 1] and the number of values clamped; SpectrumError
    beyond CLAMP_SLACK."""
    if nu.size and (nu.min() < -CLAMP_SLACK or nu.max() > 1.0 + CLAMP_SLACK):
        worst = nu.min() if -nu.min() > nu.max() - 1.0 else nu.max()
        raise SpectrumError(f"correlation eigenvalue {worst} outside [0, 1] beyond slack")
    clamped = int((nu < 0.0).sum() + (nu > 1.0).sum())
    return np.clip(nu, 0.0, 1.0), clamped


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
    """What every order's deflation of a matrix reads, in a basis U of block
    modes (module docstring).  ``nu_l`` and ``nu_r`` are the clamped
    occupations of the modes, the diagonal of U^dag C U, and
    ``clamp_count`` counts the values clamped; ``coupling`` is
    Y = U_L^dag C_LR U_R; ``kept`` holds per block the modes the E_1 rule
    keeps, and ``first`` per block each mode's first-order share, the sum of
    the |off-diagonal entries| of its row.  ``matrix`` is None when U
    diagonalizes both blocks, and otherwise the whole of U^dag C U, whose
    same-block entries the rule reads too."""

    nu_l: np.ndarray
    nu_r: np.ndarray
    clamp_count: int
    coupling: np.ndarray
    kept: tuple
    first: tuple
    matrix: np.ndarray | None = None


class Partition(NamedTuple):
    """A partition deflated to the modes an entropy of its order keeps.

    ``reduced`` is U^dag C U on the active modes, those of A_L and then
    those of A_R: their occupations on the diagonal, their coupling across
    the blocks, and within the blocks too when ``modes.matrix`` is set.
    ``deflated_left`` and ``deflated_right`` are the clamped occupations of
    the other modes, and ``clamp_count`` counts the values clamped.  Either
    both blocks keep active modes or neither does.  ``modes``
    (``BlockModes``) holds what every order's deflation reads.
    """

    reduced: CorrelationMatrix
    deflated_left: np.ndarray
    deflated_right: np.ndarray
    clamp_count: int
    modes: BlockModes


def _block_eigenpairs(block: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Clamped eigenvalues, clamp count and eigenvectors of a diagonal block."""
    nu, vecs = np.linalg.eigh(block)
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
    """left^T (Re middle) right and left^T (Im middle) right, stacked, for real
    left and right: a real matrix times a complex one would run in complex
    arithmetic."""
    return left.T @ np.stack([middle.real, middle.imag]) @ right


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
    """Q_a^dag K Q_b for the Hankel matrix K[j, m] = v[j + m] with ``rows``
    rows and Q_s = (I - i s J)/sqrt 2, as the stack of its real part
    (K + ab JKJ)/2, Hankel, and its imaginary part (a JK - b KJ)/2,
    Toeplitz, each formed on the 1-D values before its gather."""
    flip = v[::-1]
    terms = np.concatenate([0.5 * (v + a * b * flip), 0.5 * (a * v - b * flip)])
    return terms[_hankel_index(rows, v.size + 1 - rows)]


def _shares(size: np.ndarray, nu_a: np.ndarray, nu_b: np.ndarray) -> np.ndarray:
    """Two-mode estimate of each coupling's share of E_1,
    min(|y|, |y|^2 / pair), between modes of occupations nu_a and nu_b."""
    pair = np.maximum(1.0 - np.abs(np.subtract.outer(nu_a, nu_b)), size)
    return np.divide(size * size, pair, out=np.zeros_like(size), where=pair > 0.0)


def _coupled(nu: np.ndarray, share: np.ndarray, coupled: np.ndarray) -> np.ndarray:
    """The modes the E_1 rule keeps, from their occupations, their summed
    E_1 shares and whether they couple at all."""
    edge = (np.minimum(nu, 1.0 - nu) <= DEFLATION_TOL) & (share <= DEFLATION_TOL)
    return ~edge & coupled


def _finite_modes(c: FiniteMatrix) -> BlockModes:
    """``Partition.modes`` of a finite-distance matrix in the eigenbasis
    U = Q V of its far matrix's folded blocks.  There M = U^dag C U is
    diag(nu_far) plus V^T X V for the folded far coupling and Hankel terms
    X, each folded on its 1-D values and carried to the modes by real
    products; the rule reads every off-diagonal entry of a mode's row,
    same-block ones included."""
    far, nl, dim = c.far, c.n_left, c.dim
    (nu_l, _, vec_l), (nu_r, _, vec_r) = _far_eigenpairs(far)
    m = np.empty((dim, dim), dtype=complex)
    for rows, vec, h, sign in ((slice(0, nl), vec_l, c.hankel_left, 1.0), (slice(nl, dim), vec_r, c.hankel_right, -1.0)):
        re, im = vec.T @ _folded(h, vec.shape[0], sign, sign) @ vec
        # exactly Hermitian: the symmetric part of re, the antisymmetric one of im
        np.add(re, re.T, out=m.real[rows, rows])
        np.subtract(im, im.T, out=m.imag[rows, rows])
        m[rows, rows] *= 0.5
    # the cross term of the A_L rows is K[m, j] = conj hankel_cross[j + m]
    hankel, toeplitz = _folded(c.hankel_cross.conj(), nl, 1.0, -1.0)
    re, im = _real_congruence(vec_l, far.coupling + (hankel + 1j * toeplitz), vec_r)
    m.real[:nl, nl:], m.imag[:nl, nl:] = re, im
    m.real[nl:, :nl], m.imag[nl:, :nl] = re.T, -im.T
    nu, clamp_count = _clamped(np.concatenate([nu_l, nu_r]) + m.real.diagonal())
    np.fill_diagonal(m, nu)
    size = np.abs(m)
    np.fill_diagonal(size, 0.0)
    first = size.sum(axis=1)
    kept = _coupled(nu, _shares(size, nu, nu).sum(axis=1), first > 0.0)
    return BlockModes(
        nu[:nl], nu[nl:], clamp_count, m[:nl, nl:], (kept[:nl], kept[nl:]), (first[:nl], first[nl:]), m
    )


def _block_modes(c: CorrelationMatrix) -> BlockModes:
    """``Partition.modes`` of a matrix.

    A far-limit matrix (``FarMatrix``) takes the eigenpairs of its builder's
    folded blocks and couples them through F in real arithmetic.  A
    finite-distance matrix (``FiniteMatrix``) takes the same eigenpairs,
    those of its far matrix (``_finite_modes``).  Any other matrix takes the
    eigenpairs of its own blocks and its cross block, read from the rows of
    A_L.
    """
    if c.n_left == 0 or c.n_right == 0:
        raise ValueError("a partition needs both blocks non-empty")
    if isinstance(c, FiniteMatrix):
        return _finite_modes(c)
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
    kept = (
        _coupled(nu_l, share.sum(axis=1), np.any(coupling, axis=1)),
        _coupled(nu_r, share.sum(axis=0), np.any(coupling, axis=0)),
    )
    return BlockModes(nu_l, nu_r, clamp_l + clamp_r, coupling, kept, (size.sum(axis=1), size.sum(axis=0)))


def partition(c: CorrelationMatrix | Partition, order: float | str = "vn") -> Partition:
    """The partition deflated for an entropy of this order; the rule is in
    the module docstring, and the negativity reads order 1.  A partition
    passed in is deflated again from its ``modes``, so the partitions of
    several orders share one decomposition."""
    modes = c.modes if isinstance(c, Partition) else _block_modes(c)
    nu_l, nu_r, clamp_count, coupling, (act_l, act_r), first, m = modes
    if renyi_index(order) < 1.0:
        act_l, act_r = act_l | (first[0] > LOW_ORDER_TOL), act_r | (first[1] > LOW_ORDER_TOL)
    if not (act_l.any() and act_r.any()):
        # a block without partners is decoupled whole: its occupations, or
        # the spectrum of its block where the modes do not diagonalize it
        act_l, act_r = np.zeros_like(act_l), np.zeros_like(act_r)
        if m is not None:
            nl = nu_l.size
            (nu_l, clamp_l), (nu_r, clamp_r) = (_clamped(np.linalg.eigvalsh(b)) for b in (m[:nl, :nl], m[nl:, nl:]))
            clamp_count += clamp_l + clamp_r
    k = int(act_l.sum())
    if m is None:
        reduced = np.diag(np.concatenate([nu_l[act_l], nu_r[act_r]])).astype(coupling.dtype)
        reduced[:k, k:] = coupling[np.ix_(act_l, act_r)]
        reduced[k:, :k] = reduced[:k, k:].conj().T
    else:
        active = np.concatenate([act_l, act_r])
        reduced = m[np.ix_(active, active)]
    active = CorrelationMatrix(reduced, k, built_hermitian=True)
    return Partition(active, nu_l[~act_l], nu_r[~act_r], clamp_count, modes)


class BlockSpectra(NamedTuple):
    """The clamped occupation spectra of a partition's active A_L, A_R and
    A modes, their clamp count, and the spectra it deflated."""

    left: np.ndarray
    right: np.ndarray
    union: np.ndarray
    clamp_count: int
    deflated_left: np.ndarray
    deflated_right: np.ndarray


def block_spectra(c: Partition) -> BlockSpectra:
    """The spectra every entropy-based measure of a partition reads: the
    active and deflated spectra, whose union spectrum is that of the reduced
    matrix."""
    if not isinstance(c, Partition):
        raise TypeError(f"block_spectra reads a Partition, not a {type(c).__name__}: pass partition(c)")
    active, k = c.reduced, c.reduced.n_left
    nu = active.matrix.diagonal().real
    if not active.dim:
        return BlockSpectra(nu, nu, nu, c.clamp_count, c.deflated_left, c.deflated_right)
    if c.modes.matrix is None:
        (left, right), clamp = (nu[:k], nu[k:]), 0
    else:
        # the reduced blocks are not diagonal: their spectra, never their
        # eigenvectors
        (left, clamp_l), (right, clamp_r) = map(occupation_spectrum, (active.block_left(), active.block_right()))
        clamp = clamp_l + clamp_r
    union, clamp_a = occupation_spectrum(active)
    return BlockSpectra(left, right, union, c.clamp_count + clamp + clamp_a, c.deflated_left, c.deflated_right)


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


def _negativity_detail(c: CorrelationMatrix | Partition) -> tuple[float, float]:
    """(E_1, pairing residual max(s) - 1) of a partition, a bare matrix
    being partitioned at order 1; the deflated modes add nothing."""
    if not isinstance(c, Partition):
        c = partition(c)
    if c.reduced.dim == 0:
        return 0.0, 0.0
    return _whitened_pencil(c.reduced)


def _whitened_pencil(c: CorrelationMatrix) -> tuple[float, float]:
    """(E_1, pairing residual max(s) - 1) of a matrix with both blocks
    non-empty, in its own dtype."""
    a = c.matrix
    dim = a.shape[0]
    diag = np.diag_indices(dim)
    z = np.where(np.arange(dim) < c.n_left, 1.0, -1.0)
    gamma = 2.0 * a - np.eye(dim)
    b = gamma @ gamma.conj().T
    b[diag] += 1.0
    minus = -gamma
    minus[diag] += z
    gamma[diag] += z
    try:
        log_det_half = float(np.log(np.linalg.cholesky(b).diagonal().real).sum())
        s = np.linalg.svd(minus @ np.linalg.solve(b, gamma), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(f"whitened pencil of I + Gamma_+ Gamma_-: {exc}") from exc

    # not max(0, ...): a NaN must fail the check
    residual = float(s.max()) - 1.0
    if not residual <= PAIRING_TOL:
        raise SingularResolvent(f"C_X pairing residual {residual:.3e} exceeds {PAIRING_TOL:.1e}")
    return float(0.5 * np.log1p(s).sum() + (log_det_half - 0.5 * dim * np.log(2.0))), residual


def fermionic_negativity(c: CorrelationMatrix | Partition) -> float:
    """Logarithmic fermionic negativity E_1 of a partition, or of a matrix
    partitioned at order 1."""
    return _negativity_detail(c)[0]


def measures(
    c: CorrelationMatrix,
    order: float | str = "vn",
    with_negativity: bool = False,
) -> EntanglementReport:
    """MI, CI and the entropies of one partition, plus the negativity on request."""
    part = partition(c, order)
    report = report_from_spectra(block_spectra(part), order)
    if with_negativity:
        report.negativity, report.pairing_residual = _negativity_detail(partition(part))
    return report
