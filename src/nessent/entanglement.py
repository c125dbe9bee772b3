"""Entanglement measures of Gaussian fermion states from correlation matrices.

For a non-interacting state every reduced density matrix is Gaussian, so all
measures follow from the eigenvalues nu of the restricted correlation matrix:

    Renyi:        S_n = 1/(1-n) * sum ln[nu^n + (1-nu)^n]
    von Neumann:  S   = -sum [nu ln nu + (1-nu) ln(1-nu)]

(Peschel, J. Phys. A 36, L205 (2003)).  ``block_spectra`` takes the spectra
of A_L, A_R and A once, and ``report_from_spectra`` turns them into one
``EntanglementReport`` per order: mutual information S(A_L) + S(A_R) - S(A)
and the coherent information, fixed to the direction
I(A_L > A_R) = S(A_R) - S(A).

Deflation.  Most eigenvalues of each diagonal block lie within round-off of
0 or 1 (sine-kernel spectra cluster at the edges: Slepian, Bell Syst. Tech.
J. 57, 1371 (1978)), and such modes barely entangle A_L with A_R.
``partition`` takes the eigenpairs (nu, u) of the A_L and A_R blocks, forms
their coupling Y = U_L^dag C_LR U_R, and keeps the active modes; the rest
are deflated.  It returns the reduced matrix U^dag C U on the active modes
and the deflated eigenvalues.  Why this is exact to round-off:

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
when its coupling row is exactly zero; if either block is left without
active modes, the other one's are decoupled as well.  When both blocks of a
fig. 3 sweep repeat from point to point, a memo the caller keeps hands back
the last eigenpairs of each side, matched on the block's entries, so that
every value stays a pure function of the matrix whichever thread asks first.

Folding.  Every far-limit diagonal block B is Hermitian Toeplitz, hence
persymmetric: J conj(B) J = B, J reversing the sites.  When the geometry is
mirror symmetric, 2(d_l - d_r) = ell_r - ell_l (the centres of the two
intervals equally far from the scatterer), the cross block obeys the
same relation up to a sign, because t_l^* r_l is imaginary for a
parity-symmetric unitary S-matrix, and the whole matrix satisfies
P conj(C) P = C with P = diag(J_L, -J_R).  Then Q = (I - iP)/sqrt 2, a
block-local unitary, makes Q^dag C Q = Re C - P Im C real symmetric, at
O(n^2) cost, with every spectrum, the partition, MI, CI and E_n of C.
``fold`` decides this once per matrix: it tests the cross block and then
both diagonal blocks against the relation, each on its first row before
the whole, and folds when the defect max|P conj(C) P - C|, which bounds
|Im Q^dag C Q|, is at most FOLD_TOL times the largest diagonal entry (far
matrices reach about 3e-16).  The folded ``FoldedMatrix`` is checked for
Hermiticity once, so its spectra, its partition's block ``eigh``, the
reduced matrix and the negativity pencil all run in real arithmetic and
unchecked.  When only the blocks are persymmetric, as at fig. 3's offsets,
each block is folded on its own when it is decomposed (P = J on A_L, -J on
A_R as in the union), and its eigenvectors are U = Q V for the real V.
Finite-distance blocks are Toeplitz plus Hankel, never persymmetric, and
are left alone.

Orders n < 1 keep the full three spectra (``deflates``): an entropy term
mu^n / (1 - n) falls only as a power of mu, and deflating would be no
accuracy gain.  On fig. 2 far matrices (epsilon0 = 0.5, 1, 2 and constant
T = 1/2) the order-1/2 MI was compared with a reference
S_1/2 = 2 sum ln(sigma + sigma'), sigma and sigma' the singular values of
the rows of V and W, where C = V V^dag and I - C = W W^dag (V V^dag matches
the far builder to 8.3e-15 at ell <= 100; the reference moves by 1.4e-12
with 1.5x the quadrature nodes; tests/test_factored_projector.py).  With the
folded spectra the error against it is

    ell    full spectra (eigvalsh)     deflated
     20    -6.0e-8 .. +5.8e-8          -1.4e-7 .. -2.3e-7
    100    -3.1e-7 .. -4.9e-7          -1.2e-6 .. -1.6e-6
    200    -1.6e-6 .. -2.5e-6          -2.0e-6 .. -2.3e-6

(unfolded complex spectra: up to 7.5e-8, 1.1e-6 and 3.4e-6).  Taking the
block spectra from ``eigh`` and the union from U^dag C U instead erred by
up to -5.2e-6 at ell = 200 on the complex matrices.

The fermionic negativity uses the partial time-reversal of one block.  With
C_A = [[C_LL, C_LR], [C_RL, C_RR]] one forms

    Gamma_pm = [[2 C_LL - I, -/+ 2i C_LR], [-/+ 2i C_RL, I - 2 C_RR]]
    C_X = (I - (I + Gamma_+ Gamma_-)^(-1) (Gamma_+ + Gamma_-)) / 2

and the moments

    E_n = ln det[C_X^(n/2) + (I - C_X)^(n/2)]
        + (n/2) ln det[C_A^2 + (I - C_A)^2].

C_X is never formed.  Gamma_- = Gamma_+^dag, so B = I + Gamma_+ Gamma_+^dag
is Hermitian positive definite and B -/+ (Gamma_+ + Gamma_-) =
(I -/+ Gamma_+)(I -/+ Gamma_+)^dag.  With B = L L^dag, the eigenvalues xi of
C_X are sigma^2 / 2 for the singular values sigma of L^-1 (I - Gamma_+), and
1 - xi = sigma'^2 / 2 for those of L^-1 (I + Gamma_+), ascending sigma paired
with descending sigma'.  Both sides are real by construction and each small
value is computed directly, so no square root is taken of an eigenvalue that
is noise around the branch point.  The pencil drops the phases: with
Gamma = 2 C_A - I and D = diag(I, -iI), Gamma_+ = D Gamma D, so
B = D (I + Gamma^2) D^dag, L = D L0 D^dag for I + Gamma^2 = L0 L0^dag, and
L^-1 (I -/+ Gamma_+) = D L0^-1 (Z -/+ Gamma) D with Z = D^dag D^dag =
diag(I, -I).  The singular values are those of L0^-1 (Z -/+ Gamma), which
stays in the matrix's own dtype, real for a folded one.  det(I + Gamma^2) =
2^N det[C_A^2 + (I - C_A)^2], so the second term comes from the diagonal of
L0.  The negativity itself is
E_1 = sum ln[(sigma + sigma') / sqrt 2] + sum ln L0_ii - (N/2) ln 2; even n
stays available for oracle tests.  The pairing residual
max |(sigma^2 + sigma'^2)/2 - 1| is asserted small and reported in the
diagnostics.  The C_X construction is from Shapourian, Shiozaki & Ryu,
PRB 95, 165101 (2017), and Eisler & Zimboras, NJP 17, 053048 (2015).
On a ``Partition`` the pencil runs on the reduced matrix only; a deflated
mode of occupation nu adds ln[nu^n + (1 - nu)^n] to E_n, which is 0 at n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .correlation import CorrelationMatrix
from .numerics import HERM_TOL, NumericsError, check_hermitian, eig_hermitian, eigh_hermitian
from .numerics import eig_general, mat_inverse  # noqa: F401  read by perfbench/tracer.py

__all__ = [
    "SpectrumError",
    "SingularResolvent",
    "EntanglementReport",
    "FoldedMatrix",
    "fold",
    "occupation_spectrum",
    "renyi_index",
    "entropy",
    "deflates",
    "Partition",
    "partition",
    "BlockSpectra",
    "block_spectra",
    "report_from_spectra",
    "correlation_moments",
    "measures",
    "fermionic_negativity",
]

#: eigenvalues may stray outside [0, 1] by at most this much before erroring
CLAMP_SLACK = 1e-8

#: a block mode within this of 0 or 1 whose estimated share of E_1 is also
#: below it is deflated (see the module docstring)
DEFLATION_TOL = 1e-13

#: a block or a union is folded to real form when its mirror-symmetry defect
#: is at most this, relative to its largest diagonal entry (see the module
#: docstring)
FOLD_TOL = 1e-14

#: tolerated C_X pairing residual max |(sigma^2 + sigma'^2)/2 - 1|; xi and
#: 1 - xi come from two separate solves, so their sum checks both
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


class FoldedMatrix(CorrelationMatrix):
    """Q^dag C Q of a correlation matrix C whose union is mirror symmetric:
    real symmetric, with the split, the spectra, MI, CI and every E_n of C.
    It was checked for Hermiticity when it was folded, so the eigensolvers
    do not check it, or its diagonal blocks, again."""


def _matrix_of(c) -> np.ndarray:
    if isinstance(c, CorrelationMatrix):
        return c.matrix
    return np.asarray(c)


def _mirrors(x: np.ndarray, sign: float, tol: float) -> bool:
    """Whether sign * J conj(x) J equals x to tol, J reversing the sites; the
    first row is compared first, so that a mismatch costs O(n)."""
    return bool(
        np.abs(x[0] - sign * x[-1, ::-1].conj()).max() <= tol
        and np.abs(x - sign * x[::-1, ::-1].conj()).max() <= tol
    )


def _fold_tol(x: np.ndarray) -> float:
    # 0 <= C <= I bounds every |C_ij| by the largest diagonal entry
    return FOLD_TOL * float(np.abs(x.diagonal()).max())


def _fold_block(block: np.ndarray, sign: float) -> np.ndarray:
    """A persymmetric complex diagonal block B folded by Q = (I - i sign J)/sqrt 2
    to the real Re B - sign J Im B; any other block as it is."""
    if np.iscomplexobj(block) and _mirrors(block, 1.0, _fold_tol(block)):
        return block.real - sign * block.imag[::-1]
    return block


def fold(c: CorrelationMatrix) -> CorrelationMatrix:
    """The real FoldedMatrix Q^dag C Q when the union of C is mirror
    symmetric, P conj(C) P = C with P = diag(J_L, -J_R); otherwise c itself.

    The two diagonal blocks and the cross block are tested apart, cross block
    first, each on its first row before the whole; the folded matrix is
    checked for Hermiticity once and its cross blocks are mirrored exactly.
    """
    if isinstance(c, FoldedMatrix) or not np.iscomplexobj(c.matrix) or c.n_left == 0 or c.n_right == 0:
        return c
    a, nl = c.matrix, c.n_left
    tol = _fold_tol(a)
    if not (_mirrors(a[nl:, :nl], -1.0, tol) and _mirrors(a[:nl, :nl], 1.0, tol) and _mirrors(a[nl:, nl:], 1.0, tol)):
        return c
    sign = np.where(np.arange(c.dim) < nl, 1.0, -1.0)
    mirror = np.concatenate([np.arange(nl)[::-1], np.arange(nl, c.dim)[::-1]])
    folded = a.imag[mirror]
    folded *= -sign[:, None]
    folded += a.real
    check_hermitian(folded)
    folded[:nl, nl:] = folded[nl:, :nl].T
    return FoldedMatrix(folded, nl)


def occupation_spectrum(c, clamp_slack: float = CLAMP_SLACK) -> tuple[np.ndarray, int]:
    """Eigenvalues of a correlation matrix clamped to [0, 1].

    Values within clamp_slack of the interval are clamped; anything further
    out raises SpectrumError, since log(negative) must be impossible yet a
    genuine spectral violation has to surface.  A FoldedMatrix is not
    checked for Hermiticity again.
    """
    herm_tol = None if isinstance(c, FoldedMatrix) else HERM_TOL
    return _clamped(eig_hermitian(_matrix_of(c), herm_tol), clamp_slack)


def _clamped(nu: np.ndarray, clamp_slack: float = CLAMP_SLACK) -> tuple[np.ndarray, int]:
    """nu clamped to [0, 1] and the number of values clamped; SpectrumError
    beyond clamp_slack."""
    if nu.size and (nu.min() < -clamp_slack or nu.max() > 1.0 + clamp_slack):
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


def deflates(order: float | str) -> bool:
    """Whether an entropy of this order reads the deflated partition (n >= 1)
    rather than the full spectra (n < 1); see the module docstring."""
    return renyi_index(order) >= 1.0


class Partition(NamedTuple):
    """A partition deflated to its coupled modes.

    ``reduced`` is U^dag C U on the active modes: diag(nu) of the active
    modes of A_L, then of A_R, with their coupling in the cross blocks.
    ``deflated_left`` and ``deflated_right`` are the clamped eigenvalues of
    the other modes, and ``clamp_count`` counts the block eigenvalues
    clamped.  Either both blocks keep active modes or neither does.
    """

    reduced: CorrelationMatrix
    deflated_left: np.ndarray
    deflated_right: np.ndarray
    clamp_count: int


def _block_eigenpairs(
    block: np.ndarray, sign: float, side: str, memo: dict, checked: bool
) -> tuple[np.ndarray, np.ndarray, int]:
    """Clamped eigenvalues, eigenvectors and clamp count of a diagonal block,
    solved in real arithmetic when it folds (P = sign J on this side);
    memo[side] keeps the last block of that side with its result."""
    last = memo.get(side)
    if last is not None and np.array_equal(last[0], block):
        return last[1:]
    folded = _fold_block(block, sign)
    nu, vecs = eigh_hermitian(folded, None) if checked else eigh_hermitian(folded)
    if folded is not block:
        # U = Q V = (V - i sign J V) / sqrt 2, written in place
        real = vecs
        vecs = np.empty(real.shape, dtype=complex)
        np.divide(real, np.sqrt(2.0), out=vecs.real)
        np.divide(real[::-1], -sign * np.sqrt(2.0), out=vecs.imag)
    nu, clamped = _clamped(nu)
    # one tuple, stored in one assignment: a thread reading memo[side] sees
    # either the old entry or the new one, and both are pure functions of
    # their block
    memo[side] = (block.copy(), nu, vecs, clamped)
    return nu, vecs, clamped


def partition(c: CorrelationMatrix, memo: dict | None = None) -> Partition:
    """The partition's reduced matrix on its active modes, and the deflated
    spectra; the deflation rule is in the module docstring.

    The matrix is folded first (``fold``).  Unless it folded, the cross
    block is read from the rows of A_L, once checked against the rows of A_R,
    and each diagonal block is checked when it is decomposed.  ``memo``, a
    dict the caller keeps across the matrices of a sweep, remembers the last
    block decomposed per side.
    """
    if c.n_left == 0 or c.n_right == 0:
        raise ValueError("a partition needs both blocks non-empty")
    memo = {} if memo is None else memo
    c = fold(c)
    nl = c.n_left
    checked = isinstance(c, FoldedMatrix)
    if not checked:
        check_hermitian(c.matrix[:nl, nl:], c.matrix[nl:, :nl])
    nu_l, vec_l, clamp_l = _block_eigenpairs(c.matrix[:nl, :nl], 1.0, "left", memo, checked)
    nu_r, vec_r, clamp_r = _block_eigenpairs(c.matrix[nl:, nl:], -1.0, "right", memo, checked)
    coupling = vec_l.conj().T @ c.matrix[:nl, nl:] @ vec_r
    size = np.abs(coupling)
    # two-mode estimate of each coupling's share of E_1, min(|y|, |y|^2 / pair)
    pair = np.maximum(1.0 - np.abs(np.subtract.outer(nu_l, nu_r)), size)
    share = np.divide(size * size, pair, out=np.zeros_like(size), where=pair > 0.0)

    def active(nu: np.ndarray, axis: int) -> np.ndarray:
        edge = (np.minimum(nu, 1.0 - nu) <= DEFLATION_TOL) & (share.sum(axis=axis) <= DEFLATION_TOL)
        return ~edge & np.any(coupling, axis=axis)

    act_l, act_r = active(nu_l, 1), active(nu_r, 0)
    if not (act_l.any() and act_r.any()):
        act_l[:] = act_r[:] = False
    k = int(act_l.sum())
    reduced = np.diag(np.concatenate([nu_l[act_l], nu_r[act_r]])).astype(coupling.dtype)
    reduced[:k, k:] = coupling[np.ix_(act_l, act_r)]
    reduced[k:, :k] = reduced[:k, k:].conj().T
    return Partition(CorrelationMatrix(reduced, k), nu_l[~act_l], nu_r[~act_r], clamp_l + clamp_r)


class BlockSpectra(NamedTuple):
    """Clamped occupation spectra of A_L, A_R and A, their clamp count, and
    the spectra a partition deflated (empty for full spectra)."""

    left: np.ndarray
    right: np.ndarray
    union: np.ndarray
    clamp_count: int
    deflated_left: np.ndarray = np.zeros(0)
    deflated_right: np.ndarray = np.zeros(0)


def block_spectra(c: CorrelationMatrix | Partition) -> BlockSpectra:
    """The spectra every entropy-based measure of a partition reads: three
    ``eigvalsh`` of a full matrix, or the active and deflated spectra of a
    partition, whose union spectrum is that of the reduced matrix.  A full
    matrix is folded first, and each diagonal block on its own if the union
    does not fold."""
    if isinstance(c, Partition):
        modes = c.reduced
        nu = modes.matrix.diagonal().real
        union, clamp_a = occupation_spectrum(modes) if modes.dim else (nu, 0)
        return BlockSpectra(
            nu[: modes.n_left], nu[modes.n_left :], union, c.clamp_count + clamp_a, c.deflated_left, c.deflated_right
        )
    if c.n_left == 0 or c.n_right == 0:
        raise ValueError("measures needs both blocks in the partition")
    c = fold(c)
    if isinstance(c, FoldedMatrix):
        left, right = c.block_left(), c.block_right()
    else:
        nl = c.n_left
        left, right = _fold_block(c.matrix[:nl, :nl], 1.0), _fold_block(c.matrix[nl:, nl:], -1.0)
    nu_a, clamp_a = occupation_spectrum(c)
    nu_l, clamp_l = occupation_spectrum(left)
    nu_r, clamp_r = occupation_spectrum(right)
    return BlockSpectra(nu_l, nu_r, nu_a, clamp_a + clamp_l + clamp_r)


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


def correlation_moments(c, p: int) -> float:
    """Tr[C^p] by repeated matrix multiplication."""
    if p < 1:
        raise ValueError("moment order must be a positive integer")
    a = _matrix_of(c)
    power = a.copy()
    for _ in range(p - 1):
        power = power @ a
    return float(np.trace(power).real)


def _negativity_detail(c: CorrelationMatrix | Partition, n: float) -> tuple[float, float]:
    """(E_n, pairing residual max |(sigma^2 + sigma'^2)/2 - 1|)."""
    if n != 1 and (n < 2 or int(n) != n or int(n) % 2 != 0):
        raise ValueError("negativity order must be 1 or an even integer")
    if isinstance(c, Partition):
        off = (1.0 - n) * (entropy(c.deflated_left, n) + entropy(c.deflated_right, n))
        if c.reduced.dim == 0:
            return off, 0.0
        value, residual = _whitened_pencil(c.reduced, n)
        return value + off, residual
    if c.n_left == 0 or c.n_right == 0:
        raise ValueError("fermionic negativity needs both blocks non-empty")
    return _whitened_pencil(fold(c), n)


def _whitened_pencil(c: CorrelationMatrix, n: float) -> tuple[float, float]:
    """(E_n, pairing residual) of a matrix with both blocks non-empty, in its
    own dtype."""
    a = c.matrix
    dim = a.shape[0]
    diag = np.diag_indices(dim)
    z = np.where(np.arange(dim) < c.n_left, 1.0, -1.0)
    gamma = 2.0 * a - np.eye(dim)

    # one side at a time, so that at most one extra dim x dim temporary lives
    b = gamma @ gamma.conj().T
    b[diag] += 1.0
    try:
        chol = np.linalg.cholesky(b)
        del b
        side = -gamma
        side[diag] += z
        sigma = np.linalg.svd(np.linalg.solve(chol, side), compute_uv=False)[::-1]
        del side
        gamma[diag] += z
        sigma_p = np.linalg.svd(np.linalg.solve(chol, gamma), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(f"whitened pencil of I + Gamma_+ Gamma_-: {exc}") from exc
    log_det_half = float(np.log(chol.diagonal().real).sum())

    residual = float(np.abs(0.5 * (sigma**2 + sigma_p**2) - 1.0).max())
    if not residual <= PAIRING_TOL:
        raise SingularResolvent(f"C_X pairing residual {residual:.3e} exceeds {PAIRING_TOL:.1e}")
    if n == 1:
        first = np.log((sigma + sigma_p) / np.sqrt(2.0)).sum()
    else:
        half = n / 2.0
        first = np.log((0.5 * sigma**2) ** half + (0.5 * sigma_p**2) ** half).sum()
    return float(first + n * (log_det_half - 0.5 * dim * np.log(2.0))), residual


def fermionic_negativity(c: CorrelationMatrix | Partition, n: float = 1) -> float:
    """Logarithmic fermionic negativity (n = 1) or the even moment E_n, of a
    full matrix or of a deflated partition."""
    value, _ = _negativity_detail(c, n)
    return value


def measures(
    c: CorrelationMatrix,
    order: float | str = "vn",
    with_negativity: bool = False,
) -> EntanglementReport:
    """MI, CI and the entropies of one partition, plus the negativity on request."""
    c = fold(c)
    part = partition(c) if with_negativity or deflates(order) else None
    report = report_from_spectra(block_spectra(part if deflates(order) else c), order)
    if with_negativity:
        report.negativity, report.pairing_residual = _negativity_detail(part, 1)
    return report
