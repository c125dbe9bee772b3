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
active modes, the other one's are decoupled as well.  A far-limit matrix
brings its diagonal blocks from its builder (``FarMatrix``), which keeps
the last block of each side, with its eigenpairs once a partition has
solved them, so a fig. 3 sweep, whose blocks do not depend on the offset,
decomposes each block once.  The eigenpairs are a pure function of the
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
Re C - P Im C real symmetric, with every spectrum, the partition, MI, CI
and E_n of C: ``fold`` assembles that matrix from the folded blocks and F,
for the full spectra and the full negativity pencil.  Otherwise, as at
fig. 3's offsets, F is complex, and ``partition`` takes V_L^T (Re F) V_R
and V_L^T (Im F) V_R in real arithmetic, where a real V times a complex F
would run in complex arithmetic.  Matrices the far builder did not make,
finite-distance (Toeplitz plus Hankel, never centrohermitian) or built by
hand, take the plain complex path.

Hermiticity.  Every matrix here is a ``CorrelationMatrix``: checked once,
for finite entries and Hermiticity, when it is made from outside the
package (``numerics.check_hermitian``), or built Hermitian exactly by the
package (``correlation`` module docstring).  So the spectra and block
eigenpairs come straight from ``numpy.linalg.eigvalsh`` and ``eigh``, which
read one triangle, and no solver here checks again.

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
from numpy.linalg import eigvals as eig_general, inv as mat_inverse  # noqa: F401  read by perfbench/tracer.py

from .correlation import CorrelationMatrix, FarMatrix
from .numerics import NumericsError

__all__ = [
    "SpectrumError",
    "SingularResolvent",
    "EntanglementReport",
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


def fold(c: CorrelationMatrix) -> CorrelationMatrix:
    """The real symmetric Q^dag C Q of a far-limit matrix whose union folds,
    assembled from its builder's folded blocks and its coupling F
    (``FarMatrix``); any other matrix as it is."""
    if not (isinstance(c, FarMatrix) and c.folds):
        return c
    nl = c.n_left
    folded = np.empty((c.dim, c.dim))
    folded[:nl, :nl] = c.left.folded
    folded[nl:, nl:] = c.right.folded
    folded[:nl, nl:] = c.coupling
    folded[nl:, :nl] = c.coupling.T
    return CorrelationMatrix(folded, nl, built_hermitian=True)


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


def _block_eigenpairs(block: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Clamped eigenvalues, clamp count and eigenvectors of a diagonal block."""
    nu, vecs = np.linalg.eigh(block)
    return (*_clamped(nu), vecs)


def partition(c: CorrelationMatrix) -> Partition:
    """The partition's reduced matrix on its active modes, and the deflated
    spectra; the deflation rule is in the module docstring.

    A far-limit matrix (``FarMatrix``) takes the eigenpairs of its builder's
    folded blocks and couples them through F in real arithmetic.  Any other
    matrix takes the eigenpairs of its own blocks and its cross block, read
    from the rows of A_L.
    """
    if c.n_left == 0 or c.n_right == 0:
        raise ValueError("a partition needs both blocks non-empty")
    nl = c.n_left
    if isinstance(c, FarMatrix):
        # each builder block is decomposed once and its eigenpairs kept on it,
        # in one assignment: a thread reading them sees None or the result,
        # a pure function of the block
        for block in (c.left, c.right):
            if block.pairs is None:
                block.pairs = _block_eigenpairs(block.folded)
        (nu_l, clamp_l, vec_l), (nu_r, clamp_r, vec_r) = c.left.pairs, c.right.pairs
        cross = c.coupling
    else:
        nu_l, clamp_l, vec_l = _block_eigenpairs(c.matrix[:nl, :nl])
        nu_r, clamp_r, vec_r = _block_eigenpairs(c.matrix[nl:, nl:])
        cross = c.matrix[:nl, nl:]
    if np.iscomplexobj(cross) and not np.iscomplexobj(vec_l):
        # V^T F V for Re F and Im F, stacked: a real V times a complex F
        # would run in complex arithmetic
        parts = vec_l.T @ np.stack([cross.real, cross.imag]) @ vec_r
        coupling = parts[0] + 1j * parts[1]
    else:
        coupling = vec_l.conj().T @ cross @ vec_r
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
    return Partition(CorrelationMatrix(reduced, k, built_hermitian=True), nu_l[~act_l], nu_r[~act_r], clamp_l + clamp_r)


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
    partition, whose union spectrum is that of the reduced matrix.  A
    far-limit matrix reads its builder's folded blocks, and its folded union
    when the union folds (``fold``)."""
    if isinstance(c, Partition):
        modes = c.reduced
        nu = modes.matrix.diagonal().real
        union, clamp_a = occupation_spectrum(modes) if modes.dim else (nu, 0)
        return BlockSpectra(
            nu[: modes.n_left], nu[modes.n_left :], union, c.clamp_count + clamp_a, c.deflated_left, c.deflated_right
        )
    if c.n_left == 0 or c.n_right == 0:
        raise ValueError("measures needs both blocks in the partition")
    if isinstance(c, FarMatrix):
        left, right = (CorrelationMatrix(block.folded, 0, built_hermitian=True) for block in (c.left, c.right))
    else:
        left, right = c.block_left(), c.block_right()
    nu_a, clamp_a = occupation_spectrum(fold(c))
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


def correlation_moments(c: CorrelationMatrix, p: int) -> float:
    """Tr[C^p] by repeated matrix multiplication."""
    if p < 1:
        raise ValueError("moment order must be a positive integer")
    a = c.matrix
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
    part = partition(c) if with_negativity or deflates(order) else None
    report = report_from_spectra(block_spectra(part if deflates(order) else c), order)
    if with_negativity:
        report.negativity, report.pairing_residual = _negativity_detail(part, 1)
    return report
