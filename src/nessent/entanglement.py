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
is noise around the branch point.  Since Gamma_+ = Q Gamma Q with
Q = diag(I, -iI) and Gamma = 2 C_A - I, det B = 2^N det[C_A^2 + (I - C_A)^2],
so the second term comes from the diagonal of L.  The negativity itself is
E_1 = sum ln[(sigma + sigma') / sqrt 2] + sum ln L_ii - (N/2) ln 2; even n
stays available for oracle tests.  The pairing residual
max |(sigma^2 + sigma'^2)/2 - 1| is asserted small and reported in the
diagnostics.  The C_X construction is from Shapourian, Shiozaki & Ryu,
PRB 95, 165101 (2017), and Eisler & Zimboras, NJP 17, 053048 (2015).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .correlation import CorrelationMatrix
from .numerics import NumericsError, eig_hermitian
from .numerics import eig_general, mat_inverse  # noqa: F401  read by perfbench/tracer.py

__all__ = [
    "SpectrumError",
    "SingularResolvent",
    "EntanglementReport",
    "occupation_spectrum",
    "renyi_index",
    "entropy",
    "BlockSpectra",
    "block_spectra",
    "report_from_spectra",
    "correlation_moments",
    "measures",
    "fermionic_negativity",
]

#: eigenvalues may stray outside [0, 1] by at most this much before erroring
CLAMP_SLACK = 1e-8

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


def _matrix_of(c) -> np.ndarray:
    if isinstance(c, CorrelationMatrix):
        return c.matrix
    return np.asarray(c, dtype=complex)


def occupation_spectrum(c, clamp_slack: float = CLAMP_SLACK) -> tuple[np.ndarray, int]:
    """Eigenvalues of a correlation matrix clamped to [0, 1].

    Values within clamp_slack of the interval are clamped; anything further
    out raises SpectrumError, since log(negative) must be impossible yet a
    genuine spectral violation has to surface.
    """
    nu = eig_hermitian(_matrix_of(c))
    low = nu < 0.0
    high = nu > 1.0
    if np.any(nu < -clamp_slack) or np.any(nu > 1.0 + clamp_slack):
        worst = nu.min() if -nu.min() > nu.max() - 1.0 else nu.max()
        raise SpectrumError(f"correlation eigenvalue {worst} outside [0, 1] beyond slack")
    clamped = int(low.sum() + high.sum())
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


class BlockSpectra(NamedTuple):
    """Clamped occupation spectra of A_L, A_R and A, and their clamp count."""

    left: np.ndarray
    right: np.ndarray
    union: np.ndarray
    clamp_count: int


def block_spectra(c: CorrelationMatrix) -> BlockSpectra:
    """The three spectra every entropy-based measure of a partition reads."""
    if c.n_left == 0 or c.n_right == 0:
        raise ValueError("measures needs both blocks in the partition")
    nu_a, clamp_a = occupation_spectrum(c)
    nu_l, clamp_l = occupation_spectrum(c.block_left())
    nu_r, clamp_r = occupation_spectrum(c.block_right())
    return BlockSpectra(nu_l, nu_r, nu_a, clamp_a + clamp_l + clamp_r)


def report_from_spectra(spectra: BlockSpectra, order: float | str = "vn") -> EntanglementReport:
    """Entropies of the two blocks and of the union, assembled into MI and CI.

    The coherent information direction is I(A_L > A_R) = S(A_R) - S(A).
    """
    s_al, s_ar, s_a = (entropy(nu, order) for nu in spectra[:3])
    return EntanglementReport(
        renyi_order=order,
        s_al=s_al,
        s_ar=s_ar,
        s_a=s_a,
        mutual_info=s_al + s_ar - s_a,
        coherent_info=s_ar - s_a,
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


def _negativity_detail(c: CorrelationMatrix, n: float) -> tuple[float, float]:
    """(E_n, pairing residual max |(sigma^2 + sigma'^2)/2 - 1|)."""
    if c.n_left == 0 or c.n_right == 0:
        raise ValueError("fermionic negativity needs both blocks non-empty")
    if n != 1 and (n < 2 or int(n) != n or int(n) % 2 != 0):
        raise ValueError("negativity order must be 1 or an even integer")
    a = c.matrix
    dim = a.shape[0]
    diag = np.diag_indices(dim)

    q = np.where(np.arange(dim) < c.n_left, 1.0, -1j)
    g_plus = (2.0 * a - np.eye(dim)) * np.outer(q, q)

    # one side at a time, so that at most one extra dim x dim temporary lives
    b = g_plus @ g_plus.conj().T
    b[diag] += 1.0
    try:
        chol = np.linalg.cholesky(b)
        del b
        side = -g_plus
        side[diag] += 1.0
        sigma = np.linalg.svd(np.linalg.solve(chol, side), compute_uv=False)[::-1]
        del side
        g_plus[diag] += 1.0
        sigma_p = np.linalg.svd(np.linalg.solve(chol, g_plus), compute_uv=False)
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


def fermionic_negativity(c: CorrelationMatrix, n: float = 1) -> float:
    """Logarithmic fermionic negativity (n = 1) or the even moment E_n."""
    value, _ = _negativity_detail(c, n)
    return value


def measures(
    c: CorrelationMatrix,
    order: float | str = "vn",
    with_negativity: bool = False,
) -> EntanglementReport:
    """MI, CI and the entropies of one partition, plus the negativity on request."""
    report = report_from_spectra(block_spectra(c), order)
    if with_negativity:
        report.negativity, report.pairing_residual = _negativity_detail(c, 1)
    return report
