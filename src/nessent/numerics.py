"""Quadrature primitives and the one correlation-matrix check used throughout the package.

The Fourier tables of the correlation matrices need no quadrature: their
factors are rational in z = e^{ik}, and ``correlation.window_fourier``
integrates them in closed form.  The quadrature here serves the asymptotic
kernels and volume terms, and the tests' oracles.  Every integral is
one-dimensional, over smooth integrands, possibly with integrable endpoint
singularities (logs, x**(n-1) with n >= 1/2), by composite Gauss-Legendre
rules over start panels: the single panel [a, b], or 45 panels graded
geometrically toward a singular left endpoint.  ``integrate_oscillatory``
multiplies f by exp(i*mu*k) and starts from one panel per period.

Both rules run one refinement loop (_panel_integral): size n against size
2n, the finer estimate accepted once the two agree to abs_tol, n doubling
while 2n times the start panels stays within max_panels, the first pair
included.  n counts the equal panels each start panel is split into
(_composite_rule).

Gauss-Legendre nodes are interior points, so integrable endpoint
singularities are never evaluated at the endpoint itself.  Every rule
raises NonConvergence at the first integrand value that is not finite,
and every entry point raises ValueError on a limit or rate that is not
finite, before f is evaluated.

``check_hermitian`` is the one matrix check: it runs once, when a
``correlation.CorrelationMatrix`` is made from outside the package, and
rejects non-finite entries as well as non-Hermitian ones.  ``entanglement``
then calls ``numpy.linalg`` directly, whose ``eigvalsh`` and ``eigh`` read
one triangle of a matrix that is already Hermitian.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "PANEL_NODES",
    "HERM_TOL",
    "NumericsError",
    "NonConvergence",
    "NotHermitian",
    "integrate",
    "integrate_oscillatory",
    "check_hermitian",
]


#: relative Hermiticity tolerance of check_hermitian
HERM_TOL = 1e-10


class NumericsError(Exception):
    """Base class for numerical failures in this module."""


class NonConvergence(NumericsError):
    """Raised when the panel budget is exhausted above the error target."""


class NotHermitian(NumericsError):
    """Raised when a matrix fails the Hermiticity check or has a non-finite
    entry."""


#: Gauss-Legendre nodes per panel
PANEL_NODES = 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Error target and budget for the quadrature.

    abs_tol is the absolute error target of every estimate.  It must be
    finite: an infinite abs_tol would accept the first estimate.  max_panels
    is the budget in panels of PANEL_NODES Gauss-Legendre nodes.
    """

    abs_tol: float = 1e-10
    max_panels: int = 20000

    def __post_init__(self) -> None:
        if not 0 < self.abs_tol < np.inf:
            raise ValueError("abs_tol must be positive and finite")
        if self.max_panels < 1:
            raise ValueError("max_panels must be at least 1")


DEFAULT_SPEC = QuadratureSpec()


@functools.cache
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _graded_edges(a: float, b: float) -> np.ndarray:
    """Panel edges geometrically refined toward a singular left endpoint.

    Each level halves the distance to a; 44 levels push the innermost
    panel to ~6e-14 of the range, deep enough for the tolerances in use
    while keeping nodes representable away from the endpoint.
    """
    frac = np.concatenate([[0.0], 2.0 ** np.arange(-44, 1, dtype=float)])
    return a + (b - a) * frac


def _composite_rule(edges: np.ndarray, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule that splits the
    panel between each pair of consecutive edges into parts equal panels."""
    x, w = _gauss_rule(PANEL_NODES)
    cuts = np.linspace(edges[:-1], edges[1:], parts + 1, axis=-1)
    half = 0.5 * (cuts[:, 1:] - cuts[:, :-1])
    mid = 0.5 * (cuts[:, 1:] + cuts[:, :-1])
    nodes = (mid[..., None] + half[..., None] * x).ravel()
    weights = (half[..., None] * w).ravel()
    return nodes, weights


def _panel_integral(f, edges: np.ndarray, spec: QuadratureSpec, parts: int = 1) -> complex:
    """Integral of f over edges[0]..edges[-1], each start panel split into n
    equal Gauss-Legendre panels, n = parts, 2 parts, ...: the estimate at n
    against the one at 2 n, the latter accepted once they agree to
    spec.abs_tol, while 2 n times the start panels is within max_panels."""
    starts = edges.size - 1
    limit = spec.max_panels // starts
    if 2 * parts > limit:
        raise NonConvergence(f"integral needs {2 * parts * starts} panels, budget is {spec.max_panels}")

    def estimate(n: int) -> complex:
        nodes, weights = _composite_rule(edges, n)
        vals = np.asarray(f(nodes), dtype=complex)
        if not np.all(np.isfinite(vals)):
            raise NonConvergence("integrand evaluated to a non-finite value")
        return vals @ weights

    n, coarse = parts, estimate(parts)
    while True:
        fine = estimate(2 * n)
        if abs(fine - coarse) <= spec.abs_tol:
            return complex(fine)
        n *= 2
        if 2 * n > limit:
            raise NonConvergence(f"batch error {abs(fine - coarse):.3e} above target with {n * starts} panels")
        coarse = fine


def _require_finite(caller: str, **args) -> None:
    """Raise ValueError naming the first of args with a non-finite value."""
    for name, value in args.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{caller} requires a finite {name}")


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    *,
    singular_left: bool = False,
) -> complex:
    """Integral of f over [a, b].

    f must accept a numpy array of abscissae and return values elementwise
    (real or complex).  The start panel is [a, b]; set singular_left when the
    integrand has an integrable singularity at a, and the 45 start panels of
    _graded_edges are graded geometrically toward it.
    """
    _require_finite("integrate", a=a, b=b)
    if a > b:
        raise ValueError("integrate requires a <= b")
    if a == b:
        return 0.0 + 0.0j
    return _panel_integral(f, _graded_edges(a, b) if singular_left else np.array([a, b]), spec)


def integrate_oscillatory(
    f_smooth: Callable[[np.ndarray], np.ndarray],
    phase_rate: float,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Integral of f_smooth(k) * exp(i * phase_rate * k) over [a, b].

    The first estimate has at least one panel (hence PANEL_NODES nodes) per
    oscillation period, and the panels then double as in ``integrate``,
    which this is at phase_rate 0.
    """
    _require_finite("integrate_oscillatory", phase_rate=phase_rate, a=a, b=b)
    if a > b:
        raise ValueError("integrate_oscillatory requires a <= b")
    if a == b:
        return 0.0 + 0.0j
    n0 = int(np.ceil(abs(phase_rate) * (b - a) / (2.0 * np.pi))) + 1
    return _panel_integral(
        lambda k: np.asarray(f_smooth(k), dtype=complex) * np.exp(1j * phase_rate * k), np.array([a, b]), spec, n0
    )


def check_hermitian(m: np.ndarray) -> None:
    """Raise NotHermitian on a non-finite entry, or unless
    ||M - M^dag||_max <= HERM_TOL * max(1, ||M||_max)."""
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0]
        raise NotHermitian(f"non-finite entry {m[i, j]} at ({i}, {j})")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    diff = m - m.conj().T
    dev = float(np.abs(diff, out=diff).real.max(initial=0.0))  # in place: one temporary
    if dev > HERM_TOL * scale:
        raise NotHermitian(f"Hermiticity deviation {dev:.3e} exceeds {HERM_TOL * scale:.3e}")
