"""Independent oracles for the spectra and the log kernels, read only by tests.

``correlation_moments`` is Tr C^p by repeated matrix products, against
which the occupation spectrum's power sums are checked.

``log_kernel(n, p) = (1 - n) step_kernel(n, p)`` and ``log_kernel_pair``
are the ``asymptotics`` kernels in the normalization of the unsubtracted
representation

    (n / 2 pi^2) int_p^1 dx  (x^(n-1) - (1-x)^(n-1)) / (x^n + (1-x)^n)
                             * ln[(1-x)/(x-p)],

which ``log_kernel_first_rep`` and ``log_kernel_pair_first_rep`` integrate
directly, as a cross-check of the subtracted integrands production uses.
"""

from functools import lru_cache

import numpy as np

from nessent.asymptotics import pair_kernel, step_kernel
from nessent.correlation import CorrelationMatrix
from nessent.numerics import QuadratureSpec, integrate

#: the unsubtracted representations carry hard endpoint singularities;
#: 1e-10 is plenty for the 1e-8 cross-checks and keeps them cheap
ORACLE_SPEC = QuadratureSpec(abs_tol=1e-10, max_panels=40000)


def correlation_moments(c: CorrelationMatrix, p: int) -> float:
    """Tr[C^p] by repeated matrix multiplication."""
    if p < 1:
        raise ValueError("moment order must be a positive integer")
    a = c.matrix
    power = a.copy()
    for _ in range(p - 1):
        power = power @ a
    return float(np.trace(power).real)


def log_kernel(n: float, p: float) -> float:
    """(1 - n) step_kernel(n, p), the normalization of log_kernel_first_rep."""
    return (1.0 - n) * step_kernel(n, p)


def log_kernel_pair(n: float, t: float) -> float:
    """(1 - n) pair_kernel(n, t), the normalization of log_kernel_pair_first_rep."""
    return (1.0 - n) * pair_kernel(n, t)


def _integral_sqrt_endpoints(fn_dist, lo: float, hi: float, spec: QuadratureSpec) -> float:
    """Integral over (lo, hi) of an integrand given in endpoint distances.

    ``fn_dist(dl, dr)`` evaluates the integrand at the point with distance dl
    from lo and dr from hi.  The substitutions x = lo + u^2 and x = hi - v^2
    remove endpoint power singularities like d**(n-1) for n >= 1/2 exactly
    and hand the quadrature exact distances, leaving only log singularities
    for the graded panels.
    """
    span = hi - lo
    half = np.sqrt(0.5 * span)

    def left(u):
        d = u * u
        return fn_dist(d, span - d) * 2.0 * u

    def right(v):
        d = v * v
        return fn_dist(span - d, d) * 2.0 * v

    a = integrate(left, 0.0, half, spec, singular_left=True)
    b = integrate(right, 0.0, half, spec, singular_left=True)
    return float((a + b).real)


@lru_cache(maxsize=None)
def log_kernel_first_rep(n: float, p: float) -> float:
    """Unsubtracted representation of log_kernel."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("step height must lie in [0, 1]")
    if p == 1.0:
        return 0.0

    def fn(dl, dr):
        x = p + dl
        ratio = (x ** (n - 1.0) - dr ** (n - 1.0)) / (x**n + dr**n)
        return ratio * (np.log(dr) - np.log(dl))

    val = _integral_sqrt_endpoints(fn, p, 1.0, ORACLE_SPEC)
    return val * n / (2.0 * np.pi**2)


@lru_cache(maxsize=None)
def log_kernel_pair_first_rep(n: float, t: float) -> float:
    """Unsubtracted representation of log_kernel_pair."""
    r = 1.0 - t
    base = log_kernel_first_rep(n, t) + log_kernel_first_rep(n, r)
    if t == r:
        return base
    lo, hi = min(r, t), max(r, t)

    # the sign of the signed integral from R to T and the ordering of the
    # log distances flip together, so the lo-to-hi expression is universal
    def fn(dl, dr):
        x = lo + dl
        y = (1.0 - hi) + dr  # distance to 1, stable when hi = 1
        ratio = (x ** (n - 1.0) - y ** (n - 1.0)) / (x**n + y**n)
        return ratio * (np.log(dl) - np.log(dr))

    val = _integral_sqrt_endpoints(fn, lo, hi, ORACLE_SPEC)
    return base + val * n / (2.0 * np.pi**2)
