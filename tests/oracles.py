"""Independent oracles for the spectra, the states and the log kernels, read
only by tests.

``correlation_moments`` is Tr C^p by repeated matrix products, against
which the occupation spectrum's power sums are checked, and ``block_left``
and ``block_right`` are the diagonal blocks of a correlation matrix as
matrices of their own.

``wavefunction`` is the scattering state of a model at a site, the input of
the factored-projector and mpmath references, and ``sites`` lists the sites
of a geometry's two intervals in the row order of its correlation matrix.

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
from nessent.correlation import CorrelationMatrix, SubsystemGeometry
from nessent.numerics import QuadratureSpec, integrate
from nessent.scattering import DomainError, ScatteringModel

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


def block_left(c: CorrelationMatrix) -> CorrelationMatrix:
    """The A_L block of a correlation matrix, all of it A_L."""
    n = c.n_left
    return CorrelationMatrix(c.matrix[:n, :n], n, built_hermitian=True)


def block_right(c: CorrelationMatrix) -> CorrelationMatrix:
    """The A_R block of a correlation matrix, all of it A_R."""
    n = c.n_left
    return CorrelationMatrix(c.matrix[n:, n:], 0, built_hermitian=True)


def sites(geom: SubsystemGeometry) -> tuple[int, ...]:
    """The sites of A_L, then of A_R, each outward from the scatterer."""
    return tuple(-(geom.d_l + j) for j in range(1, geom.ell_l + 1)) + tuple(geom.d_r + j for j in range(1, geom.ell_r + 1))


def wavefunction(model: ScatteringModel, k, m: int):
    """Scattering-state amplitude at site m for signed momentum k.

    Positive k labels the state incoming from the left reservoir, negative k
    the state incoming from the right.  Valid off the scatterer's site only
    (m != 0).  k may be an array of momenta of one sign.
    """
    karr = np.asarray(k, dtype=float)
    if karr.size == 0:
        return np.zeros(0, dtype=complex)
    if np.any(np.abs(karr) <= 0.0) or np.any(np.abs(karr) >= np.pi):
        raise DomainError("momenta must lie in (-pi, 0) or (0, pi)")
    sign = np.sign(karr.flat[0])
    if np.any(np.sign(karr) != sign):
        raise DomainError("mixed-sign momentum arrays are not supported")
    if m == 0:
        raise DomainError("site 0 is the scatterer's site")
    r_l, t_r, t_l, r_r = model.amplitudes(np.abs(karr))
    phase = np.exp(1j * karr * m)
    if m > 0:
        out = t_l * phase if sign > 0 else phase + r_r * np.conj(phase)
    else:
        out = phase + r_l * np.conj(phase) if sign > 0 else t_r * phase
    if np.isscalar(k) or np.ndim(k) == 0:
        return complex(out)
    return out


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
