"""Closed-form asymptotics of the entanglement measures.

In the far regime (distances large compared to interval lengths, their
difference fixed) every measure decomposes into a volume term proportional to
the mirror overlap and a logarithmic term whose coefficients are momentum
integrals over the voltage window and fixed kernels of the transmission
probabilities at the two Fermi momenta.  The remaining constant is never
predicted here; experiment runners fit it.

Kernels.  For order n > 0 and a probability p, ``log_kernel(n, p)`` is

    -n/12 + int_0^1 dx/(2 pi^2 x) { ln[(1+p x)^n + ((1-p) x)^n]
                                    + ln[(x+p)^n + (1-p)^n]
                                    - ln[p^n + (1-p)^n] },

a subtracted representation free of interior singularities (the endpoint
x -> 0 behaviour is integrable and handled by graded panels).  An equivalent
representation,

    (n / 2 pi^2) int_p^1 dx  (x^(n-1) - (1-x)^(n-1)) / (x^n + (1-x)^n)
                             * ln[(1-x)/(x-p)],

is exposed as ``log_kernel_first_rep`` purely as a cross-check oracle.
``log_kernel_pair`` is the analogous two-step kernel of a transmission /
reflection pair, again with both representations.  The predictions read
every kernel divided by 1-n; ``log_kernel_entropy_vn`` and
``log_kernel_pair_vn`` are the n -> 1 limits of log_kernel(n, p)/(1-n) and
log_kernel_pair(n, t)/(1-n), so von Neumann is the n = 1 case of one formula
at every order, with (1+n)/(12n) (1/6 at n = 1) per sharp occupation step.

Useful exact values: log_kernel(1, p) = 0 for every p, log_kernel(n, 1) = 0,
and log_kernel(n, 0) = (1-n)(1+n)/(12 n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .correlation import SubsystemGeometry
from .entanglement import renyi_index
from .numerics import QuadratureSpec, integrate
from .scattering import BiasState, ScatteringModel, transmission

__all__ = [
    "GeometryError",
    "AsymptoticPrediction",
    "log_kernel",
    "log_kernel_first_rep",
    "log_kernel_pair",
    "log_kernel_pair_first_rep",
    "log_kernel_pair_vn",
    "log_kernel_entropy_vn",
    "volume_coefficient_mi",
    "volume_coefficient_entropy",
    "volume_coefficient_negativity",
    "mi_prediction",
    "contiguous_entropy_prediction",
    "ci_prediction",
    "negativity_prediction",
    "disjoint_symmetric_log_coefficient",
]

KERNEL_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=0.0, max_panels=40000, nodes_per_panel=16)
WINDOW_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=0.0, max_panels=20000, nodes_per_panel=16)
#: the unsubtracted oracle representations carry hard endpoint singularities;
#: 1e-10 is plenty for the 1e-8 cross-checks and keeps them cheap
ORACLE_SPEC = QuadratureSpec(abs_tol=1e-10, rel_tol=0.0, max_panels=40000, nodes_per_panel=16)


class GeometryError(ValueError):
    """Prediction requested outside its domain of validity."""


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x * ln x with the continuous limit 0 at x = 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mask = x > 0.0
    out[mask] = x[mask] * np.log(x[mask])
    return out


@lru_cache(maxsize=None)
def log_kernel(n: float, p: float) -> float:
    """Log-term kernel of a single occupation step of height p (0 <= p <= 1)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("step height must lie in [0, 1]")
    if not n > 0:
        raise ValueError("order must be positive")
    q = 1.0 - p
    norm = np.log(p**n + q**n)

    def integrand(x):
        return (
            np.log((1.0 + p * x) ** n + (q * x) ** n)
            + np.log((x + p) ** n + q**n)
            - norm
        ) / (2.0 * np.pi**2 * x)

    val = integrate(integrand, 0.0, 1.0, KERNEL_SPEC, singular_left=True)
    return float(val.real) - n / 12.0


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
    """Unsubtracted representation of log_kernel; test oracle only."""
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
def log_kernel_pair(n: float, t: float) -> float:
    """Log-term kernel of a transmission/reflection step pair (T, R = 1-T)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    r = 1.0 - t

    def integrand(x):
        a = np.log((1.0 + t * x) ** n + (r * x) ** n)
        b = np.log((1.0 + r * x) ** n + (t * x) ** n)
        mixed = np.log((t + r * x) ** n + (r + t * x) ** n)
        cc = np.log((x + t) ** n + r**n) - mixed
        d = np.log((x + r) ** n + t**n) - mixed
        return (a + b + cc + d) / (2.0 * np.pi**2 * x)

    val = integrate(integrand, 0.0, 1.0, KERNEL_SPEC, singular_left=True)
    return float(val.real) - n / 12.0


@lru_cache(maxsize=None)
def log_kernel_pair_first_rep(n: float, t: float) -> float:
    """Unsubtracted representation of log_kernel_pair; test oracle only."""
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


@lru_cache(maxsize=None)
def log_kernel_pair_vn(t: float) -> float:
    """n -> 1 limit kernel of the separated step pair (von Neumann MI)."""
    r = 1.0 - t
    const = _xlogx(t) + _xlogx(r)

    def integrand(x):
        num = (_xlogx(r + t * x) + _xlogx(t + r * x)) / (1.0 + x)
        return (num - const) / (np.pi**2 * x)

    val = integrate(integrand, 0.0, 1.0, KERNEL_SPEC, singular_left=True)
    step = log_kernel_entropy_vn(t) + log_kernel_entropy_vn(r) - 1.0 / 6.0
    return step + 1.0 / 12.0 + float(val.real)


@lru_cache(maxsize=None)
def log_kernel_entropy_vn(p: float) -> float:
    """n -> 1 limit of log_kernel(n, p)/(1-n) (von Neumann interval entropy)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("step height must lie in [0, 1]")
    q = 1.0 - p
    const = _xlogx(p) + _xlogx(q)

    def integrand(x):
        s1 = (_xlogx(1.0 + p * x) + _xlogx(q * x)) / (1.0 + x)
        s2 = (_xlogx(x + p) + _xlogx(q)) / (1.0 + x)
        return (s1 + s2 - const) / (2.0 * np.pi**2 * x)

    val = integrate(integrand, 0.0, 1.0, KERNEL_SPEC, singular_left=True)
    return 1.0 / 12.0 - float(val.real)


def _window_integral(model: ScatteringModel, bias: BiasState, per_mode) -> float:
    """Integral of per_mode(T(k)) over the voltage window (unnormalized)."""
    if bias.window_width == 0.0:
        return 0.0

    def integrand(k):
        return per_mode(np.abs(model.amplitudes(k)[2]) ** 2)

    val = integrate(integrand, bias.k_minus, bias.k_plus, WINDOW_SPEC)
    return float(val.real)


def _renyi_density(order):
    n = renyi_index(order)
    if n == 1.0:
        return lambda t: -(_xlogx(t) + _xlogx(1.0 - t))
    return lambda t: np.log(t**n + (1.0 - t) ** n) / (1.0 - n)


def _step_kernel(n: float, p: float) -> float:
    """log_kernel(n, p)/(1-n) at Renyi index n, its limit at n = 1."""
    return log_kernel_entropy_vn(p) if n == 1.0 else log_kernel(n, p) / (1.0 - n)


def _pair_kernel(n: float, t: float) -> float:
    """log_kernel_pair(n, t)/(1-n) at Renyi index n, its limit at n = 1."""
    return log_kernel_pair_vn(t) if n == 1.0 else log_kernel_pair(n, t) / (1.0 - n)


def _sharp_step(n: float) -> float:
    """ln(ell) coefficient (1+n)/(12n) of one sharp occupation step, 1/6 at n = 1."""
    return (1.0 + n) / (12.0 * n)


def volume_coefficient_mi(model: ScatteringModel, bias: BiasState, order="vn") -> float:
    """Mutual-information volume coefficient per mirrored site (dk/pi weight)."""
    return _window_integral(model, bias, _renyi_density(order)) / np.pi


def volume_coefficient_entropy(model: ScatteringModel, bias: BiasState, order="vn") -> float:
    """Entropy volume coefficient (dk/2pi weight).

    The same density applies to A_L and A_R per site and to the union per
    unmirrored site.
    """
    return _window_integral(model, bias, _renyi_density(order)) / (2.0 * np.pi)


def volume_coefficient_negativity(model: ScatteringModel, bias: BiasState) -> float:
    """Negativity volume coefficient per mirrored site (dk/pi weight)."""
    return _window_integral(model, bias, lambda t: np.log(np.sqrt(t) + np.sqrt(1.0 - t))) / np.pi


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Linear plus logarithmic part of a measure, constant term excluded."""

    linear_term: float
    log_term: float
    kernel_values: dict = field(default_factory=dict)

    @property
    def total_minus_constant(self) -> float:
        return self.linear_term + self.log_term


def _log_ratio(numerators: list[int], denominators: list[int]) -> float:
    """ln |prod numerators / prod denominators| with exact zeros dropped.

    A vanishing difference signals a coinciding pair of occupation steps
    whose interaction is absent from the determinant asymptotics, so the
    factor is removed rather than sent to -infinity.  The rule applies to
    exact integer coincidences only.
    """
    total = 0.0
    for v in numerators:
        if v != 0:
            total += np.log(abs(v))
    for v in denominators:
        if v != 0:
            total -= np.log(abs(v))
    return total


def _geometry_ratios(geom: SubsystemGeometry) -> tuple[float, float]:
    m1, m2, m3, m4 = geom.sorted_lengths
    num = [m3 - m1, m4 - m2]
    pair_ratio = _log_ratio(num, [geom.ell_r + geom.d_r - geom.d_l, geom.ell_l + geom.d_l - geom.d_r])
    step_ratio = _log_ratio(num, [geom.ell_l + geom.d_l - geom.ell_r - geom.d_r, geom.d_l - geom.d_r])
    return pair_ratio, step_ratio


def mi_prediction(model: ScatteringModel, bias: BiasState, geom: SubsystemGeometry, order="vn") -> AsymptoticPrediction:
    """Mutual-information asymptotics up to the fitted constant.

    Valid in the far regime.  The logarithmic coefficients are averaged over
    the transmissions at the two Fermi momenta.
    """
    n = renyi_index(order)
    linear = geom.ell_mirror * volume_coefficient_mi(model, bias, order)
    pair_ratio, step_ratio = _geometry_ratios(geom)
    kernels: dict = {}
    log_term = 0.0
    for tag, kf in (("k_fl", bias.k_fl), ("k_fr", bias.k_fr)):
        t = transmission(model, kf)
        pair_k = _pair_kernel(n, t)
        step_k = _step_kernel(n, t) + _step_kernel(n, 1.0 - t) - _sharp_step(n)
        kernels[f"pair[{tag}]"] = pair_k
        kernels[f"step[{tag}]"] = step_k
        log_term += 0.5 * (pair_k * pair_ratio + step_k * step_ratio)
    return AsymptoticPrediction(linear, log_term, kernels)


def contiguous_entropy_prediction(
    model: ScatteringModel, bias: BiasState, ell: int, side: str, order="vn"
) -> AsymptoticPrediction:
    """Entropy asymptotics of a single interval far from the scatterer.

    The two occupation steps seen by the interval sit at its own-side Fermi
    momentum (transmission step) and at the opposite one (reflection step).
    """
    if ell < 1:
        raise GeometryError("interval length must be at least 1")
    if side not in ("L", "R"):
        raise ValueError("side must be 'L' or 'R'")
    own = bias.k_fl if side == "L" else bias.k_fr
    other = bias.k_fr if side == "L" else bias.k_fl
    t_own = transmission(model, own)
    r_other = 1.0 - transmission(model, other)
    n = renyi_index(order)
    linear = ell * volume_coefficient_entropy(model, bias, order)
    k_own = _step_kernel(n, t_own)
    k_other = _step_kernel(n, r_other)
    coeff = _sharp_step(n) + k_own + k_other
    kernels = {"step[own]": k_own, "step[other]": k_other}
    return AsymptoticPrediction(linear, coeff * np.log(ell), kernels)


def ci_prediction(model: ScatteringModel, bias: BiasState, geom: SubsystemGeometry) -> AsymptoticPrediction:
    """Coherent-information (von Neumann) asymptotics, direction A_L > A_R."""
    density = volume_coefficient_entropy(model, bias, "vn")
    linear = (geom.ell_mirror - geom.delta_ell_l) * density
    mi = mi_prediction(model, bias, geom, "vn")
    s_al = contiguous_entropy_prediction(model, bias, geom.ell_l, "L", "vn")
    kernels = dict(mi.kernel_values)
    kernels.update({f"entropy_{k}": v for k, v in s_al.kernel_values.items()})
    return AsymptoticPrediction(linear, mi.log_term - s_al.log_term, kernels)


def negativity_prediction(model: ScatteringModel, bias: BiasState, geom: SubsystemGeometry) -> AsymptoticPrediction:
    """Fermionic-negativity asymptotics.

    The volume term is valid for any geometry; the logarithmic term is known
    only for the mirror-symmetric configuration and is zero otherwise.
    """
    linear = geom.ell_mirror * volume_coefficient_negativity(model, bias)
    if not geom.is_symmetric:
        return AsymptoticPrediction(linear, 0.0, {})
    kernels: dict = {}
    coeff = -0.25
    for tag, kf in (("k_fl", bias.k_fl), ("k_fr", bias.k_fr)):
        t = transmission(model, kf)
        k_t = log_kernel(0.5, t)
        k_r = log_kernel(0.5, 1.0 - t)
        kernels[f"half_step_t[{tag}]"] = k_t
        kernels[f"half_step_r[{tag}]"] = k_r
        coeff += k_t + k_r
    return AsymptoticPrediction(linear, coeff * np.log(geom.ell_l), kernels)


def disjoint_symmetric_log_coefficient(order="vn") -> float:
    """ln(ell) coefficient of the union entropy in the symmetric far regime:
    four sharp occupation steps."""
    return 4.0 * _sharp_step(renyi_index(order))
