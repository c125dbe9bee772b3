"""Fast invariant suite behind the ``selftest`` CLI scenario.

Each check is a small, self-contained property with a hard threshold; the
runner prints one PASS/FAIL line per property.  pytest runs each check in
``CHECKS`` as its own case, so a property lives here or in pytest, not both;
the heavyweight acceptance checks live in pytest.  Keep the list under 1 s.
"""

from __future__ import annotations

import numpy as np

from . import asymptotics as asy
from .correlation import CorrelationBuilder, CorrelationMatrix, SubsystemGeometry, correlation_matrix_far, window_fourier
from .entanglement import entropy, fermionic_negativity, measures, occupation_spectrum
from .numerics import QuadratureSpec, integrate, integrate_oscillatory
from .scattering import BiasState, ConstantTransmission, SingleImpurity, TrivialScatterer, transmission

CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


def _random_correlation(rng, nl, nr):
    dim = nl + nr
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (h + h.conj().T)
    nu = rng.uniform(0.02, 0.98, size=dim)
    _, u = np.linalg.eigh(h)
    c = (u * nu) @ u.conj().T
    return CorrelationMatrix(c, nl)


@check
def smatrix_unitarity_grid():
    ks = np.linspace(1e-4, np.pi - 1e-4, 1000)
    worst = 0.0
    models = (
        SingleImpurity(0.5), SingleImpurity(0.7), SingleImpurity(1.0), SingleImpurity(2.0, 0.7),
        SingleImpurity(2.5, 0.8), ConstantTransmission(0.3), ConstantTransmission(1.0), TrivialScatterer(),
    )
    for model in models:
        # S(k) = [[r_l, t_r], [t_l, r_r]] at every momentum, shape (1000, 2, 2)
        s = np.array(model.amplitudes(ks)).reshape(2, 2, -1).transpose(2, 0, 1)
        worst = max(worst, np.abs(s.conj().transpose(0, 2, 1) @ s - np.eye(2)).max())
    assert worst < 1e-12, f"unitarity defect {worst}"


@check
def single_impurity_transmission_value():
    # epsilon0 = 2 eta at band center: T = sin^2 k / (sin^2 k + 1) = 1/2
    model = SingleImpurity(2.0, 1.0)
    assert abs(transmission(model, np.pi / 2) - 0.5) < 1e-14


@check
def kernel_exact_zeros():
    # a full step carries no log term, nor does a pair at T = 0 or 1
    for n in (0.5, 1.0, 2.0, 3.0):
        assert asy.step_kernel(n, 1.0) == asy.pair_kernel(n, 0.0) == asy.pair_kernel(n, 1.0) == 0.0


@check
def integrate_linearity():
    spec = QuadratureSpec(abs_tol=1e-12)
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    g = lambda x: 1.0 / (1.0 + x**2)
    int_f, int_g = integrate(f, 0.0, 2.0, spec), integrate(g, 0.0, 2.0, spec)
    corners = [(0.0, 0.0), (2.0, -2.0), (-2.0, 2.0), (-2.0, -2.0)]
    for alpha, beta in corners + list(np.random.default_rng(7).uniform(-2.0, 2.0, size=(16, 2))):
        lhs = integrate(lambda x: alpha * f(x) + beta * g(x), 0.0, 2.0, spec)
        assert abs(lhs - alpha * int_f - beta * int_g) < 2e-12 * (1 + abs(alpha) + abs(beta))


@check
def fourier_table_matches_quadrature():
    # the closed-form table of t(k) = 1/(1 + i/(2 sin k)) on (0, 2 pi/3),
    # from its pole data, against the quadrature of t(k) exp(i x k)
    model = SingleImpurity(1.0)
    kf = 2 * np.pi / 3
    for x0 in (0, 1024):
        table = window_fourier(model.pole_data()[2], 0.0, kf, x0)
        for j in (1, 63):
            ref = integrate_oscillatory(lambda k: model.amplitudes(k)[2], x0 + j, 0.0, kf, QuadratureSpec(abs_tol=1e-13))
            assert abs(table[j] - ref) < 1e-12, f"rate {x0 + j}: error {abs(table[j] - ref):.3e}"


@check
def far_cross_block_zero_without_window():
    model = SingleImpurity(1.0)
    bias = BiasState(np.pi / 2, np.pi / 2)
    geom = SubsystemGeometry(3, 5, 3, 5)
    cmat = correlation_matrix_far(CorrelationBuilder(model, bias), geom)
    assert np.abs(cmat.cross_block()).max() == 0.0


@check
def far_matrix_spectrum_in_unit_interval():
    model = SingleImpurity(1.0)
    bias = BiasState(2 * np.pi / 3, np.pi / 2)
    geom = SubsystemGeometry(0, 24, 0, 24)
    cmat = correlation_matrix_far(CorrelationBuilder(model, bias), geom)
    nu = np.linalg.eigvalsh(cmat.matrix)  # unclamped: occupation_spectrum clips to [0, 1]
    assert nu.min() > -1e-8 and nu.max() < 1 + 1e-8, f"spectrum [{nu.min()}, {nu.max()}]"


@check
def entropy_spectral_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cm = _random_correlation(rng, 3, 3)
        nu = np.linalg.eigvalsh(cm.matrix)
        direct = float(np.log(nu**2 + (1 - nu) ** 2).sum() / (1 - 2))
        assert abs(entropy(occupation_spectrum(cm)[0], 2.0) - direct) < 1e-10


@check
def negativity_product_state_zero():
    rng = np.random.default_rng(19)
    cm = _random_correlation(rng, 2, 2)
    c = cm.matrix.copy()
    c[:2, 2:] = 0.0
    c[2:, :2] = 0.0
    cm0 = CorrelationMatrix(c, cm.n_left)
    assert abs(fermionic_negativity(cm0)[0]) < 1e-8


@check
def mutual_information_nonnegative():
    rng = np.random.default_rng(23)
    for _ in range(10):
        cm = _random_correlation(rng, 3, 2)
        assert measures(cm, "vn").mutual_info >= -1e-8


@check
def renyi_continuity_near_one():
    rng = np.random.default_rng(29)
    cm = _random_correlation(rng, 3, 3)
    nu, _ = occupation_spectrum(cm)
    vn = entropy(nu, "vn")
    lo = entropy(nu, 1.0 - 1e-4)
    hi = entropy(nu, 1.0 + 1e-4)
    assert abs(0.5 * (lo + hi) - vn) < 1e-3 * (1.0 + abs(vn))


@check
def prediction_relabeling_invariance():
    model = SingleImpurity(1.0)
    bias = BiasState(2 * np.pi / 3, np.pi / 2)
    geom = SubsystemGeometry(7, 40, 3, 60)
    mirrored = SubsystemGeometry(3, 60, 7, 40)
    for order in ("vn", 2.0):
        a = asy.mi_prediction(model, bias, geom, order)
        b = asy.mi_prediction(model, bias, mirrored, order)
        assert abs(a.log_term - b.log_term) < 1e-10
        assert abs(a.linear_term - b.linear_term) < 1e-12


@check
def entropy_assembly_matches_mi():
    model = SingleImpurity(1.0)
    bias = BiasState(2 * np.pi / 3, np.pi / 2)
    ell = 80
    geom = SubsystemGeometry(5, ell, 5, ell)
    mi = asy.mi_prediction(model, bias, geom, 2.0)
    s_l = asy.contiguous_entropy_prediction(model, bias, ell, "L", 2.0)
    s_r = asy.contiguous_entropy_prediction(model, bias, ell, "R", 2.0)
    s_a_log = asy.disjoint_symmetric_log_coefficient(2.0) * np.log(ell)
    assert abs((s_l.log_term + s_r.log_term - s_a_log) - mi.log_term) < 1e-9
    assert abs((s_l.linear_term + s_r.linear_term) - mi.linear_term) < 1e-10


def run_selftest() -> bool:
    """Run every registered property; returns True when all pass."""
    ok = True
    for fn in CHECKS:
        name = fn.__name__
        try:
            fn()
        except AssertionError as exc:
            ok = False
            print(f"FAIL {name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - report, keep going
            ok = False
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name}")
    return ok
