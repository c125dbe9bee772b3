import numpy as np
import pytest

from nessent import asymptotics as asy
from nessent.correlation import SubsystemGeometry
from nessent.scattering import BiasState, ConstantTransmission, SingleImpurity, TrivialScatterer

BIAS = BiasState(2 * np.pi / 3, np.pi / 2)
IMPURITY = SingleImpurity(1.0)
HALF = ConstantTransmission(0.5)
DK6 = BiasState(np.pi / 2 + np.pi / 6, np.pi / 2)


def vn_step(t):
    """Combined n = 1 step kernel of a transmission/reflection pair, as the
    von Neumann MI prediction reads it: two single steps minus one sharp one."""
    return asy.step_kernel(1.0, t) + asy.step_kernel(1.0, 1 - t) - 1.0 / 6.0


def mp_split_entropy(mp, n, a, b):
    """Binary Renyi entropy of the split (a, b)/(a + b) in mpmath."""
    if n == 1:
        xlogx = lambda v: v * mp.log(v) if v > 0 else mp.mpf(0)
        return mp.log(a + b) - (xlogx(a) + xlogx(b)) / (a + b)
    return mp.log((a**n + b**n) / (a + b) ** n) / (1 - n)


def mp_kernels(mp, n, p):
    """(step, pair) kernels of the module docstring by tanh-sinh quadrature,
    split near the x -> 0 end where the order-1/2 integrand has sqrt cusps."""
    q = 1 - p
    h = lambda a, b: mp_split_entropy(mp, n, a, b)
    step = lambda x: (h(1 + p * x, q * x) + h(x + p, q) - h(p, q)) / (2 * mp.pi**2 * x)
    pair = lambda x: (
        h(1 + p * x, q * x) + h(1 + q * x, p * x) + h(x + p, q) + h(x + q, p) - 2 * h(p + q * x, q + p * x)
    ) / (2 * mp.pi**2 * x)
    points = [0, mp.mpf("1e-8"), mp.mpf("1e-4"), 1]
    return mp.quad(step, points), mp.quad(pair, points)


# --- kernels ---------------------------------------------------------------


@pytest.mark.parametrize("n", [0.5, 1.5, 2.0, 3.0])
def test_kernel_dual_representations(n):
    for p in np.round(np.arange(0.0, 1.0001, 0.1), 10):
        assert abs(asy.log_kernel(n, p) - asy.log_kernel_first_rep(n, p)) < 1e-8
        assert abs(asy.log_kernel_pair(n, p) - asy.log_kernel_pair_first_rep(n, p)) < 1e-8


def test_kernel_identically_zero_at_order_one():
    for p in np.round(np.arange(0.0, 1.0001, 0.1), 10):
        assert abs(asy.log_kernel(1.0, p)) < 1e-10


@pytest.mark.parametrize("n", [0.5, 1.5, 2.0, 3.0])
def test_kernel_vanishes_at_full_step(n):
    assert abs(asy.log_kernel(n, 1.0)) < 1e-9


def test_kernel_exact_value_at_zero_step():
    # log_kernel(n, 0) = (1-n)(1+n)/(12 n), from the dilogarithm integral, so
    # step_kernel(n, 0) = (1+n)/(12 n), the kernel of one sharp step
    for n in (0.5, 2.0, 3.0):
        assert asy.log_kernel(n, 0.0) == pytest.approx((1 - n) * (1 + n) / (12 * n), abs=1e-11)
    for n in (0.5, 1.0, 2.0, 3.0):
        assert asy.step_kernel(n, 0.0) == pytest.approx((1 + n) / (12 * n), abs=1e-11)


@pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
def test_kernels_match_mpmath_reference(n):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(25):
        for p in ("0", "0.3", "0.5", "0.8", "1"):
            step, pair = mp_kernels(mpmath, mpmath.mpf(n), mpmath.mpf(p))
            assert abs(asy.step_kernel(n, float(p)) - float(step)) < 1e-15, p
            assert abs(asy.pair_kernel(n, float(p)) - float(pair)) < 1e-15, p


def test_pair_kernel_symmetric_in_t_and_r():
    for n in (0.5, 2.0):
        for t in (0.1, 0.3, 0.45, 0.9):
            assert abs(asy.log_kernel_pair(n, t) - asy.log_kernel_pair(n, 1 - t)) < 1e-10


def test_vn_kernels_symmetric():
    for t in (0.1, 0.25, 0.4, 0.8):
        assert abs(vn_step(t) - vn_step(1 - t)) < 1e-10
        assert abs(asy.pair_kernel(1.0, t) - asy.pair_kernel(1.0, 1 - t)) < 1e-10


def test_vn_kernel_finite_difference_oracle():
    h = 1e-4
    for t in (0.2, 0.5, 0.7):
        r = 1 - t

        def combo(n):
            return asy.step_kernel(n, t) + asy.step_kernel(n, r) - (1 + n) / (12 * n)

        central = 0.5 * (combo(1 - h) + combo(1 + h))
        assert abs(vn_step(t) - central) < 1e-3 * max(abs(central), 1e-3)


def test_vn_pair_kernel_finite_difference_oracle():
    h = 1e-4
    for t in (0.2, 0.5, 0.7):

        central = 0.5 * (asy.pair_kernel(1 - h, t) + asy.pair_kernel(1 + h, t))
        assert abs(asy.pair_kernel(1.0, t) - central) < 1e-3 * max(abs(central), 1e-3)


def test_vn_entropy_kernel_values_and_identity():
    assert asy.step_kernel(1.0, 1.0) == pytest.approx(0.0, abs=1e-11)
    assert asy.step_kernel(1.0, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-11)


# --- volume coefficients ----------------------------------------------------


def test_volume_coefficients_trivial_model():
    for order in ("vn", 0.5, 2.0):
        assert asy.volume_coefficient_mi(TrivialScatterer(), BIAS, order) == pytest.approx(0.0, abs=1e-14)
        assert asy.volume_coefficient_entropy(TrivialScatterer(), BIAS, order) == pytest.approx(0.0, abs=1e-14)
    geom = SubsystemGeometry(0, 30, 0, 30)
    assert asy.negativity_prediction(TrivialScatterer(), BIAS, geom).linear_term == pytest.approx(0.0, abs=30e-14)


def test_volume_coefficient_mi_constant_half_vn():
    # window pi/6, constant integrand ln 2: coefficient = ln2 / 6
    assert asy.volume_coefficient_mi(HALF, DK6, "vn") == pytest.approx(np.log(2) / 6, abs=1e-12)


def test_volume_coefficient_mi_constant_half_order_half():
    # (1/(1-1/2)) * (dk/pi) * ln(2 sqrt(1/2)) = ln2 / 6
    assert asy.volume_coefficient_mi(HALF, DK6, 0.5) == pytest.approx(np.log(2) / 6, abs=1e-12)


def test_volume_coefficient_entropy_constant_half_order_two():
    # (1/(1-2)) * (dk/2pi) * ln(2 * (1/2)^2) = (dk/2pi) ln 2
    expected = (np.pi / 6) / (2 * np.pi) * np.log(2)
    assert asy.volume_coefficient_entropy(HALF, DK6, 2.0) == pytest.approx(expected, abs=1e-12)


def test_volume_coefficient_negativity_constant_half():
    # ln(sqrt(1/2) + sqrt(1/2)) = ln sqrt 2 -> coefficient ln2 / 12 per mirrored site
    geom = SubsystemGeometry(0, 36, 0, 36)
    assert asy.negativity_prediction(HALF, DK6, geom).linear_term == pytest.approx(36 * np.log(2) / 12, abs=36e-12)


def test_negativity_coefficient_is_half_of_order_half_mi():
    # the negativity's own density ln(sqrt T + sqrt(1 - T)), integrated apart
    # from the order-1/2 binary entropy the prediction reads
    from nessent.numerics import integrate

    geom = SubsystemGeometry(0, 30, 5, 40)
    for model in (IMPURITY, HALF):
        t = lambda k: np.abs(model.amplitudes(k)[2]) ** 2
        density = integrate(lambda k: np.log(np.sqrt(t(k)) + np.sqrt(1 - t(k))), BIAS.k_minus, BIAS.k_plus)
        lhs = asy.negativity_prediction(model, BIAS, geom).linear_term
        assert abs(lhs - geom.ell_mirror * density.real / np.pi) < geom.ell_mirror * 1e-12


def test_zero_window_kills_volume_terms():
    flat = BiasState(np.pi / 2, np.pi / 2)
    assert asy.volume_coefficient_mi(IMPURITY, flat, "vn") == 0.0
    assert asy.mi_prediction(IMPURITY, flat, SubsystemGeometry(0, 30, 0, 30), "vn").linear_term == 0.0


# --- predictions -------------------------------------------------------------


def test_mi_prediction_symmetric_two_path_oracle():
    # general sorted-length path vs the symbolic symmetric-case reduction
    ell = 64
    geom = SubsystemGeometry(9, ell, 9, ell)
    for n in (0.5, 2.0, 3.0):
        pred = asy.mi_prediction(IMPURITY, BIAS, geom, n)
        total = 0.0
        for kf in (BIAS.k_fl, BIAS.k_fr):
            from nessent.scattering import transmission

            t = transmission(IMPURITY, kf)
            total += asy.log_kernel(n, t) + asy.log_kernel(n, 1 - t)
        coeff = total / (1 - n) - (1 + n) / (6 * n)
        assert abs(pred.log_term - coeff * np.log(ell)) < 1e-10
        assert pred.total_minus_constant == pred.linear_term + pred.log_term


def test_mi_prediction_touching_case():
    # mirror image of A_L exactly touches A_R: no linear term, pair kernel
    # multiplies ln(ell_l * ell_r / (ell_l + ell_r))
    ell_l, ell_r = 40, 60
    geom = SubsystemGeometry(ell_r + 5, ell_l, 5, ell_r)
    assert geom.ell_mirror == 0
    for n in (0.5, 2.0):
        pred = asy.mi_prediction(IMPURITY, BIAS, geom, n)
        assert pred.linear_term == 0.0
        from nessent.scattering import transmission

        expected = 0.0
        for kf in (BIAS.k_fl, BIAS.k_fr):
            t = transmission(IMPURITY, kf)
            expected += 0.5 * (asy.log_kernel_pair(n, t) / (1 - n)) * np.log(ell_l * ell_r / (ell_l + ell_r))
        assert abs(pred.log_term - expected) < 1e-10


def test_mi_prediction_shift_invariance():
    a = asy.mi_prediction(IMPURITY, BIAS, SubsystemGeometry(11, 30, 4, 50), 2.0)
    b = asy.mi_prediction(IMPURITY, BIAS, SubsystemGeometry(111, 30, 104, 50), 2.0)
    assert abs(a.log_term - b.log_term) < 1e-12
    assert abs(a.linear_term - b.linear_term) < 1e-12


def test_mi_prediction_continuity_across_regimes():
    # away from exact degeneracies the log term varies smoothly with the
    # offset; scan across both containment boundaries
    vals = []
    for delta in range(-8, 68, 1):
        geom = SubsystemGeometry(20 + delta, 30, 20, 50)
        vals.append(asy.mi_prediction(IMPURITY, BIAS, geom, 2.0).total_minus_constant)
    steps = np.abs(np.diff(vals))
    interior = [s for i, s in enumerate(steps) if abs(i - 8) > 1 and abs(i - 28) > 1]
    assert max(interior) < 0.2


def test_contiguous_entropy_trivial_model():
    # clean chain: two full occupation steps, log coefficient (1+n)/(6n)
    for n, ell in ((2.0, 50), (3.0, 120)):
        pred = asy.contiguous_entropy_prediction(TrivialScatterer(), BIAS, ell, "L", n)
        assert pred.linear_term == pytest.approx(0.0, abs=1e-13)
        assert pred.log_term == pytest.approx((1 + n) / (6 * n) * np.log(ell), abs=1e-9)
    vn = asy.contiguous_entropy_prediction(TrivialScatterer(), BIAS, 80, "L", "vn")
    assert vn.log_term == pytest.approx(np.log(80) / 3, abs=1e-9)


def test_entropy_assembly_reproduces_mi_symmetric():
    ell = 90
    geom = SubsystemGeometry(4, ell, 4, ell)
    for order in ("vn", 2.0):
        mi = asy.mi_prediction(IMPURITY, BIAS, geom, order)
        s_l = asy.contiguous_entropy_prediction(IMPURITY, BIAS, ell, "L", order)
        s_r = asy.contiguous_entropy_prediction(IMPURITY, BIAS, ell, "R", order)
        s_a_log = asy.disjoint_symmetric_log_coefficient(order) * np.log(ell)
        assert abs((s_l.log_term + s_r.log_term - s_a_log) - mi.log_term) < 1e-9
        assert abs((s_l.linear_term + s_r.linear_term) - mi.linear_term) < 1e-10


def test_contiguous_entropy_constant_residual():
    # numeric far-limit order-2 entropy of one interval minus its prediction
    # is length-independent (the fitted constant) across a 4x length span
    from nessent.correlation import CorrelationBuilder, SubsystemGeometry, correlation_matrix_far
    from nessent.entanglement import entropy, occupation_spectrum

    builder = CorrelationBuilder(IMPURITY, BIAS)
    residuals = []
    for ell in (50, 100, 200):
        geom = SubsystemGeometry(0, ell, 0, ell)
        cm = correlation_matrix_far(builder, geom).block_left()
        pred = asy.contiguous_entropy_prediction(IMPURITY, BIAS, ell, "L", 2.0)
        residuals.append(entropy(occupation_spectrum(cm)[0], 2.0) - pred.total_minus_constant)
    assert max(residuals) - min(residuals) < 0.05


def test_ci_prediction_trivial_and_assembly():
    geom = SubsystemGeometry(6, 70, 6, 70)
    trivial = asy.ci_prediction(TrivialScatterer(), BIAS, geom)
    assert trivial.linear_term == pytest.approx(0.0, abs=1e-13)
    ci = asy.ci_prediction(IMPURITY, BIAS, geom)
    mi = asy.mi_prediction(IMPURITY, BIAS, geom, "vn")
    s_l = asy.contiguous_entropy_prediction(IMPURITY, BIAS, 70, "L", "vn")
    assert abs(ci.log_term - (mi.log_term - s_l.log_term)) < 1e-10
    assert abs(ci.linear_term - (mi.linear_term - s_l.linear_term)) < 1e-10


def test_ci_linear_constant_half():
    geom = SubsystemGeometry(0, 36, 0, 36)
    pred = asy.ci_prediction(HALF, DK6, geom)
    assert pred.linear_term == pytest.approx(36 * np.log(2) / 12, abs=1e-10)


def test_negativity_prediction_symmetric_log_term():
    ell = 48
    geom = SubsystemGeometry(3, ell, 3, ell)
    pred = asy.negativity_prediction(IMPURITY, BIAS, geom)
    from nessent.scattering import transmission

    coeff = -0.25
    for kf in (BIAS.k_fl, BIAS.k_fr):
        t = transmission(IMPURITY, kf)
        coeff += asy.log_kernel(0.5, t) + asy.log_kernel(0.5, 1 - t)
    assert abs(pred.log_term - coeff * np.log(ell)) < 1e-10
    assert abs(pred.linear_term - 0.5 * asy.mi_prediction(IMPURITY, BIAS, geom, 0.5).linear_term) < 1e-12


def test_negativity_prediction_asymmetric_refuses_log():
    geom = SubsystemGeometry(0, 30, 5, 40)
    pred = asy.negativity_prediction(IMPURITY, BIAS, geom)
    assert pred.log_term == 0.0 and pred.kernel_values == {}


def test_disjoint_symmetric_log_coefficient_values():
    assert asy.disjoint_symmetric_log_coefficient("vn") == pytest.approx(2 / 3)
    assert asy.disjoint_symmetric_log_coefficient(2.0) == pytest.approx(0.5)
    assert asy.disjoint_symmetric_log_coefficient(3.0) == pytest.approx(4 / 9)


def test_predictions_bracket_vn_near_order_one():
    geom = SubsystemGeometry(5, 45, 5, 45)
    h = 1e-4
    vn = asy.mi_prediction(IMPURITY, BIAS, geom, "vn").total_minus_constant
    lo = asy.mi_prediction(IMPURITY, BIAS, geom, 1 - h).total_minus_constant
    hi = asy.mi_prediction(IMPURITY, BIAS, geom, 1 + h).total_minus_constant
    assert abs(0.5 * (lo + hi) - vn) < 1e-3 * (1 + abs(vn))
    assert min(lo, hi) - 1e-3 * (1 + abs(vn)) <= vn <= max(lo, hi) + 1e-3 * (1 + abs(vn))
