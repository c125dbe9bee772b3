"""An independent check of the builders and of order-1/2 spectra.

In the far limit the state on A_L u A_R is a restricted projector, so
C = V V^dag and I - C = W W^dag with explicit factors whose columns are
sqrt(w / 2pi)-weighted plane waves on Gauss-Legendre nodes (D = d_l - d_r,
sites j counted outward, k_fl > k_fr):

* V: e^{-ikj} on A_L for k in (-k_fl, k_fr); e^{-ikj} on A_R for k in
  (-k_fr, k_fr); and on the voltage window (k_fr, k_fl) the mode
  (conj r_l e^{-ikj} on A_L, conj t_l e^{ik(D - j)} on A_R);
* W: e^{-ikj} on A_L for |k| > k_fl; e^{-ikj} on A_R for k in
  [-pi, -k_fr) u (k_fl, pi]; and on the window the mode
  (t_l e^{-ikj}, -r_l e^{ik(D - j)}).

The singular values of a block's rows of V and W are sqrt(nu) and
sqrt(1 - nu), each computed directly, so S_1/2 = 2 sum ln(sigma + sigma')
(ascending sigma paired with descending sigma') has no square root of an
eigenvalue that is round-off around 0 or 1.  It moves by about 1e-12 with
1.5x the nodes.  The order-1/2 MI is held to the same band on the full
spectra (the undeflated test oracle) and on the production path, the
partition of ``measures``.

The far matrices at the offsets D and ell_r - ell_l - D, built and solved
apart, are mirror images P conj(C) P with P = diag(J_L, -J_R) for a
parity-symmetric scatterer, so every measure agrees between them: the
symmetry by which a position sweep solves each mirror pair once.

At a finite distance C = V V^dag still holds, with the occupied scattering
states as the columns of V: sqrt(w/2pi) conj u_x(k), u from
``scattering.wavefunction``, left-incoming on (0, k_fl) and right-incoming on
(0, k_fr).  W takes the empty states on (k_fl, pi) and (k_fr, pi) and the
impurity's bound state b_x = N z^|x|, N = sqrt((1 - z^2)/(1 + z^2)), with
z the root of z - 1/z = epsilon0/eta inside the unit disk: for
epsilon0 > 0 its level lies above the band, so it is empty, and without it
W W^dag misses I - C by 0.1-0.2 at d = 0.  The pairing sigma^2 + sigma'^2 = 1
of a block's rows is the CS decomposition of the co-isometry [V_A W_A]
(Paige & Wei, LAA 208/209, 303 (1994)).
"""

from functools import cache

import numpy as np
import pytest

import undeflated
from nessent.correlation import CorrelationBuilder, SubsystemGeometry, correlation_matrix_far, correlation_matrix_finite
from nessent.entanglement import measures, report_from_spectra
from nessent.scattering import BiasState, ConstantTransmission, SingleImpurity, wavefunction

BIAS = BiasState(2 * np.pi / 3, np.pi / 2)
MODELS = {
    "eps0.5": SingleImpurity(0.5),
    "eps1": SingleImpurity(1.0),
    "eps2": SingleImpurity(2.0),
    "T1/2": ConstantTransmission(0.5),
}

#: README band of the order-1/2 MI, per length
HALF_MI_BAND = {20: 7.5e-8, 100: 1.1e-6, 200: 3.4e-6}


def columns(k, w, rows_left, rows_right, left=None, right=None):
    """sqrt(w/2pi)-weighted columns at the nodes k: left(k) on the A_L rows,
    right(k) on the A_R rows, zero where a side is not given."""
    out = np.zeros((rows_left + rows_right, k.size), dtype=complex)
    if left is not None:
        out[:rows_left] = left(k)
    if right is not None:
        out[rows_left:] = right(k)
    return out * np.sqrt(w / (2 * np.pi))


def nodes(a, b, rate):
    """Gauss-Legendre nodes on (a, b), enough for the phases e^{ikx}, |x| <= rate."""
    x, w = np.polynomial.legendre.leggauss(int(rate * (b - a) / 2) + 30)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def factors(name, ell):
    """(C, V, W) for mirrored intervals of length ell."""
    model = MODELS[name]
    geom = SubsystemGeometry(0, 0, ell, 0, ell)
    cm = correlation_matrix_far(CorrelationBuilder(model, BIAS), geom)
    k_fl, k_fr, shift = BIAS.k_fl, BIAS.k_fr, geom.d_l - geom.d_r
    sites = np.arange(1, ell + 1)
    rate = 2 * ell + abs(shift)

    def wave(k):
        return np.exp(-1j * np.outer(sites, k))

    def window(on_left, on_right):
        def left(k):
            r_l, _, t_l, _ = model.amplitudes(k)
            return on_left(r_l, t_l) * wave(k)

        def right(k):
            r_l, _, t_l, _ = model.amplitudes(k)
            return on_right(r_l, t_l) * np.exp(1j * np.outer(shift - sites, k))

        return left, right

    v_window = window(lambda r, t: np.conj(r), lambda r, t: np.conj(t))
    w_window = window(lambda r, t: t, lambda r, t: -r)
    v = np.hstack(
        [
            columns(*nodes(-k_fl, k_fr, rate), ell, ell, left=wave),
            columns(*nodes(-k_fr, k_fr, rate), ell, ell, right=wave),
            columns(*nodes(k_fr, k_fl, rate), ell, ell, *v_window),
        ]
    )
    w = np.hstack(
        [
            columns(*nodes(-np.pi, -k_fl, rate), ell, ell, left=wave),
            columns(*nodes(k_fl, np.pi, rate), ell, ell, left=wave),
            columns(*nodes(-np.pi, -k_fr, rate), ell, ell, right=wave),
            columns(*nodes(k_fl, np.pi, rate), ell, ell, right=wave),
            columns(*nodes(k_fr, k_fl, rate), ell, ell, *w_window),
        ]
    )
    return cm, v, w


def half_entropy(v, w):
    """S_1/2 = 2 sum ln(sigma + sigma') from the rows' singular values."""
    sigma = np.linalg.svd(v, compute_uv=False)[::-1]
    sigma_p = np.linalg.svd(w, compute_uv=False)
    return 2.0 * np.log(sigma + sigma_p).sum()


@pytest.mark.parametrize("ell", [20, 100])
@pytest.mark.parametrize("name", list(MODELS))
def test_factors_reproduce_the_far_builder(name, ell):
    cm, v, w = factors(name, ell)
    assert np.abs(v @ v.conj().T - cm.matrix).max() < 1e-13
    assert np.abs(w @ w.conj().T - (np.eye(cm.dim) - cm.matrix)).max() < 1e-13


@cache
def half_mi_case(name, ell):
    """(C, reference order-1/2 MI) of one model and length: the SVDs of the
    factors run once for the tests that share them."""
    cm, v, w = factors(name, ell)
    return cm, half_entropy(v[:ell], w[:ell]) + half_entropy(v[ell:], w[ell:]) - half_entropy(v, w)


@pytest.mark.parametrize("ell", sorted(HALF_MI_BAND))
@pytest.mark.parametrize("name", list(MODELS))
def test_order_half_mi_within_band_of_factored_reference(name, ell):
    cm, reference = half_mi_case(name, ell)
    mi = report_from_spectra(undeflated.spectra(cm), 0.5).mutual_info
    assert abs(mi - reference) <= HALF_MI_BAND[ell]


@pytest.mark.parametrize("ell", sorted(HALF_MI_BAND))
@pytest.mark.parametrize("name", list(MODELS))
def test_production_order_half_mi_within_band_of_factored_reference(name, ell):
    cm, reference = half_mi_case(name, ell)
    assert abs(measures(cm, 0.5).mutual_info - reference) <= HALF_MI_BAND[ell]


@pytest.mark.parametrize("delta", [-20, -7, -3, 0, 5])
@pytest.mark.parametrize("name", ["eps0.5", "eps2", "T1/2"])
def test_mirror_offsets_have_the_same_measures(name, delta):
    # ell 12 and 24: the offset 12 - delta mirrors delta, each matrix on its
    # own builder; the order-1/2 MI keeps the band of the shorter length
    ell_l, ell_r = 12, 24
    cms = [
        correlation_matrix_far(CorrelationBuilder(MODELS[name], BIAS), SubsystemGeometry(0, 30 + d, ell_l, 30, ell_r))
        for d in (delta, ell_r - ell_l - delta)
    ]
    p = np.zeros((ell_l + ell_r,) * 2)
    p[:ell_l, :ell_l] = np.eye(ell_l)[::-1]
    p[ell_l:, ell_l:] = -np.eye(ell_r)[::-1]
    assert np.abs(p @ cms[0].matrix.conj() @ p - cms[1].matrix).max() < 1e-15
    for order in ("vn", 2.0):
        first, second = (measures(cm, order, with_negativity=True) for cm in cms)
        for field in ("mutual_info", "coherent_info", "s_a", "negativity"):
            assert abs(getattr(first, field) - getattr(second, field)) < 1e-12
    half = [measures(cm, 0.5).mutual_info for cm in cms]
    assert abs(half[0] - half[1]) <= HALF_MI_BAND[20]


# --- finite distance ------------------------------------------------------------

#: order-1/2 MI band of the partition of a finite matrix against the factored
#: reference, per length: 1.5x the largest error over epsilon0 = 0.5, 1, 2
#: and d = 0, 1, 5, 20, 100 (9.2e-8, 2.4e-7 and 5.8e-7).  At ell = 50 the
#: error reaches 1.03e-6, so no band tighter than the 1.1e-6 against the
#: undeflated spectra in tests/test_entanglement.py is stated there.
FINITE_HALF_MI_BAND = {12: 1.4e-7, 20: 3.7e-7, 35: 8.7e-7}

FINITE_DISTANCES = (0, 1, 5, 20, 100)


@cache
def finite_builder(epsilon0):
    return CorrelationBuilder(SingleImpurity(epsilon0), BIAS)


def finite_factors(epsilon0, d, ell):
    """(C, V, W, b) for the mirrored intervals of length ell at distance d."""
    geom = SubsystemGeometry(0, d, ell, d, ell)
    cm = correlation_matrix_finite(finite_builder(epsilon0), geom)
    model = SingleImpurity(epsilon0)
    sites = geom.sites_left() + geom.sites_right()
    rate = 2 * (d + ell)

    def states(a, b, sign):
        k, w = nodes(a, b, rate)
        return np.conj([wavefunction(model, sign * k, x) for x in sites]) * np.sqrt(w / (2 * np.pi))

    v = np.hstack([states(0.0, BIAS.k_fl, 1), states(0.0, BIAS.k_fr, -1)])
    w = np.hstack([states(BIAS.k_fl, np.pi, 1), states(BIAS.k_fr, np.pi, -1)])
    eta = model.eta
    z = (epsilon0 / eta - np.sqrt((epsilon0 / eta) ** 2 + 4.0)) / 2.0
    b = np.sqrt((1.0 - z * z) / (1.0 + z * z)) * z ** np.abs(sites)
    return cm, v, w, b


def entropies(v, w):
    """(S_vn, S_1/2) of the rows of the factors: sigma^2 and sigma'^2 are the
    occupations and the vacancies, each computed directly."""
    sigma = np.linalg.svd(v, compute_uv=False)[::-1]
    sigma_p = np.linalg.svd(w, compute_uv=False)
    nu, vacancy = sigma * sigma, sigma_p * sigma_p
    return -(nu * np.log(nu)).sum() - (vacancy * np.log(vacancy)).sum(), 2.0 * np.log(sigma + sigma_p).sum()


@cache
def finite_case(epsilon0, d, ell):
    """(C, reference (MI, CI) at order vn, reference order-1/2 MI)."""
    cm, v, w, b = finite_factors(epsilon0, d, ell)
    w = np.hstack([w, b[:, None]])
    (left, left_half), (right, right_half), (union, union_half) = (
        entropies(v[rows], w[rows]) for rows in (slice(0, ell), slice(ell, None), slice(None))
    )
    return cm, (left + right - union, right - union), left_half + right_half - union_half


@pytest.mark.parametrize("ell, d", [(12, 0), (12, 5), (20, 20), (35, 1), (50, 100), (12, 300)])
@pytest.mark.parametrize("epsilon0", [0.5, 1.0, 2.0])
def test_finite_factors_reproduce_the_builder(epsilon0, ell, d):
    cm, v, w, b = finite_factors(epsilon0, d, ell)
    vacancies = np.eye(cm.dim) - cm.matrix
    assert np.abs(v @ v.conj().T - cm.matrix).max() < 5e-14
    assert np.abs(w @ w.conj().T + np.outer(b, b) - vacancies).max() < 5e-14
    if d == 0:
        # the bound state is what the band's empty states miss near the impurity
        assert np.abs(w @ w.conj().T - vacancies).max() > 0.1


@pytest.mark.parametrize("ell", [12, 20, 35, 50])
@pytest.mark.parametrize("epsilon0", [0.5, 1.0, 2.0])
def test_finite_vn_mi_and_ci_match_the_factored_reference(epsilon0, ell):
    for d in FINITE_DISTANCES:
        cm, (mi, ci), _ = finite_case(epsilon0, d, ell)
        rep = measures(cm, "vn")
        assert abs(rep.mutual_info - mi) < 1e-11
        assert abs(rep.coherent_info - ci) < 1e-11


@pytest.mark.parametrize("ell", sorted(FINITE_HALF_MI_BAND))
@pytest.mark.parametrize("epsilon0", [0.5, 1.0, 2.0])
def test_finite_order_half_mi_within_band_of_factored_reference(epsilon0, ell):
    for d in FINITE_DISTANCES:
        cm, _, reference = finite_case(epsilon0, d, ell)
        assert abs(measures(cm, 0.5).mutual_info - reference) <= FINITE_HALF_MI_BAND[ell]
