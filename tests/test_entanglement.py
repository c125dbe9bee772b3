import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nessent.correlation import CorrelationMatrix, SubsystemGeometry, correlation_matrix_far
from nessent.entanglement import (
    EntanglementReport,
    SingularResolvent,
    SpectrumError,
    correlation_moments,
    entropy_from_spectrum,
    fermionic_negativity,
    measures,
    occupation_spectrum,
    renyi_entropy,
    von_neumann_entropy,
)
from nessent import fockspace as fs
from nessent.scattering import BiasState, SingleImpurity


def cm_from_spectrum(rng, nl, nr, spectrum=None):
    dim = nl + nr
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    _, u = np.linalg.eigh(0.5 * (h + h.conj().T))
    nu = rng.uniform(0.02, 0.98, size=dim) if spectrum is None else np.asarray(spectrum)
    mat = (u * nu) @ u.conj().T
    return CorrelationMatrix(mat, tuple(range(-nl, 0)), tuple(range(1, nr + 1))), np.sort(nu)


def diag_cm(values, nl):
    values = np.asarray(values, dtype=complex)
    nr = len(values) - nl
    return CorrelationMatrix(np.diag(values), tuple(range(-nl, 0)), tuple(range(1, nr + 1)))


def far_fig2(ell):
    """Fig. 2 far-limit matrix at epsilon0 = 1, mirrored intervals of length ell."""
    bias = BiasState(2 * np.pi / 3, np.pi / 2)
    return correlation_matrix_far(SingleImpurity(1.0), bias, SubsystemGeometry(0, 0, ell, 0, ell), "A")


def test_renyi_pure_state_slice_is_zero():
    assert renyi_entropy(diag_cm([0, 1, 0], 1), 2.0) == 0.0
    assert renyi_entropy(diag_cm([0, 1, 0], 1), 0.5) == 0.0


def test_renyi_half_filled_mode():
    assert renyi_entropy(diag_cm([0.5], 0), 2.0) == pytest.approx(np.log(2.0), abs=1e-14)


def test_renyi_spectral_oracle():
    rng = np.random.default_rng(2)
    cm, nu = cm_from_spectrum(rng, 3, 3)
    for n in (0.5, 2.0, 3.0):
        direct = float(np.log(nu**n + (1 - nu) ** n).sum() / (1 - n))
        assert abs(renyi_entropy(cm, n) - direct) < 1e-10


def test_renyi_rejects_bad_order():
    cm = diag_cm([0.5], 0)
    for n in (0.0, -1.0, 1.0):
        with pytest.raises(ValueError):
            renyi_entropy(cm, n)


def test_von_neumann_values():
    assert von_neumann_entropy(diag_cm([0.5], 0)) == pytest.approx(np.log(2.0))
    assert von_neumann_entropy(diag_cm([0.0, 1.0], 1)) == 0.0


def test_von_neumann_is_renyi_limit():
    rng = np.random.default_rng(3)
    cm, _ = cm_from_spectrum(rng, 2, 3)
    vn = von_neumann_entropy(cm)
    h = 1e-5
    central = 0.5 * (renyi_entropy(cm, 1 - h) + renyi_entropy(cm, 1 + h))
    assert abs(central - vn) < 1e-6


def test_spectrum_clamping_and_error():
    noisy = diag_cm([1.0 + 5e-9, -5e-9, 0.3], 1)
    nu, clamped = occupation_spectrum(noisy)
    assert clamped == 2
    assert nu.min() == 0.0 and nu.max() == 1.0
    with pytest.raises(SpectrumError):
        occupation_spectrum(diag_cm([1.2, 0.5], 1))


def test_moments_trace_and_diagonal():
    cm = diag_cm([0.5, 0.5], 1)
    assert correlation_moments(cm, 1) == pytest.approx(1.0)
    assert correlation_moments(cm, 3) == pytest.approx(0.25)


def test_moments_dual_path_oracle():
    rng = np.random.default_rng(5)
    cm, nu = cm_from_spectrum(rng, 2, 3)
    for p in range(1, 6):
        assert abs(correlation_moments(cm, p) - (nu**p).sum()) < 1e-10


def test_renyi2_matches_logdet_identity():
    # S_2 = -ln det[C^2 + (I-C)^2], evaluated through an independent path
    rng = np.random.default_rng(7)
    cm, _ = cm_from_spectrum(rng, 3, 2)
    c = cm.matrix
    eye = np.eye(cm.dim)
    sign, logdet = np.linalg.slogdet(c @ c + (eye - c) @ (eye - c))
    assert sign == pytest.approx(1.0)
    assert abs(renyi_entropy(cm, 2.0) + logdet) < 1e-9


def test_measures_uncorrelated_blocks():
    rng = np.random.default_rng(9)
    cm, _ = cm_from_spectrum(rng, 2, 2)
    c = cm.matrix.copy()
    c[:2, 2:] = 0.0
    c[2:, :2] = 0.0
    product = CorrelationMatrix(c, cm.sites_left, cm.sites_right)
    rep = measures(product, "vn", with_negativity=True)
    assert abs(rep.mutual_info) < 1e-9
    assert rep.coherent_info == pytest.approx(-rep.s_al, abs=1e-9)
    assert abs(rep.negativity) < 1e-8


def test_measures_maximally_entangled_pair():
    cm = CorrelationMatrix(np.full((2, 2), 0.5, dtype=complex), (-1,), (1,))
    rep = measures(cm, "vn", with_negativity=True)
    assert abs(rep.s_a) < 1e-10
    assert rep.mutual_info == pytest.approx(2 * np.log(2.0), abs=1e-10)
    assert rep.coherent_info == pytest.approx(np.log(2.0), abs=1e-10)
    assert rep.negativity == pytest.approx(np.log(2.0), abs=1e-10)


def test_measures_mi_identity_and_report_fields():
    rng = np.random.default_rng(11)
    cm, _ = cm_from_spectrum(rng, 3, 2)
    rep = measures(cm, 2.0)
    assert isinstance(rep, EntanglementReport)
    assert rep.mutual_info == pytest.approx(rep.s_al + rep.s_ar - rep.s_a, abs=1e-12)
    assert rep.coherent_info == pytest.approx(rep.s_ar - rep.s_a, abs=1e-12)
    assert rep.mutual_info > -1e-8


def test_negativity_two_site_fock_oracle():
    cm = CorrelationMatrix(np.full((2, 2), 0.5, dtype=complex), (-1,), (1,))
    rho = fs.gaussian_density_matrix(cm.matrix)
    oracle = fs.negativity_dm(rho, [0], 2)
    assert oracle == pytest.approx(np.log(2.0), abs=1e-10)
    assert fermionic_negativity(cm, 1) == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_negativity_and_measures_fock_oracle_3p3(seed):
    rng = np.random.default_rng(100 + seed)
    cm, _ = cm_from_spectrum(rng, 3, 3)
    rho = fs.gaussian_density_matrix(cm.matrix)
    s_l = fs.vn_entropy_dm(fs.partial_trace(rho, [0, 1, 2], 6))
    s_r = fs.vn_entropy_dm(fs.partial_trace(rho, [3, 4, 5], 6))
    s_a = fs.vn_entropy_dm(rho)
    rep = measures(cm, "vn", with_negativity=True)
    assert abs(rep.mutual_info - (s_l + s_r - s_a)) < 1e-8
    assert abs(rep.coherent_info - (s_r - s_a)) < 1e-8
    assert abs(rep.negativity - fs.negativity_dm(rho, [0, 1, 2], 6)) < 1e-8


def test_even_negativity_moment_fock_oracle():
    rng = np.random.default_rng(200)
    cm, _ = cm_from_spectrum(rng, 2, 2)
    rho = fs.gaussian_density_matrix(cm.matrix)
    for order in (2, 4):
        oracle = fs.negativity_moment_dm(rho, [0, 1], 4, order)
        assert abs(fermionic_negativity(cm, order) - oracle) < 1e-10


def test_negativity_rejects_odd_order_and_empty_block():
    rng = np.random.default_rng(13)
    cm, _ = cm_from_spectrum(rng, 2, 2)
    with pytest.raises(ValueError):
        fermionic_negativity(cm, 3)
    lonely = CorrelationMatrix(np.eye(2, dtype=complex) * 0.5, (-2, -1), ())
    with pytest.raises(ValueError):
        fermionic_negativity(lonely, 1)


def test_negativity_nonfinite_input_raises_singular_resolvent():
    for entry in ((0, 1), (1, 1)):
        mat = np.full((2, 2), 0.5, dtype=complex)
        mat[entry] = np.nan
        with pytest.raises(SingularResolvent):
            fermionic_negativity(CorrelationMatrix(mat, (-1,), (1,)), 1)


def test_negativity_relation_to_half_renyi_mi_slope():
    # volume-law relation: negativity = half the order-1/2 Renyi MI, at
    # leading order in the mirror size
    model = SingleImpurity(1.0)
    bias = BiasState(2 * np.pi / 3, np.pi / 2)
    vals = {}
    for ell in (40, 80):
        geom = SubsystemGeometry(0, 0, ell, 0, ell)
        cm = correlation_matrix_far(model, bias, geom, "A")
        rep = measures(cm, 0.5, with_negativity=True)
        vals[ell] = (rep.negativity, rep.mutual_info)
    neg_slope = (vals[80][0] - vals[40][0]) / 40.0
    mi_slope = (vals[80][1] - vals[40][1]) / 40.0
    assert abs(neg_slope - 0.5 * mi_slope) < 0.02 * abs(0.5 * mi_slope)


def test_cxi_spectrum_real_in_practice():
    # the C_X spectrum is real by construction; what is checked is that the
    # two whitened sides pair up, xi + (1 - xi) = 1
    rep = measures(far_fig2(30), "vn", with_negativity=True)
    assert rep.pairing_residual < 1e-7


@pytest.mark.parametrize("nl,nr", [(1, 1), (1, 4), (4, 1), (2, 3), (3, 3), (2, 4), (4, 2)])
def test_negativity_pure_state_fock_oracle(nl, nr):
    # a pure state puts most of the C_X spectrum exactly at 0 or 1, the
    # branch point of the square roots
    rng = np.random.default_rng(300 + 10 * nl + nr)
    dim = nl + nr
    occupied = np.arange(dim) < rng.integers(1, dim)
    cm, _ = cm_from_spectrum(rng, nl, nr, occupied.astype(float))
    oracle = fs.negativity_dm(fs.gaussian_density_matrix(cm.matrix), list(range(nl)), dim)
    assert abs(fermionic_negativity(cm, 1) - oracle) < 1e-12


def test_negativity_stable_under_roundoff_perturbation():
    cm = far_fig2(100)
    rng = np.random.default_rng(17)
    h = rng.normal(size=(cm.dim, cm.dim)) + 1j * rng.normal(size=(cm.dim, cm.dim))
    h = 0.5 * (h + h.conj().T)
    nudged = CorrelationMatrix(cm.matrix + 1e-13 * h / np.abs(h).max(), cm.sites_left, cm.sites_right)
    assert abs(fermionic_negativity(nudged, 1) - fermionic_negativity(cm, 1)) < 1e-9


def mp_negativity(cm, mp):
    """E_1 from C_X and its general eigenvalues in mpmath, the float64 matrix
    taken as exact."""
    dim, nl = cm.dim, cm.n_left
    c = mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in cm.matrix])
    eye = mp.eye(dim)
    gamma = [mp.matrix(dim, dim), mp.matrix(dim, dim)]
    for i in range(dim):
        for j in range(dim):
            if i < nl and j < nl:
                gamma[0][i, j] = gamma[1][i, j] = 2 * c[i, j] - eye[i, j]
            elif i >= nl and j >= nl:
                gamma[0][i, j] = gamma[1][i, j] = eye[i, j] - 2 * c[i, j]
            else:
                gamma[0][i, j] = -2j * c[i, j]
                gamma[1][i, j] = 2j * c[i, j]
    g_plus, g_minus = gamma
    c_x = (eye - mp.inverse(eye + g_plus * g_minus) * (g_plus + g_minus)) / 2
    xi = [min(max(mp.re(x), 0), 1) for x in mp.eig(c_x, left=False, right=False)]
    first = mp.fsum(mp.log(mp.sqrt(x) + mp.sqrt(1 - x)) for x in xi)
    return first + mp.log(mp.re(mp.det(c * c + (eye - c) * (eye - c)))) / 2


@pytest.mark.parametrize("ell", [10, 20])
def test_negativity_matches_mpmath_reference(ell):
    mpmath = pytest.importorskip("mpmath")
    cm = far_fig2(ell)
    with mpmath.workdps(40):
        reference = float(mp_negativity(cm, mpmath))
    assert abs(fermionic_negativity(cm, 1) - reference) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(0, 8))
def test_negativity_nonnegative_and_swap_symmetric(seed, nl, nr, n_pinned):
    # mixed states with some occupations pinned exactly at 0 or 1
    rng = np.random.default_rng(seed)
    nu = rng.uniform(0.0, 1.0, size=nl + nr)
    pinned = min(n_pinned, nl + nr)
    nu[:pinned] = rng.integers(0, 2, size=pinned)
    cm, _ = cm_from_spectrum(rng, nl, nr, nu)
    value = fermionic_negativity(cm, 1)
    assert value >= -1e-12
    swap = np.r_[nl:nl + nr, 0:nl]
    swapped = CorrelationMatrix(cm.matrix[np.ix_(swap, swap)], tuple(range(-nr, 0)), tuple(range(1, nl + 1)))
    assert abs(fermionic_negativity(swapped, 1) - value) < 1e-12
