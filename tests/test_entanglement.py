import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fockspace as fs
import undeflated
from oracles import correlation_moments
from nessent.correlation import (
    CorrelationBuilder,
    CorrelationMatrix,
    SubsystemGeometry,
    correlation_matrix_far,
    correlation_matrix_finite,
    hermitian_matrix,
)
import nessent.entanglement as ent
from nessent.entanglement import (
    CLAMP_SLACK,
    EntanglementReport,
    SingularResolvent,
    SpectrumError,
    block_spectra,
    entropy,
    fermionic_negativity,
    measures,
    occupation_spectrum,
    partition,
    renyi_index,
    report_from_spectra,
)
from nessent.numerics import NotHermitian
from nessent.scattering import BiasState, ConstantTransmission, SingleImpurity


def cm_from_spectrum(rng, nl, nr, spectrum=None):
    dim = nl + nr
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    _, u = np.linalg.eigh(0.5 * (h + h.conj().T))
    nu = rng.uniform(0.02, 0.98, size=dim) if spectrum is None else np.asarray(spectrum)
    mat = (u * nu) @ u.conj().T
    return CorrelationMatrix(mat, nl), np.sort(nu)


def diag_cm(values, nl):
    values = np.asarray(values, dtype=complex)
    return CorrelationMatrix(np.diag(values), nl)


def spectrum_of(cm):
    return occupation_spectrum(cm)[0]


def far_fig2(ell):
    """Fig. 2 far-limit matrix at epsilon0 = 1, mirrored intervals of length ell."""
    bias = BiasState(2 * np.pi / 3, np.pi / 2)
    return correlation_matrix_far(CorrelationBuilder(SingleImpurity(1.0), bias), SubsystemGeometry(0, ell, 0, ell))


def test_renyi_pure_state_slice_is_zero():
    assert entropy(spectrum_of(diag_cm([0, 1, 0], 1)), 2.0) == 0.0
    assert entropy(spectrum_of(diag_cm([0, 1, 0], 1)), 0.5) == 0.0


def test_renyi_half_filled_mode():
    assert entropy(spectrum_of(diag_cm([0.5], 0)), 2.0) == pytest.approx(np.log(2.0), abs=1e-14)


def test_renyi_spectral_oracle():
    rng = np.random.default_rng(2)
    cm, nu = cm_from_spectrum(rng, 3, 3)
    for n in (0.5, 2.0, 3.0):
        direct = float(np.log(nu**n + (1 - nu) ** n).sum() / (1 - n))
        assert abs(entropy(spectrum_of(cm), n) - direct) < 1e-10


def test_renyi_rejects_bad_order():
    # the pure spectrum takes the zero-entropy shortcut, which must not skip
    # the order check
    for nu in (np.array([0.5]), np.array([0.0, 1.0])):
        for n in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                entropy(nu, n)


def test_renyi_index_is_the_one_order_rule():
    assert renyi_index("vn") == renyi_index(1) == renyi_index(1.0) == 1.0
    assert (renyi_index(0.5), renyi_index(2)) == (0.5, 2.0)
    for bad in (0, -1.0, float("nan"), float("inf"), "bogus"):
        with pytest.raises(ValueError):
            renyi_index(bad)


def test_von_neumann_values():
    assert entropy(spectrum_of(diag_cm([0.5], 0)), "vn") == pytest.approx(np.log(2.0))
    assert entropy(spectrum_of(diag_cm([0.0, 1.0], 1)), "vn") == 0.0
    assert entropy(np.array([0.3, 0.5]), 1) == entropy(np.array([0.3, 0.5]), "vn")


def test_von_neumann_is_renyi_limit():
    rng = np.random.default_rng(3)
    cm, _ = cm_from_spectrum(rng, 2, 3)
    nu = spectrum_of(cm)
    vn = entropy(nu, "vn")
    h = 1e-5
    central = 0.5 * (entropy(nu, 1 - h) + entropy(nu, 1 + h))
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


def test_renyi2_matches_logdet_identity():
    # S_2 = -ln det[C^2 + (I-C)^2], evaluated through an independent path
    rng = np.random.default_rng(7)
    cm, _ = cm_from_spectrum(rng, 3, 2)
    c = cm.matrix
    eye = np.eye(cm.dim)
    sign, logdet = np.linalg.slogdet(c @ c + (eye - c) @ (eye - c))
    assert sign == pytest.approx(1.0)
    assert abs(entropy(spectrum_of(cm), 2.0) + logdet) < 1e-9


def test_measures_uncorrelated_blocks():
    rng = np.random.default_rng(9)
    cm, _ = cm_from_spectrum(rng, 2, 2)
    c = cm.matrix.copy()
    c[:2, 2:] = 0.0
    c[2:, :2] = 0.0
    product = CorrelationMatrix(c, cm.n_left)
    rep = measures(product, "vn", with_negativity=True)
    assert abs(rep.mutual_info) < 1e-9
    assert rep.coherent_info == pytest.approx(-rep.s_al, abs=1e-9)
    assert abs(rep.negativity) < 1e-8


def test_measures_maximally_entangled_pair():
    cm = CorrelationMatrix(np.full((2, 2), 0.5, dtype=complex), 1)
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
    cm = CorrelationMatrix(np.full((2, 2), 0.5, dtype=complex), 1)
    rho = fs.gaussian_density_matrix(cm.matrix)
    oracle = fs.negativity_dm(rho, [0], 2)
    assert oracle == pytest.approx(np.log(2.0), abs=1e-10)
    assert fermionic_negativity(cm) == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_negativity_and_measures_fock_oracle_3p3(seed):
    rng = np.random.default_rng(100 + seed)
    cm, _ = cm_from_spectrum(rng, 3, 3)
    rho = fs.gaussian_density_matrix(cm.matrix)
    rho_l = fs.partial_trace(rho, [0, 1, 2], 6)
    rho_r = fs.partial_trace(rho, [3, 4, 5], 6)
    s_l, s_r, s_a = (fs.vn_entropy_dm(r) for r in (rho_l, rho_r, rho))
    rep = measures(cm, "vn", with_negativity=True)
    assert abs(rep.mutual_info - (s_l + s_r - s_a)) < 1e-8
    assert abs(rep.coherent_info - (s_r - s_a)) < 1e-8
    assert abs(rep.negativity - fs.negativity_dm(rho, [0, 1, 2], 6)) < 1e-8
    for n in (0.5, 2.0, 3.0):
        s_l, s_r, s_a = (fs.renyi_entropy_dm(r, n) for r in (rho_l, rho_r, rho))
        rep = measures(cm, n)
        assert abs(rep.s_al - s_l) < 1e-8
        assert abs(rep.s_a - s_a) < 1e-8
        assert abs(rep.mutual_info - (s_l + s_r - s_a)) < 1e-8


def test_negativity_takes_no_order():
    # E_1 is the only negativity: there is no order to pass
    rng = np.random.default_rng(13)
    cm, _ = cm_from_spectrum(rng, 2, 2)
    with pytest.raises(TypeError):
        fermionic_negativity(cm, 1)


def test_negativity_rejects_an_empty_block():
    lonely = CorrelationMatrix(np.eye(2, dtype=complex) * 0.5, 2)
    with pytest.raises(ValueError):
        fermionic_negativity(lonely)


@pytest.mark.parametrize("solve", [measures, block_spectra, partition, fermionic_negativity, occupation_spectrum])
def test_every_measure_rejects_a_nonhermitian_matrix(solve):
    # one cross entry off by 0.05: the matrix is checked once, when it is made
    rng = np.random.default_rng(31)
    cm, _ = cm_from_spectrum(rng, 3, 3)
    mat = cm.matrix.copy()
    mat[0, 4] += 0.05
    with pytest.raises(NotHermitian, match="^Hermiticity deviation"):
        solve(CorrelationMatrix(mat, 3))


def test_block_spectra_reads_a_partition_only():
    # its fields are the active and deflated spectra of a partition, which
    # a bare matrix does not have; the negativity partitions a bare matrix
    rng = np.random.default_rng(37)
    cm, _ = cm_from_spectrum(rng, 2, 3)
    with pytest.raises(TypeError, match="partition"):
        block_spectra(cm)
    assert not ent.BlockSpectra._field_defaults
    assert fermionic_negativity(cm) == fermionic_negativity(partition(cm))


@pytest.mark.parametrize("solve", [measures, fermionic_negativity])
@pytest.mark.parametrize("entry, value", [((0, 1), np.nan), ((1, 0), np.nan), ((1, 1), np.inf)])
def test_every_measure_rejects_a_nonfinite_matrix(solve, entry, value):
    # eigvalsh reads one triangle, so a NaN in the other would go unseen
    # unless the matrix is checked when it is made
    mat = np.full((2, 2), 0.5)
    mat[entry] = value
    with pytest.raises(NotHermitian, match=r"^non-finite entry .* at \(%d, %d\)$" % entry):
        solve(CorrelationMatrix(mat, 1))


def test_negativity_nonfinite_input_raises_singular_resolvent():
    # the pencil's own failure path: a matrix marked as a builder's skips
    # the check on construction
    for entry in ((0, 1), (1, 1)):
        mat = np.full((2, 2), 0.5, dtype=complex)
        mat[entry] = np.nan
        with pytest.raises(SingularResolvent):
            fermionic_negativity(CorrelationMatrix(mat, 1, built_hermitian=True))


def test_negativity_relation_to_half_renyi_mi_slope():
    # volume-law relation: negativity = half the order-1/2 Renyi MI, at
    # leading order in the mirror size
    model = SingleImpurity(1.0)
    bias = BiasState(2 * np.pi / 3, np.pi / 2)
    vals = {}
    for ell in (40, 80):
        geom = SubsystemGeometry(0, ell, 0, ell)
        cm = correlation_matrix_far(CorrelationBuilder(model, bias), geom)
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
    assert abs(fermionic_negativity(cm) - oracle) < 1e-12


def test_negativity_stable_under_roundoff_perturbation():
    cm = far_fig2(100)
    rng = np.random.default_rng(17)
    h = rng.normal(size=(cm.dim, cm.dim)) + 1j * rng.normal(size=(cm.dim, cm.dim))
    h = 0.5 * (h + h.conj().T)
    nudged = CorrelationMatrix(cm.matrix + 1e-13 * h / np.abs(h).max(), cm.n_left)
    assert abs(fermionic_negativity(nudged) - fermionic_negativity(cm)) < 1e-9


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
    assert abs(undeflated.negativity(cm) - reference) < 1e-12
    assert abs(fermionic_negativity(cm) - reference) < 1e-12


@pytest.mark.parametrize("d", [16, 59])
def test_finite_negativity_matches_mpmath_reference(d):
    # finite-distance matrices are complex and never fold; the reference is
    # that of the full matrix, for the full pencil and the deflated one
    mpmath = pytest.importorskip("mpmath")
    bias = BiasState(2 * np.pi / 3, np.pi / 2)
    cm = correlation_matrix_finite(CorrelationBuilder(SingleImpurity(1.0), bias), SubsystemGeometry(d, 8, d, 8))
    with mpmath.workdps(40):
        reference = float(mp_negativity(cm, mpmath))
    assert abs(undeflated.negativity(cm) - reference) < 1e-13
    assert abs(fermionic_negativity(partition(cm)) - reference) < 1e-13


@pytest.mark.parametrize("stage", ["solve", "svd"])
def test_negativity_nan_reaching_w_raises_singular_resolvent(monkeypatch, stage):
    # a NaN in W, or in its singular values when the SVD returns rather than
    # raises, must fail the pairing check and not read as a residual of 0
    cm = far_fig2(10)
    real = getattr(np.linalg, stage)

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        out = out.astype(complex) if stage == "solve" else out.copy()
        out.flat[0] = np.nan
        return out

    monkeypatch.setattr(np.linalg, stage, poisoned)
    with pytest.raises(SingularResolvent):
        fermionic_negativity(cm)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(0, 8))
def test_negativity_nonnegative_and_swap_symmetric(seed, nl, nr, n_pinned):
    # mixed states with some occupations pinned exactly at 0 or 1
    rng = np.random.default_rng(seed)
    nu = rng.uniform(0.0, 1.0, size=nl + nr)
    pinned = min(n_pinned, nl + nr)
    nu[:pinned] = rng.integers(0, 2, size=pinned)
    cm, _ = cm_from_spectrum(rng, nl, nr, nu)
    value = fermionic_negativity(cm)
    assert value >= -1e-12
    swap = np.r_[nl:nl + nr, 0:nl]
    swapped = CorrelationMatrix(cm.matrix[np.ix_(swap, swap)], nr)
    assert abs(fermionic_negativity(swapped) - value) < 1e-12


# --- properties of real builder output -----------------------------------------

MOMENTA = (2 * np.pi / 3, np.pi / 2)


@functools.lru_cache(maxsize=None)
def shared_builder(epsilon0, flip):
    """One builder per (epsilon0, bias orientation), reused across examples."""
    k_fl, k_fr = MOMENTA[::-1] if flip else MOMENTA
    return CorrelationBuilder(SingleImpurity(epsilon0), BiasState(k_fl, k_fr))


def builder_matrix(regime, epsilon0, flip, geom):
    assemble = correlation_matrix_far if regime == "far" else correlation_matrix_finite
    return assemble(shared_builder(epsilon0, flip), geom)


builder_inputs = st.tuples(
    st.sampled_from(("far", "finite")),
    st.sampled_from((0.5, 0.875, 1.25, 1.625, 2.0)),
    st.booleans(),
    st.integers(0, 15),
    st.integers(1, 15),
    st.integers(0, 15),
    st.integers(1, 15),
)


@settings(max_examples=100, deadline=None)
@given(builder_inputs)
def test_builder_output_spectrum_mi_and_ci_bounds(inputs):
    regime, epsilon0, flip, d_l, ell_l, d_r, ell_r = inputs
    cm = builder_matrix(regime, epsilon0, flip, SubsystemGeometry(d_l, ell_l, d_r, ell_r))
    for block in (cm.matrix, cm.block_left().matrix, cm.block_right().matrix):
        nu = np.linalg.eigvalsh(block)
        assert nu.min() >= -CLAMP_SLACK and nu.max() <= 1.0 + CLAMP_SLACK
    rep = measures(cm, "vn")
    assert rep.mutual_info >= -1e-12
    assert abs(rep.coherent_info) <= rep.s_al + 1e-12


@settings(max_examples=100, deadline=None)
@given(builder_inputs)
def test_builder_output_mi_monotone_and_mirror_symmetric(inputs):
    regime, epsilon0, flip, d_l, ell_l, d_r, ell_r = inputs
    mi = measures(builder_matrix(regime, epsilon0, flip, SubsystemGeometry(d_l, ell_l, d_r, ell_r))).mutual_info
    # strong subadditivity: one more site in A_L cannot lower I(A_L : A_R)
    longer = builder_matrix(regime, epsilon0, flip, SubsystemGeometry(d_l, ell_l + 1, d_r, ell_r))
    assert measures(longer).mutual_info >= mi - 1e-12
    # parity: swapping the intervals together with the two Fermi momenta
    mirrored = builder_matrix(regime, epsilon0, not flip, SubsystemGeometry(d_r, ell_r, d_l, ell_l))
    assert abs(measures(mirrored).mutual_info - mi) < 1e-10


# --- deflation to the coupled modes ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.sampled_from(("far", "finite")),
        st.sampled_from((0.5, 0.875, 1.25, 1.625, 2.0)),
        st.booleans(),
        st.integers(0, 15),
        st.integers(1, 60),
        st.integers(0, 15),
        st.integers(1, 60),
    )
)
def test_deflated_partition_matches_full_matrix(inputs):
    regime, epsilon0, flip, d_l, ell_l, d_r, ell_r = inputs
    cm = builder_matrix(regime, epsilon0, flip, SubsystemGeometry(d_l, ell_l, d_r, ell_r))
    full = report_from_spectra(undeflated.spectra(cm), "vn")
    deflated = partition(cm)
    rep = report_from_spectra(block_spectra(deflated), "vn")
    assert abs(rep.mutual_info - full.mutual_info) < 1e-11
    assert abs(rep.coherent_info - full.coherent_info) < 1e-11
    assert abs(fermionic_negativity(deflated) - undeflated.negativity(cm)) < 1e-11


def test_partition_deflates_most_far_modes():
    cm = far_fig2(100)
    deflated = partition(cm)
    active = deflated.reduced.dim
    assert active < cm.dim // 2
    assert active + deflated.deflated_left.size + deflated.deflated_right.size == cm.dim
    assert np.minimum(deflated.deflated_left, 1 - deflated.deflated_left).max() <= 1e-13
    rep = measures(cm, "vn", with_negativity=True)
    full = report_from_spectra(undeflated.spectra(cm), "vn")
    assert abs(rep.s_a - full.s_a) < 1e-11
    assert abs(rep.negativity - undeflated.negativity(cm)) < 1e-11


def test_sub_unit_orders_deflate_the_same_modes_again(monkeypatch):
    # orders below 1 keep a superset of the modes, read from the block modes
    # the partition already holds: no second decomposition
    cm = far_fig2(100)
    vn = partition(cm)
    solves = []
    monkeypatch.setattr(ent, "_block_eigenpairs", lambda block: solves.append(block))
    half = partition(vn, 0.5)
    assert not solves and half.modes is vn.modes
    monkeypatch.undo()
    assert partition(cm, 0.5).reduced.matrix.tobytes() == half.reduced.matrix.tobytes()
    assert partition(vn).reduced.matrix.tobytes() == vn.reduced.matrix.tobytes()
    assert vn.reduced.dim < half.reduced.dim < cm.dim
    for part in (vn, half):
        assert part.reduced.dim + part.deflated_left.size + part.deflated_right.size == cm.dim
    assert np.isin(vn.reduced.matrix.diagonal(), half.reduced.matrix.diagonal()).all()
    # the modes only orders below 1 keep are those with a first-order share
    # above the tolerance
    coupling, (kept_l, kept_r) = vn.modes.coupling, vn.modes.kept
    extra_l = ~kept_l & (np.abs(coupling).sum(axis=1) > ent.LOW_ORDER_TOL)
    extra_r = ~kept_r & (np.abs(coupling).sum(axis=0) > ent.LOW_ORDER_TOL)
    assert half.reduced.dim == vn.reduced.dim + extra_l.sum() + extra_r.sum() > vn.reduced.dim


def test_partition_without_coupling_keeps_no_mode():
    # an empty voltage window makes the cross block exactly zero
    cm = correlation_matrix_far(
        CorrelationBuilder(SingleImpurity(1.0), BiasState(np.pi / 2, np.pi / 2)), SubsystemGeometry(0, 20, 3, 30)
    )
    assert not np.any(cm.cross_block())
    deflated = partition(cm)
    assert deflated.reduced.dim == 0
    assert (deflated.deflated_left.size, deflated.deflated_right.size) == (20, 30)
    rep = measures(cm, "vn", with_negativity=True)
    assert rep.mutual_info == 0.0 and rep.negativity == 0.0
    assert rep.s_al > 0.0 and rep.coherent_info == -rep.s_al
    assert report_from_spectra(block_spectra(deflated), 2.0).mutual_info == 0.0


# --- folding to real symmetric form ---------------------------------------------


def fold_geometry(mirror, d_l, d_r, ell_l, ell_r):
    """Intervals at the offsets drawn or, with mirror, the nearby geometry
    with 2(d_l - d_r) = ell_r - ell_l."""
    if mirror:
        ell_r += (ell_r - ell_l) % 2
        shift = (ell_r - ell_l) // 2
        d_l, d_r = d_r + max(shift, 0), d_r + max(-shift, 0)
    return SubsystemGeometry(d_l, ell_l, d_r, ell_r)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.sampled_from(("far", "finite")),
        st.sampled_from((0.5, 0.875, 1.25, 1.625, 2.0)),
        st.booleans(),
        st.booleans(),
        st.integers(0, 15),
        st.integers(0, 15),
        st.integers(1, 60),
        st.integers(1, 59),
    )
)
def test_folded_measures_match_the_complex_path(inputs):
    regime, epsilon0, flip, mirror, *offsets = inputs
    cm = builder_matrix(regime, epsilon0, flip, fold_geometry(mirror, *offsets))
    folded = measures(cm, "vn", with_negativity=True)
    # a matrix the far builder did not make takes the plain complex path
    plain = measures(CorrelationMatrix(cm.matrix, cm.n_left), "vn", with_negativity=True)
    assert abs(folded.mutual_info - plain.mutual_info) < 1e-11
    assert abs(folded.coherent_info - plain.coherent_info) < 1e-11
    assert abs(folded.negativity - plain.negativity) < 1e-11


def record_block_dtypes(monkeypatch):
    """The dtypes of the blocks wider than one site that the partition
    decomposes (a single site is real either way)."""
    dtypes = []
    solve = ent._block_eigenpairs

    def recorded(block):
        if block.shape[0] > 1:
            dtypes.append(block.dtype)
        return solve(block)

    monkeypatch.setattr(ent, "_block_eigenpairs", recorded)
    return dtypes


#: (d_l, ell_l, d_r, ell_r): mirror-symmetric ones and near misses; the
#: fourth has a one-site A_L, whose block record_block_dtypes skips
FOLD_GEOMETRIES = [
    (0, 20, 0, 20), (5, 12, 0, 22), (0, 30, 4, 22), (7, 1, 2, 11),
    (3, 20, 0, 20), (0, 12, 0, 24), (1, 10, 0, 13), (0, 21, 0, 20),
]


def folding_unitary(n, sign):
    """Q = (I - i sign J)/sqrt 2 on one block, J reversing its sites."""
    return (np.eye(n) - 1j * sign * np.eye(n)[::-1]) / np.sqrt(2.0)


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("model", [SingleImpurity(0.5), SingleImpurity(2.0), ConstantTransmission(0.5)])
def test_far_blocks_always_fold_and_the_union_iff_mirror_symmetric(monkeypatch, model, flip):
    k_fl, k_fr = MOMENTA[::-1] if flip else MOMENTA
    builder = CorrelationBuilder(model, BiasState(k_fl, k_fr))
    dtypes = record_block_dtypes(monkeypatch)
    for d_l, ell_l, d_r, ell_r in FOLD_GEOMETRIES:
        cm = correlation_matrix_far(builder, SubsystemGeometry(d_l, ell_l, d_r, ell_r))
        nl = cm.n_left
        # the builder's folded blocks are Re B - s J Im B of the site blocks
        for block, site, sign in ((cm.left, cm.matrix[:nl, :nl], 1.0), (cm.right, cm.matrix[nl:, nl:], -1.0)):
            assert block.folded.dtype == np.float64
            assert np.array_equal(block.folded, site.real - sign * site.imag[::-1])
            assert np.array_equal(block.folded, block.folded.T)
        # F = Q_L^dag C_LR Q_R, real exactly when the union folds
        exact = folding_unitary(ell_l, 1.0).conj().T @ cm.cross_block() @ folding_unitary(ell_r, -1.0)
        folds = not np.iscomplexobj(cm.coupling)
        assert cm.coupling.shape == (ell_l, ell_r)
        assert cm.coupling.dtype == (np.float64 if folds else np.complex128)
        assert np.abs(cm.coupling - exact).max() <= 1e-15 * np.abs(exact).max()
        assert folds == (2 * (d_l - d_r) == ell_r - ell_l)
        if folds:
            # Q^dag C Q from the folded blocks and F: real symmetric, with the
            # spectrum of C
            folded = hermitian_matrix(cm.left.folded, cm.right.folded, cm.coupling.T)
            assert folded.dtype == np.float64
            assert np.array_equal(folded, folded.T)
            assert np.abs(np.linalg.eigvalsh(folded) - np.linalg.eigvalsh(cm.matrix)).max() < 1e-14
        partition(cm)
    # one block pair per geometry, less the one-site A_L and the A_R block of
    # the third geometry, which the builder kept from the second
    assert len(dtypes) == 2 * len(FOLD_GEOMETRIES) - 2
    assert all(dtype == np.float64 for dtype in dtypes)


def test_finite_matrices_never_fold(monkeypatch):
    # a finite matrix is partitioned in the eigenbasis of its far matrix's
    # folded blocks: eigh sees those real blocks, at most once each, and
    # never a block of the finite matrix
    solved = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda block: solved.append(block) or eigh(block))
    for d_l, ell_l, d_r, ell_r in FOLD_GEOMETRIES:
        cm = correlation_matrix_finite(
            CorrelationBuilder(SingleImpurity(1.0), BiasState(*MOMENTA)), SubsystemGeometry(d_l, ell_l, d_r, ell_r)
        )
        assert undeflated.folded(cm) is cm
        solved.clear()
        partition(cm)
        assert len(solved) == 2 and solved[0] is cm.far.left.folded and solved[1] is cm.far.right.folded
        assert all(block.dtype == np.float64 for block in solved)
        # the eigenpairs stay on the far blocks
        partition(cm)
        assert len(solved) == 2


#: order-1/2 MI band of the far-basis partition against the undeflated
#: complex spectra of a finite matrix, the README band at ell = 100: those
#: spectra are round-off themselves at order 1/2 (at ell = 20 they err by up
#: to 2.8e-7 against 30-digit mpmath spectra, and the own-basis partition
#: errs by up to 7e-7 against them at ell = 50).  At ell = 12, 20 and 35
#: tighter bands against the factored oracle replace it
#: (tests/test_factored_projector.py), so it stays at ell = 50 only.
FINITE_HALF_MI_BAND = {50: 1.1e-6}


@pytest.mark.parametrize("ell", [12, 20, 35, 50])
@pytest.mark.parametrize("epsilon0", [0.5, 1.0, 2.0])
def test_far_basis_partition_matches_the_undeflated_spectra(epsilon0, ell):
    # a finite matrix is partitioned in the eigenbasis of its far blocks,
    # where its diagonal blocks are not diagonal; every measure must still
    # be that of the site matrix, near the scatterer as well as far from it
    builder = shared_builder(epsilon0, False)
    for d in (0, 1, 5, 20, 100):
        cm = correlation_matrix_finite(builder, SubsystemGeometry(d, ell, d, ell))
        plain = CorrelationMatrix(cm.matrix, ell)
        full, vn = undeflated.spectra(plain), partition(cm)
        for order in ("vn", 2.0):
            want = report_from_spectra(full, order)
            got = report_from_spectra(block_spectra(partition(vn, order)), order)
            assert abs(got.mutual_info - want.mutual_info) < 1e-11
            assert abs(got.coherent_info - want.coherent_info) < 1e-11
        assert abs(fermionic_negativity(vn) - undeflated.negativity(plain)) < 1e-11
        if ell in FINITE_HALF_MI_BAND:
            half = report_from_spectra(block_spectra(partition(vn, 0.5)), 0.5).mutual_info
            assert abs(half - report_from_spectra(full, 0.5).mutual_info) <= FINITE_HALF_MI_BAND[ell]
        if d >= 2 * ell:
            # far from the scatterer the far basis deflates as well as the
            # blocks' own eigenbasis, up to one mode within round-off of the
            # 1e-13 edge (ell = 35 at epsilon0 = 2 keeps 49 modes, not 48)
            own = partition(plain).reduced.dim
            assert own <= vn.reduced.dim <= own + 1


def test_far_basis_partition_decouples_a_block_whole_with_its_spectrum():
    # an empty voltage window and the cross Hankel term zeroed leave no
    # cross block: the one-site A_L couples to nothing and A_R only within
    # itself, so A_R is decoupled whole, and its deflated values are its
    # block's spectrum, not the diagonal of the far basis
    builder = CorrelationBuilder(SingleImpurity(1.0), BiasState(np.pi / 2, np.pi / 2))
    cm = correlation_matrix_finite(builder, SubsystemGeometry(3, 1, 3, 20))
    cut = type(cm)(cm.far, cm.hankel_left, cm.hankel_right, np.zeros_like(cm.hankel_cross))
    part = partition(cut)
    assert part.reduced.dim == 0 and (part.deflated_left.size, part.deflated_right.size) == (1, 20)
    full = report_from_spectra(undeflated.spectra(CorrelationMatrix(cut.matrix, 1)), "vn")
    rep = report_from_spectra(block_spectra(part), "vn")
    assert rep.mutual_info == 0.0 and fermionic_negativity(part) == 0.0
    assert rep.s_ar > 1.0 and abs(rep.s_ar - full.s_ar) < 1e-12
    assert abs(rep.coherent_info - full.coherent_info) < 1e-12


def test_negativity_reads_the_deflated_entropies_only_where_they_count(monkeypatch):
    # a deflated mode adds nothing to E_1, so no deflated entropy is read
    part = partition(far_fig2(20))
    assert part.deflated_left.size and part.deflated_right.size
    one = fermionic_negativity(part)
    calls = []
    entropy = ent.entropy
    monkeypatch.setattr(ent, "entropy", lambda *args: calls.append(args) or entropy(*args))
    assert fermionic_negativity(part) == one and not calls
