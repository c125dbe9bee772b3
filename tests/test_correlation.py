import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from nessent.correlation import (
    _FACTORS,
    BLOCK,
    CorrelationBuilder,
    CorrelationMatrix,
    SubsystemGeometry,
    correlation_matrix_far,
    correlation_matrix_finite,
    read_matrix_dump,
    write_matrix_dump,
)
from nessent.numerics import NonConvergence, NotHermitian, QuadratureSpec, integrate_oscillatory
from nessent.scattering import BiasState, ConstantTransmission, SingleImpurity, TrivialScatterer, wavefunction

BIAS = BiasState(2 * np.pi / 3, np.pi / 2)
IMPURITY = SingleImpurity(1.0)


def brute_force_overlap(geom):
    left_mirror = {m for m in range(geom.d_l + 1, geom.d_l + geom.ell_l + 1)}
    right = {m for m in range(geom.d_r + 1, geom.d_r + geom.ell_r + 1)}
    return len(left_mirror & right)


def test_mirror_overlap_symmetric():
    geom = SubsystemGeometry(10, 50, 10, 50)
    assert (geom.ell_mirror, geom.delta_ell_l, geom.delta_ell_r) == (50, 0, 0)


def test_mirror_overlap_disjoint_images():
    geom = SubsystemGeometry(0, 10, 20, 10)
    assert (geom.ell_mirror, geom.delta_ell_l, geom.delta_ell_r) == (0, 10, 10)


def test_mirror_overlap_partial():
    geom = SubsystemGeometry(0, 100, 30, 100)
    assert (geom.ell_mirror, geom.delta_ell_l, geom.delta_ell_r) == (70, 30, 30)


@pytest.mark.parametrize("seed", range(8))
def test_mirror_overlap_brute_force(seed):
    rng = np.random.default_rng(seed)
    geom = SubsystemGeometry(
        int(rng.integers(0, 40)), int(rng.integers(1, 60)),
        int(rng.integers(0, 40)), int(rng.integers(1, 60)),
    )
    assert geom.ell_mirror == brute_force_overlap(geom)
    assert geom.delta_ell_l == geom.ell_l - geom.ell_mirror >= 0
    assert geom.delta_ell_r == geom.ell_r - geom.ell_mirror >= 0


def test_geometry_validation():
    with pytest.raises(ValueError):
        SubsystemGeometry(-1, 5, 0, 5)
    with pytest.raises(ValueError):
        SubsystemGeometry(0, 0, 0, 5)
    # four fields: a call that still passes a leading scatterer offset fails
    # instead of being read with its arguments shifted
    with pytest.raises(TypeError):
        SubsystemGeometry(0, 0, 5, 0, 5)


def test_geometry_site_lists():
    geom = SubsystemGeometry(3, 3, 5, 2)
    assert geom.sites_left() == (-4, -5, -6)
    assert geom.sites_right() == (6, 7)


def finite_entry(model, bias, j, m):
    """<c_j^dag c_m> read off the finite-distance matrix of the intervals
    -1..-ell_l and 1..ell_r that hold both sites."""
    ell_l = max([-s for s in (j, m) if s < 0], default=1)
    ell_r = max([s for s in (j, m) if s > 0], default=1)
    cm = correlation_matrix_finite(CorrelationBuilder(model, bias), SubsystemGeometry(0, ell_l, 0, ell_r))
    index = {s: -s - 1 if s < 0 else ell_l + s - 1 for s in (j, m)}
    return cm.matrix[index[j], index[m]]


def test_entry_filled_sea_density():
    eq = BiasState(np.pi / 2, np.pi / 2)
    val = finite_entry(TrivialScatterer(), eq, 3, 3)
    assert val.real == pytest.approx(0.5, abs=1e-11)
    assert abs(val.imag) < 1e-12


@pytest.mark.parametrize("x", [1, 3, 6])
def test_entry_filled_sea_kernel(x):
    kf = np.pi / 3
    eq = BiasState(kf, kf)
    val = finite_entry(TrivialScatterer(), eq, 5 + x, 5)
    assert abs(val - np.sin(kf * x) / (np.pi * x)) < 1e-11


def trapezoid_entry(model, bias, j, m, npts=1_000_001):
    """Dense trapezoid oracle for the occupied-state integral."""
    total = 0.0 + 0.0j
    for lo, hi in ((-bias.k_fr, -1e-12), (1e-12, bias.k_fl)):
        ks = np.linspace(lo, hi, npts // 2)
        vals = np.conj(wavefunction(model, ks, j)) * wavefunction(model, ks, m)
        total += np.trapezoid(vals, ks)
    return total / (2.0 * np.pi)


def test_entry_against_trapezoid_oracle():
    val = finite_entry(IMPURITY, BIAS, 5, 7)
    assert abs(val - trapezoid_entry(IMPURITY, BIAS, 5, 7)) < 1e-8


def test_cross_entry_against_trapezoid_oracle():
    val = finite_entry(IMPURITY, BIAS, 4, -6)
    assert abs(val - trapezoid_entry(IMPURITY, BIAS, 4, -6)) < 1e-8


def test_finite_matrix_hermitian_and_contractive():
    geom = SubsystemGeometry(1, 10, 2, 10)
    cm = correlation_matrix_finite(CorrelationBuilder(TrivialScatterer(), BIAS), geom)
    m = cm.matrix
    assert np.abs(m - m.conj().T).max() == 0.0
    nu = np.linalg.eigvalsh(m)
    assert nu.min() > -1e-10 and nu.max() < 1 + 1e-10


def test_finite_matrix_matches_entrywise_assembly():
    # each entry depends on its two sites only, not on the intervals around them
    geom = SubsystemGeometry(3, 4, 1, 3)
    cm = correlation_matrix_finite(CorrelationBuilder(IMPURITY, BIAS), geom)
    sites = geom.sites_left() + geom.sites_right()
    for a, sa in enumerate(sites):
        for b, sb in enumerate(sites):
            assert abs(cm.matrix[a, b] - finite_entry(IMPURITY, BIAS, sa, sb)) < 1e-12


def test_prefetch_failure_names_the_first_failing_integral_in_key_order():
    # on window R = (0, pi/2) the blocks 3..5 (rates 192..383) lie below the
    # Filon switch, and at 150 panels the grid fits block 3 only.  The
    # stacks are (rR: blocks 3, 4) and (rR and tR: block 5), but the keys
    # ask for block 5's tR before block 4, so that integral names the error,
    # as a block-by-block fill in key order names it
    builder = CorrelationBuilder(IMPURITY, BIAS, QuadratureSpec(abs_tol=1e-11, max_panels=150))
    keys = [("R", "rR", 3), ("R", "tR", 5), ("R", "rR", 4), ("R", "rR", 5)]
    with pytest.raises(NonConvergence) as failure:
        builder.prefetch(keys)
    assert str(failure.value) == (
        "W(window R, factor tR, rates 320..383): batch with max rate 383 needs 194 panels, budget is 150"
    )
    assert set(builder._blocks) == {("R", "rR", 3)}


def test_finite_sweep_reads_only_the_hankel_terms_after_its_first_matrix(monkeypatch):
    # a finite matrix is the far-limit matrix plus four Hankel terms; the
    # builder keeps its last far matrix, and the matrices keep the bytes of
    # a fresh builder's, whatever came before them
    gathers = []
    coefficients = CorrelationBuilder.coefficients

    def counted(builder, window, factor, rates):
        gathers.append((window, factor))
        return coefficients(builder, window, factor, rates)

    monkeypatch.setattr(CorrelationBuilder, "coefficients", counted)
    builder = CorrelationBuilder(IMPURITY, BIAS)
    # the last geometry keeps the length of A_L, so its A_L far block is kept
    geoms = [SubsystemGeometry(d, 6, d, 6) for d in (20, 21, 90)] + [SubsystemGeometry(20, 6, 23, 5)]
    counts, read = [], []
    for geom in geoms:
        gathers.clear()
        cm = correlation_matrix_finite(builder, geom)
        counts.append(len(gathers))
        read.append(sorted(gathers))
        fresh = correlation_matrix_finite(CorrelationBuilder(IMPURITY, BIAS), geom)
        assert cm.matrix.tobytes() == fresh.matrix.tobytes()
    # the first matrix reads the far blocks (V, T), the W_X values and four
    # Hankel terms; at the same offset and lengths only the Hankel terms;
    # the last reads one new far block and the W_X values of its offset
    assert counts == [7, 4, 4, 6]
    assert read[1] == read[2] == [("L", "rL"), ("L", "tLc"), ("R", "rR"), ("R", "tR")]


def test_every_table_factor_is_read():
    # a factor that neither regime reads is dead code
    builder = CorrelationBuilder(IMPURITY, BIAS)
    correlation_matrix_far(builder, SubsystemGeometry(0, 3, 0, 3))
    correlation_matrix_finite(builder, SubsystemGeometry(5, 3, 5, 3))
    assert {factor for _, factor, _ in builder._blocks} == set(_FACTORS)


def test_table_blocks_do_not_depend_on_request_order():
    rates = np.arange(0, 201)
    fresh = CorrelationBuilder(IMPURITY, BIAS)
    primed = CorrelationBuilder(IMPURITY, BIAS)
    for window, factor in (("L", "rL"), ("R", "tR"), ("V", "T")):
        primed.coefficients(window, factor, np.array([150]))
        a = fresh.coefficients(window, factor, rates)
        b = primed.coefficients(window, factor, rates)
        assert a.tobytes() == b.tobytes()


def test_high_rate_blocks_do_not_depend_on_company_or_thread():
    # blocks on both sides of the Filon-Clenshaw-Curtis switch (phase extent
    # 256 is rate 245 on window L and rate 326 on window R), with the window
    # partners rL, tLc on L and rR, tR on R, which one quadrature fills
    # together when they are asked for together
    partners = {"L": ("rL", "tLc", "tLc_rL"), "R": ("rL", "tLc_rL", "rR", "tR")}
    keys = [(w, f, b) for w in ("L", "R") for f in partners[w] for b in (3, 4, 5, -6, 62)]

    def block(builder, key):
        window, factor, b = key
        return builder.coefficients(window, factor, np.arange(BLOCK * b, BLOCK * (b + 1))).tobytes()

    alone = {key: block(CorrelationBuilder(IMPURITY, BIAS), key) for key in keys}
    after = CorrelationBuilder(IMPURITY, BIAS)
    after.prefetch(keys[::-1])
    shared = CorrelationBuilder(IMPURITY, BIAS)
    with ThreadPoolExecutor(4) as pool:
        list(pool.map(lambda key: shared.prefetch([key]), keys + keys[::-1]))
    for key in keys:
        assert block(after, key) == alone[key]
        assert block(shared, key) == alone[key]


def _mp_factor(mpmath, epsilon0, factor):
    """A single-impurity factor continued off the real momentum axis:
    t(k) = 1/(1 + i eps/(2 sin k)), and conj(t) on the real axis (where
    r = t - 1 and T = |t|^2)."""

    def t(k, sign=1):
        return 1 / (1 + sign * 1j * mpmath.mpf(epsilon0) / (2 * mpmath.sin(k)))

    return {
        "rL": lambda k: t(k) - 1,
        "tR": t,
        "tLc": lambda k: t(k, -1),
        "T": lambda k: t(k) * t(k, -1),
        "tLc_rL": lambda k: t(k, -1) * (t(k) - 1),
    }[factor]


def mp_window_integral(mpmath, f, kf, rate):
    """int_0^kf f(k) exp(i rate k) dk / 2pi by mpmath.quad along a deformed path.

    The first four periods, (0, c), are integrated on the real axis.  From c
    and from kf the path runs straight to Im k = sign(rate) * inf, where the
    phase decays as exp(-|rate| Im k); the legs are cut at 80 decay lengths
    (e^-80 ~ 2e-35).  The factors have poles only at Re k = 0 and pi
    (mod 2pi), so none lies between the legs.
    """
    g = lambda k: f(k) * mpmath.exp(1j * rate * k)
    sign, scale = (1 if rate > 0 else -1), mpmath.mpf(abs(rate))
    c = min(kf / 2, 8 * mpmath.pi / scale)

    def leg(x):
        return mpmath.quad(lambda u: g(x + 1j * sign * u / scale), [0, 4, 16, 80], method="gauss-legendre") / scale

    direct = mpmath.quad(g, mpmath.linspace(0, c, 5), method="gauss-legendre")
    return (direct + 1j * sign * (leg(c) - leg(kf))) / (2 * mpmath.pi)


def test_deformed_path_matches_plain_mpmath_quad():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        f, kf, rate = _mp_factor(mpmath, 0.5, "tLc"), mpmath.mpf(BIAS.k_fr), -150
        plain = mpmath.quad(lambda k: f(k) * mpmath.exp(1j * rate * k), mpmath.linspace(0, kf, 40))
        assert abs(plain / (2 * mpmath.pi) - mp_window_integral(mpmath, f, kf, rate)) < 1e-27


@pytest.mark.parametrize("epsilon0", [0.5, 2.0])
def test_table_coefficients_match_mpmath_reference(epsilon0):
    # rates on both sides of the Filon-Clenshaw-Curtis switch; table values
    # include the 1/2pi.  On the Gauss-Legendre grid, rate 3906 was off by
    # up to 1.1e-14.  Every block here but those of rates +-300 on window R
    # takes Filon-Clenshaw-Curtis, whose Chebyshev coefficients by FFT err by
    # at most 2.6e-17 here (1.3e-16 with a dense DCT matrix).
    mpmath = pytest.importorskip("mpmath")
    builder = CorrelationBuilder(SingleImpurity(epsilon0), BIAS)
    with mpmath.workdps(30):
        for window, kf in (("L", BIAS.k_fl), ("R", BIAS.k_fr)):
            for factor in ("rL", "tR", "tLc"):
                f = _mp_factor(mpmath, epsilon0, factor)
                for rate in (300, -300, 1000, 3906, 4000):
                    reference = complex(mp_window_integral(mpmath, f, mpmath.mpf(kf), rate))
                    table = builder.coefficients(window, factor, np.array([rate]))[0]
                    bound = 1e-15 if (window, abs(rate)) == ("R", 300) else 1e-16
                    assert abs(table - reference) <= bound, (window, factor, rate)


@pytest.mark.parametrize("epsilon0", [0.5, 2.0])
def test_far_table_coefficients_match_mpmath_reference(epsilon0):
    # the voltage-window factors of every far-limit matrix, on both sides of
    # rate 0 and up to rate 294 (ell = 147); the panels of mpmath.quad are at
    # most one period of rate 294 wide.  These blocks take the Gauss-Legendre
    # grid, which errs here by up to 2e-16 at rate 53 and 7.5e-16 at rate 232.
    mpmath = pytest.importorskip("mpmath")
    builder = CorrelationBuilder(SingleImpurity(epsilon0), BIAS)
    with mpmath.workdps(30):
        edges = mpmath.linspace(mpmath.mpf(BIAS.k_fr), mpmath.mpf(BIAS.k_fl), 25)
        for factor in ("T", "tLc_rL"):
            f = _mp_factor(mpmath, epsilon0, factor)
            for rate in (-63, -17, 0, 6, 53, 90, 127, 162, 232, 294):
                integral = mpmath.quad(lambda k: f(k) * mpmath.exp(1j * rate * k), edges, method="gauss-legendre")
                table = builder.coefficients("V", factor, np.array([rate]))[0]
                assert abs(table - complex(integral / (2 * mpmath.pi))) <= 1e-15, (factor, rate)


def mp_occupied_integrals(mpmath, epsilon0, bias, pairs):
    """int_{-k_fr}^{k_fl} conj(u_j(k)) u_m(k) dk / 2pi for each site pair (j, m)
    of the single impurity, in mpmath arithmetic at its working precision.

    The product of the two amplitudes is integrated as it stands, not split
    into the builder's Fourier terms.  All pairs share one composite rule:
    mpmath's 12-point Gauss-Legendre on subintervals one period of the fastest
    phase exp(i (|j| + |m|) k) wide, on each side of k = 0.  At 30 digits,
    on the sites 101..150 of either side, this agrees to 1e-20 with 24 points
    per half period, which agree with mpmath.quad to 1e-30, at a tenth of the
    cost of one mpmath.quad per pair.
    """
    from mpmath.calculus.quadrature import GaussLegendre

    eps = mpmath.mpf(epsilon0)
    sites = sorted({s for pair in pairs for s in pair})
    rate = max(abs(j) + abs(m) for j, m in pairs)
    rule = GaussLegendre(mpmath.mp).calc_nodes(3, mpmath.mp.prec)
    total = dict.fromkeys(pairs, mpmath.mpc(0))
    for lo, hi in ((-mpmath.mpf(bias.k_fr), 0), (0, mpmath.mpf(bias.k_fl))):
        edges = mpmath.linspace(lo, hi, int((hi - lo) * rate / (2 * mpmath.pi)) + 2)
        for a, b in zip(edges[:-1], edges[1:]):
            for x, weight in rule:
                k = (a + b) / 2 + (b - a) / 2 * x
                t = 1 / (1 + 1j * eps / (2 * mpmath.sin(abs(k))))
                # transmitted on the far side of the impurity, incoming plus
                # reflected (r = t - 1) on the near side
                phase = {m: mpmath.expj(k * m) for m in sites}
                u = {m: t * phase[m] if (k > 0) == (m > 0) else phase[m] + (t - 1) / phase[m] for m in sites}
                for j, m in pairs:
                    total[j, m] += weight * (b - a) / 2 * mpmath.conj(u[j]) * u[m]
    return {pair: value / (2 * mpmath.pi) for pair, value in total.items()}


def test_finite_entries_match_mpmath_reference():
    # a Fig. S2 matrix (d = 100, ell = 50): entries of A_L, A_R and both
    # cross blocks against the occupied-state integral itself, with the
    # window edges at the float momenta the builder integrates to; the far
    # blocks plus the Hankel terms err by at most 5.5e-16 here
    mpmath = pytest.importorskip("mpmath")
    geom = SubsystemGeometry(100, 50, 100, 50)
    cm = correlation_matrix_finite(CorrelationBuilder(IMPURITY, BIAS), geom)
    index = {site: i for i, site in enumerate(geom.sites_left() + geom.sites_right())}
    left, right = (-101, -102, -117, -150), (101, 103, 129, 150)
    pairs = [
        (left[0], left[0]), (left[1], left[2]), (left[3], left[0]), (left[2], left[3]), (left[3], left[3]),
        (right[0], right[0]), (right[1], right[2]), (right[3], right[0]), (right[2], right[3]), (right[3], right[3]),
        (right[0], left[0]), (right[3], left[3]), (right[1], left[2]), (right[2], left[0]),
        (left[0], right[0]), (left[1], right[3]),
    ]
    with mpmath.workdps(30):
        reference = mp_occupied_integrals(mpmath, IMPURITY.epsilon0, BIAS, pairs)
    for (j, m), value in reference.items():
        assert abs(cm.matrix[index[j], index[m]] - complex(value)) <= 1e-15, (j, m)


def _amp(i):
    return lambda k: IMPURITY.amplitudes(k)[i]


MIRRORED = BiasState(np.pi / 2, 2 * np.pi / 3)


@pytest.mark.parametrize(
    "bias, window, factor, rate, f, lo, hi, sign",
    [
        (BIAS, "L", "rL", -37, _amp(0), 0.0, BIAS.k_fl, 1.0),
        (BIAS, "R", "rR", 3999, _amp(3), 0.0, BIAS.k_fr, 1.0),
        (BIAS, "R", "tR", -4001, _amp(1), 0.0, BIAS.k_fr, 1.0),
        (BIAS, "V", "T", -5, lambda k: np.abs(_amp(2)(k)) ** 2, BIAS.k_fr, BIAS.k_fl, 1.0),
        (BIAS, "V", "tLc_rL", 130, lambda k: np.conj(_amp(2)(k)) * _amp(0)(k), BIAS.k_fr, BIAS.k_fl, 1.0),
        (MIRRORED, "V", "T", 70, lambda k: np.abs(_amp(2)(k)) ** 2, np.pi / 2, 2 * np.pi / 3, -1.0),
    ],
)
def test_table_coefficients_match_scalar_quadrature(bias, window, factor, rate, f, lo, hi, sign):
    table = CorrelationBuilder(IMPURITY, bias).coefficients(window, factor, np.array([rate]))[0]
    scalar = sign * integrate_oscillatory(f, rate, lo, hi, QuadratureSpec(abs_tol=1e-12, max_panels=60000))
    assert abs(table - scalar / (2 * np.pi)) < 1e-10


def test_far_limit_entries_converge_with_distance():
    # entrywise limit of the finite-distance matrix; SM-style 1/d envelope
    geom = lambda d: SubsystemGeometry(d, 4, d, 4)
    far = correlation_matrix_far(CorrelationBuilder(IMPURITY, BIAS), geom(500))
    for d in (500, 1500):
        fin = correlation_matrix_finite(CorrelationBuilder(IMPURITY, BIAS), geom(d))
        assert np.abs(fin.matrix - far.matrix).max() < 3.0 / d


def test_far_limit_mirrored_bias_ordering():
    mirrored = BiasState(np.pi / 2, 2 * np.pi / 3)
    geom = SubsystemGeometry(600, 4, 600, 4)
    far = correlation_matrix_far(CorrelationBuilder(IMPURITY, mirrored), geom)
    fin = correlation_matrix_finite(CorrelationBuilder(IMPURITY, mirrored), geom)
    assert np.abs(fin.matrix - far.matrix).max() < 3.0 / 600


def test_far_diag_constant_transmission():
    model = ConstantTransmission(0.37)
    cm = correlation_matrix_far(CorrelationBuilder(model, BIAS), SubsystemGeometry(0, 3, 0, 3)).block_right()
    expected = BIAS.k_fr / np.pi + 0.37 * (BIAS.k_fl - BIAS.k_fr) / (2 * np.pi)
    assert cm.matrix[0, 0].real == pytest.approx(expected, abs=1e-12)


def test_far_within_blocks_toeplitz():
    geom = SubsystemGeometry(0, 12, 0, 12)
    cm = correlation_matrix_far(CorrelationBuilder(IMPURITY, BIAS), geom)
    n = 12
    for block in (cm.matrix[:n, :n], cm.matrix[n:, n:]):
        for off in range(-n + 1, n):
            diag = np.diagonal(block, off)
            assert np.abs(diag - diag[0]).max() < 1e-12


@pytest.mark.parametrize("k_fl, k_fr", [(2 * np.pi / 3, np.pi / 2), (np.pi / 2, 2 * np.pi / 3), (np.pi / 2, np.pi / 2)])
def test_far_diagonal_blocks_equal_direct_construction_bytes(k_fl, k_fr):
    # the blocks are gathered from 2n - 1 Toeplitz values; the reference
    # evaluates all n^2 entries sea(kf, j-m) + sign * W_T(m-j) and mirrors the
    # upper triangle
    bias = BiasState(k_fl, k_fr)
    builder = CorrelationBuilder(IMPURITY, bias)
    for n in (1, 2, 7, 64, 65, 130):
        cm = correlation_matrix_far(builder, SubsystemGeometry(0, n, 0, n))
        idx = np.arange(1, n + 1)
        x = np.subtract.outer(idx, idx)
        for block, kf, sign in ((cm.block_left().matrix, k_fl, -1.0), (cm.block_right().matrix, k_fr, 1.0)):
            sea = np.where(x == 0, kf / np.pi, np.sin(kf * x) / (np.pi * np.where(x == 0, 1, x)))
            full = sea + sign * builder.coefficients("V", "T", -x)
            upper = np.triu(full, 1)
            direct = upper + upper.conj().T + np.diag(full.diagonal().real)
            assert block.tobytes() == direct.tobytes(), n


@pytest.mark.parametrize(
    "geom", [SubsystemGeometry(0, 20, 0, 20), SubsystemGeometry(7, 30, 0, 45), SubsystemGeometry(0, 1, 3, 64)]
)
def test_far_site_matrix_is_assembled_on_first_read(geom):
    # the solvers read the blocks and F, so the site matrix waits for a
    # reader; when one comes it holds the bytes of an entry-by-entry build
    builder = CorrelationBuilder(IMPURITY, BIAS)
    cm = correlation_matrix_far(builder, geom)
    nl, nr = geom.ell_l, geom.ell_r
    assert (cm.n_left, cm.n_right, cm.dim) == (nl, nr, nl + nr)
    assert "matrix" not in vars(cm)
    # A_R row j, A_L column m: W_X(d_l - d_r - j + m)
    low = geom.d_l - geom.d_r - nr + 1
    w = builder.coefficients("V", "tLc_rL", np.arange(low, low + nl + nr - 1))
    eager = np.zeros((nl + nr, nl + nr), dtype=complex)
    eager[:nl, :nl] = cm.left.site
    eager[nl:, nl:] = cm.right.site
    eager[nl:, :nl] = [[w[nr - 1 - j + m] for m in range(nl)] for j in range(nr)]
    eager[:nl, nl:] = eager[nl:, :nl].conj().T
    assert cm.matrix.tobytes() == eager.tobytes()
    assert cm.matrix is cm.matrix


def test_far_cross_block_carries_offset_phase():
    # cross entries depend on d_l - d_r only through a shifted argument
    g1 = SubsystemGeometry(9, 5, 2, 5)
    g2 = SubsystemGeometry(16, 5, 9, 5)
    c1 = correlation_matrix_far(CorrelationBuilder(IMPURITY, BIAS), g1)
    c2 = correlation_matrix_far(CorrelationBuilder(IMPURITY, BIAS), g2)
    assert np.abs(c1.matrix - c2.matrix).max() < 1e-13


def test_far_finite_mi_agreement_moderate_distance():
    from nessent.entanglement import measures

    geom = SubsystemGeometry(200, 20, 200, 20)
    fin = correlation_matrix_finite(CorrelationBuilder(IMPURITY, BIAS), geom)
    far = correlation_matrix_far(CorrelationBuilder(IMPURITY, BIAS), geom)
    mi_fin = measures(fin, "vn").mutual_info
    mi_far = measures(far, "vn").mutual_info
    assert abs(mi_fin - mi_far) < 0.05


def test_matrix_dump_round_trip(tmp_path):
    # a far matrix, a finite one, whose site matrix the dump assembles on
    # its first read, and a complex one built by hand
    builder = CorrelationBuilder(IMPURITY, BIAS)
    finite = correlation_matrix_finite(builder, SubsystemGeometry(4, 3, 2, 5))
    assert "matrix" not in vars(finite)
    rng = np.random.default_rng(5)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for cm in (
        correlation_matrix_far(builder, SubsystemGeometry(1, 3, 1, 2)),
        finite,
        CorrelationMatrix(0.25 * (h + h.conj().T), 1),
    ):
        path = tmp_path / "matrix.bin"
        write_matrix_dump(cm, path)
        back = read_matrix_dump(path)
        assert back.dtype == np.complex128 and back.shape == (cm.dim, cm.dim)
        assert back.tobytes() == cm.matrix.astype(np.complex128).tobytes()
        # layout: uint64 dim then row-major little-endian float64 pairs
        raw = path.read_bytes()
        assert len(raw) == 8 + 16 * cm.dim**2
        assert struct.unpack("<Q", raw[:8]) == (cm.dim,)


def test_partition_block_views():
    geom = SubsystemGeometry(1, 2, 1, 3)
    cm = correlation_matrix_far(CorrelationBuilder(IMPURITY, BIAS), geom)
    assert cm.block_left().matrix.shape == (2, 2)
    assert cm.block_right().matrix.shape == (3, 3)
    assert cm.cross_block().shape == (2, 3)
    assert (cm.n_left, cm.n_right, cm.dim) == (2, 3, 5)
    assert (cm.block_left().n_left, cm.block_right().n_left) == (2, 0)


def test_correlation_matrix_validates_shape_and_split():
    for n_left in (0, 2, 3):
        assert CorrelationMatrix(np.eye(3), n_left).n_right == 3 - n_left
    with pytest.raises(ValueError, match="square"):
        CorrelationMatrix(np.eye(3)[:2], 1)
    with pytest.raises(ValueError, match="square"):
        CorrelationMatrix(np.ones(3), 1)
    for n_left in (-1, 4):
        with pytest.raises(ValueError, match="outside"):
            CorrelationMatrix(np.eye(3), n_left)


def test_correlation_matrix_takes_nested_lists_through_the_same_checks():
    cm = CorrelationMatrix([[0.5, 0.0], [0.0, 0.5]], 1)
    assert isinstance(cm.matrix, np.ndarray) and (cm.n_left, cm.n_right) == (1, 1)
    with pytest.raises(NotHermitian, match="Hermiticity deviation"):
        CorrelationMatrix([[0.5, 0.2], [0.0, 0.5]], 1)
    with pytest.raises(NotHermitian, match="non-finite"):
        CorrelationMatrix([[0.5, float("nan")], [0.0, 0.5]], 1)
    with pytest.raises(ValueError, match="square"):
        CorrelationMatrix([0.5, 0.5], 1)


def test_correlation_matrix_rejects_nonhermitian():
    with pytest.raises(NotHermitian, match="Hermiticity deviation"):
        CorrelationMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
    # the tolerance is 1e-10 relative to max(1, largest entry)
    near = 0.5 * np.eye(2, dtype=complex)
    near[0, 1] = 0.5e-10j
    CorrelationMatrix(near, 1)
    near[0, 1] = 2e-10j
    with pytest.raises(NotHermitian, match="Hermiticity deviation 2.000e-10 exceeds 1.000e-10"):
        CorrelationMatrix(near, 1)
    assert CorrelationMatrix(np.zeros((0, 0)), 0).dim == 0
