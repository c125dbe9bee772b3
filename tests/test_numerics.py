import numpy as np
import pytest

from nessent.numerics import (
    FILON_MIN_PHASE,
    NonConvergence,
    QuadratureSpec,
    Singular,
    eig_general,
    eig_hermitian,
    eigh_hermitian,
    integrate,
    integrate_oscillatory,
    integrate_oscillatory_batch,
    mat_inverse,
)

SPEC = QuadratureSpec(abs_tol=1e-12)


def alternating_zeta2():
    # sum_{k>=1} (-1)^(k+1)/k^2 = pi^2/12; truncating an alternating series
    # halfway into the next term leaves an error ~ 1/K^3, far below 1e-12
    k = np.arange(1, 100_002, dtype=float)
    terms = (-1.0) ** (k + 1) / k**2
    return terms[:-1].sum() + 0.5 * terms[-1]


def test_integrate_polynomial_exact():
    assert abs(integrate(lambda x: x, 0.0, 1.0, SPEC) - 0.5) < 1e-13


def test_integrate_sine():
    assert abs(integrate(np.sin, 0.0, np.pi, SPEC) - 2.0) < 1e-12


def test_integrate_log_singularity_dilogarithm():
    oracle = alternating_zeta2()
    val = integrate(lambda x: np.log1p(x) / x, 0.0, 1.0, SPEC, singular_left=True)
    assert abs(val - oracle) < 1e-11


def test_integrate_empty_range():
    assert integrate(np.sin, 1.0, 1.0, SPEC) == 0.0


def test_integrate_rejects_reversed_range():
    with pytest.raises(ValueError):
        integrate(np.sin, 1.0, 0.0, SPEC)


def test_integrate_nonconvergence_on_budget():
    tiny = QuadratureSpec(abs_tol=1e-14, max_panels=4)
    with pytest.raises(NonConvergence):
        integrate(lambda x: np.sin(40 * x) / (x + 1e-3), 0.0, 3.0, tiny)


def test_oscillatory_closed_form_fast_phase():
    val = integrate_oscillatory(lambda k: np.ones_like(k), 200.0, 0.0, np.pi, SPEC)
    exact = (np.exp(1j * 200 * np.pi) - 1.0) / (200j)
    assert abs(val - exact) < 1e-10


def test_oscillatory_zero_phase_is_plain_length():
    val = integrate_oscillatory(lambda k: np.ones_like(k), 0.0, -1.0, 2.5, SPEC)
    assert abs(val - 3.5) < 1e-12


def test_oscillatory_self_consistency_two_paths():
    # same integrand evaluated with the oscillatory rule and with the plain
    # adaptive rule given a 10x larger panel budget
    f = lambda k: np.sin(k) ** 2 / (np.sin(k) ** 2 + 1.0)
    g = lambda k: f(k) * np.exp(1j * 500.0 * k)
    a = integrate_oscillatory(f, 500.0, np.pi / 2, 2 * np.pi / 3, QuadratureSpec(abs_tol=1e-12, max_panels=2000))
    b = integrate(g, np.pi / 2, 2 * np.pi / 3, QuadratureSpec(abs_tol=1e-12, max_panels=20000))
    assert abs(a - b) < 1e-9


def test_oscillatory_batch_consecutive_rates_closed_form():
    rates = np.arange(-3, 61)
    vals = integrate_oscillatory_batch(lambda k: np.ones_like(k), rates, 0.0, np.pi, SPEC)
    safe = np.where(rates == 0, 1, rates)
    exact = np.where(rates == 0, np.pi, (np.exp(1j * rates * np.pi) - 1.0) / (1j * safe))
    assert np.abs(vals - exact).max() < 1e-12
    for bad in ([0, 2, 3], [0.5, 1.5]):
        with pytest.raises(ValueError):
            integrate_oscillatory_batch(lambda k: np.ones_like(k), bad, 0.0, 1.0, SPEC)


def exp_cos_batch(rates, a, b):
    """int_a^b exp(0.3 k) cos(k) exp(i r k) dk in closed form."""
    out = 0.0
    for z in (0.3 + 1j * (rates + 1), 0.3 + 1j * (rates - 1)):
        out = out + 0.5 * (np.exp(z * b) - np.exp(z * a)) / z
    return out


def recorded(f, sizes):
    def g(k):
        sizes.append(int(np.size(k)))
        return f(k)

    return g


@pytest.mark.parametrize("r0, filon", [(511, False), (512, True), (-575, True), (8000, True)])
def test_oscillatory_batch_rule_switches_at_filon_min_phase(r0, filon):
    # on [0, 1] the phase extent of rate r is r/2, so the block of r0 = 512
    # is the first at FILON_MIN_PHASE
    assert (abs(r0) * 0.5 >= FILON_MIN_PHASE) == filon
    rates = np.arange(r0, r0 + 64)
    sizes = []
    f = lambda k: np.exp(0.3 * k) * np.cos(k)
    vals = integrate_oscillatory_batch(recorded(f, sizes), rates, 0.0, 1.0, SPEC)
    assert np.abs(vals - exp_cos_batch(rates, 0.0, 1.0)).max() < 1e-14
    if not filon:
        # Gauss-Legendre: one panel per period of the fastest rate, then twice as many
        panels = int(np.ceil(np.abs(rates).max() / (2 * np.pi))) + 1
        assert sizes[:2] == [16 * panels, 32 * panels]
        return
    # Filon-Clenshaw-Curtis, whatever the rate: N + 1 and 2N + 1 points in
    # the first round, 2N + 1 in each later one, N doubling from nodes_per_panel
    assert sizes == [16 * 2**j + 1 for j in range(len(sizes))]


def test_oscillatory_batch_filon_falls_back_to_gauss_legendre_budget():
    rates = np.arange(4000, 4064)
    f = lambda k: np.exp(0.3 * k) * np.cos(k)
    # one panel of 16 nodes: no Chebyshev degree fits, and the grid needs hundreds
    with pytest.raises(NonConvergence, match="needs"):
        integrate_oscillatory_batch(f, rates, 0.0, 1.0, QuadratureSpec(abs_tol=1e-12, max_panels=1))
    # a kink is not resolved by any Chebyshev degree within the stability bound
    # (2N <= 2000), so the block is handed to the grid
    sizes = []
    kink = lambda k: np.abs(k - 0.5)
    vals = integrate_oscillatory_batch(recorded(kink, sizes), rates, 0.0, 1.0, SPEC)
    assert sizes[:7] == [16 * 2**j + 1 for j in range(7)] and max(sizes) > 10_000
    fine = QuadratureSpec(abs_tol=1e-13, max_panels=5000)
    exact = [integrate_oscillatory(kink, r, 0.0, 1.0, fine) for r in (4000, 4063)]
    assert np.abs(vals[[0, -1]] - exact).max() < 1e-11


def test_oscillatory_panel_budget_raises():
    with pytest.raises(NonConvergence):
        integrate_oscillatory(lambda k: np.ones_like(k), 1e7, 0.0, np.pi, QuadratureSpec(max_panels=100))


def test_eig_hermitian_identity():
    assert np.allclose(eig_hermitian(np.eye(3)), [1, 1, 1])


def test_eig_hermitian_pauli_x():
    vals = eig_hermitian(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(vals, [-1.0, 1.0])


def test_eig_hermitian_cubic_oracle():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = 0.5 * (m + m.conj().T)
    # characteristic cubic expanded explicitly from the entries
    tr = np.trace(m).real
    sum2 = 0.5 * (np.trace(m).real ** 2 - np.trace(m @ m).real)
    det = np.linalg.det(m).real
    roots = np.roots([1.0, -tr, sum2, -det])
    assert np.abs(roots.imag).max() < 1e-8
    assert np.allclose(np.sort(roots.real), eig_hermitian(m), atol=1e-10)


def test_eig_hermitian_known_decomposition():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    _, u = np.linalg.eigh(h + h.conj().T)
    lam = np.sort(rng.uniform(-2, 2, size=6))
    m = (u * lam) @ u.conj().T
    assert np.abs(eig_hermitian(m) - lam).max() < 1e-10
    nu, vecs = eigh_hermitian(m)
    assert np.abs(nu - lam).max() < 1e-10
    assert np.abs((vecs * nu) @ vecs.conj().T - m).max() < 1e-10
    assert np.abs(vecs.conj().T @ vecs - np.eye(6)).max() < 1e-12


def test_eig_hermitian_trace_sum():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = 0.5 * (m + m.conj().T)
    assert abs(eig_hermitian(m).sum() - np.trace(m).real) < 1e-9 * 8


def test_eig_general_diagonal():
    vals = eig_general(np.diag([2.0, 3.0j]))
    assert sorted(vals, key=lambda z: z.real) == pytest.approx([3.0j, 2.0])


def test_eig_general_nilpotent():
    vals = eig_general(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.abs(vals).max() < 1e-12


def test_eig_general_determinant_residual_oracle():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    norm = np.linalg.norm(m, 2)
    for lam in eig_general(m):
        assert abs(np.linalg.det(m - lam * np.eye(4))) < 1e-8 * norm**4


def test_eig_general_similarity_invariance():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    s = rng.normal(size=(5, 5)) + np.eye(5) * 4.0
    transformed = np.linalg.solve(s, m @ s)
    a = np.sort_complex(eig_general(m))
    b = np.sort_complex(eig_general(transformed))
    assert np.abs(a - b).max() < 1e-8


def test_eig_general_trace_sum():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert abs(eig_general(m).sum() - np.trace(m)) < 1e-8 * 6


def test_inverse_identity_and_diagonal():
    assert np.allclose(mat_inverse(np.eye(4)), np.eye(4))
    assert np.allclose(mat_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))


def test_inverse_residual_oracle():
    rng = np.random.default_rng(19)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) + 3.0 * np.eye(5)
    inv = mat_inverse(m)
    assert np.abs(m @ inv - np.eye(5)).max() < 1e-10


def test_inverse_singular_raises():
    with pytest.raises(Singular):
        mat_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_quadrature_spec_invariants():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(nodes_per_panel=2)
    with pytest.raises(ValueError):
        QuadratureSpec(max_panels=0)
