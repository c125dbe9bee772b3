import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import wavefunction
from nessent.scattering import (
    BiasState,
    ConstantTransmission,
    DomainError,
    PoleData,
    SingleImpurity,
    TrivialScatterer,
    transmission,
)

def test_no_impurity_is_transparent():
    r_l, _, t_l, _ = SingleImpurity(0.0).amplitudes(1.234)
    assert t_l == pytest.approx(1.0)
    assert abs(r_l) < 1e-15


def test_impurity_transmission_four_fifths():
    assert transmission(SingleImpurity(1.0, 1.0), np.pi / 2) == pytest.approx(0.8, abs=1e-14)


@pytest.mark.parametrize("k", np.linspace(0.05, np.pi - 0.05, 25))
def test_impurity_matches_lorentzian_profile(k):
    for eps, eta in ((0.5, 1.0), (2.0, 0.7)):
        expected = np.sin(k) ** 2 / (np.sin(k) ** 2 + (eps / (2 * eta)) ** 2)
        assert abs(transmission(SingleImpurity(eps, eta), k) - expected) < 1e-14


def test_constant_model_values():
    model = ConstantTransmission(0.3)
    assert transmission(model, 0.8) == pytest.approx(0.3)
    assert 1.0 - transmission(model, 0.8) == pytest.approx(0.7)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.0, 5.0),
    st.floats(1e-3, np.pi - 1e-3),
)
def test_transmission_plus_reflection_is_one(eps, k):
    r_l, _, t_l, _ = SingleImpurity(eps).amplitudes(k)
    assert abs(t_l) ** 2 + abs(r_l) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_symmetric_scatterer_cross_cancellation():
    # r_l t_l^* + t_r r_r^* = 0 underlies the vanishing of the cross block
    # below the voltage window
    rng = np.random.default_rng(0)
    for _ in range(50):
        model = SingleImpurity(rng.uniform(0, 4.0), rng.uniform(0.2, 2.0))
        k = rng.uniform(1e-3, np.pi - 1e-3)
        r_l, t_r, t_l, r_r = model.amplitudes(k)
        assert abs(r_l * np.conj(t_l) + t_r * np.conj(r_r)) < 1e-12
        assert t_l == t_r


def test_transmission_continuity():
    model = SingleImpurity(1.3)
    delta = 1e-6
    for k in np.linspace(0.3, np.pi - 0.3, 50):
        assert abs(transmission(model, k + delta) - transmission(model, k)) < 10.0 * delta


def test_momentum_domain_errors():
    model = SingleImpurity(1.0)
    for k in (0.0, np.pi, -0.2, 4.0):
        with pytest.raises(DomainError):
            transmission(model, k)


def test_wavefunction_trivial_plane_wave():
    k = 0.9
    val = wavefunction(TrivialScatterer(), k, 7)
    assert val == pytest.approx(np.exp(1j * k * 7))


def test_wavefunction_transmitted_amplitude():
    # left-incoming at the band center lands on the right as t * e^{ikm}
    model = SingleImpurity(2.0, 1.0)
    k = np.pi / 2
    t = 1.0 / (1.0 + 1j)
    assert wavefunction(model, k, 5) == pytest.approx(t * np.exp(1j * 5 * k))


def test_wavefunction_unitarity_identity():
    # |u_m|^2 + |u_-m|^2 = |1 + r e^{-2ikm}|^2 + |t|^2 for a left-incoming state
    rng = np.random.default_rng(1)
    for _ in range(50):
        model = SingleImpurity(rng.uniform(0.1, 3.0))
        k = rng.uniform(0.05, np.pi - 0.05)
        m = rng.integers(1, 40)
        r_l, _, t_l, _ = model.amplitudes(k)
        left = wavefunction(model, k, -int(m))
        right = wavefunction(model, k, int(m))
        expected = abs(1.0 + r_l * np.exp(2j * k * m)) ** 2 + abs(t_l) ** 2
        assert abs(left * np.conj(left) + right * np.conj(right) - expected) < 1e-12


def test_wavefunction_domain_errors():
    model = SingleImpurity(1.0)
    with pytest.raises(DomainError):
        wavefunction(model, 0.5, 0)  # the scatterer's site
    with pytest.raises(DomainError):
        wavefunction(model, 3.5, 4)  # outside the band


def test_bias_state_validation_and_window():
    bias = BiasState(2 * np.pi / 3, np.pi / 2)
    assert bias.k_minus == np.pi / 2
    assert bias.k_plus == 2 * np.pi / 3
    assert bias.window_width == pytest.approx(np.pi / 6)
    with pytest.raises(ValueError):
        BiasState(0.0, 1.0)
    with pytest.raises(ValueError):
        BiasState(1.0, np.pi)


def evaluate(f, k):
    """A PoleData function at the momenta k, on z = e^{ik}."""
    z = np.exp(1j * np.asarray(k))
    return f.const + sum(c / (z - p) for c, p in zip(f.residues, f.poles))


@pytest.mark.parametrize(
    "model",
    [SingleImpurity(1.0), SingleImpurity(0.02), SingleImpurity(-0.7), SingleImpurity(2.5, 0.8), SingleImpurity(0.0),
     SingleImpurity(1e4), ConstantTransmission(0.3), ConstantTransmission(1.0), TrivialScatterer()],
    ids=lambda m: repr(m),
)
def test_pole_data_states_the_amplitudes(model):
    # on the unit circle the rational functions are the amplitudes, and each
    # single-impurity pole pair has one pole inside the circle, one outside
    k = np.linspace(1e-3, np.pi - 1e-3, 401)
    for f, amplitude in zip(model.pole_data(), model.amplitudes(k)):
        assert np.abs(evaluate(f, k) - amplitude).max() < 1e-12
    poles = model.pole_data()[2].poles
    assert sorted(abs(p) < 1 for p in poles) == ([False, True] if poles else [])


def test_pole_data_conjugate_and_product_on_the_unit_circle():
    r, t, _, _ = SingleImpurity(0.5).pole_data()
    k = np.linspace(0.01, 3.1, 101)
    assert np.abs(evaluate(t.conj(), k) - np.conj(evaluate(t, k))).max() < 1e-13
    assert np.abs(evaluate(t.conj() * t, k) - np.abs(evaluate(t, k)) ** 2).max() < 1e-13
    assert np.abs(evaluate(t.conj() * r, k) - np.conj(evaluate(t, k)) * evaluate(r, k)).max() < 1e-13
    with pytest.raises(ValueError, match="double pole"):
        t * r


@pytest.mark.parametrize("epsilon0", [1e-17, -1e-300, 0.0])
def test_single_impurity_poles_that_round_onto_the_circle_are_dropped(epsilon0):
    assert SingleImpurity(epsilon0).pole_data() == TrivialScatterer().pole_data()


@pytest.mark.parametrize(
    "args",
    [(1.0, [1.0], []), (np.nan,), (0.0, [np.inf], [2.0]), (0.0, [1.0], [0.0]), (0.0, [1.0], [1j])],
    ids=["lengths", "nan", "inf", "zero pole", "pole on the circle"],
)
def test_pole_data_rejects_malformed_input(args):
    with pytest.raises(ValueError):
        PoleData(*args)
