"""Decay rates, accumulated exponents, and the single-partition map.

The rate formulas are cross-checked against the correlation-function
quadrature in test_integrate; here the emphasis is on internal
identities: derivative relations between the accumulated exponents and
the rates, degenerate limits, and the algebraic structure tying the
propagation coefficients together.
"""

import cmath
import math

import numpy as np
import pytest

from djcm.propagator import (
    JcmParams,
    coefficients,
    decay_rate_minus,
    decay_rate_plus,
    integrated_rate_minus,
    integrated_rate_plus,
    propagate_single,
    transfer_tensor,
)

MARKOV = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=5.0)
NONMARKOV = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=0.05)
STIFF = JcmParams(omega0=0.0, omega=50.0, gamma0=1.0, lam=5.0)
REGIMES = (MARKOV, NONMARKOV, STIFF)


def test_params_validation():
    with pytest.raises(ValueError):
        JcmParams(omega0=0.0, omega=1.0, gamma0=0.0, lam=1.0)
    with pytest.raises(ValueError):
        JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=-1.0)
    with pytest.raises(ValueError):
        JcmParams(omega0=0.0, omega=-1.0, gamma0=1.0, lam=1.0)
    with pytest.raises(ValueError):
        JcmParams(omega0=-0.1, omega=1.0, gamma0=1.0, lam=1.0)
    for field in ("omega0", "omega", "gamma0", "lam"):
        for bad in (math.nan, math.inf):
            values = {"omega0": 0.0, "omega": 1.0, "gamma0": 1.0, "lam": 1.0, field: bad}
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                JcmParams(**values)


def test_markovian_classifier():
    assert MARKOV.markovian
    assert not NONMARKOV.markovian
    assert not JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=1.9).markovian


def test_rates_start_at_zero():
    for p in REGIMES:
        assert decay_rate_minus(p, 0.0) == 0.0
        assert decay_rate_plus(p, 0.0) == 0.0
        assert integrated_rate_minus(p, 0.0) == 0.0
        assert integrated_rate_plus(p, 0.0) == 0.0


def test_rate_minus_frozen_value():
    p = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=1.0)
    assert decay_rate_minus(p, 1.0) == pytest.approx(0.6321205588285577, abs=1e-15)


def test_rate_minus_saturates_at_gamma0():
    for p in REGIMES:
        assert decay_rate_minus(p, 200.0 / p.lam) == pytest.approx(p.gamma0, rel=1e-12)


def test_negative_time_rejected():
    for fn in (decay_rate_minus, decay_rate_plus, integrated_rate_minus, integrated_rate_plus):
        with pytest.raises(ValueError):
            fn(MARKOV, -0.1)


def test_rate_plus_can_go_negative_only_when_non_markovian():
    ts = np.linspace(0.0, 20.0, 4001)
    markov_min = min(decay_rate_plus(MARKOV, float(t)) for t in ts)
    nonmarkov_min = min(decay_rate_plus(NONMARKOV, float(t)) for t in ts)
    assert markov_min >= 0.0
    assert nonmarkov_min < 0.0  # information backflow


def test_accumulated_are_antiderivatives():
    # central difference dI/dt against the rate itself
    h = 1e-5
    for p in REGIMES:
        for t in np.linspace(0.3, 12.0, 25):
            t = float(t)
            dm = (integrated_rate_minus(p, t + h) - integrated_rate_minus(p, t - h)) / (2 * h)
            dp = (integrated_rate_plus(p, t + h) - integrated_rate_plus(p, t - h)) / (2 * h)
            assert abs(dm - decay_rate_minus(p, t)) < 1e-8
            assert abs(dp - decay_rate_plus(p, t)) < 1e-7


def test_degenerate_coupling_collapses_branches():
    # omega=0 removes the dressed splitting: both branches see the
    # reservoir on resonance and the two exponents coincide
    p = JcmParams(omega0=0.0, omega=0.0, gamma0=1.0, lam=2.0)
    for t in (0.1, 0.7, 3.0, 20.0):
        assert decay_rate_plus(p, t) == pytest.approx(decay_rate_minus(p, t), rel=1e-13)
        assert integrated_rate_plus(p, t) == pytest.approx(
            integrated_rate_minus(p, t), rel=1e-13
        )


def test_integrated_minus_late_time_asymptote():
    # for lam*t >> 1 the exponent grows linearly with offset gamma0/lam
    p = MARKOV
    t = 50.0 / p.lam
    assert integrated_rate_minus(p, t) == pytest.approx(
        p.gamma0 * t - p.gamma0 / p.lam, abs=1e-12
    )


def test_integrated_minus_matches_quadrature_of_rate():
    from djcm.integrate import adaptive_simpson

    for p in (MARKOV, NONMARKOV):
        for t in (0.5, 2.0, 7.0):
            quad = adaptive_simpson(lambda tau: decay_rate_minus(p, tau), 0.0, t, tol=1e-12)
            assert abs(quad - integrated_rate_minus(p, t)) < 1e-10


def test_coefficients_identity_at_t0():
    c = coefficients(MARKOV, 0.0)
    assert c.a11 == 1.0 and c.a22 == 1.0
    assert c.a12 == 1.0 + 0.0j and c.a13 == 1.0 + 0.0j and c.a23 == 1.0 + 0.0j
    assert c.a33_11 == 0.0 and c.a33_22 == 0.0
    identity = np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3))
    assert np.array_equal(transfer_tensor(MARKOV, 0.0), identity)


def test_coefficients_algebra():
    for p in REGIMES:
        for t in (0.4, 1.7, 6.0):
            c = coefficients(p, t)
            # coherence magnitude is the geometric mean of the populations
            assert abs(abs(c.a12) - math.sqrt(c.a11 * c.a22)) < 1e-13
            assert abs(c.a13) == pytest.approx(math.exp(-0.25 * integrated_rate_plus(p, t)))
            assert abs(c.a23) == pytest.approx(math.exp(-0.25 * integrated_rate_minus(p, t)))
            assert c.a33_11 == pytest.approx(1.0 - c.a11)
            assert c.a33_22 == pytest.approx(1.0 - c.a22)


def test_coefficients_phases():
    p = JcmParams(omega0=2.0, omega=1.0, gamma0=1.0, lam=5.0)
    t = 0.9
    c = coefficients(p, t)
    assert cmath.phase(c.a12) == pytest.approx(cmath.phase(cmath.exp(-2j * p.omega * t)))
    assert cmath.phase(c.a13) == pytest.approx(
        cmath.phase(cmath.exp(-1j * (p.omega0 + p.omega) * t))
    )
    assert cmath.phase(c.a23) == pytest.approx(
        cmath.phase(cmath.exp(-1j * (p.omega0 - p.omega) * t))
    )


def test_long_time_coefficients_vanish():
    c = coefficients(MARKOV, 200.0)
    assert c.a22 < 1e-12  # resonant branch fully decayed
    assert c.a11 < 1e-12  # detuned branch decayed too at these parameters
    assert abs(c.a12) < 1e-12


def test_propagate_single_identity_and_fixed_point():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = a @ a.conj().T
    rho /= rho.trace()
    assert np.abs(propagate_single(rho, MARKOV, 0.0) - rho).max() < 1e-14

    ground = np.zeros((3, 3), dtype=complex)
    ground[2, 2] = 1.0
    for t in (0.5, 3.0, 40.0):
        assert np.abs(propagate_single(ground, MARKOV, t) - ground).max() == 0.0


def test_propagate_single_everything_decays_to_ground():
    v = np.full(3, 1.0 / math.sqrt(3.0), dtype=complex)
    rho = np.outer(v, v.conj())
    out = propagate_single(rho, MARKOV, 300.0)
    ground = np.zeros((3, 3), dtype=complex)
    ground[2, 2] = 1.0
    assert np.abs(out - ground).max() < 1e-12


def test_propagate_single_keeps_state_valid():
    v = np.array([0.6, 0.0, 0.8], dtype=complex)
    rho = np.outer(v, v.conj())
    for p in REGIMES:
        for t in np.linspace(0.0, 10.0, 11):
            out = propagate_single(rho, p, float(t))
            assert abs(out.trace() - 1.0) < 1e-13
            assert np.abs(out - out.conj().T).max() < 1e-13
            assert np.linalg.eigvalsh(out).min() > -1e-12


def test_propagate_single_rejects_bad_input():
    with pytest.raises(ValueError):
        propagate_single(np.eye(3), MARKOV, 1.0)  # trace 3
    with pytest.raises(ValueError):
        propagate_single(np.eye(3) / 3.0, MARKOV, -1.0)
