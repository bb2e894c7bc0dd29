"""Decay rates, accumulated exponents, and the single-partition map.

The rate formulas are cross-checked against the correlation-function
quadrature in test_integrate; here the emphasis is on internal
identities: derivative relations between the accumulated exponents and
the rates, degenerate limits, and the algebraic structure tying the
propagation coefficients together.
"""

import cmath
import math
import re

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
from djcm.scenarios import PRESET_NAMES, preset_config, time_grid

MARKOV = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=5.0)
NONMARKOV = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=0.05)
STIFF = JcmParams(omega0=0.0, omega=50.0, gamma0=1.0, lam=5.0)

# positions of the independent entries in the coefficient vector
A11, A22, A12, A13, A23 = range(5)
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
    # each divisor of the rate formulas, and gamma0/lam, on its own
    for omega, gamma0, lam, culprit in (
        (1.0, 1.0, 1e-310, "divisor lam ="),
        (0.0, 1.0, 1e-160, "divisor 4*omega^2 + lam^2 ="),
        (0.0, 1.0, 1e-110, "divisor lam*(4*omega^2 + lam^2) ="),
        (1.0, 1e10, 1e-300, "gamma0/lam is infinite"),
    ):
        with pytest.raises(ValueError, match=re.escape(culprit)):
            JcmParams(omega0=0.0, omega=omega, gamma0=gamma0, lam=lam)
    # small but normal: the memoryless limit stays reachable
    assert JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=1e-300).lam == 1e-300


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
        # one bad entry of a time array is enough
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="non-negative"):
                fn(MARKOV, np.array([0.0, 1.0, bad]))


def test_time_arrays_match_scalar_calls():
    # an array of times is the batch axis: shape in, shape out, and each
    # entry equals the scalar call up to the last bits of numpy's
    # vectorised elementary functions
    ts = np.linspace(0.0, 12.0, 25).reshape(5, 5)
    for p in REGIMES:
        for fn in (decay_rate_minus, decay_rate_plus, integrated_rate_minus, integrated_rate_plus):
            batched = fn(p, ts)
            assert batched.shape == ts.shape
            scalar = np.array([fn(p, float(t)) for t in ts.ravel()]).reshape(ts.shape)
            assert np.abs(batched - scalar).max() <= 1e-14 * max(1.0, np.abs(scalar).max())
        tensor = transfer_tensor(p, ts[0])
        assert tensor.shape == (5, 3, 3, 3, 3)
        for k, t in enumerate(ts[0]):
            assert np.abs(tensor[k] - transfer_tensor(p, float(t))).max() < 1e-15
        c = coefficients(p, ts)
        assert c[..., A12].shape == c[..., A22].shape == ts.shape
    assert np.shape(coefficients(MARKOV, 1.0)[A12]) == ()
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    rho[0, 2] = rho[2, 0] = 0.1
    stack = propagate_single(rho, NONMARKOV, ts[1])
    assert stack.shape == (5, 3, 3)
    for k, t in enumerate(ts[1]):
        assert np.abs(stack[k] - propagate_single(rho, NONMARKOV, float(t))).max() < 1e-15


@pytest.mark.parametrize("as_array", [False, True])
def test_integrated_minus_keeps_digits_for_tiny_lam(as_array):
    # I_minus(t) ~ gamma0*lam*t^2/2 when lam*t << 1; the old form
    # gamma0*t + (gamma0/lam)*(exp(-lam*t) - 1) cancelled to 2.0 at
    # lam=1e-300 and to 4.4e-5 at lam=1e-12
    t = np.array([2.0]) if as_array else 2.0
    tiny = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=1e-300)
    assert np.abs(integrated_rate_minus(tiny, t)).max() <= 1e-15
    assert np.abs(decay_rate_minus(tiny, t)).max() <= 1e-299
    small = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=1e-12)
    expected = small.gamma0 * small.lam * 2.0**2 / 2.0
    assert np.abs(integrated_rate_minus(small, t) - expected).max() <= 1e-15
    x = small.lam * 2.0
    series = small.gamma0 * (x - x**2 / 2.0 + x**3 / 6.0)
    assert np.abs(decay_rate_minus(small, t) / series - 1.0).max() <= 1e-15


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


def test_upper_rate_stays_finite_when_lam_is_tiny():
    # the textbook form scales by 2 omega / lam, which overflows here
    p = JcmParams(omega0=0.0, omega=1e10, gamma0=1.0, lam=1e-300)
    assert np.isfinite(decay_rate_plus(p, [0.0, 1e-12, 1.0])).all()


def test_upper_rate_matches_the_textbook_form_on_the_presets():
    def textbook(p, t):
        lam, om = p.lam, p.omega
        pref = p.gamma0 * lam**2 / (4.0 * om**2 + lam**2)
        osc = (2.0 * om / lam) * np.sin(2.0 * om * t) - np.cos(2.0 * om * t)
        return pref * (1.0 + osc * np.exp(-lam * t))

    # relative to the largest rate on the grid: near its zeros the rate is
    # a difference of O(1) terms, where no form keeps relative digits
    for name in PRESET_NAMES:
        cfg = preset_config(name)
        t = time_grid(cfg)
        ref = textbook(cfg.params_a, t)
        assert np.abs(decay_rate_plus(cfg.params_a, t) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_integrated_minus_late_time_asymptote():
    # for lam*t >> 1 the exponent grows linearly with offset gamma0/lam
    p = MARKOV
    t = 50.0 / p.lam
    assert integrated_rate_minus(p, t) == pytest.approx(
        p.gamma0 * t - p.gamma0 / p.lam, abs=1e-12
    )


def test_integrated_minus_matches_quadrature_of_rate():
    from djcm.integrate import gauss_legendre

    for p in (MARKOV, NONMARKOV):
        for t in (0.5, 2.0, 7.0):
            panels = math.ceil(2.0 * t * p.lam / math.pi)  # lam * panel <= pi / 2
            quad = gauss_legendre(lambda tau: decay_rate_minus(p, tau), 0.0, t, panels)
            assert abs(quad - integrated_rate_minus(p, t)) < 1e-10


def test_coefficients_identity_at_t0():
    c = coefficients(MARKOV, 0.0)
    assert c[A11] == 1.0 and c[A22] == 1.0
    assert c[A12] == 1.0 + 0.0j and c[A13] == 1.0 + 0.0j and c[A23] == 1.0 + 0.0j
    identity = np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3))
    assert np.array_equal(transfer_tensor(MARKOV, 0.0), identity)


def test_coefficients_algebra():
    for p in REGIMES:
        for t in (0.4, 1.7, 6.0):
            c = coefficients(p, t)
            # coherence magnitude is the geometric mean of the populations
            assert abs(abs(c[A12]) - math.sqrt(c[A11].real * c[A22].real)) < 1e-13
            assert abs(c[A13]) == pytest.approx(math.exp(-0.25 * integrated_rate_plus(p, t)))
            assert abs(c[A23]) == pytest.approx(math.exp(-0.25 * integrated_rate_minus(p, t)))
            # trace preservation: sum_i T[i,i,k,l] is delta_kl, the ground
            # level collecting what the dressed populations lose
            trace_map = np.einsum("iikl->kl", transfer_tensor(p, t))
            assert np.abs(trace_map - np.eye(3)).max() < 1e-15


def test_coefficients_phases():
    p = JcmParams(omega0=2.0, omega=1.0, gamma0=1.0, lam=5.0)
    t = 0.9
    c = coefficients(p, t)
    assert cmath.phase(c[A12]) == pytest.approx(cmath.phase(cmath.exp(-2j * p.omega * t)))
    assert cmath.phase(c[A13]) == pytest.approx(
        cmath.phase(cmath.exp(-1j * (p.omega0 + p.omega) * t))
    )
    assert cmath.phase(c[A23]) == pytest.approx(
        cmath.phase(cmath.exp(-1j * (p.omega0 - p.omega) * t))
    )


def test_long_time_coefficients_vanish():
    c = coefficients(MARKOV, 200.0)
    assert c[A22].real < 1e-12  # resonant branch fully decayed
    assert c[A11].real < 1e-12  # detuned branch decayed too at these parameters
    assert abs(c[A12]) < 1e-12


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
