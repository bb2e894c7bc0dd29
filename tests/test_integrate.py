"""The numerical validators themselves: RK4 oracle and rate quadrature.

These routines exist to check the closed forms, so they get their own
scrutiny first: convergence at the right order, exactness of the
quadrature on polynomials, and agreement between the two independent
routes to the decay rates. The step-bound plumbing is exercised too,
since a silently under-resolved oracle would pass everything.
"""

import math

import numpy as np
import pytest

from djcm.evolution import propagate_pair
from djcm.integrate import (
    IntegratorConfig,
    adaptive_simpson,
    integrate_pair,
    integrate_single,
    max_step,
    oracle_config,
    rate_from_spectral_density,
)
from djcm.propagator import (
    JcmParams,
    decay_rate_minus,
    decay_rate_plus,
    propagate_single,
)
from djcm.states import initial_state

P = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=5.0)
P_MEMORY = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=0.05)
P_STIFF = JcmParams(omega0=0.0, omega=50.0, gamma0=1.0, lam=5.0)


def _uniform3() -> np.ndarray:
    v = np.full(3, 1.0 / math.sqrt(3.0), dtype=complex)
    return np.outer(v, v.conj())


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.1, t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.1, t_end=1.0, record_every=0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.3, t_end=1.0).n_steps()  # does not divide
    assert IntegratorConfig(step=0.1, t_end=1.0).n_steps() == 10


def test_max_step_tracks_fastest_timescale():
    assert max_step(P) == pytest.approx((1.0 / 50.0) / 5.0)
    assert max_step(P_STIFF) == pytest.approx((1.0 / 50.0) / 50.0)
    # the Rabi term drops out when the coupling is off
    degenerate = JcmParams(omega0=0.0, omega=0.0, gamma0=1.0, lam=0.5)
    assert max_step(degenerate) == pytest.approx((1.0 / 50.0) / 1.0)
    # joint bound is the tighter of the two partitions
    assert max_step(P, P_STIFF) == max_step(P_STIFF)


def test_oracle_config_lands_on_grid():
    cfg = oracle_config(15.0, 1501, P, P)
    assert cfg.t_end == 15.0
    assert cfg.n_steps() % cfg.record_every == 0
    assert cfg.step <= max_step(P, P) / 3.0 * (1.0 + 1e-12)
    spacing = 15.0 / 1500
    assert cfg.step * cfg.record_every == pytest.approx(spacing)
    with pytest.raises(ValueError):
        oracle_config(15.0, 1, P)


def test_step_bound_enforced():
    cfg = IntegratorConfig(step=0.1, t_end=1.0)  # way above the bound for P
    with pytest.raises(ValueError, match="stability bound"):
        integrate_single(_uniform3(), P, cfg)
    with pytest.raises(ValueError, match="stability bound"):
        integrate_pair(initial_state(1.0), P, P, cfg)


def test_ground_state_is_fixed_point():
    ground = np.zeros((3, 3), dtype=complex)
    ground[2, 2] = 1.0
    cfg = IntegratorConfig(step=0.002, t_end=1.0, record_every=100)
    traj = integrate_single(ground, P, cfg)
    assert np.abs(traj.states - ground).max() < 1e-14


def test_vanishing_coupling_reduces_to_free_rotation():
    # gamma0 -> 0 leaves pure phase evolution; populations frozen
    p = JcmParams(omega0=0.0, omega=1.0, gamma0=1e-12, lam=5.0)
    rho0 = _uniform3()
    cfg = IntegratorConfig(step=0.002, t_end=2.0, record_every=1000)
    traj = integrate_single(rho0, p, cfg)
    final = traj.states[-1]
    assert np.abs(final.diagonal() - rho0.diagonal()).max() < 1e-9
    # coherence between the dressed branches rotates at 2 omega
    expected = rho0[0, 1] * np.exp(-2j * p.omega * 2.0)
    assert abs(final[0, 1] - expected) < 1e-9


def test_rk4_matches_closed_form_single():
    rho0 = _uniform3()
    cfg = oracle_config(15.0, 151, P)
    traj = integrate_single(rho0, P, cfg)
    worst = 0.0
    for t, state in zip(traj.times, traj.states):
        exact = propagate_single(rho0, P, float(t))
        worst = max(worst, float(np.abs(state - exact).max()))
    assert worst < 1e-6


def test_rk4_is_fourth_order():
    # halving the step should cut the error by about 2^4
    rho0 = initial_state(1.0)
    errors = []
    for step in (0.004, 0.002):
        cfg = IntegratorConfig(step=step, t_end=2.0, record_every=int(round(2.0 / step)))
        traj = integrate_pair(rho0, P, P, cfg)
        exact = propagate_pair(rho0, P, P, 2.0)
        errors.append(float(np.abs(traj.states[-1] - exact).max()))
    ratio = errors[0] / errors[1]
    assert 12.0 < ratio < 20.0, f"convergence ratio {ratio:.2f} not fourth order"


def test_pair_integration_factorizes_for_product_states():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho_a = a @ a.conj().T
    rho_a /= rho_a.trace()
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho_b = b @ b.conj().T
    rho_b /= rho_b.trace()
    cfg = oracle_config(3.0, 31, P, P_MEMORY)
    joint = integrate_pair(np.kron(rho_a, rho_b), P, P_MEMORY, cfg)
    left = integrate_single(rho_a, P, cfg)
    right = integrate_single(rho_b, P_MEMORY, cfg)
    for js, ls, rs in zip(joint.states, left.states, right.states):
        assert np.abs(js - np.kron(ls, rs)).max() < 1e-8


def test_trajectory_bookkeeping():
    cfg = oracle_config(2.0, 21, P)
    traj = integrate_single(_uniform3(), P, cfg)
    assert len(traj) == 21
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(2.0)
    assert np.abs(np.diff(traj.times) - 0.1).max() < 1e-12
    assert traj.params == (P,)


def test_adaptive_simpson_polynomial_exactness():
    # Simpson is exact through cubics; the adaptive wrapper must
    # terminate on the first level for them
    # antiderivative x^4/4 - x^2 + x between -1 and 2: 2 - (-7/4)
    assert adaptive_simpson(lambda x: x**3 - 2 * x + 1, -1.0, 2.0) == pytest.approx(
        3.75, abs=1e-13
    )
    assert adaptive_simpson(lambda x: 5.0, 0.0, 10.0) == pytest.approx(50.0)
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)
    assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0
    # reversed limits come out with the sign flipped
    assert adaptive_simpson(lambda x: x, 1.0, 0.0) == pytest.approx(-0.5)


def test_adaptive_simpson_depth_guard():
    with pytest.raises(RuntimeError, match="depth"):
        adaptive_simpson(lambda x: math.sin(1.0 / (x + 1e-30)), 0.0, 1.0, tol=1e-14, max_depth=6)


def test_quadrature_rate_matches_lower_branch():
    # at the reservoir center frequency the quadrature must reproduce
    # the saturating rate of the resonant dressed transition
    for p in (P, P_MEMORY, P_STIFF):
        omega_res = p.omega0 - p.omega
        for t in np.linspace(0.0, 10.0, 11):
            quad = rate_from_spectral_density(p, omega_res, float(t))
            assert abs(quad - decay_rate_minus(p, float(t))) < 1e-8


def test_quadrature_rate_matches_upper_branch():
    # the upper dressed transition sits 2 omega above the center and
    # picks up the oscillating-memory rate
    for p in (P, P_MEMORY, P_STIFF):
        omega_up = p.omega0 + p.omega
        for t in np.linspace(0.0, 10.0, 11):
            quad = rate_from_spectral_density(p, omega_up, float(t))
            assert abs(quad - decay_rate_plus(p, float(t))) < 1e-8


def test_quadrature_rate_generic_detuning_long_time_lorentzian():
    # t -> inf limit of the rate is the Lorentzian spectral density
    p = P
    for detuning in (0.7, 3.0, 12.0):
        omega = p.omega0 - p.omega + detuning
        quad = rate_from_spectral_density(p, omega, 400.0)
        lorentz = p.gamma0 * p.lam**2 / (p.lam**2 + detuning**2)
        assert abs(quad - lorentz) < 1e-6


def test_quadrature_rejects_negative_time():
    with pytest.raises(ValueError):
        rate_from_spectral_density(P, 0.0, -1.0)
