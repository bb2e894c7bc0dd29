"""The numerical validators themselves: RK4 oracle and rate quadrature.

These routines exist to check the closed forms, so they get their own
scrutiny first: convergence at the right order, exactness of the
quadrature on polynomials, and agreement between the two independent
routes to the decay rates. The step-bound plumbing is exercised too,
since a silently under-resolved oracle would pass everything.
"""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from djcm import integrate
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
from djcm.scenarios import PRESET_NAMES, preset_config
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


def test_oracle_config_refuses_plans_beyond_the_step_cap():
    # the largest preset plans 225,000 steps; omega = 1e10 would plan ~3e10
    assert oracle_config(30.0, 1501, P_STIFF, P_STIFF).n_steps() == 225_000
    fast = JcmParams(omega0=0.0, omega=1e10, gamma0=1.0, lam=5.0)
    with pytest.raises(ValueError, match=f"cap of {integrate.MAX_RK4_STEPS}"):
        oracle_config(15.0, 1501, fast)


def test_step_bound_enforced():
    cfg = IntegratorConfig(step=0.1, t_end=1.0)  # way above the bound for P
    with pytest.raises(ValueError, match="stability bound"):
        integrate_single(_uniform3(), P, cfg)
    with pytest.raises(ValueError, match="stability bound"):
        integrate_pair(initial_state(1.0), P, P, cfg)


def _random_matrix(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _dressed_h(p: JcmParams) -> np.ndarray:
    return np.diag([0.5 * p.omega0 + p.omega, 0.5 * p.omega0 - p.omega, -0.5 * p.omega0])


def _master_equation(rho, h, jumps, rates):
    """-i[h, rho] + sum_c g_c (S rho S^dag / 2 - {S^dag S, rho} / 4), written out."""
    out = -1j * (h @ rho - rho @ h)
    for s, g in zip(jumps, rates):
        proj = s.conj().T @ s
        out = out + g * (0.5 * s @ rho @ s.conj().T - 0.25 * (proj @ rho + rho @ proj))
    return out


def test_superoperator_matches_matrix_form():
    # fig3c-like memory (lam < 2 omega) with different partitions; the
    # times include instants where the upper-branch rate is negative
    p_a = JcmParams(omega0=0.3, omega=1.0, gamma0=1.0, lam=0.05)
    p_b = JcmParams(omega0=0.3, omega=1.5, gamma0=1.0, lam=0.2)
    times = np.array([0.0, 1.7, 2.0, 4.9, 11.3])
    assert (decay_rate_plus(p_a, times) < 0.0).any()
    assert (decay_rate_plus(p_b, times) < 0.0).any()
    rng = np.random.default_rng(5)
    s_plus = np.zeros((3, 3))
    s_plus[2, 0] = 1.0
    s_minus = np.zeros((3, 3))
    s_minus[2, 1] = 1.0
    eye = np.eye(3)

    single = integrate._single_generator(p_a).at(times)
    pair = integrate._pair_generator(p_a, p_b).at(times)
    for i, t in enumerate(times):
        rho = _random_matrix(rng, 3)
        expected = _master_equation(
            rho, _dressed_h(p_a), (s_plus, s_minus),
            (decay_rate_plus(p_a, t), decay_rate_minus(p_a, t)),
        )
        got = (single[i] @ rho.reshape(-1)).reshape(3, 3)
        assert np.abs(got - expected).max() < 1e-13 * max(1.0, np.abs(expected).max())

        rho = _random_matrix(rng, 9)
        h = np.kron(_dressed_h(p_a), eye) + np.kron(eye, _dressed_h(p_b))
        jumps = (np.kron(s_plus, eye), np.kron(s_minus, eye), np.kron(eye, s_plus), np.kron(eye, s_minus))
        rates = (
            decay_rate_plus(p_a, t), decay_rate_minus(p_a, t),
            decay_rate_plus(p_b, t), decay_rate_minus(p_b, t),
        )
        expected = _master_equation(rho, h, jumps, rates)
        got = (pair[i] @ rho.reshape(-1)).reshape(9, 9)
        assert np.abs(got - expected).max() < 1e-13 * max(1.0, np.abs(expected).max())


def test_oracle_stays_independent_of_the_closed_form():
    # the oracle may share the raw rates and parameter type with the closed
    # form, nothing else: no coefficients, transfer tensors or propagation
    tree = ast.parse(Path(integrate.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("djcm")):
            module = (node.module or "").removeprefix("djcm.")
            imported |= {f"{module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("djcm") for alias in node.names)
    assert imported == {
        "linalg.validate_density_matrix",
        "propagator.JcmParams",
        "propagator.decay_rate_minus",
        "propagator.decay_rate_plus",
    }


def test_rate_chunks_do_not_change_the_trajectory(monkeypatch):
    cfg = oracle_config(1.0, 11, P, P_MEMORY)
    assert cfg.n_steps() > 100 and cfg.record_every > 1
    rho0 = initial_state(0.7)
    monkeypatch.setattr(integrate, "_STEP_CHUNK", cfg.n_steps())  # one chunk
    whole = integrate_pair(rho0, P, P_MEMORY, cfg)
    monkeypatch.setattr(integrate, "_STEP_CHUNK", 7)  # divides neither n nor record_every
    chunked = integrate_pair(rho0, P, P_MEMORY, cfg)
    assert np.array_equal(chunked.times, whole.times)
    assert len(chunked) == 11
    assert np.array_equal(chunked.states[0], rho0)
    assert np.abs(chunked.states - whole.states).max() < 1e-15


def _block_labels(gen) -> np.ndarray:
    """Block number of every vec(rho) coordinate; each coordinate in exactly one block."""
    labels = np.full(gen.dim, -1)
    count = 0
    for group in gen.groups:
        for block in group.idx:
            assert (labels[block] == -1).all()
            labels[block] = count
            count += 1
    assert (labels >= 0).all()
    return labels


def _dense_operators():
    rng = np.random.default_rng(11)
    h = _random_matrix(rng, 3)
    return h + h.conj().T, _random_matrix(rng, 3)


def _dense_generator():
    h, s = _dense_operators()
    return integrate._Generator(h, ((s, P, decay_rate_plus),))


@pytest.mark.parametrize(
    "gen, sizes, reps",
    [
        (integrate._single_generator(P_MEMORY), [3] + [1] * 6, [1, 3]),
        (integrate._pair_generator(P, P_MEMORY), [9] + [3] * 12 + [1] * 36, [1, 6, 18]),
        (_dense_generator(), [9], [1]),
    ],
    ids=["single", "pair", "dense"],
)
def test_invariant_blocks_partition_the_coordinates_and_hold_every_op_entry(gen, sizes, reps):
    labels = _block_labels(gen)
    assert sorted((len(b) for g in gen.groups for b in g.idx), reverse=True) == sizes
    rows, cols = np.nonzero(np.abs(gen.ops).sum(axis=0))
    assert (labels[rows] == labels[cols]).all()
    # a Hermiticity-preserving generator pairs blocks up as complex conjugates
    assert [g.shape[0] for g in gen.groups] == reps
    # every block's op entries are the ops restricted to it: its
    # representative's entries, conjugated where the block is flagged
    for g in gen.groups:
        sub = gen.ops[:, g.idx[:, :, None], g.idx[:, None, :]]
        own = g.cols.T.reshape(len(gen.ops), *g.shape)[:, g.rep]
        own[:, g.flip] = own[:, g.flip].conj()
        assert np.array_equal(own, sub)


def _stagewise_rk4(rho0, h_op, jumps, rates, cfg):
    """Textbook RK4 on the matrix form of the master equation, recording every k-th step."""
    def rhs(rho, t):
        return _master_equation(rho, h_op, jumps, [rate(t) for rate in rates])

    rho, step, states = rho0.astype(complex), cfg.step, [rho0]
    for k in range(cfg.n_steps()):
        t = k * step
        k1 = rhs(rho, t)
        k2 = rhs(rho + 0.5 * step * k1, t + 0.5 * step)
        k3 = rhs(rho + 0.5 * step * k2, t + 0.5 * step)
        k4 = rhs(rho + step * k3, t + step)
        rho = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % cfg.record_every == 0:
            states.append(rho)
    return np.array(states)


def _partition_channels(p: JcmParams, lift):
    s_plus = np.zeros((3, 3))
    s_plus[2, 0] = 1.0
    s_minus = np.zeros((3, 3))
    s_minus[2, 1] = 1.0
    return (
        [lift(s_plus), lift(s_minus)],
        [lambda t: decay_rate_plus(p, t), lambda t: decay_rate_minus(p, t)],
    )


def test_step_matrices_match_stagewise_rk4_on_a_distinct_pair():
    p_a = JcmParams(omega0=0.3, omega=1.0, gamma0=1.0, lam=0.05)
    p_b = JcmParams(omega0=0.3, omega=1.5, gamma0=1.0, lam=0.2)
    cfg = oracle_config(3.0, 31, p_a, p_b)
    assert cfg.record_every > 1
    rng = np.random.default_rng(3)
    a = _random_matrix(rng, 9)
    rho0 = a @ a.conj().T
    rho0 /= rho0.trace()
    eye = np.eye(3)
    jumps_a, rates_a = _partition_channels(p_a, lambda m: np.kron(m, eye))
    jumps_b, rates_b = _partition_channels(p_b, lambda m: np.kron(eye, m))
    h_op = np.kron(_dressed_h(p_a), eye) + np.kron(eye, _dressed_h(p_b))
    expected = _stagewise_rk4(rho0, h_op, jumps_a + jumps_b, rates_a + rates_b, cfg)
    got = integrate_pair(rho0, p_a, p_b, cfg).states
    assert np.abs(got - expected).max() < 1e-13


def test_shared_step_matrices_match_stagewise_rk4_on_a_non_hermitian_vector():
    # blocks share conjugated step matrices; the vector they act on need
    # not be Hermitian for that, so a generic complex matrix must agree too
    p_a = JcmParams(omega0=0.3, omega=1.0, gamma0=1.0, lam=0.05)
    p_b = JcmParams(omega0=0.3, omega=1.5, gamma0=1.0, lam=0.2)
    cfg = oracle_config(3.0, 31, p_a, p_b)
    rho0 = _random_matrix(np.random.default_rng(17), 9)
    rho0 /= rho0.trace()
    assert np.abs(rho0 - rho0.conj().T).max() > 0.5
    eye = np.eye(3)
    jumps_a, rates_a = _partition_channels(p_a, lambda m: np.kron(m, eye))
    jumps_b, rates_b = _partition_channels(p_b, lambda m: np.kron(eye, m))
    h_op = np.kron(_dressed_h(p_a), eye) + np.kron(eye, _dressed_h(p_b))
    expected = _stagewise_rk4(rho0, h_op, jumps_a + jumps_b, rates_a + rates_b, cfg)
    gen = integrate._pair_generator(p_a, p_b)
    assert any(g.flip.any() for g in gen.groups)
    got = integrate._run_rk4(rho0, gen, cfg, (p_a, p_b)).states
    assert np.abs(got - expected).max() < 1e-13


def test_step_matrices_match_stagewise_rk4_while_the_upper_rate_is_negative():
    cfg = oracle_config(12.0, 25, P_MEMORY)
    times = np.arange(cfg.n_steps() + 1) * cfg.step
    assert (decay_rate_plus(P_MEMORY, times) < 0.0).any()
    jumps, rates = _partition_channels(P_MEMORY, lambda m: m)
    rho0 = _uniform3()
    expected = _stagewise_rk4(rho0, _dressed_h(P_MEMORY), jumps, rates, cfg)
    got = integrate_single(rho0, P_MEMORY, cfg).states
    assert np.abs(got - expected).max() < 1e-13


def test_step_matrices_match_stagewise_rk4_on_a_dense_generator():
    # one block whose ops do not commute: the order of the step products matters
    h, s = _dense_operators()
    gen = _dense_generator()
    assert not np.allclose(gen.ops[0] @ gen.ops[1], gen.ops[1] @ gen.ops[0])
    cfg = IntegratorConfig(step=0.002, t_end=0.6, record_every=30)
    rho0 = _uniform3()
    expected = _stagewise_rk4(rho0, h, [s], [lambda t: decay_rate_plus(P, t)], cfg)
    got = integrate._run_rk4(rho0, gen, cfg, (P,)).states
    assert np.abs(got - expected).max() < 1e-13


def test_a_long_recording_interval_runs_in_bounded_memory():
    # 20,000 steps between two recorded states: only a chunk of step
    # matrices may exist at a time, not the whole interval's (~70 MB)
    cfg = IntegratorConfig(step=0.001, t_end=20.0, record_every=20_000)
    rho0 = initial_state(1.0)
    tracemalloc.start()
    try:
        traj = integrate_pair(rho0, P, P, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 2
    assert np.abs(traj.states[-1] - propagate_pair(rho0, P, P, 20.0)).max() < 1e-6
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


def _nan_after_one(rate):
    def patched(p, t):
        return np.where(np.asarray(t) > 1.0, math.nan, rate(p, t))

    return patched


def test_nan_rates_fail_the_trace_guard(monkeypatch):
    monkeypatch.setattr(integrate, "decay_rate_plus", _nan_after_one(decay_rate_plus))
    cfg = oracle_config(3.0, 31, P)
    with pytest.raises(RuntimeError, match="lost trace"):
        integrate_single(_uniform3(), P, cfg)
    with pytest.raises(RuntimeError, match="lost trace"):
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


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_quadrature_matches_both_branches_on_every_validate_rate_grid(name):
    # the grid `validation_report` integrates; on the strongly detuned
    # upper branch (fig2c, fig4) adaptive Simpson over whole periods was
    # fooled by aliasing into errors of 3.9e-9
    cfg = preset_config(name)
    times = np.linspace(0.0, min(cfg.t_max, 10.0), 21)
    for p in {cfg.params_a, cfg.params_b}:
        lower = rate_from_spectral_density(p, p.omega0 - p.omega, times)
        upper = rate_from_spectral_density(p, p.omega0 + p.omega, times)
        assert np.abs(lower - decay_rate_minus(p, times)).max() <= 1e-12
        assert np.abs(upper - decay_rate_plus(p, times)).max() <= 1e-12


def test_quadrature_over_a_time_grid_keeps_its_shape_and_order():
    omega = P.omega0 + P.omega
    times = np.array([3.0, 0.0, 7.5, 1.25, 3.0, 10.0])
    order = np.argsort(times)
    rates = rate_from_spectral_density(P, omega, times)
    assert np.array_equal(rate_from_spectral_density(P, omega, times[order]), rates[order])
    assert rates[1] == 0.0 and rates[0] == rates[4]
    grid = rate_from_spectral_density(P, omega, times.reshape(2, 3))
    assert np.array_equal(grid, rates.reshape(2, 3))
    assert isinstance(rate_from_spectral_density(P, omega, 2.5), float)
    assert rate_from_spectral_density(P, omega, 0.0) == 0.0


def test_quadrature_rejects_negative_time():
    with pytest.raises(ValueError, match="t must be non-negative"):
        rate_from_spectral_density(P, 0.0, -1.0)
    with pytest.raises(ValueError, match="t must be non-negative"):
        rate_from_spectral_density(P, 0.0, np.array([1.0, -1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.array([1.0, math.nan])], ids=["nan", "inf", "grid"])
def test_quadrature_rejects_non_finite_time(bad):
    # NaN once ran into the recursion-depth guard and inf into a math domain error
    with pytest.raises(ValueError, match="t must be finite"):
        rate_from_spectral_density(P, 0.0, bad)


def test_quadrature_refuses_grids_beyond_the_sub_panel_cap():
    with pytest.raises(ValueError, match="cap of 1000000"):
        rate_from_spectral_density(P_STIFF, P_STIFF.omega0 + P_STIFF.omega, 1e6)
    with pytest.raises(ValueError, match="omega must be finite"):
        rate_from_spectral_density(P, math.nan, 1.0)
