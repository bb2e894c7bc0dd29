"""The numerical validators themselves: RK4 oracle and rate quadrature.

These routines exist to check the closed forms, so they get their own
scrutiny first: convergence at the right order, exactness of the
quadrature on polynomials, and agreement between the two independent
routes to the decay rates. The step-bound plumbing is exercised too,
since a silently under-resolved oracle would pass everything.
"""

import ast
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from djcm import integrate
from djcm.evolution import propagate_pair, propagate_pairs
from djcm.integrate import (
    IntegratorConfig,
    gauss_legendre,
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


def test_config_refuses_a_nan_step():
    # NaN fails every comparison, so `step <= 0` alone lets it through
    with pytest.raises(ValueError, match="step must be positive and finite"):
        IntegratorConfig(step=math.nan, t_end=1.0)


def test_config_refuses_an_infinite_end():
    # an infinite end has no step count (int(round(inf)) overflows)
    with pytest.raises(ValueError, match="t_end must be non-negative and finite"):
        IntegratorConfig(step=0.1, t_end=math.inf)


@pytest.mark.parametrize("every", [2.5, True, 0, -1])
def test_config_refuses_a_record_every_that_is_not_a_positive_integer(every):
    # 2.5 used to end in a TypeError inside the integrator
    with pytest.raises(ValueError, match="record_every must be an integer >= 1"):
        IntegratorConfig(step=0.001, t_end=0.01, record_every=every)


def test_config_checks_at_construction_that_record_every_divides_the_steps():
    assert IntegratorConfig(step=0.001, t_end=0.01, record_every=np.int64(5)).n_steps() == 10
    with pytest.raises(ValueError, match="record_every 3 does not divide 10 steps"):
        IntegratorConfig(step=0.001, t_end=0.01, record_every=3)


def test_config_refuses_a_step_count_that_overflows():
    with pytest.raises(ValueError, match="overflows the step count"):
        IntegratorConfig(step=1e-300, t_end=1e10)


@pytest.mark.parametrize("t_end", [math.inf, math.nan, -1.0, 0.0])
def test_oracle_config_refuses_an_end_outside_zero_to_infinity(t_end):
    # inf used to raise OverflowError, NaN "cannot convert float NaN", and
    # -1.0 an error that blamed the step
    with pytest.raises(ValueError, match="t_end must be positive and finite"):
        oracle_config(t_end, 11, P)


@pytest.mark.parametrize("samples", [2.5, True, 1])
def test_oracle_config_refuses_a_sample_count_that_is_not_an_integer_of_at_least_2(samples):
    with pytest.raises(ValueError, match="samples must be an integer >= 2"):
        oracle_config(1.0, samples, P)


@pytest.mark.parametrize("panels", [0, -1, 2.5, True])
def test_gauss_legendre_refuses_panels_that_are_not_a_positive_integer(panels):
    # 0 used to divide by zero, -1 to return 0.0, 2.5 to raise TypeError
    with pytest.raises(ValueError, match="panels must be an integer >= 1"):
        gauss_legendre(np.sin, 0.0, 1.0, panels)


def test_direct_integration_refuses_plans_beyond_the_step_cap():
    # a caller that builds its own config, not through oracle_config, must
    # meet the same cap: 1e8 steps is refused before anything is allocated
    cfg = IntegratorConfig(step=1e-3, t_end=1e5)
    assert cfg.step <= max_step(P)
    with pytest.raises(ValueError, match=f"cap of {integrate.MAX_RK4_STEPS}"):
        integrate_single(_uniform3(), P, cfg)
    with pytest.raises(ValueError, match=f"cap of {integrate.MAX_RK4_STEPS}"):
        integrate_pair(initial_state(1.0), P, P, cfg)


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

    # the interaction-frame generator plus L0 = -i diag(freq) is the
    # lab-frame master equation
    single_gen, pair_gen = integrate._single_generator(p_a), integrate._pair_generator(p_a, p_b)
    single, pair = single_gen.at(times), pair_gen.at(times)
    for i, t in enumerate(times):
        rho = _random_matrix(rng, 3)
        expected = _master_equation(
            rho, _dressed_h(p_a), (s_plus, s_minus),
            (decay_rate_plus(p_a, t), decay_rate_minus(p_a, t)),
        )
        got = ((single[i] - 1j * np.diag(single_gen.freq)) @ rho.reshape(-1)).reshape(3, 3)
        assert np.abs(got - expected).max() < 1e-13 * max(1.0, np.abs(expected).max())

        rho = _random_matrix(rng, 9)
        h = np.kron(_dressed_h(p_a), eye) + np.kron(eye, _dressed_h(p_b))
        jumps = (np.kron(s_plus, eye), np.kron(s_minus, eye), np.kron(eye, s_plus), np.kron(eye, s_minus))
        rates = (
            decay_rate_plus(p_a, t), decay_rate_minus(p_a, t),
            decay_rate_plus(p_b, t), decay_rate_minus(p_b, t),
        )
        expected = _master_equation(rho, h, jumps, rates)
        got = ((pair[i] - 1j * np.diag(pair_gen.freq)) @ rho.reshape(-1)).reshape(9, 9)
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


# representative step-matrix entries per step over every coordinate: one
# 9x9, six 3x3 and nine 1x1 for a pair of distinct partitions; one 9x9,
# three 3x3 and six 1x1 for an equal pair, whose channels merge; one 3x3
# and three 1x1 for one partition. initial_state(1) of an equal pair
# reaches one 5x5 block and three 1x1 representatives.
PAIR_ENTRIES = 81 + 6 * 9 + 9
EQUAL_PAIR_ENTRIES = 81 + 3 * 9 + 6
SINGLE_ENTRIES = 9 + 3
REACHED_PURE_PAIR_ENTRIES = 25 + 3


def _every_coordinate(gen) -> np.ndarray:
    return np.ones(gen.dim, dtype=bool)


def _support(rho0: np.ndarray) -> np.ndarray:
    return rho0.reshape(-1) != 0


def _entries(groups) -> int:
    """Representative step-matrix entries per step of the block groups a run integrates."""
    return sum(math.prod(g.shape) for g in groups)


def test_rate_chunks_do_not_change_the_trajectory(monkeypatch):
    cfg = oracle_config(1.0, 11, P, P_MEMORY)
    assert cfg.n_steps() > 100 and cfg.record_every > 1
    rho0 = initial_state(0.7)
    entries = _entries(integrate._pair_generator(P, P_MEMORY).groups(_support(rho0)))
    monkeypatch.setattr(integrate, "_CHUNK_ENTRIES", cfg.n_steps() * entries)  # one chunk
    whole = integrate_pair(rho0, P, P_MEMORY, cfg)
    # 7 steps, which divides neither n nor record_every
    monkeypatch.setattr(integrate, "_CHUNK_ENTRIES", 7 * entries)
    chunked = integrate_pair(rho0, P, P_MEMORY, cfg)
    assert np.array_equal(chunked.times, whole.times)
    assert len(chunked) == 11
    assert np.array_equal(chunked.states[0], rho0)
    assert np.abs(chunked.states - whole.states).max() < 1e-15


def _steps(groups) -> list[int]:
    """Steps per run of each block group: S + 1 rows of its representative entries fit the budget."""
    return [integrate._chunk_steps(math.prod(g.shape)) for g in groups]


def test_the_entry_budget_sets_the_chunk_length():
    pair, single = integrate._pair_generator(P, P_MEMORY), integrate._single_generator(P)
    equal = integrate._pair_generator(P, P)
    # a state with no zero entry reaches every coordinate
    pair_groups = pair.groups(_support(_random_matrix(np.random.default_rng(2), 9)))
    equal_groups = equal.groups(_every_coordinate(equal))
    single_groups = single.groups(_support(_uniform3()))
    reached = equal.groups(_support(initial_state(1.0)))
    assert _entries(pair_groups) == PAIR_ENTRIES
    assert _entries(equal_groups) == EQUAL_PAIR_ENTRIES
    assert _entries(single_groups) == SINGLE_ENTRIES
    assert _entries(reached) == REACHED_PURE_PAIR_ENTRIES
    # each group runs on its own budget, whatever the others hold
    assert _steps(pair_groups) == [482, 724, 4351]
    assert _steps(equal_groups) == [482, integrate._CHUNK_ENTRIES // (3 * 9) - 1, 6527] == [482, 1449, 6527]
    assert _steps(single_groups) == [4351, 13055]
    assert _steps(reached) == [integrate._CHUNK_ENTRIES // 25 - 1, 13055] == [1565, 13055]
    # an outer range's rates: 2S + 1 rows of one weight per channel
    assert integrate._chunk_steps(len(pair.channels), 2) == 4895
    assert integrate._chunk_steps(len(equal.channels), 2) == integrate._chunk_steps(len(single.channels), 2) == 9791


def _recording_chunks(monkeypatch) -> list:
    """Patch `_chunks` to log each call as (size, runs): the rates' outer ranges, then each group's runs in each."""
    calls = []
    chunks = integrate._chunks

    def recorded(n, every, size):
        runs = list(chunks(n, every, size))
        calls.append((size, runs))
        return iter(runs)

    monkeypatch.setattr(integrate, "_chunks", recorded)
    return calls


@pytest.mark.parametrize("oracle", ["pair", "single"])
def test_a_150_step_recording_interval_runs_whole(monkeypatch, oracle):
    # fig2c and fig4 record every 150 steps; no run may cut an interval
    cfg = oracle_config(0.3, 16, P_STIFF)
    assert cfg.record_every == 150
    calls = _recording_chunks(monkeypatch)
    if oracle == "pair":
        rho0 = initial_state(1.0)
        integrate_pair(rho0, P_STIFF, P_STIFF, cfg)
        gen = integrate._pair_generator(P_STIFF, P_STIFF)
    else:
        rho0 = _uniform3()
        integrate_single(rho0, P_STIFF, cfg)
        gen = integrate._single_generator(P_STIFF)
    # one outer range holds all fifteen intervals' rates
    (_, outer), *inner = calls
    assert outer == [(0, 15, 150)]
    # then every group runs each interval whole, on its own budget: two
    # runs of at most ten for the reached pair's 5x5 block (1565 steps),
    # one run for each other group
    assert [size for size, _ in inner] == _steps(gen.groups(_support(rho0)))
    for size, runs in inner:
        assert {span for _, _, span in runs} == {150}
        assert sum(q for _, q, _ in runs) == 15
        assert len(runs) == math.ceil(15 / (size // 150))
    assert [len(runs) for _, runs in inner] == {"pair": [2, 1], "single": [1, 1]}[oracle]


def test_a_128_step_budget_gives_the_same_states_on_fig2a(monkeypatch):
    # every fig2a interval is shorter than 128 steps, so runs of the
    # budget's length, of 128 steps and of one interval hold whole
    # intervals alike and the states agree to the last bit
    cfg = preset_config("fig2a")
    pair_cfg = oracle_config(cfg.t_max, cfg.samples, cfg.params_a, cfg.params_b)
    single_cfg = oracle_config(cfg.t_max, cfg.samples, cfg.params_a)
    assert max(pair_cfg.record_every, single_cfg.record_every) <= 128
    rho0, single0 = initial_state(cfg.purity), _uniform3()
    # the entries per step of the largest group each run integrates, which comes first
    pair_largest = math.prod(integrate._pair_generator(cfg.params_a, cfg.params_b).groups(_support(rho0))[0].shape)
    single_largest = math.prod(integrate._single_generator(cfg.params_a).groups(_support(single0))[0].shape)
    assert (pair_largest, single_largest) == (25, 9)
    calls = _recording_chunks(monkeypatch)

    def run(budget, call):
        """States of `call` under `budget`, and the steps per run of its largest group."""
        monkeypatch.setattr(integrate, "_CHUNK_ENTRIES", budget)
        calls.clear()
        states = call()
        return states, calls[1][0]  # calls[0] cuts the rates' outer ranges

    def pair(budget):
        return run(budget, lambda: integrate_pair(rho0, cfg.params_a, cfg.params_b, pair_cfg).states)

    def single(budget):
        return run(budget, lambda: integrate_single(single0, cfg.params_a, single_cfg).states)

    budget = integrate._CHUNK_ENTRIES
    pair_states, pair_steps = pair(budget)
    single_states, single_steps = single(budget)
    assert (pair_steps, single_steps) == (1565, 4351)
    # the largest group takes 128 steps, then one interval, per run
    for steps in (128, pair_cfg.record_every):
        states, taken = pair((steps + 1) * pair_largest)
        assert taken == steps
        assert np.array_equal(states, pair_states)
    for steps in (128, single_cfg.record_every):
        states, taken = single((steps + 1) * single_largest)
        assert taken == steps
        assert np.array_equal(states, single_states)


def _fig2a_half_pure_case():
    """fig2a's pair at r = 0.5, which reaches a 9x9, a 3x3 and 1x1 blocks, and its plan."""
    cfg = preset_config("fig2a")
    gen = integrate._pair_generator(cfg.params_a, cfg.params_b)
    return gen, initial_state(0.5), oracle_config(cfg.t_max, cfg.samples, cfg.params_a, cfg.params_b)


def _distinct_full_case():
    """Distinct partitions, a state that reaches every coordinate, and a plan of two outer ranges."""
    p_a, p_b, rho0, _ = _distinct_pair_case()
    return integrate._pair_generator(p_a, p_b), rho0, oracle_config(30.0, 301, p_a, p_b)


@pytest.mark.parametrize("case", [_fig2a_half_pure_case, _distinct_full_case], ids=["fig2a r=0.5", "distinct full"])
def test_no_step_matrix_input_or_rate_block_holds_more_than_the_budget(monkeypatch, case):
    gen, rho0, cfg = case()
    budget = integrate._CHUNK_ENTRIES
    every = cfg.record_every
    inputs, rates = {}, []
    step_matrices, weights = integrate._step_matrices, gen.weights

    def recorded_steps(l_ends, l_mids, h):
        assert l_ends.shape[-1] == l_mids.shape[-1] + 1
        inputs.setdefault(l_mids.shape[:3], []).append(l_mids.shape[-1])
        assert max(l_ends.size, l_mids.size) <= budget
        return step_matrices(l_ends, l_mids, h)

    def recorded_weights(times):
        w = weights(times)
        rates.append(len(w))
        assert w.size <= budget
        return w

    monkeypatch.setattr(integrate, "_step_matrices", recorded_steps)
    monkeypatch.setattr(gen, "weights", recorded_weights)
    integrate._run_rk4(rho0, gen, cfg)
    groups = gen.groups(_support(rho0))
    assert sorted(inputs) == sorted(g.shape for g in groups)
    assert len(groups) == 3 and len(rates) == 2
    # and the budget is used: one more interval would overflow the rates'
    # block or the group's step matrices
    outer = (max(rates) - 1) // 2
    assert (2 * (outer + every) + 1) * len(gen.channels) > budget
    for g in groups:
        longest = max(inputs[g.shape])
        assert longest == outer or (longest + every + 1) * math.prod(g.shape) > budget


@pytest.mark.parametrize("case", [_fig2a_half_pure_case, _distinct_full_case], ids=["fig2a r=0.5", "distinct full"])
def test_the_rates_are_evaluated_once_per_outer_range_per_channel(monkeypatch, case):
    gen, rho0, cfg = case()
    calls = {}

    def counted(rate):
        def call(p, t):
            calls[rate.__name__, p] = calls.get((rate.__name__, p), 0) + 1
            return rate(p, t)

        return call

    # the generator calls the rate function of each of its channels: swap
    # in counting ones, same ops
    gen.channels = tuple((p, counted(rate)) for p, rate in gen.channels)
    integrate._run_rk4(rho0, gen, cfg)
    outer = integrate._chunk_steps(len(gen.channels), 2)
    ranges = len(list(integrate._chunks(cfg.n_steps(), cfg.record_every, outer)))
    assert ranges == 2
    # one call per channel and outer range, shared by the three groups
    assert len(gen.groups(_support(rho0))) == 3
    assert sorted(calls.values()) == [ranges] * len(gen.channels)


@pytest.mark.parametrize("case", [_fig2a_half_pure_case, _distinct_full_case], ids=["fig2a r=0.5", "distinct full"])
def test_the_group_order_changes_no_bit(monkeypatch, case):
    gen, rho0, cfg = case()
    forward = integrate._run_rk4(rho0, gen, cfg).states
    groups = gen.groups(_support(rho0))
    monkeypatch.setattr(gen, "groups", lambda support: groups[::-1])
    assert np.array_equal(integrate._run_rk4(rho0, gen, cfg).states, forward)


def _block_labels(gen) -> np.ndarray:
    """Block number of every vec(rho) coordinate; each coordinate in exactly one block."""
    labels = np.full(gen.dim, -1)
    count = 0
    for group in gen.groups(_every_coordinate(gen)):
        for block in group.idx:
            assert (labels[block] == -1).all()
            labels[block] = count
            count += 1
    assert (labels >= 0).all()
    return labels


def _dense_jumps():
    rng = np.random.default_rng(11)
    return rng.standard_normal((3, 3)), rng.standard_normal((3, 3))


def _dense_generator():
    """h = 0 and two real jump operators whose dissipators fill one 9x9 block."""
    s1, s2 = _dense_jumps()
    return integrate._Generator(np.zeros((3, 3)), ((s1, P, decay_rate_plus), (s2, P, decay_rate_minus)))


@pytest.mark.parametrize(
    "gen, sizes, reps",
    [
        (integrate._single_generator(P_MEMORY), [3] + [1] * 6, [1, 3]),
        (integrate._pair_generator(P, P_MEMORY), [9] + [3] * 12 + [1] * 36, [1, 6, 9]),
        (integrate._pair_generator(P, P), [9] + [3] * 12 + [1] * 36, [1, 3, 6]),
        (_dense_generator(), [9], [1]),
    ],
    ids=["single", "pair", "equal pair", "dense"],
)
def test_invariant_blocks_partition_the_coordinates_and_hold_every_op_entry(gen, sizes, reps):
    labels = _block_labels(gen)
    groups = gen.groups(_every_coordinate(gen))
    assert sorted((len(b) for g in groups for b in g.idx), reverse=True) == sizes
    rows, cols = np.nonzero(np.abs(gen.ops).sum(axis=0))
    assert (labels[rows] == labels[cols]).all()
    # blocks whose restricted ops are equal share a representative
    assert [g.shape[0] for g in groups] == reps
    # every block's op entries are the ops restricted to it: its
    # representative's entries
    for g in groups:
        sub = gen.ops[:, g.idx[:, :, None], g.idx[:, None, :]]
        assert np.array_equal(g.cols.T.reshape(len(gen.ops), *g.shape)[:, g.rep], sub)


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


def _interaction_frame_rk4(rho0, energies, jumps, rates, cfg):
    """`_stagewise_rk4` with h = 0, then each entry turned by its exact phase e^{-i(E_i - E_j)t}."""
    states = _stagewise_rk4(rho0, np.zeros((len(energies),) * 2), jumps, rates, cfg)
    times = np.arange(len(states)) * cfg.record_every * cfg.step
    return states * np.exp(-1j * np.multiply.outer(times, np.subtract.outer(energies, energies)))


def _partition_channels(p: JcmParams, lift):
    s_plus = np.zeros((3, 3))
    s_plus[2, 0] = 1.0
    s_minus = np.zeros((3, 3))
    s_minus[2, 1] = 1.0
    return (
        [lift(s_plus), lift(s_minus)],
        [lambda t: decay_rate_plus(p, t), lambda t: decay_rate_minus(p, t)],
    )


def _distinct_pair_case():
    """fig3c-like distinct partitions at omega0 = 0.3, a random full-rank state and its plan."""
    p_a = JcmParams(omega0=0.3, omega=1.0, gamma0=1.0, lam=0.05)
    p_b = JcmParams(omega0=0.3, omega=1.5, gamma0=1.0, lam=0.2)
    cfg = oracle_config(3.0, 31, p_a, p_b)
    assert cfg.record_every > 1
    a = _random_matrix(np.random.default_rng(3), 9)
    rho0 = a @ a.conj().T
    return p_a, p_b, rho0 / rho0.trace(), cfg


def _pair_channels(p_a: JcmParams, p_b: JcmParams):
    """The pair's dressed Hamiltonian, its four lifted jump operators and their rates."""
    eye = np.eye(3)
    jumps_a, rates_a = _partition_channels(p_a, lambda m: np.kron(m, eye))
    jumps_b, rates_b = _partition_channels(p_b, lambda m: np.kron(eye, m))
    h_op = np.kron(_dressed_h(p_a), eye) + np.kron(eye, _dressed_h(p_b))
    return h_op, jumps_a + jumps_b, rates_a + rates_b


def test_step_matrices_match_stagewise_rk4_on_a_distinct_pair():
    p_a, p_b, rho0, cfg = _distinct_pair_case()
    h_op, jumps, rates = _pair_channels(p_a, p_b)
    expected = _interaction_frame_rk4(rho0, h_op.diagonal(), jumps, rates, cfg)
    got = integrate_pair(rho0, p_a, p_b, cfg).states
    assert np.abs(got - expected).max() < 1e-13


def test_the_interaction_frame_lands_closer_to_the_closed_form_than_a_lab_frame_rk4():
    # the same steps in the lab frame must also resolve the free rotation;
    # in the frame of h only the rates' time dependence is integrated
    p_a, p_b, rho0, cfg = _distinct_pair_case()
    h_op, jumps, rates = _pair_channels(p_a, p_b)
    lab = _stagewise_rk4(rho0, h_op, jumps, rates, cfg)
    traj = integrate_pair(rho0, p_a, p_b, cfg)
    exact = propagate_pairs(rho0, p_a, p_b, traj.times)
    assert np.abs(traj.states - exact).max() < np.abs(lab - exact).max()


def test_shared_step_matrices_match_stagewise_rk4_on_a_non_hermitian_vector():
    # blocks share step matrices, and an equal pair also merges its
    # channels; the vector they act on need not be Hermitian for either,
    # so a generic complex matrix must agree too
    p_a = JcmParams(omega0=0.3, omega=1.0, gamma0=1.0, lam=0.05)
    rho0 = _random_matrix(np.random.default_rng(17), 9)
    rho0 /= rho0.trace()
    assert np.abs(rho0 - rho0.conj().T).max() > 0.5
    for p_b, ops in ((JcmParams(omega0=0.3, omega=1.5, gamma0=1.0, lam=0.2), 4), (p_a, 2)):
        cfg = oracle_config(3.0, 31, p_a, p_b)
        h_op, jumps, rates = _pair_channels(p_a, p_b)
        expected = _interaction_frame_rk4(rho0, h_op.diagonal(), jumps, rates, cfg)
        gen = integrate._pair_generator(p_a, p_b)
        assert any(g.shape[0] < len(g.idx) for g in gen.groups(_support(rho0)))
        assert len(gen.ops) == ops
        got = integrate._run_rk4(rho0, gen, cfg).states
        assert np.abs(got - expected).max() < 1e-13


def test_merged_channels_give_the_states_of_four_on_fig2a():
    # r(t) L1 + r(t) L2 = r(t) (L1 + L2): summing the equal pair's
    # channels changes no bit of the trajectory. A callable of its own per
    # channel keeps the four (params, rate) keys apart for the reference.
    cfg = preset_config("fig2a")
    p = cfg.params_a
    assert cfg.params_b == p
    eye = np.eye(3, dtype=complex)
    s_plus, s_minus = integrate._jump_operators()

    def own(rate):
        return lambda q, t: rate(q, t)

    unmerged = integrate._Generator(
        np.kron(integrate._dressed_hamiltonian(p), eye) + np.kron(eye, integrate._dressed_hamiltonian(p)),
        (
            (np.kron(s_plus, eye), p, own(decay_rate_plus)),
            (np.kron(s_minus, eye), p, own(decay_rate_minus)),
            (np.kron(eye, s_plus), p, own(decay_rate_plus)),
            (np.kron(eye, s_minus), p, own(decay_rate_minus)),
        ),
    )
    merged = integrate._pair_generator(p, p)
    assert (len(merged.ops), len(unmerged.ops)) == (2, 4)
    assert [g.shape[0] for g in merged.groups(_every_coordinate(merged))] == [1, 3, 6]
    assert [g.shape[0] for g in unmerged.groups(_every_coordinate(unmerged))] == [1, 6, 9]
    pair_cfg = oracle_config(cfg.t_max, cfg.samples, p, p)
    rho0 = initial_state(cfg.purity)
    assert np.array_equal(
        integrate._run_rk4(rho0, merged, pair_cfg).states,
        integrate._run_rk4(rho0, unmerged, pair_cfg).states,
    )


def _over_every_coordinate(monkeypatch, gen):
    """`gen`, made to integrate every coordinate whatever the initial state."""
    groups = gen.groups(_every_coordinate(gen))
    monkeypatch.setattr(gen, "groups", lambda support: groups)
    return gen


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_reached_run_gives_the_states_of_a_run_over_every_coordinate(monkeypatch, name):
    # the preset's step and recording interval over a tenth of its window
    cfg = preset_config(name)
    p_a, p_b = cfg.params_a, cfg.params_b
    pair_cfg = oracle_config(cfg.t_max / 10.0, 151, p_a, p_b)
    assert pair_cfg.record_every == oracle_config(cfg.t_max, cfg.samples, p_a, p_b).record_every
    full = _over_every_coordinate(monkeypatch, integrate._pair_generator(p_a, p_b))
    for r in (0.0, 0.5, 1.0):
        rho0 = initial_state(r)
        reached = integrate._run_rk4(rho0, integrate._pair_generator(p_a, p_b), pair_cfg)
        assert np.array_equal(reached.states, integrate._run_rk4(rho0, full, pair_cfg).states)
    # the uniform single state reaches all 9 coordinates: the same groups
    single0 = _uniform3()
    single_cfg = oracle_config(cfg.t_max / 10.0, 151, p_a)
    gen = integrate._single_generator(p_a)
    assert [g.idx.tolist() for g in gen.groups(_support(single0))] == [
        g.idx.tolist() for g in gen.groups(_every_coordinate(gen))
    ]
    full = _over_every_coordinate(monkeypatch, integrate._single_generator(p_a))
    assert np.array_equal(
        integrate._run_rk4(single0, gen, single_cfg).states,
        integrate._run_rk4(single0, full, single_cfg).states,
    )


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_the_reached_set_is_closed_and_everything_outside_it_stays_zero(r):
    p_b = JcmParams(omega0=0.3, omega=1.5, gamma0=1.0, lam=0.2)
    rho0 = initial_state(r)
    gen = integrate._pair_generator(P_MEMORY, p_b)
    reached = np.zeros(gen.dim, dtype=bool)
    for g in gen.groups(_support(rho0)):
        assert not reached[g.idx].any()
        reached[g.idx] = True
    assert reached[_support(rho0)].all()
    assert reached.sum() < gen.dim
    # no op entry maps a reached coordinate outside the set
    assert not gen.ops[:, ~reached][:, :, reached].any()
    traj = integrate_pair(rho0, P_MEMORY, p_b, oracle_config(3.0, 31, P_MEMORY, p_b))
    outside = traj.states.reshape(len(traj), -1)[:, ~reached]
    assert (outside == 0).all()


def test_the_ground_state_reaches_only_itself_and_stays_fixed():
    # reach follows the direction of the generator: gg feeds nothing, while
    # a reversed closure would take in every coordinate that feeds gg
    gen = integrate._pair_generator(P, P_MEMORY)
    ground = np.zeros((9, 9), dtype=complex)
    ground[8, 8] = 1.0
    gg = 8 * 9 + 8
    assert gen.feeds[gg].sum() > 1
    groups = gen.groups(_support(ground))
    assert [g.idx.tolist() for g in groups] == [[[gg]]]
    traj = integrate_pair(ground, P, P_MEMORY, oracle_config(3.0, 31, P, P_MEMORY))
    assert np.array_equal(traj.states, np.broadcast_to(ground, traj.states.shape))


def test_fig2a_integrates_one_5x5_block_and_twelve_scalars():
    # initial_state(1) sits in the one-excitation sector, which decays only
    # to the ground level: 17 of the 81 coordinates, one 5x5 block and
    # twelve 1x1 blocks over three representatives, all of them real
    cfg = preset_config("fig2a")
    groups = integrate._pair_generator(cfg.params_a, cfg.params_b).groups(_support(initial_state(cfg.purity)))
    assert [g.idx.shape for g in groups] == [(1, 5), (12, 1)]
    assert [g.shape for g in groups] == [(1, 5, 5), (3, 1, 1)]
    assert [g.cols.dtype for g in groups] == [np.float64, np.float64]


def test_step_matrices_match_stagewise_rk4_while_the_upper_rate_is_negative():
    cfg = oracle_config(12.0, 25, P_MEMORY)
    times = np.arange(cfg.n_steps() + 1) * cfg.step
    assert (decay_rate_plus(P_MEMORY, times) < 0.0).any()
    jumps, rates = _partition_channels(P_MEMORY, lambda m: m)
    rho0 = _uniform3()
    expected = _interaction_frame_rk4(rho0, _dressed_h(P_MEMORY).diagonal(), jumps, rates, cfg)
    got = integrate_single(rho0, P_MEMORY, cfg).states
    assert np.abs(got - expected).max() < 1e-13


def test_step_matrices_match_stagewise_rk4_on_a_dense_generator():
    # one block whose ops do not commute: the order of the step products matters
    gen = _dense_generator()
    assert not np.allclose(gen.ops[0] @ gen.ops[1], gen.ops[1] @ gen.ops[0])
    cfg = IntegratorConfig(step=0.002, t_end=0.6, record_every=30)
    rho0 = _uniform3()
    rates = [lambda t: decay_rate_plus(P, t), lambda t: decay_rate_minus(P, t)]
    expected = _stagewise_rk4(rho0, np.zeros((3, 3)), _dense_jumps(), rates, cfg)
    got = integrate._run_rk4(rho0, gen, cfg).states
    assert np.abs(got - expected).max() < 1e-13


def test_the_generator_refuses_what_the_interaction_frame_cannot_carry():
    s_plus, _ = integrate._jump_operators()
    plus = ((s_plus, P, decay_rate_plus),)
    with pytest.raises(ValueError, match="h is not real and diagonal"):
        integrate._Generator(np.ones((3, 3)), plus)
    with pytest.raises(ValueError, match="complex entries"):
        s = _random_matrix(np.random.default_rng(4), 3)
        integrate._Generator(np.zeros((3, 3)), ((s, P, decay_rate_plus),))
    # |1><0| + |2><1| links coordinates (0, 1) and (1, 2), whose
    # frequencies -1 and -2 differ under h = diag(0, 1, 3)
    ladder = np.zeros((3, 3))
    ladder[1, 0] = ladder[2, 1] = 1.0
    with pytest.raises(ValueError, match="does not commute with L0"):
        integrate._Generator(np.diag([0.0, 1.0, 3.0]), ((ladder, P, decay_rate_plus),))
    # the same ladder commutes with an evenly spaced h
    integrate._Generator(np.diag([0.0, 1.0, 2.0]), ((ladder, P, decay_rate_plus),))
    # a distinct pair at omega0 = 0.3 commutes, yet some of its linked
    # kron-summed frequencies differ in the last bit: exact equality would
    # refuse it
    gen = integrate._pair_generator(*_distinct_pair_case()[:2])
    rows, cols = np.nonzero(gen.feeds)
    assert 0.0 < np.abs(gen.freq[rows] - gen.freq[cols]).max() < 1e-14


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


def test_a_long_recording_interval_runs_in_bounded_memory_single():
    # the single partition's groups run 4351 and 9791 steps at a time; the same bound holds
    cfg = IntegratorConfig(step=0.001, t_end=20.0, record_every=20_000)
    rho0 = _uniform3()
    tracemalloc.start()
    try:
        traj = integrate_single(rho0, P, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 2
    assert np.abs(traj.states[-1] - propagate_single(rho0, P, 20.0)).max() < 1e-6
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


def test_gauss_legendre_polynomial_exactness():
    # antiderivative x^4/4 - x^2 + x between -1 and 2: 2 - (-7/4)
    assert gauss_legendre(lambda x: x**3 - 2 * x + 1, -1.0, 2.0, 1) == pytest.approx(
        3.75, abs=1e-13
    )
    assert gauss_legendre(lambda x: np.full_like(x, 5.0), 0.0, 10.0, 1) == pytest.approx(50.0)
    assert gauss_legendre(np.sin, 0.0, math.pi, 1) == pytest.approx(2.0, abs=1e-10)
    assert gauss_legendre(np.exp, 1.0, 1.0, 1) == 0.0
    # reversed limits come out with the sign flipped
    assert gauss_legendre(lambda x: x, 1.0, 0.0, 1) == pytest.approx(-0.5)
    # 8 points: exact through degree 15, not at degree 16, whose error on
    # [0, 1] is (8!)^4 / (17 (16!)^2) = 3.55e-10
    assert gauss_legendre(lambda x: 16.0 * x**15, 0.0, 1.0, 1) == pytest.approx(1.0, abs=1e-13)
    miss = 1.0 / 17.0 - gauss_legendre(lambda x: x**16, 0.0, 1.0, 1)
    assert miss == pytest.approx(3.551354161528301e-10, rel=1e-4)
    # 9999 sub-panels, three blocks: each one is exact for the cubic
    assert gauss_legendre(lambda x: x**3 - 2 * x + 1, -1.0, 2.0, 9999) == pytest.approx(
        3.75, abs=1e-13
    )


def test_gauss_nodes_are_built_on_first_use():
    # numpy.polynomial costs a few ms to import; no production command needs it
    env = dict(os.environ, PYTHONPATH=str(Path(integrate.__file__).parents[1]))
    code = "import sys, djcm.cli; print('numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
    # upper branch (fig2c, fig4) a rule over whole periods is fooled by
    # aliasing (3.9e-9 off), so this holds the quarter-period sub-panels
    cfg = preset_config(name)
    times = np.linspace(0.0, min(cfg.t_max, 10.0), 21)
    for p in {cfg.params_a, cfg.params_b}:
        lower = rate_from_spectral_density(p, p.omega0 - p.omega, times)
        upper = rate_from_spectral_density(p, p.omega0 + p.omega, times)
        assert np.abs(lower - decay_rate_minus(p, times)).max() <= 1e-12
        assert np.abs(upper - decay_rate_plus(p, times)).max() <= 1e-12


@pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c", "fig3a"])
def test_quadrature_at_one_time_stays_within_its_budget(name):
    # one time is one piece [0, t], so its error is the sum of every
    # sub-panel's bound
    p = preset_config(name).params_a
    for t in np.linspace(0.0, 10.0, 201).tolist():
        lower = rate_from_spectral_density(p, p.omega0 - p.omega, t)
        upper = rate_from_spectral_density(p, p.omega0 + p.omega, t)
        assert abs(lower - decay_rate_minus(p, t)) <= 1e-12, t
        assert abs(upper - decay_rate_plus(p, t)) <= 1e-12, t


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
    # a non-finite time has no sub-panel plan
    with pytest.raises(ValueError, match="t must be finite"):
        rate_from_spectral_density(P, 0.0, bad)


def test_quadrature_memory_stays_bounded_at_the_sub_panel_cap():
    # fig2c's upper branch at a time just under the cap: about a million
    # sub-panels in one piece, evaluated a block at a time
    p = preset_config("fig2c").params_a
    omega = p.omega0 + p.omega
    t = 0.999 * integrate._MAX_SUBPANELS * math.pi / (2.0 * (2.0 * p.omega + p.lam))
    rate_from_spectral_density(p, omega, 1.0)  # builds the Gauss nodes
    tracemalloc.start()
    try:
        quad = rate_from_spectral_density(p, omega, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
    assert abs(quad - decay_rate_plus(p, t)) <= 1e-12


def test_quadrature_refuses_grids_beyond_the_sub_panel_cap():
    with pytest.raises(ValueError, match="cap of 1000000"):
        rate_from_spectral_density(P_STIFF, P_STIFF.omega0 + P_STIFF.omega, 1e6)
    with pytest.raises(ValueError, match="omega must be finite"):
        rate_from_spectral_density(P, math.nan, 1.0)
