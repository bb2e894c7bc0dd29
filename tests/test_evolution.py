"""Checks of the pair propagation map built on the single-partition maps.

The load-bearing test feeds the pair map every product of nine 3x3
density matrices that span the 3x3 operators. By linearity those 81
inputs fix the whole 9x9 map, so agreeing with the Kronecker product of
two independent `propagate_single` calls on each of them proves the map
is the tensor product of the two single-partition maps.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from djcm import evolution
from djcm.evolution import min_eigenvalue, propagate_pair, propagate_pairs
from djcm.propagator import JcmParams, propagate_single
from djcm.states import initial_state

P_MARKOV = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=5.0)
P_MEMORY = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=0.05)
P_STIFF = JcmParams(omega0=0.0, omega=50.0, gamma0=1.0, lam=5.0)


def _spanning_states():
    """|k><k| and the projectors onto (|k> + |l>)/sqrt2 and (|k> + i|l>)/sqrt2."""
    basis = np.eye(3, dtype=complex)
    vectors = list(basis)
    for k, l in ((0, 1), (0, 2), (1, 2)):
        vectors.append((basis[k] + basis[l]) / math.sqrt(2.0))
        vectors.append((basis[k] + 1j * basis[l]) / math.sqrt(2.0))
    return [np.outer(v, v.conj()) for v in vectors]


def _random_state(rng, dim=9):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


def test_pair_map_is_tensor_product_on_spanning_set():
    states = _spanning_states()
    flat = np.array([sigma.ravel() for sigma in states])
    assert np.linalg.matrix_rank(flat) == 9  # the nine span all 3x3 operators
    for p_a, p_b, t in (
        (P_MARKOV, P_MEMORY, 0.8),
        (P_MEMORY, P_STIFF, 2.3),
        (P_STIFF, P_MARKOV, 0.31),
    ):
        for sigma_a in states:
            for sigma_b in states:
                got = propagate_pair(np.kron(sigma_a, sigma_b), p_a, p_b, t)
                expected = np.kron(
                    propagate_single(sigma_a, p_a, t),
                    propagate_single(sigma_b, p_b, t),
                )
                assert np.abs(got - expected).max() < 1e-14


def test_time_stack_matches_one_time_calls():
    rng = np.random.default_rng(23)
    r0 = _random_state(rng)
    times = np.array([0.0, 0.31, 2.3, 9.0, 40.0])
    stack = propagate_pairs(r0, P_MEMORY, P_STIFF, times)
    assert stack.shape == (5, 9, 9)
    for k, t in enumerate(times):
        assert np.abs(stack[k] - propagate_pair(r0, P_MEMORY, P_STIFF, float(t))).max() < 1e-15
    assert propagate_pairs(r0, P_MARKOV, P_MARKOV, np.empty(0)).shape == (0, 9, 9)
    with pytest.raises(ValueError, match="one-dimensional"):
        propagate_pairs(r0, P_MARKOV, P_MARKOV, times.reshape(5, 1))
    with pytest.raises(ValueError, match="non-negative"):
        propagate_pairs(r0, P_MARKOV, P_MARKOV, np.array([0.5, -1.0]))
    # the stack's smallest eigenvalues, one per state
    lows = min_eigenvalue(stack)
    assert lows.shape == (5,)
    assert lows[2] == pytest.approx(min_eigenvalue(stack[2]), abs=1e-15)


def test_identity_at_t0():
    rng = np.random.default_rng(11)
    r0 = _random_state(rng)
    assert np.abs(propagate_pair(r0, P_MARKOV, P_MEMORY, 0.0) - r0).max() < 1e-14


def test_double_ground_is_fixed():
    r0 = np.zeros((9, 9), dtype=complex)
    r0[8, 8] = 1.0
    for t in (0.3, 4.0, 100.0):
        assert np.abs(propagate_pair(r0, P_MARKOV, P_MARKOV, t) - r0).max() == 0.0


def test_trace_and_hermiticity_preserved():
    rng = np.random.default_rng(3)
    for _ in range(5):
        r0 = _random_state(rng)
        for t in (0.2, 1.5, 9.0):
            out = propagate_pair(r0, P_MEMORY, P_STIFF, t)
            assert abs(out.trace() - 1.0) < 1e-14
            assert np.abs(out - out.conj().T).max() < 1e-12


def test_positivity_preserved_without_warning():
    # the accumulated exponents stay nonnegative even when the
    # instantaneous rate dips below zero, so the map keeps physical
    # states physical
    rng = np.random.default_rng(17)
    r0 = _random_state(rng)
    for t in np.linspace(0.1, 12.0, 25):
        out = propagate_pair(r0, P_MEMORY, P_MEMORY, float(t))
        assert min_eigenvalue(out) > -1e-12


def test_partition_exchange_symmetry():
    # swapping the two partitions commutes with swapping the parameter sets
    perm = [0, 3, 6, 1, 4, 7, 2, 5, 8]  # (i, j) -> (j, i) on the pair index
    rng = np.random.default_rng(29)
    r0 = _random_state(rng)
    swapped = r0[np.ix_(perm, perm)]
    for t in (0.6, 2.1):
        lhs = propagate_pair(swapped, P_MEMORY, P_MARKOV, t)
        rhs = propagate_pair(r0, P_MARKOV, P_MEMORY, t)[np.ix_(perm, perm)]
        assert np.abs(lhs - rhs).max() < 1e-14


_PARAMS = st.builds(
    JcmParams,
    omega0=st.floats(0.0, 10.0),
    omega=st.floats(0.0, 50.0),
    gamma0=st.floats(0.1, 5.0),
    lam=st.floats(0.01, 50.0),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p_a=_PARAMS, p_b=_PARAMS, t=st.floats(0.0, 50.0))
def test_product_states_factorize(p_a, p_b, t):
    rng = np.random.default_rng(41)
    rho_a = _random_state(rng, 3)
    rho_b = _random_state(rng, 3)
    joint = propagate_pair(np.kron(rho_a, rho_b), p_a, p_b, t)
    split = np.kron(propagate_single(rho_a, p_a, t), propagate_single(rho_b, p_b, t))
    assert np.abs(joint - split).max() < 1e-14


def test_ground_population_monotone_in_markovian_regime():
    r0 = initial_state(1.0)
    ts = np.linspace(0.0, 15.0, 151)
    pops = [propagate_pair(r0, P_MARKOV, P_MARKOV, float(t))[8, 8].real for t in ts]
    assert all(b - a >= -1e-12 for a, b in zip(pops, pops[1:]))
    # the Bell start always holds one photon, so |0g 0g> is initially empty
    assert pops[0] == pytest.approx(0.0, abs=1e-14)
    assert pops[-1] > 0.998  # everything relaxes into the double ground level


def test_rejects_invalid_input():
    bad_trace = np.eye(9, dtype=complex)
    with pytest.raises(ValueError):
        propagate_pair(bad_trace, P_MARKOV, P_MARKOV, 1.0)
    non_hermitian = np.eye(9, dtype=complex) / 9.0
    non_hermitian[0, 1] = 0.5
    with pytest.raises(ValueError):
        propagate_pair(non_hermitian, P_MARKOV, P_MARKOV, 1.0)
    with pytest.raises(ValueError):
        propagate_pair(np.full((9, 9), np.nan), P_MARKOV, P_MARKOV, 1.0)
    for t in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            propagate_pair(np.eye(9) / 9.0, P_MARKOV, P_MARKOV, t)


def test_min_eigenvalue():
    m = np.diag([0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0]).astype(complex)
    assert min_eigenvalue(m) == pytest.approx(0.0, abs=1e-15)
    m[8, 8] = -1e-3
    assert min_eigenvalue(m) == pytest.approx(-1e-3)


def test_x_kernel_tables_are_real():
    # the kernel runs as real matrix products over the float view of the
    # complex coefficient products, so its stored tables must be float64
    assert evolution._K1.dtype == np.float64
    assert evolution._K0.dtype == np.float64
    assert evolution._K1.shape == evolution._K0.shape == (len(evolution._PAIR_A), 49)


def test_x_kernel_refuses_an_imaginary_entry(monkeypatch):
    # a reduction table with a phase keeps every reduction X-shaped but
    # makes the kernel complex, which the import-time proof must reject
    monkeypatch.setattr(evolution, "_REDUCTION", evolution._REDUCTION * 1j)
    with pytest.raises(RuntimeError, match="not real; internal error"):
        evolution._x_kernel()
