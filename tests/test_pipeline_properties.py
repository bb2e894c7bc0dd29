"""Properties of the time-batched trajectory pipeline over random inputs.

Production propagates a whole time grid at once (`propagate_pairs`),
reduces it through the precomputed table (`reduce_stack`) and measures
it with the X-state closed form (`concurrence_x_state`). These
properties tie that path to the one-time pipeline with the spectral
concurrence, and check the structure every reduction of this model has.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from djcm.entanglement import concurrence, concurrence_x_state
from djcm.evolution import propagate_pair, propagate_pairs
from djcm.propagator import JcmParams
from djcm.states import ReductionTarget, initial_state, reduce_all, reduce_stack

# entries an X-shaped 4x4 state may carry: diagonal and anti-diagonal
_X = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]

_PARAMS = st.builds(
    JcmParams,
    omega0=st.just(0.0),
    omega=st.floats(0.0, 50.0),
    gamma0=st.floats(0.1, 5.0),
    lam=st.floats(0.01, 50.0),
)
_PURITY = st.floats(0.0, 1.0)
_GRID = st.builds(
    lambda t_max, samples: np.linspace(0.0, t_max, samples),
    st.floats(0.1, 50.0),
    st.integers(2, 12),
)
_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


def _batched(p_a, p_b, r, times):
    blocks = reduce_stack(propagate_pairs(initial_state(r), p_a, p_b, times))
    return blocks, concurrence_x_state(blocks)


@_SETTINGS
@given(p_a=_PARAMS, p_b=_PARAMS, r=_PURITY, times=_GRID)
def test_batched_pipeline_matches_per_sample_spectral_route(p_a, p_b, r, times):
    _, batched = _batched(p_a, p_b, r, times)
    r0 = initial_state(r)
    for k, t in enumerate(times):
        pairs = reduce_all(propagate_pair(r0, p_a, p_b, float(t)))
        for target in ReductionTarget:
            assert abs(batched[k, target.block] - concurrence(pairs[target])) <= 1e-8


@_SETTINGS
@given(p_a=_PARAMS, p_b=_PARAMS, r=_PURITY, times=_GRID)
def test_every_reduction_is_a_unit_trace_hermitian_x_state(p_a, p_b, r, times):
    blocks, _ = _batched(p_a, p_b, r, times)
    assert np.abs(np.trace(blocks, axis1=-2, axis2=-1) - 1.0).max() <= 1e-12
    assert np.abs(blocks - blocks.conj().swapaxes(-1, -2)).max() <= 1e-12
    assert np.abs(blocks[..., ~_X]).max() <= 1e-12


@_SETTINGS
@given(p=_PARAMS, r=_PURITY, times=_GRID)
def test_identical_partitions_give_mirror_pairs_equal_concurrence(p, r, times):
    _, c = _batched(p, p, r, times)
    T = ReductionTarget
    for left, right in ((T.Aa, T.Bb), (T.Ab, T.aB)):
        assert np.abs(c[:, left.block] - c[:, right.block]).max() <= 1e-12


@_SETTINGS
@given(p=_PARAMS, omega0=st.floats(0.1, 10.0), r=_PURITY, times=_GRID)
def test_concurrences_do_not_depend_on_omega0(p, omega0, r, times):
    shifted = JcmParams(omega0=omega0, omega=p.omega, gamma0=p.gamma0, lam=p.lam)
    _, base = _batched(p, p, r, times)
    _, moved = _batched(shifted, shifted, r, times)
    assert np.abs(base - moved).max() <= 1e-10
