"""Properties of the time-batched trajectory pipeline over random inputs.

Production evaluates the X entries of all six reductions for a whole
time grid straight from the partitions' coefficient vectors
(`pair_x_entries`) and measures them with the Yu-Eberly closed form
(`concurrence_x_entries`). These properties tie that path to the 9x9
route (`propagate_pairs`, `reduce_stack`) and to the one-time pipeline
with the spectral concurrence, and check the structure every reduction
of this model has.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from djcm import evolution
from djcm.entanglement import X_ENTRIES, concurrence, concurrence_x_entries
from djcm.evolution import pair_x_entries, propagate_pair, propagate_pairs
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


_X_ROWS, _X_COLS = (list(axis) for axis in zip(*X_ENTRIES))


def _batched(p_a, p_b, r, times):
    x = pair_x_entries(p_a, p_b, r, times)
    blocks = np.zeros(x.shape[:-1] + (4, 4), dtype=complex)
    blocks[..., _X_ROWS, _X_COLS] = x
    return blocks, concurrence_x_entries(x)


@_SETTINGS
@given(p_a=_PARAMS, p_b=_PARAMS, r=_PURITY, times=_GRID)
def test_kernel_x_entries_match_the_reduced_9x9_stack(p_a, p_b, r, times):
    assume(p_a != p_b)  # so neither coefficient vector stands in for the other
    states = propagate_pairs(initial_state(r), p_a, p_b, times)
    blocks = reduce_stack(states)
    assert np.abs(pair_x_entries(p_a, p_b, r, times) - blocks[..., _X_ROWS, _X_COLS]).max() <= 1e-12
    assert np.abs(blocks[..., ~_X]).max() <= 1e-12
    kernel = evolution._purity_kernel(r)
    [(_, (image,))] = evolution._kernel_chunks(p_a, p_b, times, [kernel], len(times))
    assert np.abs(image[-1] - np.trace(states, axis1=1, axis2=2)).max() <= 1e-12


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
