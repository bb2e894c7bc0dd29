"""Initial-state preparation, basis traffic, and subsystem reductions.

The riskiest code in the package is index bookkeeping: which four-qubit
slot belongs to which subsystem, and which 16-dim levels carry the
9-dim state. The tests here rebuild the initial state through an
independent route (plain kron in a different qubit ordering, then an
axis permutation) and check the reductions against states simple enough
to write down by eye.
"""

import numpy as np
import pytest

from djcm import bases
from djcm.evolution import propagate_pair, propagate_pairs
from djcm.linalg import partial_trace_qubits
from djcm.propagator import JcmParams
from djcm.states import (
    ReductionTarget,
    dressed_to_standard,
    embed_standard_16,
    initial_state,
    reduce,
    reduce_all,
    reduce_stack,
    standard_to_dressed,
)

P = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=5.0)


def test_dressing_matrix_is_unitary():
    u = bases.DRESSED_FROM_STANDARD
    assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-15
    # the ground level is untouched by the dressing
    assert np.abs(u[2] - np.array([0.0, 0.0, 1.0])).max() == 0.0


def test_qubit_slot_assignments():
    assert bases.QUBITS == ("a", "A", "b", "B")
    assert ReductionTarget.AB.qubits == (1, 3)
    assert ReductionTarget.ab.qubits == (0, 2)
    assert ReductionTarget.Aa.qubits == (1, 0)  # atom named first, so atom on the left
    assert ReductionTarget.Bb.qubits == (3, 2)
    assert ReductionTarget.Ab.qubits == (1, 2)
    assert ReductionTarget.aB.qubits == (0, 3)


def test_embedding_levels():
    # 3 levels per partition, partition a in the high bits; the embedding
    # must be strictly increasing within each partition block
    assert len(bases.EMBED_16) == 9
    assert len(set(bases.EMBED_16)) == 9
    for i in range(3):
        block = bases.EMBED_16[3 * i : 3 * i + 3]
        assert block == tuple(sorted(block))


def test_initial_state_basic_properties():
    for r in (0.0, 0.35, 1.0):
        s = initial_state(r)
        assert s.shape == (9, 9)
        assert abs(s.trace() - 1.0) < 1e-14
        assert np.abs(s - s.conj().T).max() < 1e-14
        assert np.linalg.eigvalsh(s).min() > -1e-14
    purity = float(np.trace(initial_state(1.0) @ initial_state(1.0)).real)
    assert purity == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ValueError):
        initial_state(-0.01)
    with pytest.raises(ValueError):
        initial_state(1.01)


def test_initial_state_against_independent_construction():
    # build the same 16-dim state with plain kron in qubit order
    # (a, b, A, B), then permute to the package order (a, A, b, B)
    one = np.array([1.0, 0.0], dtype=complex)  # one photon / excited
    zero = np.array([0.0, 1.0], dtype=complex)  # vacuum / ground
    atom_g = np.outer(zero, zero)
    phi_vec = (np.kron(one, zero) + np.kron(zero, one)) / np.sqrt(2.0)
    for r in (0.0, 0.5, 1.0):
        rho_cav = r * np.outer(phi_vec, phi_vec.conj()) + (1.0 - r) / 4.0 * np.eye(4)
        big = np.kron(rho_cav, np.kron(atom_g, atom_g)).reshape([2] * 8)
        big = big.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
        via_package = embed_standard_16(dressed_to_standard(initial_state(r)))
        assert np.abs(big - via_package).max() < 1e-14


def test_basis_round_trips():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    s = a @ a.conj().T
    s /= s.trace()
    back = standard_to_dressed(dressed_to_standard(s))
    assert np.abs(back - s).max() < 1e-13
    assert abs(dressed_to_standard(s).trace() - 1.0) < 1e-13


def test_double_ground_level_is_basis_independent():
    e99 = np.zeros((9, 9), dtype=complex)
    e99[8, 8] = 1.0
    assert np.abs(dressed_to_standard(e99) - e99).max() < 1e-15


def test_embedding_leaves_excluded_levels_empty():
    s = dressed_to_standard(initial_state(0.7))
    rho16 = embed_standard_16(s)
    mask = np.zeros(16, dtype=bool)
    mask[list(bases.EMBED_16)] = True
    assert np.abs(rho16[~mask, :]).max() == 0.0
    assert np.abs(rho16[:, ~mask]).max() == 0.0
    assert abs(rho16.trace() - 1.0) < 1e-14


def test_reductions_of_pure_bell_start():
    states = reduce_all(initial_state(1.0))
    bell = np.zeros((4, 4), dtype=complex)
    for i in (1, 2):
        for j in (1, 2):
            bell[i, j] = 0.5
    assert np.abs(states[ReductionTarget.ab] - bell).max() < 1e-14
    gg = np.zeros((4, 4), dtype=complex)
    gg[3, 3] = 1.0  # both atoms in the ground state -> |00>
    assert np.abs(states[ReductionTarget.AB] - gg).max() < 1e-14
    # atom ground x cavity half-filled; which diagonal slots fill up
    # depends on which subsystem is named first
    atom_left = np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex)
    cavity_left = np.diag([0.0, 0.5, 0.0, 0.5]).astype(complex)
    for target in (ReductionTarget.Aa, ReductionTarget.Bb, ReductionTarget.Ab):
        assert np.abs(states[target] - atom_left).max() < 1e-14
    assert np.abs(states[ReductionTarget.aB] - cavity_left).max() < 1e-14


def test_reductions_of_fully_mixed_start():
    states = reduce_all(initial_state(0.0))
    assert np.abs(states[ReductionTarget.ab] - np.eye(4) / 4.0).max() < 1e-14
    gg = np.zeros((4, 4), dtype=complex)
    gg[3, 3] = 1.0
    assert np.abs(states[ReductionTarget.AB] - gg).max() < 1e-14


def test_reduce_matches_reduce_all():
    s = propagate_pair(initial_state(0.8), P, P, 1.3)
    bundle = reduce_all(s)
    for target in ReductionTarget:
        single = reduce(s, target)
        assert np.abs(single - bundle[target]).max() == 0.0


def test_reduce_stack_matches_reduce_all():
    times = np.linspace(0.0, 6.0, 7)
    states = propagate_pairs(initial_state(0.65), P, P, times)
    blocks = reduce_stack(states)
    assert blocks.shape == (7, 6, 4, 4)
    for k in range(len(times)):
        bundle = reduce_all(states[k])
        for target in ReductionTarget:
            assert np.abs(blocks[k, target.block] - bundle[target]).max() < 1e-15
    with pytest.raises(ValueError, match=r"\(T,9,9\)"):
        reduce_stack(states[0])
    broken = states.copy()
    broken[3, 0, 1] += 1e-3
    with pytest.raises(ValueError, match=r"state\[3\] is not Hermitian"):
        reduce_stack(broken)


def test_reductions_stay_valid_along_trajectory():
    s0 = initial_state(0.6)
    for t in np.linspace(0.0, 12.0, 13):
        s = propagate_pair(s0, P, P, float(t))
        for ps in reduce_all(s).values():
            assert abs(ps.trace() - 1.0) < 1e-12
            assert np.abs(ps - ps.conj().T).max() < 1e-12


def test_exchange_symmetric_reductions():
    # identical partitions and a symmetric start: swapping the partition
    # labels maps Aa onto Bb directly, and Ab onto aB up to reordering
    # the two tensor factors (Ab is atom-left, aB cavity-left)
    s = propagate_pair(initial_state(1.0), P, P, 0.9)
    states = reduce_all(s)
    assert np.abs(
        states[ReductionTarget.Aa] - states[ReductionTarget.Bb]
    ).max() < 1e-13
    swap = [0, 2, 1, 3]  # |xy> -> |yx> in the (|11>,|10>,|01>,|00>) basis
    swapped_aB = states[ReductionTarget.aB][np.ix_(swap, swap)]
    assert np.abs(states[ReductionTarget.Ab] - swapped_aB).max() < 1e-13


def test_reductions_do_not_depend_on_qubit_frequency():
    # the start carries no coherence between different total excitation
    # numbers, so the free phase cancels out of every reduced entry
    p_shift = JcmParams(omega0=10.0, omega=1.0, gamma0=1.0, lam=5.0)
    s0 = initial_state(0.9)
    for t in (0.7, 2.9):
        base = reduce_all(propagate_pair(s0, P, P, t))
        shifted = reduce_all(propagate_pair(s0, p_shift, p_shift, t))
        for target in ReductionTarget:
            assert np.abs(base[target] - shifted[target]).max() < 1e-12


def test_reduction_consistency_with_manual_trace():
    # every target against a hand-rolled partial trace; the precomputed
    # reduction table sums the same products in another order, so the
    # two agree to a few ulps of an O(1) entry, not bit for bit
    s = propagate_pair(initial_state(0.5), P, P, 2.0)
    rho16 = embed_standard_16(dressed_to_standard(s))
    for target in ReductionTarget:
        manual = partial_trace_qubits(rho16, 4, target.qubits)
        assert np.abs(reduce(s, target) - manual).max() < 1e-15

