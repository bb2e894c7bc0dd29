import numpy as np
import pytest

from djcm.linalg import (
    dag,
    hermitian_eig,
    partial_trace_qubits,
    validate_density_matrix,
    validate_density_stack,
)


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0


def test_hermitian_eig_pauli_x():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    w, v = hermitian_eig(sx)
    assert np.allclose(w, [1.0, -1.0])
    assert np.abs(v @ np.diag(w) @ dag(v) - sx).max() < 1e-12


def test_hermitian_eig_diagonal_descending():
    w, _ = hermitian_eig(np.diag([3.0, 1.0]))
    assert w[0] == pytest.approx(3.0) and w[1] == pytest.approx(1.0)


def test_hermitian_eig_reconstructs_random():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 9):
        m = random_hermitian(rng, n)
        w, v = hermitian_eig(m)
        assert (np.diff(w) <= 1e-12).all()  # descending
        assert np.abs(v @ np.diag(w) @ dag(v) - m).max() < 1e-10
        assert np.abs(dag(v) @ v - np.eye(n)).max() < 1e-12


def test_hermitian_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(m)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    rho1 = random_hermitian(rng, 2)
    rho1 = rho1 @ rho1.conj().T
    rho1 /= rho1.trace()
    rho2 = random_hermitian(rng, 2)
    rho2 = rho2 @ rho2.conj().T
    rho2 /= rho2.trace()
    joint = np.kron(rho1, rho2)
    assert np.abs(partial_trace_qubits(joint, 2, (0,)) - rho1).max() < 1e-12
    assert np.abs(partial_trace_qubits(joint, 2, (1,)) - rho2).max() < 1e-12


def test_partial_trace_keep_order_swaps_factors():
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, 4)
    forward = partial_trace_qubits(np.kron(m, np.eye(2) / 2.0), 3, (0, 1))
    swapped = partial_trace_qubits(np.kron(m, np.eye(2) / 2.0), 3, (1, 0))
    # swapping the keep list permutes the two qubit factors
    perm = np.array([0, 2, 1, 3])
    assert np.abs(swapped - forward[np.ix_(perm, perm)]).max() < 1e-12


def test_partial_trace_bell_is_maximally_mixed():
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    reduced = partial_trace_qubits(bell, 2, (0,))
    assert np.abs(reduced - np.eye(2) / 2.0).max() < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(13)
    m = random_hermitian(rng, 16)
    for keep in ((0,), (2, 3), (3, 1), (0, 1, 2)):
        reduced = partial_trace_qubits(m, 4, keep)
        assert abs(reduced.trace() - m.trace()) < 1e-10


def test_partial_trace_of_a_stack():
    rng = np.random.default_rng(19)
    stack = np.array([random_hermitian(rng, 8) for _ in range(3)]).reshape(3, 1, 8, 8)
    reduced = partial_trace_qubits(stack, 3, (2, 0))
    assert reduced.shape == (3, 1, 4, 4)
    for k in range(3):
        assert np.abs(reduced[k, 0] - partial_trace_qubits(stack[k, 0], 3, (2, 0))).max() < 1e-15


def test_partial_trace_input_checks():
    m = np.eye(4) / 4.0
    with pytest.raises(ValueError, match="does not match"):
        partial_trace_qubits(m, 3, (0,))
    with pytest.raises(ValueError, match="duplicates"):
        partial_trace_qubits(m, 2, (0, 0))
    with pytest.raises(ValueError, match="out of range"):
        partial_trace_qubits(m, 2, (2,))
    with pytest.raises(ValueError, match="empty"):
        partial_trace_qubits(m, 2, ())


def test_validate_density_matrix():
    good = np.eye(3) / 3.0
    validate_density_matrix(good, 3)
    with pytest.raises(ValueError, match="unit trace"):
        validate_density_matrix(np.eye(3), 3)
    with pytest.raises(ValueError, match="3x3"):
        validate_density_matrix(np.eye(4) / 4.0, 3)
    bad = np.eye(3) / 3.0 + 0j
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(bad, 3)
    # NaN compares False against every tolerance; the guards must still fire
    with pytest.raises(ValueError):
        validate_density_matrix(np.full((9, 9), np.nan), 9)


def test_validate_density_stack_names_the_worst_matrix():
    stack = np.array([np.eye(3) / 3.0] * 4, dtype=complex).reshape(2, 2, 3, 3)
    assert validate_density_stack(stack, 3).shape == (2, 2, 3, 3)
    assert validate_density_stack(np.empty((0, 3, 3)), 3).shape == (0, 3, 3)
    with pytest.raises(ValueError, match="3x3"):
        validate_density_stack(np.eye(3)[0], 3)
    bad = stack.copy()
    bad[1, 0, 2, 2] += 0.5
    with pytest.raises(ValueError, match=r"state\[1, 0\] must have unit trace"):
        validate_density_stack(bad, 3)
    bad = stack.copy()
    bad[0, 1, 0, 1] = 1e-3
    bad[1, 1, 0, 1] = 1e-6
    with pytest.raises(ValueError, match=r"rho\[0, 1\] is not Hermitian"):
        validate_density_stack(bad, 3, name="rho")
    bad = stack.copy()
    bad[1, 1, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"state\[1, 1\]"):
        validate_density_stack(bad, 3)
