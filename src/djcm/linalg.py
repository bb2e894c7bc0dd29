"""Small dense linear-algebra helpers shared by the rest of the package.

Everything here operates on plain complex numpy arrays. Matrices are at
most 16x16. Where a helper accepts a stack of them (shape (..., n, n)),
the caller bounds the stack's size; the trajectory pipeline passes one
chunk of its time grid at a time. Clarity and strict input checking win.
The Hermiticity and trace checks accept errors up to 1e-10, the same for
every caller.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dag",
    "validate_density_matrix",
    "validate_density_stack",
    "hermitian_eig",
    "partial_trace_qubits",
]

_QUBIT_DIM = 2

# Largest Hermiticity defect and trace error the checks below accept.
_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a (..., n, n) stack."""
    return m.conj().swapaxes(-1, -2)


def validate_density_matrix(rho: np.ndarray, dim: int, *, name: str = "state") -> np.ndarray:
    """Check shape, Hermiticity and unit trace; return the array as complex.

    Positivity is deliberately not enforced here: several callers work with
    states carrying harmless O(1e-12) negative eigenvalues from rounding,
    and the places that genuinely need positive semidefiniteness (the
    concurrence routines) check it themselves.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got shape {rho.shape}")
    return validate_density_stack(rho, dim, name=name)


def validate_density_stack(rho: np.ndarray, dim: int, *, name: str = "state") -> np.ndarray:
    """`validate_density_matrix` for a stack of shape (..., dim, dim).

    Every matrix of the stack is checked; an error names the worst one
    by its stack index.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got shape {rho.shape}")
    if rho.size == 0:
        return rho

    def worst(per_matrix: np.ndarray) -> tuple[tuple, str]:
        # index of the largest value (NaN counts as largest) and its label
        k = np.unravel_index(int(np.argmax(per_matrix)), per_matrix.shape)
        return k, name if rho.ndim == 2 else f"{name}[{', '.join(map(str, k))}]"

    defect = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    k, label = worst(defect)
    if not defect[k] <= _HERM_TOL:
        raise ValueError(f"{label} is not Hermitian (defect {defect[k]:.3e})")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    k, label = worst(np.abs(tr - 1.0))
    if not abs(tr[k] - 1.0) <= _TRACE_TOL:
        raise ValueError(f"{label} must have unit trace, got {tr[k]:.12g}")
    return rho


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of Hermitian matrices, eigenvalues descending.

    Takes one n x n matrix or a (..., n, n) stack. Returns (w, v) with
    m = v @ diag(w) @ v^dagger for each matrix and the columns of v
    orthonormal. Raises ValueError if a matrix is not Hermitian to within
    1e-10, naming the worst offending entry (and, in a stack, its index).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    mirror = dag(m)
    diff = np.abs(m - mirror)
    if diff.size and not diff.max() <= _HERM_TOL:
        k = np.unravel_index(int(diff.argmax()), diff.shape)
        where = "" if m.ndim == 2 else f"matrix [{', '.join(map(str, k[:-2]))}] "
        raise ValueError(
            f"matrix is not Hermitian: {where}entry ({k[-2]},{k[-1]}) differs from its "
            f"mirror by {diff[k]:.3e}"
        )
    w, v = np.linalg.eigh((m + mirror) / 2.0)
    return w[..., ::-1].copy(), v[..., ::-1].copy()


def partial_trace_qubits(m: np.ndarray, total_qubits: int, keep: tuple[int, ...]) -> np.ndarray:
    """Trace out all qubits of an n-qubit operator except those in `keep`.

    Qubit 0 is the most significant factor of the 2**n-dimensional index.
    The order of `keep` is the order of the factors in the output, so
    keep=(2, 0) returns an operator whose first (most significant) qubit
    is qubit 2 of the input. Leading axes of m, if any, are a stack of
    operators traced one by one.
    """
    dim = _QUBIT_DIM**total_qubits
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (dim, dim):
        raise ValueError(
            f"operator shape {m.shape} does not match {total_qubits} qubits"
        )
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep list {keep} contains duplicates")
    if not keep:
        raise ValueError("keep list is empty")
    for q in keep:
        if not 0 <= q < total_qubits:
            raise ValueError(f"qubit index {q} out of range for {total_qubits} qubits")

    # Axes 0..n-1 are row factors, n..2n-1 the matching column factors.
    stack = m.shape[:-2]
    tensor = m.reshape(stack + (_QUBIT_DIM,) * (2 * total_qubits))
    letters = "abcdefghijklmnop"
    row = list(letters[:total_qubits])
    col = [letters[total_qubits + q] if q in keep else row[q] for q in range(total_qubits)]
    out = "".join(row[q] for q in keep) + "".join(col[q] for q in keep)
    reduced = np.einsum("..." + "".join(row) + "".join(col) + "->..." + out, tensor)
    d = _QUBIT_DIM ** len(keep)
    return reduced.reshape(stack + (d, d))
