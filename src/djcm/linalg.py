"""Small dense linear-algebra helpers shared by the rest of the package.

Everything here operates on plain complex numpy arrays. Dimensions never
exceed 16x16, so no attention is paid to cache behaviour or workspace
reuse; clarity and strict input checking win.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dag",
    "hermiticity_defect",
    "validate_density_matrix",
    "hermitian_eig",
    "partial_trace_qubits",
]

_QUBIT_DIM = 2


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entry-wise deviation of m from its own conjugate transpose."""
    return float(np.abs(m - m.conj().T).max())


def validate_density_matrix(
    rho: np.ndarray,
    dim: int,
    *,
    name: str = "state",
    herm_tol: float = 1e-10,
    trace_tol: float = 1e-10,
) -> np.ndarray:
    """Check shape, Hermiticity and unit trace; return the array as complex.

    Positivity is deliberately not enforced here: several callers work with
    states carrying harmless O(1e-12) negative eigenvalues from rounding,
    and the one place that genuinely needs positive semidefiniteness
    (the concurrence) checks it itself.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got shape {rho.shape}")
    defect = hermiticity_defect(rho)
    if not defect <= herm_tol:
        raise ValueError(f"{name} is not Hermitian (defect {defect:.3e})")
    tr = rho.trace()
    if not abs(tr - 1.0) <= trace_tol:
        raise ValueError(f"{name} must have unit trace, got {tr:.12g}")
    return rho


def hermitian_eig(m: np.ndarray, herm_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (w, v) with m = v @ diag(w) @ v^dagger and the columns of v
    orthonormal. Raises ValueError if m is not Hermitian to within
    herm_tol, naming the worst offending entry.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    diff = np.abs(m - m.conj().T)
    defect = float(diff.max())
    if not defect <= herm_tol:
        i, j = np.unravel_index(int(diff.argmax()), diff.shape)
        raise ValueError(
            f"matrix is not Hermitian: entry ({i},{j}) differs from its "
            f"mirror by {defect:.3e}"
        )
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return w[::-1].copy(), v[:, ::-1].copy()


def partial_trace_qubits(m: np.ndarray, total_qubits: int, keep: tuple[int, ...]) -> np.ndarray:
    """Trace out all qubits of an n-qubit operator except those in `keep`.

    Qubit 0 is the most significant factor of the 2**n-dimensional index.
    The order of `keep` is the order of the factors in the output, so
    keep=(2, 0) returns an operator whose first (most significant) qubit
    is qubit 2 of the input.
    """
    dim = _QUBIT_DIM**total_qubits
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim, dim):
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
    tensor = m.reshape((_QUBIT_DIM,) * (2 * total_qubits))
    letters = "abcdefghijklmnop"
    row = list(letters[:total_qubits])
    col = [letters[total_qubits + q] if q in keep else row[q] for q in range(total_qubits)]
    out = "".join(row[q] for q in keep) + "".join(col[q] for q in keep)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out, tensor)
    d = _QUBIT_DIM ** len(keep)
    return reduced.reshape(d, d)
