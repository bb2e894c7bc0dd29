"""Closed-form propagation of the two-partition (9x9) density matrix.

The two partitions never interact, so the joint map is the tensor product
of the two single-partition maps: with T_A and T_B the (3,3,3,3) transfer
tensors of `propagator.transfer_tensor`, the pair state is

    R'[(a,b), (c,d)] = sum T_A[a,c,m,o] T_B[b,d,n,q] R[(m,n), (o,q)],

evaluated for a whole array of times at once as two batched 9x9 matrix
products, one per partition.

Basis ordering is A-major: index 3*i + j holds (A level i, B level j)
with levels ordered (|+>, |->, |0g>) per partition.
"""

from __future__ import annotations

import numpy as np

from .linalg import validate_density_matrix
from .propagator import JcmParams, transfer_tensor

__all__ = [
    "propagate_pair",
    "propagate_pairs",
    "identical_partitions",
    "min_eigenvalue",
]


def propagate_pairs(r0: np.ndarray, p_a: JcmParams, p_b: JcmParams, times: np.ndarray) -> np.ndarray:
    """Propagate a 9x9 dressed-basis two-partition state to each of T times.

    Returns the (T,9,9) stack of states. The partitions may carry
    different parameters. Trace and Hermiticity drift are checked on
    every state of the stack; positivity is not (the second-order master
    equation is not guaranteed completely positive, and `validate`
    reports the smallest eigenvalue through `min_eigenvalue`).
    """
    r0 = validate_density_matrix(r0, 9, name="r0")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be one-dimensional, got shape {times.shape}")
    # Partition A's map acts on the (m, o) indices of R, B's on (n, q):
    # R as a 9x9 matrix over (m o), (n q), then out[(a c), (b d)] = T_A R T_B^T.
    ta = transfer_tensor(p_a, times).reshape(-1, 9, 9)
    tb = transfer_tensor(p_b, times).reshape(-1, 9, 9)
    r = r0.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)
    out = ta @ (r @ tb.transpose(0, 2, 1))
    out = out.reshape(-1, 3, 3, 3, 3).transpose(0, 1, 3, 2, 4).reshape(-1, 9, 9)

    drift = np.abs(np.trace(out, axis1=1, axis2=2) - r0.trace()).max(initial=0.0)
    if not drift <= 1e-12:
        raise RuntimeError(f"propagation lost trace ({drift:.3e}); internal error")
    defect = np.abs(out - out.conj().transpose(0, 2, 1)).max(initial=0.0)
    if not defect <= 1e-10:
        raise RuntimeError(f"propagation broke Hermiticity ({defect:.3e}); internal error")
    return out


def propagate_pair(r0: np.ndarray, p_a: JcmParams, p_b: JcmParams, t: float) -> np.ndarray:
    """Propagate a 9x9 dressed-basis two-partition state from 0 to t.

    The one-time case of `propagate_pairs`, with the same checks.
    """
    return propagate_pairs(r0, p_a, p_b, np.array([t]))[0]


def identical_partitions(p_a: JcmParams, p_b: JcmParams, rtol: float = 1e-12) -> bool:
    """True when all four parameters of the partitions agree to relative rtol."""
    pairs = (
        (p_a.omega0, p_b.omega0),
        (p_a.omega, p_b.omega),
        (p_a.gamma0, p_b.gamma0),
        (p_a.lam, p_b.lam),
    )
    return all(
        abs(x - y) <= rtol * max(abs(x), abs(y), 1.0) for x, y in pairs
    )


def min_eigenvalue(rho: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue of a Hermitian matrix (positivity diagnostic).

    For a (..., n, n) stack, the array of each matrix's smallest eigenvalue.
    """
    rho = np.asarray(rho)
    low = np.linalg.eigvalsh((rho + rho.conj().swapaxes(-1, -2)) / 2.0)[..., 0]
    return float(low) if rho.ndim == 2 else low
