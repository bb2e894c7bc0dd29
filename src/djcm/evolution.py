"""Closed-form propagation of the two-partition (9x9) density matrix.

The two partitions never interact, so the joint map is the tensor product
of the two single-partition maps: with T_A and T_B the (3,3,3,3) transfer
tensors of `propagator.transfer_tensor`, the pair state is

    R'[(a,b), (c,d)] = sum T_A[a,c,m,o] T_B[b,d,n,q] R[(m,n), (o,q)],

one einsum over the 9x9 state viewed as a (3,3,3,3) array.

Basis ordering is A-major: index 3*i + j holds (A level i, B level j)
with levels ordered (|+>, |->, |0g>) per partition.
"""

from __future__ import annotations

import warnings

import numpy as np

from .linalg import validate_density_matrix
from .propagator import JcmParams, transfer_tensor

__all__ = [
    "propagate_pair",
    "identical_partitions",
    "min_eigenvalue",
]


def propagate_pair(
    r0: np.ndarray,
    p_a: JcmParams,
    p_b: JcmParams,
    t: float,
    *,
    check_positivity: bool = False,
) -> np.ndarray:
    """Propagate a 9x9 dressed-basis two-partition state from 0 to t.

    The partitions may carry different parameters. With
    check_positivity=True the smallest eigenvalue of the result is
    inspected and a warning is emitted below -1e-8: the second-order
    master equation is not guaranteed completely positive, and silently
    clamping would corrupt downstream entanglement values.
    """
    r0 = validate_density_matrix(r0, 9, name="r0")
    out = np.einsum(
        "acmo,bdnq,mnoq->abcd",
        transfer_tensor(p_a, t),
        transfer_tensor(p_b, t),
        r0.reshape(3, 3, 3, 3),
    ).reshape(9, 9)

    drift = abs(out.trace() - r0.trace())
    if not drift <= 1e-12:
        raise RuntimeError(f"propagation lost trace ({drift:.3e}); internal error")
    defect = float(np.abs(out - out.conj().T).max())
    if not defect <= 1e-10:
        raise RuntimeError(f"propagation broke Hermiticity ({defect:.3e}); internal error")
    if check_positivity:
        low = min_eigenvalue(out)
        if low < -1e-8:
            warnings.warn(
                f"state eigenvalue {low:.3e} below -1e-8 at t={t:g} "
                "(second-order master equation is not completely positive)",
                RuntimeWarning,
                stacklevel=2,
            )
    return out


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


def min_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (positivity diagnostic)."""
    return float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
