"""Two-qubit entanglement measures and the long-time entangled states.

Concurrence of a two-qubit density matrix rho: with the spin-flipped
conjugate rho_tilde = (sy x sy) rho* (sy x sy), the measure is

    C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)),

l_i the decreasing eigenvalues of rho * rho_tilde. That product is not
Hermitian; the implementation diagonalizes the similar Hermitian matrix
sqrt(rho) rho_tilde sqrt(rho) instead, which has the same spectrum and
keeps the whole computation inside real symmetric eigensolvers.

For X-structured states (support on diagonal plus anti-diagonal only,
which covers every reduction this model produces) the closed form

    C = 2 max(0, |rho_23| - sqrt(rho_11 rho_44), |rho_14| - sqrt(rho_22 rho_33))

serves as an independent cross-check.

The module also builds the quasi-steady reduced states reached once the
short-lived dressed branch has decayed while the long-lived one has not:
one fixed matrix for the atom-cavity pairs inside a partition, one
purity-dependent family for the four cross-partition pairs, together
with the purity threshold below which the latter loses its entanglement.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import dag, hermitian_eig, validate_density_matrix
from .states import PairState

__all__ = [
    "concurrence",
    "concurrence_x_state",
    "steady_pair_nonlocal",
    "steady_pair_local",
    "steady_concurrence_nonlocal",
    "STEADY_PURITY_THRESHOLD",
]

# (sy x sy) in the (|11>,|10>,|01>,|00>) basis: anti-diagonal (-1, 1, 1, -1).
_SPIN_FLIP = np.zeros((4, 4))
_SPIN_FLIP[0, 3] = _SPIN_FLIP[3, 0] = -1.0
_SPIN_FLIP[1, 2] = _SPIN_FLIP[2, 1] = 1.0

# Smallest cavity purity for which the cross-partition quasi-steady state
# is entangled: the positive root of 63 r^2 + 50 r - 49 = 0.
STEADY_PURITY_THRESHOLD = (-25.0 + 8.0 * math.sqrt(58.0)) / 63.0


def _as_matrix(p: PairState | np.ndarray) -> np.ndarray:
    m = p.matrix if isinstance(p, PairState) else p
    return validate_density_matrix(m, 4, name="pair state")


def concurrence(p: PairState | np.ndarray) -> float:
    """Wootters concurrence of a two-qubit state, in [0, 1]."""
    rho = _as_matrix(p)
    w, v = hermitian_eig(rho)
    if w[-1] < -1e-8:
        raise ValueError(f"state has eigenvalue {w[-1]:.3e}, not a density matrix")
    w = np.clip(w, 0.0, None)
    # Rebuild from the clipped spectrum so sqrt(rho) and rho_tilde see the
    # same positive-semidefinite operator.
    rho_pos = (v * w) @ dag(v)
    root = (v * np.sqrt(w)) @ dag(v)
    flipped = _SPIN_FLIP @ rho_pos.conj() @ _SPIN_FLIP
    prod = root @ flipped @ root
    lam, _ = hermitian_eig(prod)
    if lam[-1] < -1e-10:
        raise ValueError(f"spin-flip spectrum went negative ({lam[-1]:.3e})")
    roots = np.sqrt(np.clip(lam, 0.0, None))
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))


def concurrence_x_state(p: PairState | np.ndarray) -> float:
    """Closed-form concurrence for X-structured states (independent of concurrence()).

    Raises ValueError when the state carries weight outside the diagonal
    and anti-diagonal; use the general routine for those.
    """
    rho = _as_matrix(p)
    off = rho.copy()
    for i in range(4):
        off[i, i] = 0.0
        off[i, 3 - i] = 0.0
    worst = float(np.abs(off).max())
    if worst > 1e-10:
        raise ValueError(
            f"state is not X-structured (stray entry {worst:.3e}); "
            "use concurrence() instead"
        )
    d = np.clip(rho.diagonal().real, 0.0, None)
    inner = abs(rho[1, 2]) - math.sqrt(d[0] * d[3])
    outer = abs(rho[0, 3]) - math.sqrt(d[1] * d[2])
    return 2.0 * max(0.0, inner, outer)


def steady_pair_nonlocal(r: float, labels: tuple[str, str] = ("A", "B")) -> PairState:
    """Quasi-steady state of any cross-partition pair (AB, ab, Ab, aB).

    Purity r of the initial cavity state survives into the plateau; the
    same matrix describes all four cross-partition pairs, so `labels` is
    purely cosmetic.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"purity r must lie in [0,1], got {r}")
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (1.0 - r) / 64.0
    m[1, 1] = m[2, 2] = (7.0 + r) / 64.0
    m[1, 2] = m[2, 1] = r / 8.0
    m[3, 3] = (49.0 - r) / 64.0
    return PairState(matrix=m, labels=labels)


def steady_pair_local(labels: tuple[str, str] = ("A", "a")) -> PairState:
    """Quasi-steady state of an atom with its own cavity; purity-independent.

    Equals 1/4 of the projector onto the long-lived dressed level plus
    3/4 of the ground level, written in the bare pair basis.
    """
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = 1.0 / 8.0
    m[3, 3] = 6.0 / 8.0
    return PairState(matrix=m, labels=labels)


def steady_concurrence_nonlocal(r: float) -> float:
    """Concurrence of steady_pair_nonlocal(r), evaluated in closed form.

    Vanishes below STEADY_PURITY_THRESHOLD and grows to 0.25 at r=1.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"purity r must lie in [0,1], got {r}")
    return 2.0 * max(0.0, r / 8.0 - math.sqrt((1.0 - r) * (49.0 - r)) / 64.0)
