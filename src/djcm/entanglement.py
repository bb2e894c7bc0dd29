"""Two-qubit entanglement measures and the long-time entangled states.

A two-qubit state is a plain 4x4 complex array in the basis
`bases.PAIR_BASIS_LABELS`, (|11>, |10>, |01>, |00>).

Concurrence of a two-qubit density matrix rho: with the spin-flipped
conjugate rho_tilde = (sy x sy) rho* (sy x sy), the measure is

    C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)),

l_i the decreasing eigenvalues of rho * rho_tilde. That product is not
Hermitian; the implementation diagonalizes the similar Hermitian matrix
sqrt(rho) rho_tilde sqrt(rho) instead, which has the same spectrum and
keeps the whole computation inside real symmetric eigensolvers.

For X-structured states (support on diagonal plus anti-diagonal only,
which covers every reduction this model produces) the closed form of
Yu and Eberly,

    C = 2 max(0, |rho_23| - sqrt(rho_11 rho_44), |rho_14| - sqrt(rho_22 rho_33)),

is exact. `concurrence_x_entries` evaluates it from the eight X entries
alone; the trajectory pipeline feeds it those entries straight from
`evolution.pair_x_entries`. `concurrence_x_state` applies it to whole
4x4 states after checking they are X-shaped; the spectral `concurrence`
works for any state and is kept as the independent checker (tests, and
the route comparison in the validation report).

The module also builds the quasi-steady reduced states reached once the
short-lived dressed branch has decayed while the long-lived one has not:
one fixed matrix for the atom-cavity pairs inside a partition, one
purity-dependent family for the four cross-partition pairs, together
with the purity threshold below which the latter loses its entanglement.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import dag, hermitian_eig, validate_density_stack

__all__ = [
    "concurrence",
    "concurrence_x_state",
    "concurrence_x_entries",
    "X_ENTRIES",
    "steady_pair_nonlocal",
    "steady_pair_local",
    "steady_concurrence_nonlocal",
    "STEADY_PURITY_THRESHOLD",
]

# (sy x sy) in the (|11>,|10>,|01>,|00>) basis: anti-diagonal (-1, 1, 1, -1).
_SPIN_FLIP = np.zeros((4, 4))
_SPIN_FLIP[0, 3] = _SPIN_FLIP[3, 0] = -1.0
_SPIN_FLIP[1, 2] = _SPIN_FLIP[2, 1] = 1.0

# Entries an X-structured state may carry, in the order `concurrence_x_entries`
# takes them: the diagonal, the inner coherence pair {|10>,|01>}, then the
# outer pair {|11>,|00>}.
X_ENTRIES = ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1), (0, 3), (3, 0))
_X_ROWS, _X_COLS = (list(axis) for axis in zip(*X_ENTRIES))
_X_PATTERN = np.zeros((4, 4), dtype=bool)
_X_PATTERN[_X_ROWS, _X_COLS] = True

# Smallest cavity purity for which the cross-partition quasi-steady state
# is entangled: the positive root of 63 r^2 + 50 r - 49 = 0.
STEADY_PURITY_THRESHOLD = (-25.0 + 8.0 * math.sqrt(58.0)) / 63.0


def _check_floor(values: np.ndarray, floor: float, message: str) -> None:
    """Raise ValueError if the lowest of the per-state `values` is below `floor`.

    `message` is formatted with the state's `label` ("state" for a single
    matrix, "state[i, j]" in a stack) and its `value`.
    """
    if not values.size:
        return
    k = np.unravel_index(int(np.argmin(values)), values.shape)
    if not values[k] >= floor:
        label = "state" if values.ndim == 0 else f"state[{', '.join(map(str, k))}]"
        raise ValueError(message.format(label=label, value=values[k]))


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of two-qubit states, in [0, 1].

    Takes one 4x4 state and returns a float, or a (..., 4, 4) stack and
    returns an array of shape (...). Raises ValueError, naming the worst
    state by its stack index, when a state has an eigenvalue below -1e-8
    or its spin-flip spectrum dips below -1e-10.
    """
    rho = validate_density_stack(rho, 4, name="pair state")
    w, v = hermitian_eig(rho)
    _check_floor(w[..., -1], -1e-8, "{label} has eigenvalue {value:.3e}, not a density matrix")
    w = np.clip(w, 0.0, None)
    # Rebuild from the clipped spectrum so sqrt(rho) and rho_tilde see the
    # same positive-semidefinite operator.
    rho_pos = (v * w[..., None, :]) @ dag(v)
    root = (v * np.sqrt(w)[..., None, :]) @ dag(v)
    flipped = _SPIN_FLIP @ rho_pos.conj() @ _SPIN_FLIP
    lam, _ = hermitian_eig(root @ flipped @ root)
    _check_floor(lam[..., -1], -1e-10, "spin-flip spectrum of {label} went negative ({value:.3e})")
    roots = np.sqrt(np.clip(lam, 0.0, None))
    c = np.maximum(0.0, roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3])
    return float(c) if rho.ndim == 2 else c


def concurrence_x_state(rho: np.ndarray) -> float | np.ndarray:
    """Closed-form concurrence of X-structured states (independent of concurrence()).

    Takes one 4x4 state and returns a float, or a (..., 4, 4) stack and
    returns an array of shape (...). Raises
    ValueError, naming the worst entry, when any state carries weight
    outside the diagonal and anti-diagonal (use the general routine for
    those), and, like concurrence(), when a state has an eigenvalue
    below -1e-8.
    """
    rho = validate_density_stack(rho, 4, name="pair state")
    stray = np.where(_X_PATTERN, 0.0, np.abs(rho))
    k = np.unravel_index(int(np.argmax(stray)), stray.shape)
    if not stray[k] <= 1e-10:
        label = "state" if rho.ndim == 2 else f"state[{', '.join(map(str, k[:-2]))}]"
        raise ValueError(
            f"{label} is not X-structured (stray entry {stray[k]:.3e} at "
            f"({k[-2]}, {k[-1]})); use concurrence() instead"
        )
    c = concurrence_x_entries(rho[..., _X_ROWS, _X_COLS])
    return float(c) if rho.ndim == 2 else c


def concurrence_x_entries(x: np.ndarray) -> np.ndarray:
    """Yu-Eberly concurrence from the X entries of states, (..., 8) -> (...).

    The last axis holds each state's entries in `X_ENTRIES` order; the
    caller vouches that every other entry is zero and the state is
    Hermitian. Raises ValueError when a state has an eigenvalue below
    -1e-8.
    """
    d = x[..., :4].real
    inner_c, outer_c = np.abs(x[..., 4]), np.abs(x[..., 6])
    # the two 2x2 blocks {|10>,|01>} and {|11>,|00>} carry the spectrum
    low = np.minimum(
        0.5 * (d[..., 1] + d[..., 2]) - np.hypot(0.5 * (d[..., 1] - d[..., 2]), inner_c),
        0.5 * (d[..., 0] + d[..., 3]) - np.hypot(0.5 * (d[..., 0] - d[..., 3]), outer_c),
    )
    if not low.min() >= -1e-8:
        raise ValueError(f"state has eigenvalue {low.min():.3e}, not a density matrix")
    d = np.clip(d, 0.0, None)
    best = np.maximum(
        inner_c - np.sqrt(d[..., 0] * d[..., 3]),
        outer_c - np.sqrt(d[..., 1] * d[..., 2]),
    )
    return np.where(best > 0.0, 2.0 * best, 0.0)


def steady_pair_nonlocal(r: float) -> np.ndarray:
    """Quasi-steady 4x4 state of any cross-partition pair (AB, ab, Ab, aB).

    Purity r of the initial cavity state survives into the plateau; the
    same matrix describes all four cross-partition pairs.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"purity r must lie in [0,1], got {r}")
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (1.0 - r) / 64.0
    m[1, 1] = m[2, 2] = (7.0 + r) / 64.0
    m[1, 2] = m[2, 1] = r / 8.0
    m[3, 3] = (49.0 - r) / 64.0
    return m


def steady_pair_local() -> np.ndarray:
    """Quasi-steady 4x4 state of an atom with its own cavity; purity-independent.

    Equals 1/4 of the projector onto the long-lived dressed level plus
    3/4 of the ground level, written in the bare pair basis.
    """
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = 1.0 / 8.0
    m[3, 3] = 6.0 / 8.0
    return m


def steady_concurrence_nonlocal(r: float) -> float:
    """Concurrence of steady_pair_nonlocal(r), evaluated in closed form.

    Vanishes below STEADY_PURITY_THRESHOLD and grows to 0.25 at r=1.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"purity r must lie in [0,1], got {r}")
    return 2.0 * max(0.0, r / 8.0 - math.sqrt((1.0 - r) * (49.0 - r)) / 64.0)
