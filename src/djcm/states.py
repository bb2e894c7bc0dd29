"""State construction and subsystem reductions.

The joint system is two non-interacting atom-cavity partitions. The
propagation happens in the 9-dim dressed product basis; entanglement is
evaluated on 4x4 two-qubit reductions. This module owns the traffic
between those pictures:

* `initial_state(r)` prepares the cavities in an extended Werner-like
  state (Bell fraction r, white noise fraction 1-r) with both atoms in
  the ground state, and returns the 9x9 dressed-basis matrix.
* `dressed_to_standard` / `standard_to_dressed` conjugate by the
  per-partition dressing unitary.
* The six two-qubit reductions are linear in the state, so they are one
  fixed (96, 81) table from the 81 dressed entries to six 4x4 blocks,
  built once at import by pushing the 81 matrix units through the
  dressing, the 16-dim four-qubit embedding and the partial traces.
  `reduce_stack` applies it to a whole stack of states; `reduce` and
  `reduce_all` are its one-state views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import bases
from .linalg import partial_trace_qubits, validate_density_matrix, validate_density_stack

__all__ = [
    "ReductionTarget",
    "PairState",
    "initial_state",
    "dressed_to_standard",
    "standard_to_dressed",
    "embed_standard_16",
    "reduce",
    "reduce_all",
    "reduce_stack",
]

# 9x9 dressing transform, one 3x3 factor per partition.
_W = np.kron(bases.DRESSED_FROM_STANDARD, bases.DRESSED_FROM_STANDARD)
_W_DAG = _W.conj().T
_EMBED = np.array(bases.EMBED_16)


class ReductionTarget(Enum):
    """The six bipartite subsystems: capital letters are atoms, lower-case cavities."""

    AB = "AB"
    ab = "ab"
    Aa = "Aa"
    Bb = "Bb"
    Ab = "Ab"
    aB = "aB"

    @property
    def qubits(self) -> tuple[int, ...]:
        """Four-qubit indices of the kept pair, in output order."""
        return tuple(bases.QUBIT_INDEX[c] for c in self.value)

    @property
    def block(self) -> int:
        """Position of this pair on the second axis of `reduce_stack`."""
        return list(ReductionTarget).index(self)


@dataclass(frozen=True)
class PairState:
    """A two-qubit reduced state in the basis (|11>, |10>, |01>, |00>).

    `labels` names the two kept subsystems; the first-named one is the
    left (most significant) tensor factor. For atoms level 1 means |e>,
    for cavities it means one photon.
    """

    matrix: np.ndarray
    labels: tuple[str, str]
    basis: tuple[str, ...] = field(default=bases.PAIR_BASIS_LABELS)

    def __post_init__(self) -> None:
        validate_density_matrix(self.matrix, 4, name=f"pair state {''.join(self.labels)}")


def initial_state(r: float) -> np.ndarray:
    """Dressed-basis 9x9 state: Werner-like cavities (purity r), atoms in |gg>.

    The cavity-cavity state is r |phi+><phi+| + (1-r)/4 * identity with
    |phi+> = (|10> + |01>)/sqrt(2). Built explicitly in the 16-dim
    four-qubit space, checked to have support only on the zero/one
    excitation sector of each partition, then compressed and dressed.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"purity r must lie in [0,1], got {r}")

    phi = np.zeros(4, dtype=complex)
    phi[1] = phi[2] = 1.0 / np.sqrt(2.0)  # (|10> + |01>)/sqrt(2) over (a,b)
    rho_ab = r * np.outer(phi, phi.conj()) + (1.0 - r) / 4.0 * np.eye(4)

    rho16 = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        for j in range(4):
            # cavity occupation bits: 0 = one photon, 1 = empty
            xa, xb = i >> 1, i & 1
            ya, yb = j >> 1, j & 1
            # both atoms ground (bit 1)
            row = 8 * xa + 4 * 1 + 2 * xb + 1
            col = 8 * ya + 4 * 1 + 2 * yb + 1
            rho16[row, col] = rho_ab[i, j]

    std9 = _compress_16_to_9(rho16)
    return standard_to_dressed(std9)


def _compress_16_to_9(rho16: np.ndarray, leak_tol: float = 1e-12) -> np.ndarray:
    """Restrict a 16-dim four-qubit state to the 9 per-partition one-excitation levels."""
    mask = np.zeros(16, dtype=bool)
    mask[_EMBED] = True
    outside = np.abs(rho16[~mask, :]).max(initial=0.0)
    outside = max(outside, np.abs(rho16[:, ~mask]).max(initial=0.0))
    if outside > leak_tol:
        raise ValueError(
            f"state leaks outside the one-excitation sector (amplitude {outside:.3e})"
        )
    return rho16[np.ix_(_EMBED, _EMBED)]


def dressed_to_standard(s: np.ndarray) -> np.ndarray:
    """Rewrite a 9x9 dressed-basis state (or a stack of them) in the bare product basis."""
    s = np.asarray(s, dtype=complex)
    return _W_DAG @ s @ _W


def standard_to_dressed(s: np.ndarray) -> np.ndarray:
    """Rewrite a 9x9 bare-basis state (or a stack of them) in the dressed product basis."""
    s = np.asarray(s, dtype=complex)
    return _W @ s @ _W_DAG


def embed_standard_16(std9: np.ndarray) -> np.ndarray:
    """Embed the 9-dim bare-basis state into the full 16-dim four-qubit space.

    The seven levels with an over-occupied partition (|1e> on either
    side) receive exactly zero amplitude. Leading axes are a stack.
    """
    std9 = np.asarray(std9, dtype=complex)
    rho16 = np.zeros(std9.shape[:-2] + (16, 16), dtype=complex)
    rho16[..., _EMBED[:, None], _EMBED[None, :]] = std9
    return rho16


def _reduction_table() -> np.ndarray:
    """(96, 81) map from a dressed 9x9 state's entries to its six reductions.

    Column k is the image of the k-th matrix unit; row 16*n + 4*i + j is
    entry (i, j) of the n-th reduction in `ReductionTarget` order.
    """
    units = np.eye(81, dtype=complex).reshape(81, 9, 9)
    rho16 = embed_standard_16(dressed_to_standard(units))
    blocks = [partial_trace_qubits(rho16, 4, target.qubits) for target in ReductionTarget]
    return np.stack(blocks, axis=1).reshape(81, 96).T


_REDUCTION = _reduction_table()


def reduce_stack(states: np.ndarray) -> np.ndarray:
    """All six reductions of each state of a (T,9,9) stack, as a (T,6,4,4) array.

    The second axis runs over `ReductionTarget` in definition order (see
    `ReductionTarget.block`); each 4x4 block uses the basis and factor
    order of `PairState`.
    """
    states = validate_density_stack(states, 9, name="state")
    if states.ndim != 3:
        raise ValueError(f"expected a (T,9,9) stack of states, got shape {states.shape}")
    flat = states.reshape(len(states), 81) @ _REDUCTION.T
    return flat.reshape(len(states), 6, 4, 4)


def reduce_all(s: np.ndarray) -> dict[ReductionTarget, PairState]:
    """All six reductions of one dressed-basis 9x9 state."""
    s = validate_density_matrix(s, 9, name="state")
    blocks = reduce_stack(s[None])[0]
    return {
        target: PairState(matrix=block, labels=(target.value[0], target.value[1]))
        for target, block in zip(ReductionTarget, blocks)
    }


def reduce(s: np.ndarray, target: ReductionTarget) -> PairState:
    """Reduce a dressed-basis 9x9 state to one of the six qubit pairs."""
    s = validate_density_matrix(s, 9, name="state")
    block = reduce_stack(s[None])[0, target.block]
    return PairState(matrix=block, labels=(target.value[0], target.value[1]))
