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
  `reduce_all` are its one-state views. A reduced state is a plain 4x4
  array in the basis `bases.PAIR_BASIS_LABELS` = (|11>, |10>, |01>, |00>),
  the first-named subsystem of the target being the left (most
  significant) factor; for atoms level 1 means |e>, for cavities one
  photon.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import bases
from .linalg import partial_trace_qubits, validate_density_matrix, validate_density_stack

__all__ = [
    "ReductionTarget",
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

# With its atom in |g>, a cavity holding one photon is the bare level |1g>
# and an empty one |0g>; so the cavity-pair states (|11>, |10>, |01>, |00>)
# with both atoms in |g> are these bare 9-dim levels.
_ONE_ZERO = tuple(bases.STANDARD_SINGLE.index(level) for level in ("1g", "0g"))
_CAVITY_LEVELS = [3 * i + j for i in _ONE_ZERO for j in _ONE_ZERO]


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


def initial_state(r: float) -> np.ndarray:
    """Dressed-basis 9x9 state: Werner-like cavities (purity r), atoms in |gg>.

    The cavity-cavity state is r |phi+><phi+| + (1-r)/4 * identity with
    |phi+> = (|10> + |01>)/sqrt(2). It is written straight into the four
    bare 9-dim levels with both atoms in |g> (one photon is |1g>, none
    |0g>), then dressed.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"purity r must lie in [0,1], got {r}")

    phi = np.zeros(4, dtype=complex)
    phi[1] = phi[2] = 1.0 / np.sqrt(2.0)  # (|10> + |01>)/sqrt(2) over (a,b)
    rho_ab = r * np.outer(phi, phi.conj()) + (1.0 - r) / 4.0 * np.eye(4)

    std9 = np.zeros((9, 9), dtype=complex)
    std9[np.ix_(_CAVITY_LEVELS, _CAVITY_LEVELS)] = rho_ab
    return standard_to_dressed(std9)


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
    `ReductionTarget.block`); each 4x4 block is in the pair basis and
    factor order described in the module docstring.
    """
    states = validate_density_stack(states, 9, name="state")
    if states.ndim != 3:
        raise ValueError(f"expected a (T,9,9) stack of states, got shape {states.shape}")
    flat = states.reshape(len(states), 81) @ _REDUCTION.T
    return flat.reshape(len(states), 6, 4, 4)


def reduce_all(s: np.ndarray) -> dict[ReductionTarget, np.ndarray]:
    """All six (4,4) reductions of one dressed-basis 9x9 state, keyed by target."""
    s = validate_density_matrix(s, 9, name="state")
    return dict(zip(ReductionTarget, reduce_stack(s[None])[0]))


def reduce(s: np.ndarray, target: ReductionTarget) -> np.ndarray:
    """The (4,4) reduction of a dressed-basis 9x9 state to one of the six qubit pairs."""
    s = validate_density_matrix(s, 9, name="state")
    return reduce_stack(s[None])[0, target.block]
