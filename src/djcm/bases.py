"""Frozen basis orderings and index maps used across the package.

Every ordering convention lives here so that no other module has to make
one up. The conventions are:

* Single partition, dressed basis: (|+>, |->, |0g>) where
  |+-> = (|1g> +- |0e>)/sqrt(2).
* Single partition, standard (bare) basis: (|1g>, |0e>, |0g>). The level
  |1e> lies outside the zero/one-excitation sector and is dropped.
* Two-partition (9-dim) bases: partition A is the major index, so the
  pair label at position 3*i + j is (A level i, B level j).
* Four-qubit (16-dim) embedding: factor order (cavity a, atom A,
  cavity b, atom B), big-endian, and within each qubit the excited or
  occupied level comes first. So basis index 8*xa + 4*xA + 2*xb + xB
  with x=0 meaning excited/occupied and x=1 meaning ground/empty.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "STANDARD_SINGLE",
    "DRESSED_FROM_STANDARD",
    "QUBITS",
    "QUBIT_INDEX",
    "STANDARD_TO_LOCAL4",
    "EMBED_16",
    "PAIR_BASIS_LABELS",
]

STANDARD_SINGLE = ("1g", "0e", "0g")

_s = 1.0 / np.sqrt(2.0)
# Rows are dressed states written in the standard basis: row k holds the
# components of the k-th dressed level (|+>, |->, |0g>) over
# STANDARD_SINGLE. Unitary, and its own inverse up to transposition (it is
# real orthogonal).
DRESSED_FROM_STANDARD = np.array(
    [
        [_s, _s, 0.0],
        [_s, -_s, 0.0],
        [0.0, 0.0, 1.0],
    ],
    dtype=complex,
)

# Four-qubit factor order for the 16-dim embedding.
QUBITS = ("a", "A", "b", "B")
QUBIT_INDEX = {name: k for k, name in enumerate(QUBITS)}

# Position of each standard single-partition level inside the local
# (cavity, atom) two-qubit space: |1g> -> 01b, |0e> -> 10b, |0g> -> 11b.
# Local index 00b is |1e>, which the one-excitation sector never populates.
STANDARD_TO_LOCAL4 = (1, 2, 3)

# 16-dim index of each of the nine two-partition standard levels,
# A-major: EMBED_16[3*i + j] embeds (A level i, B level j).
EMBED_16 = tuple(
    4 * STANDARD_TO_LOCAL4[i] + STANDARD_TO_LOCAL4[j] for i in range(3) for j in range(3)
)

# Basis labels of the reduced 4x4 two-qubit states, first-named qubit on
# the left: (|11>, |10>, |01>, |00>).
PAIR_BASIS_LABELS = ("11", "10", "01", "00")
