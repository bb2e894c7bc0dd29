"""Shared test helpers: whole RK4 runs from their pieces, one partition's closed form."""

import numpy as np

from djcm.propagator import JcmParams, transfer_tensor


def joined(pieces) -> tuple[np.ndarray, np.ndarray]:
    """All recorded times and states of an RK4 run: its (times, states) pieces drained and concatenated."""
    times, states = zip(*pieces)
    return np.concatenate(times), np.concatenate(states)


def closed_form_single(rho0: np.ndarray, p: JcmParams, t) -> np.ndarray:
    """One partition's 3x3 state at time t, or (T, 3, 3) at T times: its transfer tensor applied to rho0."""
    return np.einsum("...ijkl,kl->...ij", transfer_tensor(p, t), rho0)
