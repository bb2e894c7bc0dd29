"""Closed-form dynamics of one atom-cavity pair in a Lorentzian reservoir.

One partition is a two-level atom coupled resonantly (strength Omega) to a
single cavity mode, whose photon leaks into a reservoir with Lorentzian
spectral density of width lam and resonant relaxation rate gamma0. Within
the zero/one-excitation sector the relevant states are the two dressed
levels

    |+> = (|1g> + |0e>)/sqrt(2),   energy omega0/2 + Omega,
    |-> = (|1g> - |0e>)/sqrt(2),   energy omega0/2 - Omega,

and the ground level |0g> at -omega0/2. To second order in the
system-reservoir coupling each dressed level decays to the ground level
with its own time-dependent rate,

    rate_minus(t) = gamma0 * (1 - exp(-lam t))
    rate_plus(t)  = gamma0 lam^2/(4 Omega^2 + lam^2)
                    * (1 + ((2 Omega/lam) sin(2 Omega t) - cos(2 Omega t)) exp(-lam t))

(the minus branch sees the reservoir on resonance, the plus branch detuned
by the dressed splitting 2 Omega), and the density matrix at time t is an
explicit entry-wise function of the two accumulated exponents

    I_plus(t) = integral of rate_plus,   I_minus(t) = integral of rate_minus.

`coefficients` evaluates the independent entries of that entry-wise map,
`transfer_tensor` assembles them into the map itself, and
`propagate_single` applies it to a 3x3 dressed-basis state. The pair map
in `evolution` is the tensor product of two such maps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import validate_density_matrix

__all__ = [
    "JcmParams",
    "PropagatorCoeffs",
    "decay_rate_minus",
    "decay_rate_plus",
    "integrated_rate_minus",
    "integrated_rate_plus",
    "coefficients",
    "transfer_tensor",
    "propagate_single",
]


@dataclass(frozen=True)
class JcmParams:
    """Parameters of one atom-cavity partition and its reservoir.

    omega0  atom and cavity transition frequency (the pair is resonant)
    omega   atom-cavity coupling strength; the dressed splitting is 2*omega
    gamma0  reservoir relaxation rate at resonance
    lam     spectral width of the Lorentzian reservoir; the reservoir
            memory time is 1/lam
    """

    omega0: float
    omega: float
    gamma0: float
    lam: float

    def __post_init__(self) -> None:
        for name in ("omega0", "omega", "gamma0", "lam"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gamma0 <= 0.0:
            raise ValueError(f"gamma0 must be positive, got {self.gamma0}")
        if self.lam <= 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.omega < 0.0:
            raise ValueError(f"omega must be non-negative, got {self.omega}")
        if self.omega0 < 0.0:
            raise ValueError(f"omega0 must be non-negative, got {self.omega0}")

    @property
    def markovian(self) -> bool:
        """True in the weak-coupling regime lam > 2*gamma0 (no rate can go negative)."""
        return self.lam > 2.0 * self.gamma0


def _check_time(t: float) -> None:
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and non-negative, got {t}")


def decay_rate_minus(p: JcmParams, t: float) -> float:
    """Decay rate of the lower dressed level (reservoir seen on resonance)."""
    _check_time(t)
    return p.gamma0 * (1.0 - math.exp(-p.lam * t))


def decay_rate_plus(p: JcmParams, t: float) -> float:
    """Decay rate of the upper dressed level (reservoir detuned by 2*omega)."""
    _check_time(t)
    lam, om = p.lam, p.omega
    pref = p.gamma0 * lam**2 / (4.0 * om**2 + lam**2)
    osc = (2.0 * om / lam) * math.sin(2.0 * om * t) - math.cos(2.0 * om * t)
    return pref * (1.0 + osc * math.exp(-lam * t))


def integrated_rate_minus(p: JcmParams, t: float) -> float:
    """Integral of decay_rate_minus from 0 to t."""
    _check_time(t)
    return p.gamma0 * t + (p.gamma0 / p.lam) * (math.exp(-p.lam * t) - 1.0)


def integrated_rate_plus(p: JcmParams, t: float) -> float:
    """Integral of decay_rate_plus from 0 to t."""
    _check_time(t)
    lam, om = p.lam, p.omega
    denom = 4.0 * om**2 + lam**2
    decay = math.exp(-lam * t)
    bracket = (
        t
        - 4.0 * om * decay * math.sin(2.0 * om * t) / denom
        + (lam**2 - 4.0 * om**2) * (decay * math.cos(2.0 * om * t) - 1.0) / (lam * denom)
    )
    return p.gamma0 * lam**2 / denom * bracket


@dataclass(frozen=True)
class PropagatorCoeffs:
    """Entry-wise propagation coefficients of one partition at a fixed time.

    In the dressed-basis ordering (|+>, |->, |0g>) the propagated state is

        rho'_11 = a11 rho_11          rho'_12 = a12 rho_12
        rho'_22 = a22 rho_22          rho'_13 = a13 rho_13
        rho'_33 = rho_33 + a33_11 rho_11 + a33_22 rho_22
        rho'_23 = a23 rho_23

    with the lower triangle fixed by Hermiticity. The diagonal feed
    coefficients satisfy a33_11 = 1 - a11 and a33_22 = 1 - a22, which is
    exactly trace preservation. `transfer_tensor` turns these numbers into
    the full map, conjugate entries included.
    """

    t: float
    a11: float
    a12: complex
    a13: complex
    a22: float
    a23: complex
    a33_11: float
    a33_22: float


def coefficients(p: JcmParams, t: float) -> PropagatorCoeffs:
    """Propagation coefficients of a single partition at time t.

    Populations of the dressed levels decay as exp(-I_plus/2) and
    exp(-I_minus/2): each dressed level holds half a cavity photon, so it
    decays at half the cavity rate, as in the generator
    S rho S^dag / 2 - {S^dag S, rho} / 4 that the RK4 oracle integrates.
    Coherences pick up half those exponents (exp(-I/4) per dressed level
    involved) plus the free phase of the corresponding energy gap. At t=0
    the map is the identity.
    """
    _check_time(t)
    ip = integrated_rate_plus(p, t)
    im = integrated_rate_minus(p, t)
    a11 = math.exp(-0.5 * ip)
    a22 = math.exp(-0.5 * im)
    a12 = cmath.exp(-2.0j * p.omega * t) * math.exp(-0.25 * (ip + im))
    a13 = cmath.exp(-1.0j * (p.omega0 + p.omega) * t) * math.exp(-0.25 * ip)
    a23 = cmath.exp(-1.0j * (p.omega0 - p.omega) * t) * math.exp(-0.25 * im)
    return PropagatorCoeffs(
        t=t,
        a11=a11,
        a12=a12,
        a13=a13,
        a22=a22,
        a23=a23,
        a33_11=1.0 - a11,
        a33_22=1.0 - a22,
    )


def transfer_tensor(p: JcmParams, t: float) -> np.ndarray:
    """Single-partition map at time t as a (3,3,3,3) tensor.

    rho'[i, j] = sum over k, l of T[i, j, k, l] rho[k, l]. Every entry of
    the map is written here, the conjugate coherence factors of the lower
    triangle included; the ground population keeps weight 1 and collects
    what the dressed populations lose.
    """
    c = coefficients(p, t)
    tensor = np.zeros((3, 3, 3, 3), dtype=complex)
    tensor[0, 0, 0, 0] = c.a11
    tensor[1, 1, 1, 1] = c.a22
    tensor[2, 2, 0, 0] = c.a33_11
    tensor[2, 2, 1, 1] = c.a33_22
    tensor[2, 2, 2, 2] = 1.0
    for (i, j), a in (((0, 1), c.a12), ((0, 2), c.a13), ((1, 2), c.a23)):
        tensor[i, j, i, j] = a
        tensor[j, i, j, i] = a.conjugate()
    return tensor


def propagate_single(rho0: np.ndarray, p: JcmParams, t: float) -> np.ndarray:
    """Propagate a 3x3 dressed-basis state from 0 to t in closed form."""
    rho0 = validate_density_matrix(rho0, 3, name="rho0")
    return np.einsum("ijkl,kl->ij", transfer_tensor(p, t), rho0)
