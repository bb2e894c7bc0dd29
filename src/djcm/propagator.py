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

`coefficients` evaluates the weights c_k(t) of that entry-wise map over
11 fixed matrix units (`PATTERNS`), and `transfer_tensor` contracts the
two into the map itself. The pair map in `evolution` is the tensor
product of two such maps. Each of these takes one time or a numpy array
of times; an array adds a leading axis to the result, so a whole time
grid is evaluated in one call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "JcmParams",
    "decay_rate_minus",
    "decay_rate_plus",
    "integrated_rate_minus",
    "integrated_rate_plus",
    "PATTERNS",
    "coefficients",
    "transfer_tensor",
]


@dataclass(frozen=True)
class JcmParams:
    """Parameters of one atom-cavity partition and its reservoir.

    omega0  atom and cavity transition frequency (the pair is resonant)
    omega   atom-cavity coupling strength; the dressed splitting is 2*omega
    gamma0  reservoir relaxation rate at resonance
    lam     spectral width of the Lorentzian reservoir; the reservoir
            memory time is 1/lam

    All four must be finite, gamma0 and lam positive and the others
    non-negative; 4*omega^2 + lam^2 and lam*(4*omega^2 + lam^2) must be
    normal floats, neither subnormal nor overflowing, and gamma0/lam
    finite. A ValueError names the fields otherwise.
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
        # The rate formulas divide by lam, 4*omega^2 + lam^2 and their
        # product, and scale by gamma0/lam: a zero, subnormal or infinite
        # divisor or an infinite ratio turns the rates into inf or NaN.
        denom = 4.0 * self.omega * self.omega + self.lam * self.lam
        for name, divisor in (
            ("lam", self.lam),
            ("4*omega^2 + lam^2", denom),
            ("lam*(4*omega^2 + lam^2)", self.lam * denom),
        ):
            if divisor == math.inf:
                raise ValueError(
                    f"omega={self.omega!r}, lam={self.lam!r}: the divisor {name} overflows to inf"
                )
            if divisor < sys.float_info.min:
                raise ValueError(
                    f"omega={self.omega!r}, lam={self.lam!r}: the divisor {name} "
                    f"= {divisor!r} is zero or subnormal"
                )
        if math.isinf(self.gamma0 / self.lam):
            raise ValueError(f"gamma0={self.gamma0!r}, lam={self.lam!r}: gamma0/lam is infinite")


def _times(t: float | np.ndarray) -> np.ndarray:
    """t as a float array, checked finite and non-negative.

    A float t gives a 0-d array, so the functions below return numpy
    scalars for one time and arrays of t's shape for an array of times.
    """
    t = np.asarray(t, dtype=float)
    ok = (t >= 0.0) & (t < math.inf)
    if not ok.all():
        raise ValueError(f"time must be finite and non-negative, got {t[~ok].flat[0]}")
    return t


def decay_rate_minus(p: JcmParams, t: float | np.ndarray) -> float | np.ndarray:
    """Decay rate of the lower dressed level (reservoir seen on resonance).

    Like every rate and exponent here, t may be a float or a numpy array
    of times; the result has the shape of t.
    """
    t = _times(t)
    return -p.gamma0 * np.expm1(-p.lam * t)


def decay_rate_plus(p: JcmParams, t: float | np.ndarray) -> float | np.ndarray:
    """Decay rate of the upper dressed level (reservoir detuned by 2*omega)."""
    t = _times(t)
    lam, om = p.lam, p.omega
    # gamma0 lam / (4 omega^2 + lam^2) times (lam + (2 omega sin - lam cos) e^(-lam t)):
    # never forms 2 omega / lam, which overflows when lam is tiny
    scale = p.gamma0 * lam / (4.0 * om**2 + lam**2)
    osc = 2.0 * om * np.sin(2.0 * om * t) - lam * np.cos(2.0 * om * t)
    return scale * lam + scale * osc * np.exp(-lam * t)


def integrated_rate_minus(p: JcmParams, t: float | np.ndarray) -> float | np.ndarray:
    """Integral of decay_rate_minus from 0 to t.

    expm1 keeps the digits when lam*t is tiny: there the exponent is
    about gamma0*lam*t^2/2, and exp(-lam*t) - 1 would cancel to rounding.
    """
    t = _times(t)
    return p.gamma0 * t + (p.gamma0 / p.lam) * np.expm1(-p.lam * t)


def integrated_rate_plus(p: JcmParams, t: float | np.ndarray) -> float | np.ndarray:
    """Integral of decay_rate_plus from 0 to t."""
    t = _times(t)
    lam, om = p.lam, p.omega
    denom = 4.0 * om**2 + lam**2
    decay = np.exp(-lam * t)
    bracket = (
        t
        - 4.0 * om * decay * np.sin(2.0 * om * t) / denom
        + (lam**2 - 4.0 * om**2) * (decay * np.cos(2.0 * om * t) - 1.0) / (lam * denom)
    )
    return p.gamma0 * lam**2 / denom * bracket


# The single-partition map is sum over k of c_k(t) PATTERNS[k]: each
# pattern is one (3,3,3,3) matrix unit rho'[i, j] <- rho[m, n], listed
# as (i, j, m, n) in the order of the coefficient vector.
_PATTERN_ENTRIES = (
    (0, 0, 0, 0),  # a11
    (1, 1, 1, 1),  # a22
    (0, 1, 0, 1),  # a12
    (0, 2, 0, 2),  # a13
    (1, 2, 1, 2),  # a23
    (1, 0, 1, 0),  # conj(a12)
    (2, 0, 2, 0),  # conj(a13)
    (2, 1, 2, 1),  # conj(a23)
    (2, 2, 0, 0),  # 1 - a11
    (2, 2, 1, 1),  # 1 - a22
    (2, 2, 2, 2),  # 1
)
PATTERNS = np.zeros((len(_PATTERN_ENTRIES), 3, 3, 3, 3))
for _k, _entry in enumerate(_PATTERN_ENTRIES):
    PATTERNS[(_k, *_entry)] = 1.0


def coefficients(p: JcmParams, t: float | np.ndarray) -> np.ndarray:
    """Coefficient vector of a single partition's map at time t (float or array).

    Returns a complex array of shape t.shape + (11,), the weights of
    `PATTERNS` in the order

        (a11, a22, a12, a13, a23, conj(a12), conj(a13), conj(a23), 1 - a11, 1 - a22, 1)

    In the dressed-basis ordering (|+>, |->, |0g>) the propagated state is

        rho'_11 = a11 rho_11          rho'_12 = a12 rho_12
        rho'_22 = a22 rho_22          rho'_13 = a13 rho_13
        rho'_33 = rho_33 + (1 - a11) rho_11 + (1 - a22) rho_22
        rho'_23 = a23 rho_23

    with the lower triangle fixed by Hermiticity. The ground level gains
    exactly what the dressed populations lose, which is trace
    preservation.

    Populations of the dressed levels decay as exp(-I_plus/2) and
    exp(-I_minus/2): each dressed level holds half a cavity photon, so it
    decays at half the cavity rate, as in the generator
    S rho S^dag / 2 - {S^dag S, rho} / 4 that the RK4 oracle integrates.
    Coherences pick up half those exponents (exp(-I/4) per dressed level
    involved) plus the free phase of the corresponding energy gap. At t=0
    the map is the identity.
    """
    t = _times(t)
    ip = integrated_rate_plus(p, t)
    im = integrated_rate_minus(p, t)

    def phase(freq):  # exp(-i freq t)
        return np.cos(freq * t) - 1j * np.sin(freq * t)

    a11 = np.exp(-0.5 * ip)
    a22 = np.exp(-0.5 * im)
    # The free phase e^{-i omega0 t} is a factor of its own: a pair state
    # meets it times its conjugate, which is 1 to rounding, whereas a phase
    # of (omega0 +- omega) t would round omega's share away at large omega0.
    free = phase(p.omega0)
    a12 = phase(2.0 * p.omega) * np.exp(-0.25 * (ip + im))
    a13 = free * phase(p.omega) * np.exp(-0.25 * ip)
    a23 = free * phase(-p.omega) * np.exp(-0.25 * im)
    coherences = (a12, a13, a23)
    return np.stack(
        [a11, a22, *coherences, *np.conj(coherences), 1.0 - a11, 1.0 - a22, np.ones_like(a11)],
        axis=-1,
    )


def transfer_tensor(p: JcmParams, t: float | np.ndarray) -> np.ndarray:
    """Single-partition map at time t as a (3,3,3,3) tensor, or (T,3,3,3,3) for T times.

    rho'[i, j] = sum over k, l of T[i, j, k, l] rho[k, l]: the coefficient
    vector contracted with `PATTERNS`.
    """
    c = coefficients(p, t)
    return (c @ PATTERNS.reshape(len(PATTERNS), 81)).reshape(c.shape[:-1] + (3, 3, 3, 3))

