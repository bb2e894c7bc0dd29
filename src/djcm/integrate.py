"""Brute-force numerical validators for the closed-form propagation.

Nothing in here knows the analytical solution. `integrate_single` and
`integrate_pair` push the density matrix through the time-local master
equation with a hand-written fixed-step fourth-order Runge-Kutta loop:
dissipator built from raw jump operators, rates evaluated at the substep
times, no reuse of the entry-wise coefficients being validated.
`rate_from_spectral_density` recovers the decay rates themselves by
numerical quadrature of the reservoir correlation function, so the
closed-form rate expressions get an independent check as well.

Fixed step rather than adaptive on purpose: the error budget and the
fourth-order convergence check both want a step that is known exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import validate_density_matrix
from .propagator import JcmParams, decay_rate_minus, decay_rate_plus

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "max_step",
    "oracle_config",
    "integrate_single",
    "integrate_pair",
    "rate_from_spectral_density",
    "adaptive_simpson",
]

_STEP_FRACTION = 1.0 / 50.0  # of the fastest timescale present


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration plan.

    step         time increment (validated against the parameters at
                 integration time: it must resolve the fastest of the
                 oscillation, memory and relaxation timescales)
    t_end        final time; must be an integer number of steps away
    record_every store every k-th step (t=0 is always stored)
    """

    step: float
    t_end: float
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.step <= 0.0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be non-negative, got {self.t_end}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")

    def n_steps(self) -> int:
        n = int(round(self.t_end / self.step))
        if abs(n * self.step - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError(
                f"step {self.step} does not divide t_end {self.t_end} evenly"
            )
        return n


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of one integration run."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), d, d)
    params: tuple[JcmParams, ...]

    def __len__(self) -> int:
        return len(self.times)


def max_step(*params: JcmParams) -> float:
    """Largest admissible RK4 step for the given partition parameters."""
    scale = math.inf
    for p in params:
        scale = min(scale, 1.0 / p.lam, 1.0 / p.gamma0)
        if p.omega > 0.0:
            scale = min(scale, 1.0 / p.omega)
    return _STEP_FRACTION * scale


def oracle_config(
    t_end: float, samples: int, *params: JcmParams, safety: float = 3.0
) -> IntegratorConfig:
    """Config recording `samples` evenly spaced states on [0, t_end].

    The step divides the recording interval exactly and sits a factor
    `safety` below the admissible bound, which keeps even the stiff
    presets well inside the tolerance the oracle comparisons use.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    spacing = t_end / (samples - 1)
    bound = max_step(*params) / safety
    per_interval = max(1, math.ceil(spacing / bound - 1e-12))
    return IntegratorConfig(
        step=spacing / per_interval, t_end=t_end, record_every=per_interval
    )


def _single_generator(p: JcmParams):
    """Right-hand side of the 3x3 master equation in the dressed basis."""
    h = np.diag([0.5 * p.omega0 + p.omega, 0.5 * p.omega0 - p.omega, -0.5 * p.omega0])
    s_plus = np.zeros((3, 3), dtype=complex)
    s_plus[2, 0] = 1.0  # |0g><+|
    s_minus = np.zeros((3, 3), dtype=complex)
    s_minus[2, 1] = 1.0  # |0g><-|
    return _generator_from_ops(h, ((s_plus, p, decay_rate_plus), (s_minus, p, decay_rate_minus)))


def _pair_generator(p_a: JcmParams, p_b: JcmParams):
    """Right-hand side of the 9x9 master equation: both partitions decay independently."""
    eye = np.eye(3, dtype=complex)

    def lift_a(m: np.ndarray) -> np.ndarray:
        return np.kron(m, eye)

    def lift_b(m: np.ndarray) -> np.ndarray:
        return np.kron(eye, m)

    h3_a = np.diag([0.5 * p_a.omega0 + p_a.omega, 0.5 * p_a.omega0 - p_a.omega, -0.5 * p_a.omega0])
    h3_b = np.diag([0.5 * p_b.omega0 + p_b.omega, 0.5 * p_b.omega0 - p_b.omega, -0.5 * p_b.omega0])
    h = lift_a(h3_a) + lift_b(h3_b)

    s_plus = np.zeros((3, 3), dtype=complex)
    s_plus[2, 0] = 1.0
    s_minus = np.zeros((3, 3), dtype=complex)
    s_minus[2, 1] = 1.0
    channels = (
        (lift_a(s_plus), p_a, decay_rate_plus),
        (lift_a(s_minus), p_a, decay_rate_minus),
        (lift_b(s_plus), p_b, decay_rate_plus),
        (lift_b(s_minus), p_b, decay_rate_minus),
    )
    return _generator_from_ops(h, channels)


def _generator_from_ops(h, channels):
    """Build drho/dt = -i[h, rho] + sum_c rate_c(t) (S rho S^dag / 2 - {S^dag S, rho} / 4)."""
    prepared = []
    for s, p, rate in channels:
        proj = s.conj().T @ s
        prepared.append((s, s.conj().T, proj, p, rate))

    def rhs(t: float, rho: np.ndarray) -> np.ndarray:
        out = -1.0j * (h @ rho - rho @ h)
        for s, s_dag, proj, p, rate in prepared:
            g = rate(p, t)
            out += g * (0.5 * (s @ rho @ s_dag) - 0.25 * (proj @ rho + rho @ proj))
        return out

    return rhs


def _run_rk4(rho0: np.ndarray, rhs, cfg: IntegratorConfig, params) -> Trajectory:
    n = cfg.n_steps()
    if n % cfg.record_every != 0:
        raise ValueError(
            f"record_every {cfg.record_every} does not divide {n} steps"
        )
    h = cfg.step
    rho = rho0.copy()
    times = [0.0]
    states = [rho.copy()]
    for k in range(n):
        t = k * h
        k1 = rhs(t, rho)
        k2 = rhs(t + 0.5 * h, rho + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, rho + 0.5 * h * k2)
        k4 = rhs(t + h, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % cfg.record_every == 0:
            times.append((k + 1) * h)
            states.append(rho.copy())
    traj = Trajectory(times=np.array(times), states=np.array(states), params=params)
    drift = float(np.abs(np.trace(traj.states, axis1=1, axis2=2) - 1.0).max())
    if drift > 1e-8:
        raise RuntimeError(f"integration lost trace (drift {drift:.3e})")
    return traj


def _check_step(cfg: IntegratorConfig, *params: JcmParams) -> None:
    bound = max_step(*params)
    if cfg.step > bound * (1.0 + 1e-12):
        raise ValueError(
            f"step {cfg.step:g} exceeds the stability bound {bound:g} "
            "for these parameters"
        )


def integrate_single(rho0: np.ndarray, p: JcmParams, cfg: IntegratorConfig) -> Trajectory:
    """RK4 trajectory of one partition's 3x3 dressed-basis state."""
    rho0 = validate_density_matrix(rho0, 3, name="rho0")
    _check_step(cfg, p)
    return _run_rk4(rho0, _single_generator(p), cfg, (p,))


def integrate_pair(
    rho0: np.ndarray, p_a: JcmParams, p_b: JcmParams, cfg: IntegratorConfig
) -> Trajectory:
    """RK4 trajectory of the joint 9x9 dressed-basis state."""
    rho0 = validate_density_matrix(rho0, 9, name="rho0")
    _check_step(cfg, p_a, p_b)
    return _run_rk4(rho0, _pair_generator(p_a, p_b), cfg, (p_a, p_b))


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 50) -> float:
    """Recursive adaptive Simpson quadrature with absolute tolerance."""
    if a == b:
        return 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        delta = left + right - whole
        if depth >= max_depth:
            raise RuntimeError("adaptive Simpson recursion exceeded maximum depth")
        if abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return recurse(x0, xm, f0, fl, f1, left, eps / 2.0, depth + 1) + recurse(
            xm, x2, f1, fr, f2, right, eps / 2.0, depth + 1
        )

    fm = f(0.5 * (a + b))
    fa, fb = f(a), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def rate_from_spectral_density(p: JcmParams, omega: float, t: float) -> float:
    """Decay rate at frequency omega and time t, from the reservoir correlation function.

    The Lorentzian reservoir (width lam, centered on the lower dressed
    transition omega0 - omega_coupling) has correlation function
    (gamma0 lam / 2) e^{-lam tau} up to the free phase, so the
    second-order rate is

        rate(omega, t) = gamma0 lam * integral_0^t e^{-lam tau} cos((omega - center) tau) dtau,

    evaluated here by adaptive Simpson quadrature. No closed-form rate
    expression is reused.
    """
    if t < 0.0:
        raise ValueError(f"time must be non-negative, got {t}")
    center = p.omega0 - p.omega
    detuning = omega - center

    def integrand(tau: float) -> float:
        return p.gamma0 * p.lam * math.exp(-p.lam * tau) * math.cos(detuning * tau)

    # tight tolerance: on strongly detuned branches the panel errors add
    # up coherently over many oscillation periods
    return adaptive_simpson(integrand, 0.0, t, tol=1e-12)
