"""Brute-force numerical validators for the closed-form propagation.

Nothing in here knows the analytical solution. `integrate_single` and
`integrate_pair` push the density matrix through the time-local master
equation with a hand-written fixed-step fourth-order Runge-Kutta scheme.
The generator is a superoperator on vec(rho), assembled once per call
from the raw Hamiltonian and jump operators and weighted by the decay
rates at the substep times; no reuse of the entry-wise coefficients or
the tensor-product structure being validated. A generic graph step
splits vec(rho) into the invariant blocks of the generator's sparsity
pattern, and each step acts on every block through its classical RK4
step matrix, built from the same three generator evaluations as the
four stages. Blocks whose restricted ops are exactly equal, or exactly
complex conjugate (a Hermiticity-preserving generator pairs them up),
share one representative's step matrices, conjugated where needed.
`rate_from_spectral_density` recovers the decay rates themselves by
numerical quadrature of the reservoir correlation function, so the
closed-form rate expressions get an independent check as well. A whole
time grid is integrated once, piece by piece between consecutive times,
on sub-panels short enough that the oscillating integrand cannot alias.

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
    "MAX_RK4_STEPS",
    "Trajectory",
    "max_step",
    "oracle_config",
    "integrate_single",
    "integrate_pair",
    "rate_from_spectral_density",
    "adaptive_simpson",
]

_STEP_FRACTION = 1.0 / 50.0  # of the fastest timescale present

# How far below the admissible step `oracle_config` plans its steps.
_ORACLE_SAFETY = 3.0

# Most RK4 steps `oracle_config` plans for one trajectory. The largest
# preset (fig2c/fig4) needs 225,000; a plan beyond this cap would run for
# minutes or hours, so it is refused before anything is integrated.
MAX_RK4_STEPS = 2_000_000


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


def oracle_config(t_end: float, samples: int, *params: JcmParams) -> IntegratorConfig:
    """Config recording `samples` evenly spaced states on [0, t_end].

    The step divides the recording interval exactly and sits at least a
    factor 3 below the admissible bound, which keeps even the stiff
    presets well inside the tolerance the oracle comparisons use.
    Raises ValueError when that plan exceeds MAX_RK4_STEPS.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    spacing = t_end / (samples - 1)
    bound = max_step(*params) / _ORACLE_SAFETY
    per_interval = max(1, math.ceil(spacing / bound - 1e-12))
    planned = per_interval * (samples - 1)
    if planned > MAX_RK4_STEPS:
        raise ValueError(
            f"the RK4 oracle would need {planned} steps, more than the cap of "
            f"{MAX_RK4_STEPS}; shorten t_max or slow the fastest timescale"
        )
    return IntegratorConfig(
        step=spacing / per_interval, t_end=t_end, record_every=per_interval
    )


# Most RK4 steps whose step matrices exist at once. A chunk holds whole
# recording intervals when they are this short, and otherwise a piece of
# one interval, so memory stays bounded (about 2 MB of temporaries for
# the pair) whatever the plan; the rates are evaluated once per chunk.
_STEP_CHUNK = 128


def _dressed_hamiltonian(p: JcmParams) -> np.ndarray:
    return np.diag([0.5 * p.omega0 + p.omega, 0.5 * p.omega0 - p.omega, -0.5 * p.omega0])


def _jump_operators() -> tuple[np.ndarray, np.ndarray]:
    """|0g><+| and |0g><-|: decay of each dressed level to the ground level."""
    s_plus = np.zeros((3, 3), dtype=complex)
    s_plus[2, 0] = 1.0
    s_minus = np.zeros((3, 3), dtype=complex)
    s_minus[2, 1] = 1.0
    return s_plus, s_minus


def _invariant_blocks(pattern: np.ndarray) -> list[list[int]]:
    """Connected components of the graph that links i and j wherever pattern[i, j].

    Every generator whose nonzeros lie inside `pattern` maps the span of
    each component's coordinates into itself.
    """
    linked = pattern | pattern.T
    unseen = np.ones(len(pattern), dtype=bool)
    blocks = []
    for seed in range(len(pattern)):
        if not unseen[seed]:
            continue
        unseen[seed] = False
        block, frontier = [seed], [seed]
        while len(frontier):
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & unseen)
            unseen[frontier] = False
            block += frontier.tolist()
        blocks.append(sorted(block))
    return blocks


class _BlockGroup:
    """K invariant blocks of one size m: the generator restricted to each.

    `idx` (K, m) holds each block's coordinates in vec(rho). Blocks whose
    restricted op stacks are exactly equal, or exactly equal after complex
    conjugation, share a representative: the first block of their class.
    `rep` (K,) is each block's position among the R representatives and
    `flip` (K,) marks the conjugated ones. `cols` (R*m*m, 1 + C) holds the
    representatives' op entries, real when none of them has an imaginary
    part. With real weights, a flagged block's L(t), step matrices and
    their products are the exact complex conjugates of its
    representative's.
    """

    def __init__(self, ops: np.ndarray, blocks: list[list[int]]) -> None:
        self.idx = np.array(blocks)
        k, m = self.idx.shape
        sub = ops[:, self.idx[:, :, None], self.idx[:, None, :]]  # (1 + C, K, m, m)
        flat = np.moveaxis(sub, 1, 0).reshape(k, -1)  # each block's op stack
        same = (flat[:, None] == flat).all(axis=2)
        mirror = (flat[:, None] == flat.conj()).all(axis=2)
        first = (same | mirror).argmax(axis=1)  # the earliest block of each class
        reps, self.rep = np.unique(first, return_inverse=True)
        self.flip = ~same[np.arange(k), first]
        sub = sub[:, reps].reshape(len(ops), -1)
        self.cols = np.ascontiguousarray((sub if sub.imag.any() else sub.real).T)
        self.shape = (len(reps), m, m)

    def generators(self, w: np.ndarray) -> np.ndarray:
        """(R, m, m, T) representatives' blocks of L(t) for the (T, 1 + C) weight rows `w`; time last."""
        return (self.cols @ w.T).reshape(*self.shape, len(w))

    def expand(self, stack: np.ndarray) -> np.ndarray:
        """(K, ...) per-block stack from the representatives' (R, ...) stack."""
        out = stack[self.rep]
        out[self.flip] = out[self.flip].conj()
        return out


class _Generator:
    """The master equation as a superoperator on the row-major vec(rho).

    drho/dt = -i[h, rho] + sum_c rate_c(t) (S_c rho S_c^dag / 2 - {S_c^dag S_c, rho} / 4)
    is vec(drho/dt) = L(t) vec(rho) with L(t) = L0 + sum_c rate_c(t) L_c, where,
    by vec(A rho B) = (A kron B^T) vec(rho),

        L0  = -i (h kron 1 - 1 kron h^T)
        L_c = S_c kron S_c^* / 2 - (S_c^dag S_c kron 1 + 1 kron (S_c^dag S_c)^T) / 4.

    `ops` stacks L0 and the L_c; `channels` holds each L_c's (params, rate).
    `groups` splits the coordinates into the invariant blocks of the union
    of the ops' sparsity patterns, grouped by block size: L(t) is block
    diagonal there at every t, whatever the rates.
    """

    def __init__(self, h: np.ndarray, channels) -> None:
        eye = np.eye(len(h))
        ops = [-1j * (np.kron(h, eye) - np.kron(eye, h.T))]
        for s, _, _ in channels:
            proj = s.conj().T @ s
            ops.append(
                0.5 * np.kron(s, s.conj()) - 0.25 * (np.kron(proj, eye) + np.kron(eye, proj.T))
            )
        self.dim = len(h) ** 2
        self.ops = np.array(ops, dtype=complex)
        self.channels = tuple((p, rate) for _, p, rate in channels)
        blocks = _invariant_blocks((self.ops != 0).any(axis=0))
        sizes = sorted({len(b) for b in blocks}, reverse=True)
        self.groups = [_BlockGroup(self.ops, [b for b in blocks if len(b) == m]) for m in sizes]
        inside = np.zeros((self.dim, self.dim), dtype=bool)
        for g in self.groups:
            inside[g.idx[:, :, None], g.idx[:, None, :]] = True
        if self.ops[:, ~inside].any():
            raise RuntimeError("a generator entry lies outside its invariant blocks")

    def weights(self, times: np.ndarray) -> np.ndarray:
        """(T, 1 + C) real weights of the stacked ops: 1, then each rate at each time."""
        w = np.ones((len(times), len(self.ops)))
        for c, (p, rate) in enumerate(self.channels):
            w[:, c + 1] = rate(p, times)
        return w

    def at(self, times: np.ndarray) -> np.ndarray:
        """(T, d*d, d*d) dense generators L(t) at the given times."""
        return np.tensordot(self.weights(times), self.ops, axes=1)


def _single_generator(p: JcmParams) -> _Generator:
    """Generator of the 3x3 master equation in the dressed basis."""
    s_plus, s_minus = _jump_operators()
    return _Generator(
        _dressed_hamiltonian(p), ((s_plus, p, decay_rate_plus), (s_minus, p, decay_rate_minus))
    )


def _pair_generator(p_a: JcmParams, p_b: JcmParams) -> _Generator:
    """Generator of the 9x9 master equation: both partitions decay independently."""
    eye = np.eye(3, dtype=complex)

    def lift_a(m: np.ndarray) -> np.ndarray:
        return np.kron(m, eye)

    def lift_b(m: np.ndarray) -> np.ndarray:
        return np.kron(eye, m)

    h = lift_a(_dressed_hamiltonian(p_a)) + lift_b(_dressed_hamiltonian(p_b))
    s_plus, s_minus = _jump_operators()
    channels = (
        (lift_a(s_plus), p_a, decay_rate_plus),
        (lift_a(s_minus), p_a, decay_rate_minus),
        (lift_b(s_plus), p_b, decay_rate_plus),
        (lift_b(s_minus), p_b, decay_rate_minus),
    )
    return _Generator(h, channels)


# Largest block whose products `_mul` sums by broadcasting; bigger blocks
# go through np.matmul, which wins from 5x5 up on this kind of stack.
_BROADCAST_MAX = 4


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products over axes 1 and 2 of (K, m, m, ...) stacks, batched over the rest.

    Small blocks sum over j by broadcasting, which keeps the long batch
    axes innermost; np.matmul's per-matrix loop would dominate there.
    """
    if a.shape[2] > _BROADCAST_MAX:
        prod = np.moveaxis(a, (1, 2), (-2, -1)) @ np.moveaxis(b, (1, 2), (-2, -1))
        return np.moveaxis(prod, (-2, -1), (1, 2))
    out = a[:, :, 0, None] * b[:, None, 0]
    term = np.empty_like(out)
    for j in range(1, a.shape[2]):
        out += np.multiply(a[:, :, j, None], b[:, None, j], out=term)
    return out


def _plus_identity(a: np.ndarray) -> np.ndarray:
    """a + I on axes 1 and 2 of a (K, m, m, ...) stack, in place."""
    diag = np.arange(a.shape[1])
    a[:, diag, diag] += 1.0
    return a


def _step_matrices(l_ends: np.ndarray, l_mids: np.ndarray, h: float) -> np.ndarray:
    """(K, m, m, S) classical RK4 step matrices of S consecutive steps.

    `l_ends` (K, m, m, S + 1) holds L at the steps' ends kh and `l_mids`
    (K, m, m, S) at their midpoints (k + 1/2)h; time is the last axis. With
    A = L(kh), B = L((k + 1/2)h) and C = L((k + 1)h), the stages k1..k4 of
    v' = v + h/6 (k1 + 2 k2 + 2 k3 + k4) are A v, B P1 v, B P2 v and C P3 v
    for P1 = I + (h/2) A, P2 = I + (h/2) B P1 and P3 = I + h B P2, so
    v' = M v with M = I + (h/6)(A + 2 B P1 + 2 B P2 + C P3).
    """
    a, b, c = l_ends[..., :-1], l_mids, l_ends[..., 1:]
    bp = _mul(b, _plus_identity((0.5 * h) * a))  # B P1
    total = a + 2.0 * bp
    bp *= 0.5 * h
    bp = _mul(b, _plus_identity(bp))  # B P2
    total += 2.0 * bp
    bp *= h
    total += _mul(c, _plus_identity(bp))  # C P3
    total *= h / 6.0
    return _plus_identity(total)


def _product(steps: np.ndarray) -> np.ndarray:
    """(K, m, m, q) products M_{L-1} ... M_0 of the step matrices along the last axis of (K, m, m, q, L).

    Neighbours are multiplied pairwise, so there are about log2(L)
    batched products rather than L - 1.
    """
    while steps.shape[-1] > 1:
        paired = _mul(steps[..., 1::2], steps[..., 0:-1:2])
        if steps.shape[-1] % 2:  # the latest step waits for the next round
            paired = np.concatenate([paired, steps[..., -1:]], axis=-1)
        steps = paired
    return steps[..., 0]


def _chunks(n: int, every: int, size: int):
    """(first step, q, span): q consecutive runs of `span` steps from `first`.

    Recording intervals of at most `size` steps are taken whole, as many
    as fit; a longer interval is cut into pieces of at most `size`. A run
    never straddles a recording point.
    """
    if every <= size:
        per = size // every * every
        for first in range(0, n, per):
            yield first, min(per, n - first) // every, every
    else:
        for start in range(0, n, every):
            for first in range(start, start + every, size):
                yield first, 1, min(size, start + every - first)


def _run_rk4(rho0: np.ndarray, gen: _Generator, cfg: IntegratorConfig, params) -> Trajectory:
    """Classical RK4 on vec(rho), one step matrix per step and invariant block.

    Per chunk, the rates come from the half-step grid j*h/2 in one call
    per channel. Each block group forms the chunk's step matrices for its
    representatives, then the products over each run of steps that ends
    at or before the next recording point (`_chunks`), expands those to
    every block (`_BlockGroup.expand`) and applies them to its part of
    vec(rho) in order.
    """
    n = cfg.n_steps()
    every = cfg.record_every
    if n % every != 0:
        raise ValueError(f"record_every {every} does not divide {n} steps")
    h = cfg.step
    d = rho0.shape[0]
    states = np.empty((n // every + 1, d, d), dtype=complex)
    states[0] = rho0
    parts = [rho0.reshape(-1)[g.idx] for g in gen.groups]
    for first, q, span in _chunks(n, every, _STEP_CHUNK):
        w = gen.weights(np.arange(2 * first, 2 * (first + q * span) + 1) * (0.5 * h))
        runs = [
            g.expand(
                _product(
                    _step_matrices(g.generators(w[0::2]), g.generators(w[1::2]), h).reshape(
                        *g.shape, q, span
                    )
                )
            )
            for g in gen.groups
        ]
        for j in range(q):
            parts = [np.einsum("kij,kj->ki", run[..., j], part) for run, part in zip(runs, parts)]
            end = first + (j + 1) * span
            if end % every == 0:
                flat = states[end // every].reshape(-1)
                for g, part in zip(gen.groups, parts):
                    flat[g.idx] = part
    times = np.arange(len(states)) * every * h
    traj = Trajectory(times=times, states=states, params=params)
    drift = float(np.abs(np.trace(traj.states, axis1=1, axis2=2) - 1.0).max())
    if not (drift <= 1e-8):
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


# Most equal sub-panels `rate_from_spectral_density` cuts [0, max t] into;
# the validate grid of the most strongly detuned preset (fig2c, t <= 10)
# needs about 340. A larger plan is refused before anything is integrated.
_MAX_SUBPANELS = 1_000_000


def rate_from_spectral_density(p: JcmParams, omega: float, t):
    """Decay rate at frequency omega and time(s) t, from the reservoir correlation function.

    The Lorentzian reservoir (width lam, centered on the lower dressed
    transition omega0 - omega_coupling) has correlation function
    (gamma0 lam / 2) e^{-lam tau} up to the free phase, so the
    second-order rate is

        rate(omega, t) = gamma0 lam * integral_0^t e^{-lam tau} cos((omega - center) tau) dtau,

    evaluated here by adaptive Simpson quadrature. No closed-form rate
    expression is reused.

    `t` is one time (the rate comes back as a float) or an array of
    times (an array of rates of the same shape). The sorted times cut
    [0, max t] into consecutive pieces [t_{k-1}, t_k]; each piece is
    integrated once and the rates are the running sums, so a whole time
    grid costs about as much as its largest time. Adaptive Simpson is
    fooled by aliasing (Lyness, J. ACM 16, 483 (1969)): on a panel that
    spans whole oscillation periods its few samples can miss the
    oscillation, so the whole-panel and half-panel estimates agree while
    both are wrong. So each piece is first cut into
    ceil(length (|omega - center| + lam) / pi) equal sub-panels, none
    longer than half a period, and adaptive Simpson runs on each with an
    absolute tolerance of 1e-12 * (sub-panel length / max t): the budgets
    add up to 1e-12 on every [0, t]. Raises ValueError for a time that
    is negative, NaN or infinite, and for a grid that would need more
    than a million sub-panels.
    """
    times = np.asarray(t, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError(f"t must be finite, got {times[~np.isfinite(times)].flat[0]}")
    if (times < 0.0).any():
        raise ValueError(f"t must be non-negative, got {times[times < 0.0].flat[0]}")
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    center = p.omega0 - p.omega
    detuning = omega - center

    def integrand(tau: float) -> float:
        return p.gamma0 * p.lam * math.exp(-p.lam * tau) * math.cos(detuning * tau)

    order = np.argsort(times, axis=None)
    ends = times.reshape(-1)[order]
    t_max = float(ends[-1]) if len(ends) else 0.0
    per_unit = (abs(detuning) + p.lam) / math.pi  # sub-panels per unit time
    if t_max * per_unit > _MAX_SUBPANELS:
        raise ValueError(
            f"t up to {t_max:g} would need {math.ceil(t_max * per_unit)} quadrature "
            f"sub-panels, more than the cap of {_MAX_SUBPANELS}"
        )
    pieces = np.zeros(len(ends))
    start = 0.0
    for k, end in enumerate(ends.tolist()):
        if end > start:
            edges = np.linspace(start, end, max(1, math.ceil((end - start) * per_unit)) + 1)
            tol = 1e-12 * (edges[1] - edges[0]) / t_max
            pieces[k] = math.fsum(
                adaptive_simpson(integrand, a, b, tol=tol)
                for a, b in zip(edges[:-1].tolist(), edges[1:].tolist())
            )
        start = end
    rates = np.empty(len(ends))
    rates[order] = np.cumsum(pieces)
    return float(rates[0]) if times.ndim == 0 else rates.reshape(times.shape)
