"""Brute-force numerical validators for the closed-form propagation.

Nothing in here knows the analytical solution. `integrate_single` and
`integrate_pair` push the density matrix through the time-local master
equation with a hand-written fixed-step fourth-order Runge-Kutta scheme.
The generator is a superoperator on vec(rho), assembled once per call
from the raw Hamiltonian and jump operators and weighted by the decay
rates at the substep times; no reuse of the entry-wise coefficients or
the tensor-product structure being validated. RK4 integrates only the
real dissipative part, in the frame of the diagonal free Hamiltonian;
each recorded coordinate then takes its exact phase, so no step has to
resolve omega0. A generic graph step takes the coordinates of vec(rho)
that the initial state can reach (its nonzero entries, closed under the
generator's directed sparsity pattern; every other coordinate stays
exactly 0 and is not integrated), splits them into the invariant blocks
of the pattern restricted to them, and each step acts on every block
through its classical RK4 step matrix, built from the same three
generator evaluations as the four stages. Channels that share their parameters
and rate function are summed into one dissipator, so two equal
partitions cost the generator two ops rather than four. Blocks whose
restricted ops are exactly equal share one representative's step
matrices. The blocks are independent ODEs, so each group of equal-size
blocks advances on its own: its step matrices exist a run at a time,
and a run holds a fixed budget of representative entries rather than a
fixed number of steps, so a smaller group takes longer runs and memory
stays bounded either way. The rates are evaluated once per outer range
of steps, held to the same budget and shared by every group. Every step
map is real, so a group carries its part of vec(rho) as real and
imaginary columns. Blocks of 5x5 and up are multiplied in time-major
memory; 1x1 blocks advance a whole run in one cumulative product.
`rate_from_spectral_density` recovers the decay rates themselves by
numerical quadrature of the reservoir correlation function, so the
closed-form rate expressions get an independent check as well. A whole
time grid is integrated once, piece by piece between consecutive times,
by one 8-point Gauss-Legendre rule on sub-panels short enough that the
oscillating integrand cannot alias.

Fixed step and fixed rule rather than adaptive on purpose: the error
budget and the fourth-order convergence check both want a step that is
known exactly, and the quadrature's error is bounded before it runs.
"""

from __future__ import annotations

import functools
import math
import numbers
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
    "gauss_legendre",
]

_STEP_FRACTION = 1.0 / 50.0  # of the fastest timescale present

# How far below the admissible step `oracle_config` plans its steps.
_ORACLE_SAFETY = 3.0

# Most RK4 steps one oracle trajectory may take. The largest
# preset (fig2c/fig4) needs 225,000; a plan beyond this cap would run for
# minutes or hours, so it is refused before anything is integrated.
MAX_RK4_STEPS = 2_000_000


def _check_count(name: str, value, least: int) -> None:
    """ValueError naming `name` unless `value` is an integer, not a bool, of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration plan.

    step         positive, finite time increment (at integration time it
                 must resolve the fastest of the oscillation, memory and
                 relaxation timescales, in at most MAX_RK4_STEPS steps)
    t_end        finite final time; must be an integer number of steps away
    record_every store every k-th step (t=0 is always stored); a positive
                 integer that divides the step count
    """

    step: float
    t_end: float
    record_every: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.step < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be non-negative and finite, got {self.t_end}")
        _check_count("record_every", self.record_every, 1)
        n = self.n_steps()
        if n % self.record_every != 0:
            raise ValueError(f"record_every {self.record_every} does not divide {n} steps")

    def n_steps(self) -> int:
        ratio = self.t_end / self.step
        if ratio == math.inf:
            raise ValueError(f"t_end {self.t_end} over step {self.step} overflows the step count")
        n = int(round(ratio))
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
    Raises ValueError for a `t_end` outside (0, inf), fewer than 2 or a
    non-integer number of `samples`, and a plan beyond MAX_RK4_STEPS.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    _check_count("samples", samples, 2)
    spacing = t_end / (samples - 1)
    bound = max_step(*params) / _ORACLE_SAFETY
    per_interval = max(1, math.ceil(spacing / bound - 1e-12))
    cfg = IntegratorConfig(step=spacing / per_interval, t_end=t_end, record_every=per_interval)
    _check_plan(cfg, *params)
    return cfg


# Most float64 entries that one array on a chunk's time grid holds. A
# block group of R representatives of size m runs `_chunk_steps(R*m*m)`
# steps at a time, so that its S + 1 rows of generator blocks fit; the
# rates of an outer range of steps, 2S + 1 rows of one weight per
# channel, fit too (`_chunk_steps(channels, 2)`). Over every coordinate a
# pair of distinct partitions (one 9x9, six 3x3 and nine 1x1
# representatives) runs 482, 724 and 4351 steps within outer ranges of
# 4895; an equal pair (one 9x9, three 3x3, six 1x1) 482, 1449 and 6527
# within 9791; one partition (one 3x3, three 1x1) 4351 and 13055 within
# 9791, so its scalars take whole outer ranges. `initial_state(1)` of an
# equal pair reaches one 5x5 block and twelve 1x1 blocks over three
# representatives: 1565 and 13055 steps within 9791. A run holds
# whole recording intervals when they are this short, and otherwise a
# piece of one interval, so memory stays bounded (about 2.5 MB of
# temporaries) whatever the plan.
_CHUNK_ENTRIES = 39_168


def _dressed_hamiltonian(p: JcmParams) -> np.ndarray:
    return np.diag([0.5 * p.omega0 + p.omega, 0.5 * p.omega0 - p.omega, -0.5 * p.omega0])


def _jump_operators() -> tuple[np.ndarray, np.ndarray]:
    """|0g><+| and |0g><-|: decay of each dressed level to the ground level."""
    s_plus = np.zeros((3, 3))
    s_plus[2, 0] = 1.0
    s_minus = np.zeros((3, 3))
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
    """K invariant blocks of one size m: the dissipators restricted to each.

    `idx` (K, m) holds each block's coordinates in vec(rho). Blocks whose
    restricted op stacks are exactly equal share a representative: the
    first block of their class. `rep` (K,) is each block's position among
    the R representatives, and `cols` (R*m*m, C) holds the
    representatives' op entries.
    """

    def __init__(self, ops: np.ndarray, blocks: list[list[int]]) -> None:
        self.idx = np.array(blocks)
        k, m = self.idx.shape
        sub = ops[:, self.idx[:, :, None], self.idx[:, None, :]]  # (C, K, m, m)
        flat = np.moveaxis(sub, 1, 0).reshape(k, -1)  # each block's op stack
        first = (flat[:, None] == flat).all(axis=2).argmax(axis=1)  # the earliest equal block
        reps, self.rep = np.unique(first, return_inverse=True)
        self.cols = np.ascontiguousarray(sub[:, reps].reshape(len(ops), -1).T)
        self.shape = (len(reps), m, m)

    def generators(self, w: np.ndarray) -> np.ndarray:
        """(R, m, m, T) representatives' blocks of L(t) for the (T, C) weight rows `w`; time last.

        Blocks above `_BROADCAST_MAX` come back as a view of time-major
        memory, so every m x m matrix is contiguous for `_mul`'s
        np.matmul; the step matrices and products computed from them keep
        that memory order.
        """
        if self.shape[1] > _BROADCAST_MAX:
            return (w @ self.cols.T).reshape(len(w), *self.shape).transpose(1, 2, 3, 0)
        return (self.cols @ w.T).reshape(*self.shape, len(w))


class _Generator:
    """The master equation as a superoperator on the row-major vec(rho), in the frame of h.

    drho/dt = -i[h, rho] + sum_c rate_c(t) (S_c rho S_c^dag / 2 - {S_c^dag S_c, rho} / 4)
    is vec(drho/dt) = (L0 + L(t)) vec(rho) with L(t) = sum_c rate_c(t) L_c, where,
    by vec(A rho B) = (A kron B^T) vec(rho),

        L0  = -i (h kron 1 - 1 kron h^T)
        L_c = S_c kron S_c^* / 2 - (S_c^dag S_c kron 1 + 1 kron (S_c^dag S_c)^T) / 4.

    For h = diag(E), L0 is diagonal: coordinate (i, j) turns at its Bohr
    frequency `freq` E_i - E_j. An L_c that links only coordinates of
    equal frequency commutes with L0, so vec(rho(t)) = e^{L0 t} vec(rho~(t))
    with d rho~/dt = L(t) rho~ (the interaction picture; Breuer &
    Petruccione, The Theory of Open Quantum Systems, 2002). Construction
    raises ValueError unless h is real and diagonal, the summed L_c are
    real, and every nonzero L_c entry links frequencies equal to 1e-12 of
    the largest |E_i| (a pair's kron-summed energies round differently,
    so frequencies equal in exact arithmetic can differ in the last bit).

    Channels with equal (params, rate) share one weight at every t, so
    their L_c are summed into one op: rate(t) L_1 + rate(t) L_2 =
    rate(t) (L_1 + L_2) for any generator, and a pair of equal partitions
    needs two dissipators instead of four. `ops` stacks the summed L_c;
    `channels` holds each one's (params, rate); `feeds` is the union of
    the ops' sparsity patterns. `groups(support)` splits the coordinates
    a support reaches into the invariant blocks of that pattern, grouped
    by block size.
    """

    def __init__(self, h: np.ndarray, channels) -> None:
        energies = np.diagonal(h).real
        if (h != np.diag(energies)).any():
            raise ValueError("h is not real and diagonal: the oracle works in the eigenbasis of h")
        eye = np.eye(len(h))
        dissipators = {}
        for s, p, rate in channels:
            proj = s.conj().T @ s
            op = 0.5 * np.kron(s, s.conj()) - 0.25 * (np.kron(proj, eye) + np.kron(eye, proj.T))
            key = (p, rate)
            dissipators[key] = dissipators[key] + op if key in dissipators else op
        ops = np.array([*dissipators.values()])
        if np.imag(ops).any():
            raise ValueError("a dissipator has complex entries: the oracle integrates real step matrices")
        self.ops = np.real(ops)
        self.dim = len(h) ** 2
        self.freq = np.subtract.outer(energies, energies).reshape(-1)
        self.channels = tuple(dissipators)
        self.feeds = (self.ops != 0).any(axis=0)  # feeds[i, j]: coordinate j feeds coordinate i
        rows, cols = np.nonzero(self.feeds)
        tol = 1e-12 * np.abs(energies).max(initial=0.0)
        if (np.abs(self.freq[rows] - self.freq[cols]) > tol).any():
            raise ValueError("a dissipator links two Bohr frequencies: it does not commute with L0")

    def groups(self, support: np.ndarray) -> list[_BlockGroup]:
        """Block groups, largest blocks first, of the coordinates the boolean mask `support` reaches.

        The reached set closes `support` under the directed pattern
        `feeds`, so no op maps a reached coordinate outside it: a state
        that is 0 off `support` stays exactly 0 off the reached set. On
        that set L(t) is block diagonal over the invariant blocks of the
        restricted pattern at every t, whatever the rates. A full support
        reaches every coordinate.
        """
        reached = support.copy()
        frontier = reached
        while frontier.any():
            frontier = self.feeds[:, frontier].any(axis=1) & ~reached
            reached |= frontier
        coords = np.flatnonzero(reached)
        blocks = [coords[b].tolist() for b in _invariant_blocks(self.feeds[np.ix_(coords, coords)])]
        sizes = sorted({len(b) for b in blocks}, reverse=True)
        groups = [_BlockGroup(self.ops, [b for b in blocks if len(b) == m]) for m in sizes]
        inside = np.zeros((self.dim, self.dim), dtype=bool)
        for g in groups:
            inside[g.idx[:, :, None], g.idx[:, None, :]] = True
        if self.ops[:, :, reached][:, ~inside[:, reached]].any():
            raise RuntimeError("a generator entry of a reached coordinate lies outside its invariant blocks")
        return groups

    def weights(self, times: np.ndarray) -> np.ndarray:
        """(T, C) real weights of the stacked ops: each rate at each time."""
        return np.stack([rate(p, times) for p, rate in self.channels], axis=1)

    def at(self, times: np.ndarray) -> np.ndarray:
        """(T, d*d, d*d) dense interaction-frame generators L(t) at the given times."""
        return np.tensordot(self.weights(times), self.ops, axes=1)


def _single_generator(p: JcmParams) -> _Generator:
    """Generator of the 3x3 master equation in the dressed basis."""
    s_plus, s_minus = _jump_operators()
    return _Generator(
        _dressed_hamiltonian(p), ((s_plus, p, decay_rate_plus), (s_minus, p, decay_rate_minus))
    )


def _pair_generator(p_a: JcmParams, p_b: JcmParams) -> _Generator:
    """Generator of the 9x9 master equation: both partitions decay independently."""
    eye = np.eye(3)
    h = np.kron(_dressed_hamiltonian(p_a), eye) + np.kron(eye, _dressed_hamiltonian(p_b))
    s_plus, s_minus = _jump_operators()
    channels = (
        (np.kron(s_plus, eye), p_a, decay_rate_plus),
        (np.kron(s_minus, eye), p_a, decay_rate_minus),
        (np.kron(eye, s_plus), p_b, decay_rate_plus),
        (np.kron(eye, s_minus), p_b, decay_rate_minus),
    )
    return _Generator(h, channels)


# Largest block whose products `_mul` sums by broadcasting; bigger blocks
# go through np.matmul on contiguous matrices, which wins from 5x5 up on
# this kind of stack.
_BROADCAST_MAX = 4


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products over axes 1 and 2 of (K, m, m, ...) stacks, batched over the rest.

    Small blocks sum over j by broadcasting, which keeps the long batch
    axes innermost; np.matmul's per-matrix loop would dominate there.
    Larger ones are multiplied by np.matmul on a view with the matrix axes
    last, which is contiguous when the stack's memory is time-major
    (`_BlockGroup.generators`); the product keeps that memory order.
    """
    if a.shape[2] > _BROADCAST_MAX:
        lead = (0, *range(3, a.ndim), 1, 2)
        back = (0, a.ndim - 2, a.ndim - 1, *range(1, a.ndim - 2))
        return (a.transpose(lead) @ b.transpose(lead)).transpose(back)
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
            out = np.empty_like(steps[..., : paired.shape[-1] + 1])  # in the stack's memory order
            paired = np.concatenate([paired, steps[..., -1:]], axis=-1, out=out)
        steps = paired
    return steps[..., 0]


def _chunks(n: int, every: int, size: int):
    """(first step, q, span): q consecutive stretches of `span` steps from `first`, at most `size` in all.

    Recording intervals of at most `size` steps are taken whole, as many
    as fit; a longer interval is cut into pieces of at most `size`. A
    stretch never straddles a recording point.
    """
    if every <= size:
        per = size // every * every
        for first in range(0, n, per):
            yield first, min(per, n - first) // every, every
    else:
        for start in range(0, n, every):
            for first in range(start, start + every, size):
                yield first, 1, min(size, start + every - first)


def _chunk_steps(entries: int, rows: int = 1) -> int:
    """Steps S per chunk, at least 1: rows * S + 1 time rows of `entries` entries fit `_CHUNK_ENTRIES`."""
    return max(1, (_CHUNK_ENTRIES // entries - 1) // rows)


def _run_rk4(rho0: np.ndarray, gen: _Generator, cfg: IntegratorConfig) -> Trajectory:
    """Classical RK4 on vec(rho) in the frame of h, one real step matrix per step and invariant block.

    Only the coordinates `rho0`'s nonzero entries reach are integrated
    (`_Generator.groups`); every other coordinate of every recorded state
    is exactly 0. The rates come from the half-step grid j*h/2, one call
    per channel over an outer range of steps whose 2S + 1 rate rows fit
    the entry budget (`_chunk_steps`). Every block group then advances
    on its own over that range, in runs of as many steps as its
    representatives' S + 1 step-matrix rows fit the same budget: it
    forms a run's step matrices, the products over each stretch of steps
    that ends at or before the next recording point (`_chunks`), gathers
    those per block and applies them to its part of vec(rho) in order.
    The maps are real, so each part is carried as real (K, m, 2) columns,
    the real and imaginary parts of a complex `rho0` alike: 1x1 blocks
    advance a run by one cumulative product, larger ones by one
    np.matmul per stretch. Recorded values go into `states` through its
    float view; at the end each recorded coordinate of nonzero Bohr
    frequency takes its exact phase e^{-i freq t}.
    """
    n = cfg.n_steps()
    every = cfg.record_every
    h = cfg.step
    d = rho0.shape[0]
    groups = gen.groups(rho0.reshape(-1) != 0)
    states = np.zeros((n // every + 1, d, d), dtype=complex)
    states[0] = rho0
    columns = states.view(float).reshape(len(states), -1, 2)  # (re, im) of each coordinate
    parts = [columns[0, g.idx] for g in groups]
    sizes = [_chunk_steps(math.prod(g.shape)) for g in groups]
    for first, q, span in _chunks(n, every, _chunk_steps(len(gen.channels), 2)):
        w = gen.weights(np.arange(2 * first, 2 * (first + q * span) + 1) * (0.5 * h))
        for k, g in enumerate(groups):
            # the group's runs over the range: `count` stretches of `length` steps from `start`
            for start, count, length in _chunks(q * span, span, sizes[k]):
                rates = w[2 * start : 2 * (start + count * length) + 1]
                steps = _step_matrices(g.generators(rates[0::2]), g.generators(rates[1::2]), h)
                maps = _product(steps.reshape(*g.shape, count, length)).transpose(3, 0, 1, 2)[:, g.rep]
                part = parts[k]
                if g.shape[1] == 1:  # v, r0 v, r1 r0 v, ... in one call
                    seq = np.concatenate([part[None], np.broadcast_to(maps, (count, *part.shape))])
                    after = np.multiply.accumulate(seq, axis=0)[1:]
                else:
                    after = np.empty((count, *part.shape))
                    for j in range(count):
                        part = np.matmul(maps[j], part, out=after[j])
                parts[k] = after[-1]
                ends = first + start + length * np.arange(1, count + 1)
                recorded = ends % every == 0
                rows = after[recorded].reshape(-1, g.idx.size, 2)
                columns[ends[recorded, None] // every, g.idx.reshape(-1)] = rows
    flat = states.reshape(len(states), -1)
    times = np.arange(len(states)) * every * h
    coords = np.concatenate([g.idx.reshape(-1) for g in groups])
    turning = coords[gen.freq[coords] != 0.0]
    flat[:, turning] *= np.exp(-1j * np.multiply.outer(times, gen.freq[turning]))
    drift = float(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max())
    if not (drift <= 1e-8):
        raise RuntimeError(f"integration lost trace (drift {drift:.3e})")
    return Trajectory(times=times, states=states)


def _check_plan(cfg: IntegratorConfig, *params: JcmParams) -> None:
    bound = max_step(*params)
    if cfg.step > bound * (1.0 + 1e-12):
        raise ValueError(
            f"step {cfg.step:g} exceeds the stability bound {bound:g} "
            "for these parameters"
        )
    if cfg.t_end / cfg.step > MAX_RK4_STEPS + 0.5:
        raise ValueError(
            f"the RK4 oracle would need {cfg.t_end / cfg.step:.0f} steps, more than the cap "
            f"of {MAX_RK4_STEPS}; shorten the run or slow the fastest timescale"
        )


def integrate_single(rho0: np.ndarray, p: JcmParams, cfg: IntegratorConfig) -> Trajectory:
    """RK4 trajectory of one partition's 3x3 dressed-basis state."""
    rho0 = validate_density_matrix(rho0, 3, name="rho0")
    _check_plan(cfg, p)
    return _run_rk4(rho0, _single_generator(p), cfg)


def integrate_pair(
    rho0: np.ndarray, p_a: JcmParams, p_b: JcmParams, cfg: IntegratorConfig
) -> Trajectory:
    """RK4 trajectory of the joint 9x9 dressed-basis state."""
    rho0 = validate_density_matrix(rho0, 9, name="rho0")
    _check_plan(cfg, p_a, p_b)
    return _run_rk4(rho0, _pair_generator(p_a, p_b), cfg)


_PANEL_BLOCK = 4096  # sub-panels `gauss_legendre` evaluates at once (bounded memory)


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, 1] and weights (summing to 1) of the 8-point Gauss-Legendre rule.

    Built on first use: importing numpy.polynomial costs a few ms.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(8)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def gauss_legendre(f, a: float, b: float, panels: int) -> float:
    """Integral of f over [a, b] by the 8-point Gauss-Legendre rule on `panels` equal sub-panels.

    `f` maps an array of abscissae to an array of values. Exact through
    degree 15 on each sub-panel; reversed limits negate it. `panels`
    must be a positive integer.
    """
    _check_count("panels", panels, 1)
    nodes, weights = _gauss_rule()
    h = (b - a) / panels
    blocks = []
    for first in range(0, panels, _PANEL_BLOCK):
        left = np.arange(first, min(first + _PANEL_BLOCK, panels))[:, None]
        blocks.append(h * float((f(a + (left + nodes) * h) @ weights).sum()))
    return math.fsum(blocks)


# Most equal sub-panels `rate_from_spectral_density` cuts [0, max t] into;
# the validate grid of the most strongly detuned preset (fig2c, t <= 10)
# needs about 670. A larger plan is refused before anything is integrated.
_MAX_SUBPANELS = 1_000_000


def rate_from_spectral_density(p: JcmParams, omega: float, t):
    """Decay rate at frequency omega and time(s) t, from the reservoir correlation function.

    The Lorentzian reservoir (width lam, centered on the lower dressed
    transition omega0 - omega_coupling) has correlation function
    (gamma0 lam / 2) e^{-lam tau} up to the free phase, so the
    second-order rate is

        rate(omega, t) = gamma0 lam * integral_0^t e^{-lam tau} cos((omega - center) tau) dtau,

    evaluated here by quadrature; no closed-form rate expression is
    reused.

    `t` is one time (the rate comes back as a float) or an array of
    times (an array of rates of the same shape). The sorted times cut
    [0, max t] into consecutive pieces [t_{k-1}, t_k]; each piece is
    integrated once and the rates are the running sums, so a whole time
    grid costs about as much as its largest time. Each piece is cut into
    ceil(2 length s / pi) equal sub-panels, s = |omega - center| + lam,
    none longer than a quarter period, so no rule's samples can alias
    the oscillation (Lyness, J. ACM 16, 483 (1969)), and `gauss_legendre`
    runs on all of them. Its error is then bounded in advance (Davis &
    Rabinowitz, Methods of Numerical Integration, 2.7): the integrand
    gamma0 lam Re e^{(-lam + i(omega - center)) tau} has a 16th
    derivative of at most gamma0 lam s^16, so a sub-panel of length
    h <= pi / (2 s) is off by at most
    gamma0 lam h (h s)^16 (8!)^4 / (17 (16!)^3) <= 2.4e-20 gamma0 lam h
    and [0, t] by at most 2.4e-20 gamma0 lam t < 4e-14 gamma0, since the
    sub-panel cap bounds lam t by 1.57e6 (7 points would allow 5.7e-11).
    Raises ValueError for a time that is negative, NaN or infinite, and
    for a grid that would need more than a million sub-panels.
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

    def integrand(tau: np.ndarray) -> np.ndarray:
        return p.gamma0 * p.lam * np.exp(-p.lam * tau) * np.cos(detuning * tau)

    order = np.argsort(times, axis=None)
    ends = times.reshape(-1)[order]
    t_max = float(ends[-1]) if len(ends) else 0.0
    per_unit = 2.0 * (abs(detuning) + p.lam) / math.pi  # sub-panels per unit time
    if t_max * per_unit > _MAX_SUBPANELS:
        raise ValueError(
            f"t up to {t_max:g} would need {math.ceil(t_max * per_unit)} quadrature "
            f"sub-panels, more than the cap of {_MAX_SUBPANELS}"
        )
    pieces = np.zeros(len(ends))
    start = 0.0
    for k, end in enumerate(ends.tolist()):
        if end > start:
            panels = max(1, math.ceil((end - start) * per_unit))
            pieces[k] = gauss_legendre(integrand, start, end, panels)
        start = end
    rates = np.empty(len(ends))
    rates[order] = np.cumsum(pieces)
    return float(rates[0]) if times.ndim == 0 else rates.reshape(times.shape)
