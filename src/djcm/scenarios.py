"""Named parameter sets, trajectory runs, and machine-readable output.

A ScenarioConfig pins everything a run needs: the two partitions'
physical parameters (in units of gamma0), the cavity purity r, and the
uniform time grid. The figure presets reproduce the published parameter
choices: the fig2 family varies the atom-cavity coupling at fixed
reservoir width, the fig3 family narrows the reservoir into the
non-Markovian regime, fig4/fig5 sweep the purity at the two extremes.

Everything is deterministic; identical configs give byte-identical CSV.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import IO

import numpy as np

from .entanglement import concurrence, concurrence_x_entries
from .evolution import min_eigenvalue, pair_x_entries, propagate_pairs, x_entry_chunks
from .integrate import integrate_pair, integrate_single, oracle_config, rate_from_spectral_density
from .propagator import (
    JcmParams,
    decay_rate_minus,
    decay_rate_plus,
    integrated_rate_plus,
    propagate_single,
)
from .states import ReductionTarget, initial_state, reduce_stack

__all__ = [
    "ScenarioConfig",
    "TARGET_ORDER",
    "CSV_HEADER",
    "PRESET_NAMES",
    "MAX_SAMPLES",
    "CHUNK_ROWS",
    "SWEEP_PRESETS",
    "SWEEP_PURITIES",
    "preset_config",
    "time_grid",
    "evolve_concurrences",
    "write_csv",
    "write_json",
    "config_to_dict",
    "config_from_dict",
    "validation_report",
    "transient_entanglement_threshold",
]

TARGET_ORDER = (
    ReductionTarget.AB,
    ReductionTarget.ab,
    ReductionTarget.Aa,
    ReductionTarget.Bb,
    ReductionTarget.Ab,
    ReductionTarget.aB,
)


def _column_names(targets: tuple[ReductionTarget, ...]) -> list[str]:
    """Header of a trajectory table: the time, then one column per target."""
    return ["gamma0_t", *("C_" + t.value for t in targets)]


CSV_HEADER = ",".join(_column_names(TARGET_ORDER))

# Largest time grid a config may ask for. The trajectory is one float
# table of 8*(1 + k) bytes per sample for k targets, so this caps it at
# 56 MB with all six.
MAX_SAMPLES = 10**6

# Time samples propagated, reduced and measured together. Large enough
# that numpy, not the interpreter, does the work; small enough that the
# (57, CHUNK_ROWS) coefficient products, the (CHUNK_ROWS, 9, 9) stacks of
# the checking route and their temporaries stay well under a megabyte,
# whatever the grid size.
CHUNK_ROWS = 256

# Most steps of the purity grid `transient_entanglement_threshold` scans.
_MAX_PURITIES = 10**6


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified run. Times are in units of 1/gamma0."""

    params_a: JcmParams
    params_b: JcmParams
    purity: float
    t_max: float
    samples: int
    targets: tuple[ReductionTarget, ...] = TARGET_ORDER
    output: str = "csv"

    def __post_init__(self) -> None:
        if not 0.0 <= self.purity <= 1.0:
            raise ValueError(f"purity must lie in [0,1], got {self.purity}")
        if not 0.0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if not 2 <= self.samples <= MAX_SAMPLES:
            raise ValueError(
                f"samples must lie in [2, {MAX_SAMPLES}], got {self.samples}"
            )
        if self.output not in ("csv", "json"):
            raise ValueError(f"output must be 'csv' or 'json', got {self.output!r}")
        if not self.targets:
            raise ValueError("targets must not be empty")


# (coupling omega, reservoir width lam, purity, t_max); purity None marks
# the sweep presets, which emit one trajectory per value in SWEEP_PURITIES.
_PRESETS: dict[str, tuple[float, float, float | None, float]] = {
    "fig2a": (1.0, 5.0, 1.0, 15.0),
    "fig2b": (3.0, 5.0, 1.0, 15.0),
    "fig2c": (50.0, 5.0, 1.0, 30.0),
    "fig3a": (1.0, 1.0, 1.0, 50.0),
    "fig3b": (1.0, 0.5, 1.0, 15.0),
    "fig3c": (1.0, 0.05, 1.0, 200.0),
    "fig4": (50.0, 5.0, None, 30.0),
    "fig5": (1.0, 0.05, None, 400.0),
}

PRESET_NAMES = tuple(_PRESETS)
SWEEP_PRESETS = tuple(name for name, entry in _PRESETS.items() if entry[2] is None)
SWEEP_PURITIES = (0.0, 0.2, 0.38, 0.5703, 0.8, 1.0)

_DEFAULT_SAMPLES = 1501


def preset_config(name: str, purity: float | None = None) -> ScenarioConfig:
    """Config for a named preset; sweep presets need an explicit purity."""
    if name not in _PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; valid names: {', '.join(PRESET_NAMES)}"
        )
    omega, lam, preset_purity, t_max = _PRESETS[name]
    if purity is None:
        purity = 1.0 if preset_purity is None else preset_purity
    p = JcmParams(omega0=0.0, omega=omega, gamma0=1.0, lam=lam)
    return ScenarioConfig(
        params_a=p, params_b=p, purity=purity, t_max=t_max, samples=_DEFAULT_SAMPLES
    )


def time_grid(cfg: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.t_max, cfg.samples)


def _chunks(n: int):
    """Consecutive slices of at most CHUNK_ROWS rows covering range(n)."""
    return (slice(i, min(i + CHUNK_ROWS, n)) for i in range(0, n, CHUNK_ROWS))


def evolve_concurrences(cfg: ScenarioConfig) -> np.ndarray:
    """Analytical trajectory of all requested pair concurrences.

    Returns a (samples, 1 + len(cfg.targets)) table: column 0 is the time
    grid, the others the concurrences in `cfg.targets` order.
    """
    blocks = [target.block for target in cfg.targets]
    grid = time_grid(cfg)
    table = np.empty((cfg.samples, 1 + len(blocks)))
    table[:, 0] = grid
    chunks = x_entry_chunks(cfg.params_a, cfg.params_b, [cfg.purity], grid, CHUNK_ROWS)
    for rows, (x,) in chunks:
        table[rows, 1:] = concurrence_x_entries(x[:, blocks])
    return table


def write_csv(
    table: np.ndarray, fh: IO[str], targets: tuple[ReductionTarget, ...] = TARGET_ORDER
) -> None:
    """The time, then one column per target; 12 significant digits, LF line endings."""
    names = _column_names(targets)
    if table.ndim != 2 or table.shape[1] != len(names):
        raise ValueError(f"table of shape {table.shape} does not match columns {names}")
    fh.write(",".join(names) + "\n")
    row = ",".join(["%.12g"] * len(names)) + "\n"
    for rows in _chunks(len(table)):
        block = table[rows]
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_json(cfg: ScenarioConfig, table: np.ndarray, fh: IO[str]) -> None:
    names = _column_names(cfg.targets)
    payload = {
        "config": config_to_dict(cfg),
        "records": [dict(zip(names, row, strict=True)) for row in table.tolist()],
    }
    json.dump(payload, fh, indent=2)
    fh.write("\n")


def _params_to_dict(p: JcmParams) -> dict:
    return {"omega0": p.omega0, "omega": p.omega, "gamma0": p.gamma0, "lam": p.lam}


def _params_from_dict(data: dict, name: str) -> JcmParams:
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be an object of parameters, got {data!r}")
    extra = set(data) - {"omega0", "omega", "gamma0", "lam"}
    if extra:
        raise ValueError(f"unknown {name} keys: {', '.join(sorted(extra))}")
    missing = {"omega", "lam"} - set(data)
    if missing:
        raise ValueError(f"{name} is missing {', '.join(sorted(missing))}")
    values = {"omega0": 0.0, "gamma0": 1.0, **data}
    for key, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name}.{key} must be a number, got {value!r}")
    return JcmParams(**{key: float(value) for key, value in values.items()})


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return {
        "params_a": _params_to_dict(cfg.params_a),
        "params_b": _params_to_dict(cfg.params_b),
        "purity": cfg.purity,
        "t_max": cfg.t_max,
        "samples": cfg.samples,
        "targets": [t.value for t in cfg.targets],
        "output": cfg.output,
    }


def config_from_dict(data: dict) -> ScenarioConfig:
    """Inverse of config_to_dict, and the one parser of a config mapping.

    It fills in the defaults (omega0 0, gamma0 1, params_b = params_a,
    1501 samples, all six targets, CSV output) and rejects input of the
    wrong shape, unknown keys, missing keys and mistyped values with a
    ValueError that names the key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"the config's top level must be an object, got {type(data).__name__}")
    known = {"params_a", "params_b", "purity", "t_max", "samples", "targets", "output"}
    extra = set(data) - known
    if extra:
        raise ValueError(f"unknown config keys: {', '.join(sorted(extra))}")
    missing = {"params_a", "purity", "t_max"} - set(data)
    if missing:
        raise ValueError(f"config is missing keys: {', '.join(sorted(missing))}")
    params_a = _params_from_dict(data["params_a"], "params_a")
    params_b = (
        _params_from_dict(data["params_b"], "params_b") if "params_b" in data else params_a
    )
    for key in ("purity", "t_max"):
        if isinstance(data[key], bool) or not isinstance(data[key], numbers.Real):
            raise ValueError(f"{key} must be a number, got {data[key]!r}")
    samples = data.get("samples", _DEFAULT_SAMPLES)
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    names = data.get("targets", [t.value for t in TARGET_ORDER])
    valid = [t.value for t in ReductionTarget]
    if not isinstance(names, (list, tuple)) or any(name not in valid for name in names):
        raise ValueError(f"targets must be a list of names from {valid}, got {names!r}")
    return ScenarioConfig(
        params_a=params_a,
        params_b=params_b,
        purity=float(data["purity"]),
        t_max=float(data["t_max"]),
        samples=int(samples),
        targets=tuple(ReductionTarget(name) for name in names),
        output=data.get("output", "csv"),
    )


def _uniform_single_state() -> np.ndarray:
    """Projector onto (|+> + |-> + |0>)/sqrt(3): every matrix entry participates."""
    v = np.full(3, 1.0 / math.sqrt(3.0), dtype=complex)
    return np.outer(v, v.conj())


def validation_report(cfg: ScenarioConfig, preset: str | None = None) -> dict:
    """Run the full oracle suite against the closed-form solution.

    Compares the analytical propagation with brute-force RK4 (3x3 and
    9x9), the closed-form decay rates with the correlation-function
    quadrature, and reports positivity plus the running minimum of the
    accumulated upper-branch exponent. Pass thresholds: 1e-6 for the
    trajectory comparisons, 1e-8 for the rates, -1e-8 for eigenvalues.

    `max_dev_concurrence_routes` is the largest gap between the
    production route (X entries from coefficient space, Yu-Eberly closed
    form) and the spectral concurrence of the reduced 9x9 states, over
    all six pairs at up to 101 evenly spaced grid times. It is reported,
    not gated.
    """
    # single partition, all-entries state
    single0 = _uniform_single_state()
    cfg_single = oracle_config(cfg.t_max, cfg.samples, cfg.params_a)
    traj_single = integrate_single(single0, cfg.params_a, cfg_single)
    # np.maximum/np.minimum, unlike max()/min(), carry a NaN through to the gates
    dev_single = 0.0
    for rows in _chunks(len(traj_single)):
        exact = propagate_single(single0, cfg.params_a, traj_single.times[rows])
        dev_single = np.maximum(dev_single, np.abs(traj_single.states[rows] - exact).max())

    # joint propagation from the physical initial state
    pair0 = initial_state(cfg.purity)
    cfg_pair = oracle_config(cfg.t_max, cfg.samples, cfg.params_a, cfg.params_b)
    traj_pair = integrate_pair(pair0, cfg.params_a, cfg.params_b, cfg_pair)
    dev_pair = 0.0
    min_eig = math.inf
    for rows in _chunks(len(traj_pair)):
        exact = propagate_pairs(pair0, cfg.params_a, cfg.params_b, traj_pair.times[rows])
        dev_pair = np.maximum(dev_pair, np.abs(traj_pair.states[rows] - exact).max())
        min_eig = np.minimum(min_eig, min_eigenvalue(exact).min())

    # decay rates from the reservoir correlation function
    param_sets = [cfg.params_a]
    if cfg.params_b != cfg.params_a:
        param_sets.append(cfg.params_b)
    rate_times = np.linspace(0.0, min(cfg.t_max, 10.0), 21)
    dev_minus = dev_plus = 0.0
    for p in param_sets:
        quad_minus = rate_from_spectral_density(p, p.omega0 - p.omega, rate_times)
        quad_plus = rate_from_spectral_density(p, p.omega0 + p.omega, rate_times)
        dev_minus = np.maximum(dev_minus, np.abs(quad_minus - decay_rate_minus(p, rate_times)).max())
        dev_plus = np.maximum(dev_plus, np.abs(quad_plus - decay_rate_plus(p, rate_times)).max())

    min_ip = float(integrated_rate_plus(cfg.params_a, np.linspace(0.0, cfg.t_max, 2001)).min())

    # the two concurrence routes at up to 101 evenly spaced grid times
    rows = np.unique(np.linspace(0, cfg.samples - 1, min(cfg.samples, 101)).round().astype(int))
    times = time_grid(cfg)[rows]
    blocks = reduce_stack(propagate_pairs(pair0, cfg.params_a, cfg.params_b, times))
    spectral = concurrence(blocks)
    kernel = concurrence_x_entries(pair_x_entries(cfg.params_a, cfg.params_b, cfg.purity, times))
    dev_routes = float(np.abs(kernel - spectral).max())

    report = {
        "preset": preset,
        "max_dev_single": float(dev_single),
        "max_dev_pair": float(dev_pair),
        "max_dev_rate_minus": float(dev_minus),
        "max_dev_rate_plus": float(dev_plus),
        "min_eigenvalue": float(min_eig),
        "min_integrated_rate_plus": min_ip,
        "max_dev_concurrence_routes": dev_routes,
        "pass_oracle": bool(dev_single <= 1e-6 and dev_pair <= 1e-6),
        "pass_rates": bool(dev_minus <= 1e-8 and dev_plus <= 1e-8),
        "pass_positivity": bool(min_eig >= -1e-8),
    }
    report["passed"] = bool(
        report["pass_oracle"] and report["pass_rates"] and report["pass_positivity"]
    )
    return report


def _purity_steps(dr: float) -> int:
    """n such that the purity grid is r_k = k*dr for k < n (all below 1), then r_n = 1."""
    n = math.ceil(1.0 / dr)
    while n > 0 and (n - 1) * dr >= 1.0:
        n -= 1
    while n * dr < 1.0:
        n += 1
    return n


def _purity(k: int, dr: float, n: int) -> float:
    """Value k of the purity grid with `_purity_steps(dr)` = n."""
    return k * dr if k < n else 1.0


# How far below eps the concurrence of a purity must sit for the threshold
# scan to skip it. Rounding moves a concurrence computed from X entries of
# size at most 1 by a few 1e-16.
_SKIP_MARGIN = 1e-12


def _proven_below(x: np.ndarray, bar: float) -> bool:
    """Whether no concurrence of the X entries `x` exceeds bar.

    False, not a ValueError, for a state below the eigenvalue guard of
    `concurrence_x_entries`: the threshold scan then tries that purity
    itself, and raises only if the plain scan would have.
    """
    try:
        return bool(concurrence_x_entries(x).max() <= bar)
    except ValueError:
        return False


def _scan_start(a: np.ndarray, b: np.ndarray, eps: float, dr: float, n: int, stop: int) -> int:
    """Grid index from which one chunk's threshold scan must run, in [0, stop].

    `a` and `b` are the chunk's (T, 8) target X entries at r = 1 and
    r = 0. With non-negative populations at both ends, every Yu-Eberly
    margin |x_c| - sqrt(d_i d_j) is convex in r (a modulus of an affine
    map minus a geometric mean of affine maps), and so is the chunk's
    largest concurrence C(r); the lowest eigenvalue is concave in r. If
    C sits _SKIP_MARGIN below eps at r = 0 and at a grid purity r_k, it
    stays below eps at every purity in between, with room for the
    rounding of each one's entries, and so does the eigenvalue guard:
    the scan may skip k and everything below it. A bisection over k in
    [0, stop) finds the first index that this proof does not cover, with
    about log2(stop) concurrence batches. The start is 0 when r = 0 fails
    the proof, and when a population at r = 0 or 1 is negative (inside
    the -1e-8 eigenvalue band): clipping it to 0 voids the convexity.
    """
    if stop == 0 or min(a[:, :4].real.min(), b[:, :4].real.min()) < 0.0:
        return 0
    bar = eps - _SKIP_MARGIN
    if not _proven_below(b, bar):
        return 0
    lo, hi = 0, stop  # every index below lo is proven unentangled
    while lo < hi:
        mid = (lo + hi) // 2
        r = _purity(mid, dr, n)
        if _proven_below(r * a + (1.0 - r) * b, bar):
            lo = mid + 1
        else:
            hi = mid
    return lo


def transient_entanglement_threshold(
    cfg: ScenarioConfig,
    target: ReductionTarget = ReductionTarget.AB,
    dr: float = 0.01,
    eps: float = 1e-8,
) -> float | None:
    """Smallest purity (on a dr grid) whose trajectory ever entangles `target`.

    The grid is r = 0, dr, 2*dr, ... while below 1, then r = 1. Returns
    the first value for which the concurrence exceeds eps anywhere on the
    time grid; None if even r=1 never entangles the pair. This is the
    transient counterpart of the quasi-steady threshold constant. dr
    must lie in [1e-6, 1] and eps must be finite and non-negative;
    anything else raises ValueError.

    The initial state is affine in r, and so are propagation and
    reduction: the `target` X entries at purity r are r*A + (1-r)*B, with
    A and B those of r=1 and r=0, both taken from one pass of each
    chunk's coefficient products. The concurrence is convex in r, so per
    chunk a bisection (`_scan_start`) proves a run of low purities
    unentangled, and the eps test runs upwards from the first purity the
    proof does not cover. A chunk where the proof cannot be made scans
    from r = 0. The result always equals that of the plain scan from
    r = 0 in every chunk. For eps above _SKIP_MARGIN its cost grows as
    log(1/dr), not as 1/dr; a smaller eps leaves no room for the proof,
    and every purity up to the answer is tried.
    """
    if not 0.0 < dr <= 1.0:
        raise ValueError(f"dr must lie in (0, 1], got {dr}")
    if not 1.0 / dr <= _MAX_PURITIES:
        raise ValueError(
            f"dr must be at least {1.0 / _MAX_PURITIES:g}, which caps the purity grid "
            f"at {_MAX_PURITIES} steps; got {dr}"
        )
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and non-negative, got {eps}")
    n = _purity_steps(dr)
    grid = time_grid(cfg)
    first, found = n + 1, None  # grid index and value of the smallest entangling purity so far
    chunks = x_entry_chunks(cfg.params_a, cfg.params_b, [1.0, 0.0], grid, CHUNK_ROWS)
    for _, (a, b) in chunks:
        a, b = a[:, target.block], b[:, target.block]
        for k in range(_scan_start(a, b, eps, dr, n, first), first):
            r = _purity(k, dr, n)
            if (concurrence_x_entries(r * a + (1.0 - r) * b) > eps).any():
                first, found = k, r
                break
    return found
