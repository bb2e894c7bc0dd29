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
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .entanglement import concurrence
from .evolution import min_eigenvalue, propagate_pair, identical_partitions
from .integrate import integrate_pair, integrate_single, oracle_config, rate_from_spectral_density
from .propagator import (
    JcmParams,
    decay_rate_minus,
    decay_rate_plus,
    integrated_rate_plus,
    propagate_single,
)
from .states import ReductionTarget, initial_state, reduce, reduce_all

__all__ = [
    "ScenarioConfig",
    "ConcurrenceRecord",
    "TARGET_ORDER",
    "CSV_HEADER",
    "PRESET_NAMES",
    "SWEEP_PRESETS",
    "SWEEP_PURITIES",
    "preset_config",
    "time_grid",
    "evolve_concurrences",
    "column",
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
CSV_HEADER = "gamma0_t," + ",".join("C_" + t.value for t in TARGET_ORDER)

_ALL_TARGETS = tuple(TARGET_ORDER)


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified run. Times are in units of 1/gamma0."""

    params_a: JcmParams
    params_b: JcmParams
    purity: float
    t_max: float
    samples: int
    targets: tuple[ReductionTarget, ...] = _ALL_TARGETS
    output: str = "csv"

    def __post_init__(self) -> None:
        if not 0.0 <= self.purity <= 1.0:
            raise ValueError(f"purity must lie in [0,1], got {self.purity}")
        if not 0.0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")
        if self.output not in ("csv", "json"):
            raise ValueError(f"output must be 'csv' or 'json', got {self.output!r}")
        if not self.targets:
            raise ValueError("targets must not be empty")


@dataclass(frozen=True)
class ConcurrenceRecord:
    """Concurrence of every requested subsystem pair at one time."""

    t: float
    values: dict[ReductionTarget, float]


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


def evolve_concurrences(cfg: ScenarioConfig) -> list[ConcurrenceRecord]:
    """Analytical trajectory of all requested pair concurrences."""
    r0 = initial_state(cfg.purity)
    records = []
    for t in time_grid(cfg):
        state = propagate_pair(r0, cfg.params_a, cfg.params_b, float(t))
        pairs = reduce_all(state)
        values = {tgt: concurrence(pairs[tgt]) for tgt in cfg.targets}
        records.append(ConcurrenceRecord(t=float(t), values=values))
    return records


def column(records: Iterable[ConcurrenceRecord], target: ReductionTarget) -> np.ndarray:
    return np.array([rec.values[target] for rec in records])


def write_csv(records: Iterable[ConcurrenceRecord], fh: IO[str]) -> None:
    """Fixed six-column schema, 12 significant digits, LF line endings."""
    fh.write(CSV_HEADER + "\n")
    for rec in records:
        cells = [f"{rec.t:.12g}"]
        cells += [f"{rec.values[t]:.12g}" for t in TARGET_ORDER]
        fh.write(",".join(cells) + "\n")


def write_json(cfg: ScenarioConfig, records: Iterable[ConcurrenceRecord], fh: IO[str]) -> None:
    payload = {
        "config": config_to_dict(cfg),
        "records": [
            {"gamma0_t": rec.t, **{"C_" + t.value: rec.values[t] for t in cfg.targets}}
            for rec in records
        ],
    }
    json.dump(payload, fh, indent=2)
    fh.write("\n")


def _params_to_dict(p: JcmParams) -> dict:
    return {"omega0": p.omega0, "omega": p.omega, "gamma0": p.gamma0, "lam": p.lam}


def _params_from_dict(data: dict, name: str) -> JcmParams:
    extra = set(data) - {"omega0", "omega", "gamma0", "lam"}
    if extra:
        raise ValueError(f"unknown {name} keys: {', '.join(sorted(extra))}")
    missing = {"omega", "lam"} - set(data)
    if missing:
        raise ValueError(f"{name} is missing {', '.join(sorted(missing))}")
    return JcmParams(
        omega0=float(data.get("omega0", 0.0)),
        omega=float(data["omega"]),
        gamma0=float(data.get("gamma0", 1.0)),
        lam=float(data["lam"]),
    )


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
    """Inverse of config_to_dict; unknown keys are rejected."""
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
    targets = tuple(
        ReductionTarget(name) for name in data.get("targets", [t.value for t in TARGET_ORDER])
    )
    return ScenarioConfig(
        params_a=params_a,
        params_b=params_b,
        purity=float(data["purity"]),
        t_max=float(data["t_max"]),
        samples=int(data.get("samples", _DEFAULT_SAMPLES)),
        targets=targets,
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
    """
    # single partition, all-entries state
    single0 = _uniform_single_state()
    cfg_single = oracle_config(cfg.t_max, cfg.samples, cfg.params_a)
    traj_single = integrate_single(single0, cfg.params_a, cfg_single)
    dev_single = 0.0
    for t, state in zip(traj_single.times, traj_single.states):
        exact = propagate_single(single0, cfg.params_a, float(t))
        dev_single = max(dev_single, float(np.abs(state - exact).max()))

    # joint propagation from the physical initial state
    pair0 = initial_state(cfg.purity)
    cfg_pair = oracle_config(cfg.t_max, cfg.samples, cfg.params_a, cfg.params_b)
    traj_pair = integrate_pair(pair0, cfg.params_a, cfg.params_b, cfg_pair)
    dev_pair = 0.0
    min_eig = math.inf
    for t, state in zip(traj_pair.times, traj_pair.states):
        exact = propagate_pair(pair0, cfg.params_a, cfg.params_b, float(t))
        dev_pair = max(dev_pair, float(np.abs(state - exact).max()))
        min_eig = min(min_eig, min_eigenvalue(exact))

    # decay rates from the reservoir correlation function
    param_sets = [cfg.params_a]
    if not identical_partitions(cfg.params_a, cfg.params_b):
        param_sets.append(cfg.params_b)
    dev_minus = dev_plus = 0.0
    for p in param_sets:
        for t in np.linspace(0.0, min(cfg.t_max, 10.0), 21):
            t = float(t)
            quad_minus = rate_from_spectral_density(p, p.omega0 - p.omega, t)
            quad_plus = rate_from_spectral_density(p, p.omega0 + p.omega, t)
            dev_minus = max(dev_minus, abs(quad_minus - decay_rate_minus(p, t)))
            dev_plus = max(dev_plus, abs(quad_plus - decay_rate_plus(p, t)))

    min_ip = min(
        integrated_rate_plus(cfg.params_a, float(t))
        for t in np.linspace(0.0, cfg.t_max, 2001)
    )

    report = {
        "preset": preset,
        "max_dev_single": dev_single,
        "max_dev_pair": dev_pair,
        "max_dev_rate_minus": dev_minus,
        "max_dev_rate_plus": dev_plus,
        "min_eigenvalue": min_eig,
        "min_integrated_rate_plus": min_ip,
        "pass_oracle": max(dev_single, dev_pair) <= 1e-6,
        "pass_rates": max(dev_minus, dev_plus) <= 1e-8,
        "pass_positivity": min_eig >= -1e-8,
    }
    report["passed"] = bool(
        report["pass_oracle"] and report["pass_rates"] and report["pass_positivity"]
    )
    return report


def transient_entanglement_threshold(
    cfg: ScenarioConfig,
    target: ReductionTarget = ReductionTarget.AB,
    dr: float = 0.01,
    eps: float = 1e-8,
) -> float | None:
    """Smallest purity (on a dr grid) whose trajectory ever entangles `target`.

    Scans r = 0, dr, 2*dr, ... and returns the first value for which the
    concurrence exceeds eps anywhere on the time grid; None if even r=1
    never entangles the pair. This is the transient counterpart of the
    quasi-steady threshold constant.
    """
    grid = time_grid(cfg)
    n_values = int(round(1.0 / dr)) + 1
    for k in range(n_values):
        r = min(1.0, k * dr)
        r0 = initial_state(r)
        for t in grid:
            state = propagate_pair(r0, cfg.params_a, cfg.params_b, float(t))
            if concurrence(reduce(state, target)) > eps:
                return r
    return None
