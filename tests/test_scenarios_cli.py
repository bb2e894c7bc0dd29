"""Presets, trajectory tables, file formats, and the command line.

Output formats are contract surfaces: the CSV header, the 12-digit
formatting, LF endings, and byte-identical reruns are all asserted
exactly. CLI tests go through main() with argv lists, checking exit
codes and parsing everything printed.
"""

import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import djcm
from djcm import evolution, integrate, scenarios
from djcm.cli import main
from djcm.entanglement import (
    STEADY_PURITY_THRESHOLD,
    concurrence,
    concurrence_x_entries,
    concurrence_x_state,
)
from djcm.evolution import CHUNK_ROWS, propagate_pair, propagate_pairs, x_entry_chunks
from djcm.propagator import JcmParams, integrated_rate_minus, integrated_rate_plus
from djcm.scenarios import (
    CSV_HEADER,
    MAX_SAMPLES,
    PRESET_NAMES,
    SWEEP_PRESETS,
    SWEEP_PURITIES,
    TARGET_ORDER,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    evolve_concurrences,
    preset_config,
    time_grid,
    transient_entanglement_threshold,
    validation_report,
    write_csv,
    write_json,
)
from djcm.states import ReductionTarget, initial_state, reduce_all, reduce_stack

P = JcmParams(omega0=0.0, omega=1.0, gamma0=1.0, lam=5.0)


def _small_cfg(**overrides) -> ScenarioConfig:
    kwargs = dict(params_a=P, params_b=P, purity=1.0, t_max=3.0, samples=31)
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


# ---------------------------------------------------------------- presets


def test_preset_catalog():
    assert set(PRESET_NAMES) == {
        "fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c", "fig4", "fig5",
    }
    assert SWEEP_PRESETS == ("fig4", "fig5")
    assert SWEEP_PURITIES[0] == 0.0 and SWEEP_PURITIES[-1] == 1.0
    # the sweep includes a value just above the steady-state threshold
    assert any(0.0 < r - STEADY_PURITY_THRESHOLD < 1e-3 for r in SWEEP_PURITIES)


def test_preset_values():
    cfg = preset_config("fig2a")
    assert cfg.params_a.omega == 1.0
    assert cfg.params_a.lam == 5.0
    assert cfg.params_a.gamma0 == 1.0
    assert cfg.params_a.omega0 == 0.0
    assert cfg.purity == 1.0
    assert cfg.t_max == 15.0
    assert cfg.samples == 1501
    assert cfg.params_b == cfg.params_a
    assert preset_config("fig2c").params_a.omega == 50.0
    assert preset_config("fig2c").t_max == 30.0
    assert preset_config("fig3b").params_a.lam == 0.5
    # the narrow-reservoir runs need longer windows: fig3a for the slow
    # branch to die out, fig3c to reach its plateau at all
    assert preset_config("fig3a").t_max == 50.0
    assert preset_config("fig3c").t_max == 200.0
    assert preset_config("fig5").t_max == 400.0
    assert preset_config("fig4", purity=0.38).purity == 0.38
    assert preset_config("fig4").purity == 1.0  # sweep preset defaults to pure
    with pytest.raises(ValueError, match="unknown preset"):
        preset_config("fig9z")


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        _small_cfg(purity=1.5)
    with pytest.raises(ValueError):
        _small_cfg(t_max=0.0)
    with pytest.raises(ValueError, match="t_max"):
        _small_cfg(t_max=math.inf)
    with pytest.raises(ValueError):
        _small_cfg(samples=1)
    with pytest.raises(ValueError, match="samples"):
        _small_cfg(samples=MAX_SAMPLES + 1)
    assert _small_cfg(samples=MAX_SAMPLES).samples == MAX_SAMPLES  # nothing allocated yet
    with pytest.raises(ValueError):
        _small_cfg(output="yaml")
    with pytest.raises(ValueError):
        _small_cfg(targets=())


@pytest.mark.parametrize("side", ["params_a", "params_b"])
@pytest.mark.parametrize(
    "params, t_max, factor",
    [
        (dict(omega=1.0, lam=5.0), 1e308, "(2*omega)*t_max"),
        (dict(omega=0.0, lam=5.0), 1e308, "(lam)*t_max"),
        (dict(omega=0.0, lam=1.0, gamma0=10.0), 1e308, "(gamma0)*t_max"),
        (dict(omega=0.0, lam=1.0, omega0=1e300), 1e10, "(omega0 + omega)*t_max"),
    ],
)
def test_scenario_config_refuses_a_t_max_whose_products_overflow(side, params, t_max, factor):
    # each product of t with a rate or frequency must stay finite, on
    # either partition; the other partition's products all stay finite at
    # 1e308, and 1e10 times shorter the same config is accepted
    benign = {"params_a": JcmParams(omega0=0.0, omega=0.0, gamma0=1.0, lam=1.0)}
    benign["params_b"] = benign["params_a"]
    p = JcmParams(**{"omega0": 0.0, "gamma0": 1.0, **params})
    with pytest.raises(ValueError, match=re.escape(f"t_max={t_max!r}: {factor} of {side} overflows")):
        _small_cfg(**{**benign, side: p}, samples=3, t_max=t_max)
    assert _small_cfg(**{**benign, side: p}, samples=3, t_max=t_max / 1e10).t_max == t_max / 1e10


def test_config_dict_round_trip():
    cfg = _small_cfg(purity=0.42, targets=(ReductionTarget.AB, ReductionTarget.Aa))
    assert config_from_dict(config_to_dict(cfg)) == cfg
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({**config_to_dict(cfg), "stray": 1})
    with pytest.raises(ValueError, match="missing keys"):
        config_from_dict({"purity": 1.0})
    # params_b falls back to params_a
    slim = {
        "params_a": {"omega0": 0.0, "omega": 1.0, "gamma0": 1.0, "lam": 5.0},
        "purity": 1.0,
        "t_max": 3.0,
    }
    cfg2 = config_from_dict(slim)
    assert cfg2.params_b == cfg2.params_a
    assert cfg2.samples == 1501
    assert cfg2.targets == tuple(ReductionTarget)
    # input of the wrong shape is named, for library callers as for the CLI
    for bad, key in (
        ([1, 2], "top level"),
        ({**slim, "params_a": 5}, "params_a"),
        ({**slim, "params_b": None}, "params_b"),
    ):
        with pytest.raises(ValueError, match=key):
            config_from_dict(bad)


def test_time_grid():
    grid = time_grid(_small_cfg())
    assert len(grid) == 31
    assert grid[0] == 0.0
    assert grid[-1] == 3.0


# ------------------------------------------------------------- trajectories


def _col(target: ReductionTarget) -> int:
    """Column of `target` in a table evolved with the default targets."""
    return 1 + TARGET_ORDER.index(target)


def test_evolve_concurrences_start_values():
    table = evolve_concurrences(_small_cfg())
    assert table.shape == (31, 7)
    first = table[0]
    assert first[0] == 0.0
    assert first[_col(ReductionTarget.ab)] == pytest.approx(1.0, abs=1e-10)
    assert first[_col(ReductionTarget.AB)] == pytest.approx(0.0, abs=1e-10)
    assert first[_col(ReductionTarget.Aa)] == pytest.approx(0.0, abs=1e-10)
    assert np.array_equal(table[:, 0], time_grid(_small_cfg()))


def test_evolve_chunks_agree_with_per_sample_pipeline():
    # a grid two rows longer than one chunk: the batched trajectory must
    # match propagate_pair + reduce_all + the spectral concurrence sample
    # by sample, across the chunk boundary
    cfg = _small_cfg(purity=0.9, samples=CHUNK_ROWS + 2, t_max=8.0)
    table = evolve_concurrences(cfg)
    r0 = initial_state(cfg.purity)
    for row in np.concatenate([table[CHUNK_ROWS - 3:], table[:3]]):
        pairs = reduce_all(propagate_pair(r0, P, P, row[0]))
        for target in ReductionTarget:
            assert row[_col(target)] == pytest.approx(concurrence(pairs[target]), abs=1e-8)


def test_evolve_respects_target_selection():
    cfg = _small_cfg(targets=(ReductionTarget.AB,), samples=5)
    table = evolve_concurrences(cfg)
    assert table.shape == (5, 2)


def test_local_pair_trajectory_matches_derived_closed_form():
    # for identical partitions and a pure Bell start, the atom-cavity
    # concurrence reduces to a two-exponent expression; the full pipeline
    # (9x9 propagation, reduction, spectral concurrence) must hit it
    cfg = _small_cfg(samples=61)
    table = evolve_concurrences(cfg)
    for row in table:
        t = row[0]
        ep = math.exp(-0.5 * integrated_rate_plus(P, t))
        em = math.exp(-0.5 * integrated_rate_minus(P, t))
        expected = 0.25 * math.sqrt(
            (ep - em) ** 2 + 4.0 * ep * em * math.sin(2.0 * P.omega * t) ** 2
        )
        assert row[_col(ReductionTarget.Aa)] == pytest.approx(expected, abs=5e-9)
        assert row[_col(ReductionTarget.Bb)] == pytest.approx(expected, abs=5e-9)


# ------------------------------------------------------------------ output


def test_csv_format(tmp_path):
    table = evolve_concurrences(_small_cfg(samples=5))
    path = tmp_path / "out.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_csv(table, fh)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == "gamma0_t,C_AB,C_ab,C_Aa,C_Bb,C_Ab,C_aB"
    assert len(lines) == 6  # header + 5 samples
    cells = lines[1].split(",")
    assert len(cells) == 7
    assert cells[0] == "0"
    assert float(cells[2]) == pytest.approx(1.0, abs=1e-10)
    # 12 significant digits survive the round trip
    t_mid = float(lines[3].split(",")[0])
    assert t_mid == pytest.approx(1.5, abs=1e-12)


def test_csv_determinism(tmp_path):
    cfg = _small_cfg(samples=7, purity=0.7)
    blobs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_csv(evolve_concurrences(cfg), fh)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_json_output(tmp_path):
    cfg = _small_cfg(samples=4, targets=(ReductionTarget.AB, ReductionTarget.ab))
    path = tmp_path / "out.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_json(cfg, evolve_concurrences(cfg), fh)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["config"]["purity"] == 1.0
    assert payload["config"]["targets"] == ["AB", "ab"]
    assert len(payload["records"]) == 4
    rec = payload["records"][0]
    assert set(rec) == {"gamma0_t", "C_AB", "C_ab"}
    assert rec["C_ab"] == pytest.approx(1.0, abs=1e-10)


def test_evolve_and_write_peak_memory_stays_near_the_table(tmp_path):
    # the trajectory is one float table; the pipeline and the writer work
    # chunk by chunk, so a long run allocates little beyond the table
    # itself (about 1.6x here, 1.2x at 200k samples; one Python object per
    # sample, as before, took 14x)
    cfg = _small_cfg(samples=50_000, t_max=20.0)
    tracemalloc.start()
    try:
        table = evolve_concurrences(cfg)
        with open(tmp_path / "long.csv", "w", encoding="utf-8", newline="\n") as fh:
            write_csv(table, fh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes == 50_000 * 7 * 8
    assert peak < 2.5 * table.nbytes


# -------------------------------------------------------------- validation


def test_validation_report_clean_run():
    report = validation_report(_small_cfg(samples=31), preset=None)
    assert report["preset"] is None
    assert "max_dev_single" not in report
    assert report["max_dev_pair"] < 1e-6
    assert report["max_dev_rate_minus"] < 1e-8
    assert report["max_dev_rate_plus"] < 1e-8
    assert report["min_eigenvalue"] > -1e-8
    assert report["min_integrated_rate_plus"] >= 0.0
    assert report["pass_oracle"] and report["pass_rates"] and report["pass_positivity"]
    assert report["passed"] is True
    # reported, not gated: the spectral route's noise floor
    assert 0.0 <= report["max_dev_concurrence_routes"] <= 1e-8
    assert {key for key in report if key.startswith("pass_")} == {
        "pass_oracle", "pass_rates", "pass_positivity",
    }


@pytest.mark.parametrize("entry", [(0, 1), (2, 8)], ids=["physical", "probe"])
def test_validation_report_fails_on_a_nan_deviation(monkeypatch, entry):
    # a NaN coherence keeps the trace, so only the deviation gate can catch it
    assert (scenarios._PROBE[entry] != 0) == (entry == (2, 8))
    integrate_pair = scenarios.integrate_pair

    def poisoned(*args):
        for times, states in integrate_pair(*args):
            states[(-1, *entry)] = math.nan
            yield times, states

    monkeypatch.setattr(scenarios, "integrate_pair", poisoned)
    report = validation_report(_small_cfg(), preset=None)
    assert math.isnan(report["max_dev_pair"])
    assert report["pass_oracle"] is False
    assert report["passed"] is False


def test_transient_threshold_fig4_scan():
    # acceptance 09's scan: 301 samples (more than one chunk), dr=0.01;
    # the affine-in-r combination must land where a direct re-propagation
    # of each initial_state(r) lands
    strong = preset_config("fig4")
    cfg = ScenarioConfig(
        params_a=strong.params_a, params_b=strong.params_b,
        purity=1.0, t_max=strong.t_max, samples=301,
    )
    assert transient_entanglement_threshold(cfg, dr=0.01) == 0.37
    grid = time_grid(cfg)

    def peak(r):
        states = propagate_pairs(initial_state(r), cfg.params_a, cfg.params_b, grid)
        return concurrence_x_state(reduce_stack(states)[:, ReductionTarget.AB.block]).max()

    assert peak(0.37) > 1e-8 >= peak(0.36)
    # the grid always ends at r = 1: 0, 0.4, 0.8, 1.0 here, and only r = 1
    # reaches C_AB 0.7 (peaks 0.586 at r = 0.8, 0.914 at r = 1)
    assert transient_entanglement_threshold(cfg, dr=0.4) == 0.4
    assert transient_entanglement_threshold(cfg, dr=0.4, eps=0.7) == 1.0
    for bad in (0.0, -0.1, 3.0, math.nan):
        with pytest.raises(ValueError, match="dr"):
            transient_entanglement_threshold(cfg, dr=bad)


def test_transient_threshold_purity_grids_keep_their_values():
    for dr in (0.01, 0.1, 0.25, 0.4):
        listed = [k * dr for k in range(math.ceil(1.0 / dr) + 1) if k * dr < 1.0] + [1.0]
        n = scenarios._purity_steps(dr)
        assert [scenarios._purity(k, dr, n) for k in range(n + 1)] == listed


def test_transient_threshold_refuses_grids_beyond_a_million_purities():
    cfg = _small_cfg(samples=11)
    for tiny in (5e-324, 1e-9, 9.9e-7):
        with pytest.raises(ValueError, match="dr must be at least 1e-06"):
            transient_entanglement_threshold(cfg, dr=tiny)


def test_transient_threshold_cavity_pair():
    # the cavity pair starts at its Werner concurrence, so the scan must
    # stop at the first grid value past 1/3
    cfg = _small_cfg(samples=11)
    found = transient_entanglement_threshold(cfg, target=ReductionTarget.ab, dr=0.1)
    assert found == pytest.approx(0.4)


def test_transient_threshold_none_when_uncoupled():
    # without atom-cavity coupling the atoms never leave the ground
    # state, so no purity entangles them
    p0 = JcmParams(omega0=0.0, omega=0.0, gamma0=1.0, lam=2.0)
    cfg = ScenarioConfig(params_a=p0, params_b=p0, purity=1.0, t_max=2.0, samples=9)
    found = transient_entanglement_threshold(cfg, target=ReductionTarget.AB, dr=0.25)
    assert found is None


def _target_x_entries(p_a, p_b, grid, target):
    """`target`'s (T, 8) X entries at r = 1 and r = 0, joined over the chunks of `x_entry_chunks`."""
    chunks = x_entry_chunks(p_a, p_b, [1.0, 0.0], grid)
    # copies: each chunk's arrays are overwritten by the next
    pairs = [(a[:, target.block].copy(), b[:, target.block].copy()) for _, (a, b) in chunks]
    return tuple(np.concatenate(side) for side in zip(*pairs))


def _reference_threshold(cfg, target, dr, eps):
    """The plain scan: every grid purity from r = 0 up, over the whole time grid."""
    a, b = _target_x_entries(cfg.params_a, cfg.params_b, time_grid(cfg), target)
    k = 0
    while True:
        r = min(k * dr, 1.0)
        if (concurrence_x_entries(r * a + (1.0 - r) * b) > eps).any():
            return r
        if r == 1.0:
            return None
        k += 1


_SCAN_PARAMS = st.builds(
    JcmParams,
    omega0=st.just(0.0),
    omega=st.floats(0.0, 50.0),
    gamma0=st.just(1.0),
    lam=st.floats(0.05, 10.0),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    p_a=_SCAN_PARAMS,
    p_b=_SCAN_PARAMS,
    same=st.booleans(),
    t_max=st.floats(0.5, 30.0),
    samples=st.sampled_from([2, 17, 120, 300]),
    target=st.sampled_from([ReductionTarget.AB, ReductionTarget.ab, ReductionTarget.Aa, ReductionTarget.Ab]),
    dr=st.sampled_from([0.25, 0.1, 0.01, 0.003]),
    eps=st.sampled_from([1e-8, 0.1]),
)
def test_transient_threshold_equals_the_plain_scan(p_a, p_b, same, t_max, samples, target, dr, eps):
    cfg = ScenarioConfig(
        params_a=p_a, params_b=p_a if same else p_b, purity=1.0, t_max=t_max, samples=samples
    )
    expected = _reference_threshold(cfg, target, dr, eps)
    assert transient_entanglement_threshold(cfg, target, dr=dr, eps=eps) == expected


@pytest.mark.parametrize("name", ["fig4", "fig2a", "fig5"])
def test_transient_threshold_on_a_fine_grid_matches_the_plain_scan(name):
    # dr = 1e-4 puts the answer within 1e-4 of the exact onset purity
    cfg = dataclasses.replace(preset_config(name), samples=301)
    found = transient_entanglement_threshold(cfg, dr=1e-4)
    assert found == _reference_threshold(cfg, ReductionTarget.AB, 1e-4, 1e-8)
    assert 0.3 < found < 0.6


def test_transient_threshold_work_does_not_grow_as_one_over_dr(monkeypatch):
    calls = []
    measure = scenarios.concurrence_x_entries
    monkeypatch.setattr(scenarios, "concurrence_x_entries", lambda x: calls.append(1) or measure(x))
    cfg = dataclasses.replace(preset_config("fig4"), samples=301)  # two chunks
    counts = []
    for dr in (1e-2, 1e-3, 1e-4):
        calls.clear()
        transient_entanglement_threshold(cfg, dr=dr)
        # per chunk: r = 0, a bisection over the grid, at most two scan steps
        assert len(calls) <= 2 * (math.log2(scenarios._purity_steps(dr) + 1) + 4)
        counts.append(len(calls))
    # a hundred times as many purities, less than twice the work
    assert counts[2] < 2 * counts[0]
    assert counts[0] <= 16


@pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0])
def test_transient_threshold_refuses_a_bad_eps(eps):
    # a NaN or infinite eps would read as "no purity entangles", a
    # negative one as "r = 0 does"
    with pytest.raises(ValueError, match="eps must be finite and non-negative"):
        transient_entanglement_threshold(_small_cfg(samples=11), eps=eps)


def test_transient_threshold_fallback_scan_gives_the_same_answer(monkeypatch):
    cfg = dataclasses.replace(preset_config("fig4"), samples=301)
    assert transient_entanglement_threshold(cfg, dr=0.001) == 0.37
    monkeypatch.setattr(scenarios, "_scan_start", lambda *args: 0)
    assert transient_entanglement_threshold(cfg, dr=0.001) == 0.37


def test_transient_threshold_scans_from_zero_when_a_population_is_clipped():
    grid = time_grid(_small_cfg(samples=11))
    a, b = _target_x_entries(P, P, grid, ReductionTarget.AB)
    n = scenarios._purity_steps(0.01)
    assert scenarios._scan_start(a, b, 1e-8, 0.01, n, n + 1) > 0
    # inside the eigenvalue band, so concurrence clips it to 0; at t = 0
    # both coherences are exactly 0, so only the population check sees it
    assert not a[0, 4:].any() and not b[0, 4:].any()
    b = b.copy()
    b[0, 0] = -1e-12
    assert scenarios._scan_start(a, b, 1e-8, 0.01, n, n + 1) == 0


def test_transient_threshold_scans_from_zero_when_r0_entangles():
    # convexity bounds the concurrence between r = 0 and r_k only when both
    # ends sit below eps: here r = 0 and r = 1 entangle and r = 0.5 does not
    b = np.array([[0.1, 0.4, 0.4, 0.1, 0.3, 0.3, 0, 0]], dtype=complex)
    a = np.array([[0.1, 0.4, 0.4, 0.1, -0.3, -0.3, 0, 0]], dtype=complex)
    assert concurrence_x_entries(0.5 * a + 0.5 * b).max() == 0.0
    n = scenarios._purity_steps(0.01)
    assert scenarios._scan_start(a, b, 1e-8, 0.01, n, n + 1) == 0


def test_transient_threshold_scan_starts_at_most_one_step_below_the_onset():
    # the bisection skips only purities the convexity proof covers, and
    # leaves the eps test at most one step to walk
    cfg = dataclasses.replace(preset_config("fig4"), samples=301)
    grid = time_grid(cfg)[:CHUNK_ROWS]
    a, b = _target_x_entries(cfg.params_a, cfg.params_b, grid, ReductionTarget.AB)
    for dr in (0.01, 0.001, 1e-4):
        n = scenarios._purity_steps(dr)
        onset = next(
            k for k in range(n + 1)
            if (concurrence_x_entries(k * dr * a + (1.0 - k * dr) * b) > 1e-8).any()
        )
        assert onset - 1 <= scenarios._scan_start(a, b, 1e-8, dr, n, n + 1) <= onset


def test_transient_threshold_bisection_steps_over_a_state_the_guard_refuses():
    # one time whose r = 1 state has an eigenvalue of -0.4 (|rho_23| above
    # sqrt(rho_22 rho_33)): it entangles from r = 0.22 and fails the
    # eigenvalue guard from r = 0.39 up, where the plain scan never goes
    b = np.array([[0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0]], dtype=complex)
    a = np.array([[0.0, 0.5, 0.5, 0.0, 0.9, 0.9, 0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="eigenvalue"):
        concurrence_x_entries(0.5 * a + 0.5 * b)
    n = scenarios._purity_steps(0.01)
    assert scenarios._scan_start(a, b, 1e-8, 0.01, n, n + 1) in (21, 22)
    assert (concurrence_x_entries(0.22 * a + 0.78 * b) > 1e-8).all()
    assert not (concurrence_x_entries(0.21 * a + 0.79 * b) > 1e-8).any()


# --------------------------------------------------------------------- CLI


def test_cli_evolve_stdout(capsys):
    rc = main([
        "evolve", "--omega", "1", "--lambda", "5", "--r", "1",
        "--tmax", "3", "--samples", "31",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 32
    assert captured.err == ""


def test_cli_evolve_out_file_and_snippet(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main([
        "evolve", "--omega", "1", "--lambda", "5", "--r", "0.5",
        "--tmax", "2", "--samples", "11", "--out", str(out), "--gnuplot-snippet",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert out.exists()
    text = out.read_text(encoding="utf-8")
    assert text.startswith(CSV_HEADER)
    assert "set datafile separator" in captured.err
    assert str(out) in captured.err


def test_cli_evolve_config_file_with_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "params_a": {"omega": 1.0, "lam": 5.0},
        "purity": 0.0,
        "t_max": 2.0,
        "samples": 5,
    }), encoding="utf-8")
    rc = main(["evolve", "--config", str(cfg_path), "--r", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    first_row = captured.out.splitlines()[1].split(",")
    # the flag override wins: pure Bell start, cavity pair fully entangled
    assert float(first_row[2]) == pytest.approx(1.0, abs=1e-10)


def test_cli_evolve_json_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "params_a": {"omega": 1.0, "lam": 5.0},
        "params_b": {"omega": 3.0, "lam": 0.5},
        "purity": 1.0,
        "t_max": 1.0,
        "samples": 3,
        "output": "json",
    }), encoding="utf-8")
    rc = main(["evolve", "--config", str(cfg_path), "--omega", "4"])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert len(payload["records"]) == 3
    # the flag sets both partitions; everything else stays as the file has it
    assert payload["config"]["params_a"] == {"omega0": 0.0, "omega": 4.0, "gamma0": 1.0, "lam": 5.0}
    assert payload["config"]["params_b"] == {"omega0": 0.0, "omega": 4.0, "gamma0": 1.0, "lam": 0.5}


def test_cli_evolve_errors(capsys, tmp_path):
    # missing everything: one line naming every required flag
    assert main(["evolve"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: missing") and err.count("\n") == 1
    for flag in ("--omega", "--lambda", "--r", "--tmax"):
        assert flag in err
    # config rejected by validation
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "params_a": {"omega": 1.0, "lam": 5.0}, "purity": 1.0, "t_max": 0.0,
    }), encoding="utf-8")
    assert main(["evolve", "--config", str(bad)]) == 2
    assert "t_max" in capsys.readouterr().err
    # nonexistent config file
    assert main(["evolve", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


_GOOD = {"params_a": {"omega": 1, "lam": 5}, "purity": 1, "t_max": 1, "samples": 3}


@pytest.mark.parametrize("command", ["evolve", "validate"])
@pytest.mark.parametrize(
    "config, key",
    [
        ([1, 2], "top level"),
        ({**_GOOD, "params_a": 5}, "params_a"),
        ({**_GOOD, "params_b": None}, "params_b"),
        ({**_GOOD, "params_a": {"omega": None, "lam": 5}}, "params_a.omega"),
        ({**_GOOD, "purity": None}, "purity"),
        ({**_GOOD, "t_max": "1"}, "t_max"),
        ({**_GOOD, "targets": None}, "targets"),
        ({**_GOOD, "targets": ["AB", "XY"]}, "targets"),
        ({**_GOOD, "targets": ["AB", "ab", "AB"]}, "targets"),
        ({**_GOOD, "samples": 2.9}, "samples"),
    ],
    ids=[
        "list", "params-number", "params-null", "param-null", "purity-null",
        "tmax-string", "targets-null", "targets-unknown", "targets-repeated",
        "samples-fraction",
    ],
)
def test_cli_rejects_malformed_config_values(tmp_path, capsys, command, config, key):
    # a config of the wrong shape is bad input (exit 2, one error line
    # naming the key), not a traceback or exit 1, which means a failed check
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert key in captured.err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--omega", "nan", "omega"),
        ("--lambda", "inf", "lam"),
        ("--omega0", "nan", "omega0"),
        ("--tmax", "inf", "t_max"),
        ("--omega", "1e300", "overflow"),
        ("--samples", "1000000000000", "samples"),
    ],
)
def test_cli_evolve_rejects_out_of_range_numbers(capsys, flag, value, field):
    argv = ["evolve", "--omega", "1", "--lambda", "5", "--r", "1", "--tmax", "2", "--samples", "3"]
    assert main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert field in captured.err


def _rejects_without_warning(capsys, argv, fields):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert all(field in captured.err for field in fields)


def test_cli_evolve_rejects_a_coupling_whose_divisor_overflows(capsys):
    # 4 omega^2 + lam^2 overflows to inf, which used to pass the divisor
    # check and end as "propagation lost trace (nan); internal error", exit 3
    argv = ["evolve", "--omega", "1e154", "--lambda", "1e154", "--r", "1", "--tmax", "1", "--samples", "3"]
    _rejects_without_warning(capsys, argv, ["omega=", "lam=", "overflows"])


def test_cli_evolve_rejects_a_t_max_whose_phase_overflows(capsys):
    # 2 omega t_max overflows inside sin; it used to exit 3 after warnings
    argv = ["evolve", "--omega", "1", "--lambda", "5", "--r", "1", "--tmax", "1e308", "--samples", "3"]
    _rejects_without_warning(capsys, argv, ["t_max=", "2*omega"])


def test_cli_evolve_tiny_lambda_is_the_memoryless_limit(capsys):
    # lam -> 0 switches the lower-branch rate off; lam=1e-300 used to
    # lose I_minus to cancellation and decay fully (C_AB 0.564 at t=1)
    c_ab = []
    for lam in ("1e-300", "1e-6"):
        argv = ["evolve", "--omega", "1", "--lambda", lam, "--r", "1", "--tmax", "2", "--samples", "3"]
        assert main(argv) == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert float(row[0]) == 1.0
        c_ab.append(float(row[1]))
    assert abs(c_ab[0] - c_ab[1]) <= 1e-5


def test_cli_evolve_target_subset_csv(tmp_path, capsys):
    # a targets subset narrows the CSV to the time and the chosen columns,
    # whose cells are those of the full run
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "params_a": {"omega": 1, "lam": 5}, "purity": 1, "t_max": 1, "samples": 3,
        "targets": ["AB"],
    }), encoding="utf-8")
    assert main(["evolve", "--config", str(cfg_path)]) == 0
    subset = capsys.readouterr().out.splitlines()
    assert subset[0] == "gamma0_t,C_AB"
    argv = ["evolve", "--omega", "1", "--lambda", "5", "--r", "1", "--tmax", "1", "--samples", "3"]
    assert main(argv) == 0
    full = capsys.readouterr().out.splitlines()
    assert len(subset) == len(full) == 4
    assert [line.split(",") for line in subset] == [line.split(",")[:2] for line in full]


_FLAGS = ["--r", "1", "--tmax", "10", "--samples", "5"]


@pytest.mark.parametrize(
    "command, flags, config",
    [
        ("evolve", ["--omega", "1", "--lambda", "1e-310", *_FLAGS], None),
        ("evolve", ["--omega", "0", "--lambda", "1e-320", *_FLAGS], None),
        ("evolve", [], {"params_a": {"omega": 1, "lam": 1e-300, "gamma0": 1e10}}),
        ("validate", [], {"params_a": {"omega": 1, "lam": 1e-310}}),
    ],
    ids=["lam-subnormal", "omega-zero-lam-subnormal", "gamma0-over-lam-inf", "validate"],
)
def test_cli_rejects_vanishing_lambda(tmp_path, capsys, command, flags, config):
    # the rate formulas divide by lam and 4 omega^2 + lam^2 and scale by
    # gamma0/lam; a subnormal divisor or an infinite ratio is bad input
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({**config, "purity": 1, "t_max": 1, "samples": 3}), encoding="utf-8"
        )
        flags = ["--config", str(cfg_path)]
    assert main([command, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "lam=" in captured.err


def test_cli_validate_refuses_an_oversized_rk4_plan(monkeypatch, tmp_path, capsys):
    # omega = 1e10 would plan ~3e10 RK4 steps: refused as bad input before
    # anything is integrated
    def never(*args):
        raise AssertionError("the oracle must not run")

    monkeypatch.setattr(scenarios, "integrate_pair", never)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"params_a": {"omega": 1e10, "lam": 5.0}, "purity": 1, "t_max": 15}),
        encoding="utf-8",
    )
    assert main(["validate", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"cap of {integrate.MAX_RK4_STEPS}" in captured.err


def test_cli_validate_streams_many_samples_in_bounded_memory(tmp_path, capsys):
    # 60,001 samples of fig2a record 78 MB of 9x9 RK4 states; each piece
    # is compared as it arrives, so the peak stays that of a few pieces
    big = dataclasses.replace(preset_config("fig2a"), samples=60_001)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(big)), encoding="utf-8")
    tracemalloc.start()
    try:
        rc = main(["validate", "--config", str(cfg_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_cli_internal_error_exits_3(monkeypatch, tmp_path, capsys):
    # a tripped guard inside the program is neither bad input (2) nor a
    # failed validation (1)
    rate = integrate.decay_rate_plus
    monkeypatch.setattr(
        integrate,
        "decay_rate_plus",
        lambda p, t: np.where(np.asarray(t) > 1.0, math.nan, rate(p, t)),
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(_small_cfg())), encoding="utf-8")
    assert main(["validate", "--config", str(cfg_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "lost trace" in captured.err


def test_cli_figure(tmp_path, capsys):
    rc = main(["figure", "fig2a", "--outdir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    path = tmp_path / "fig2a.csv"
    assert path.exists()
    assert str(path) in captured.out
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1502


def test_cli_figure_sweep_equals_separate_runs(tmp_path, capsys):
    # each sweep file is byte-equal to its own config's run
    assert main(["figure", "fig4", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    for r in SWEEP_PURITIES:
        cfg = preset_config("fig4", purity=r)
        fh = io.StringIO(newline="\n")
        write_csv(evolve_concurrences(cfg), fh, cfg.targets)
        assert (tmp_path / f"fig4_r{r:g}.csv").read_bytes() == fh.getvalue().encode("utf-8")


def test_cli_figure_rejects_unknown_name():
    with pytest.raises(SystemExit) as exc:
        main(["figure", "fig9z"])
    assert exc.value.code == 2


def test_cli_steady_local(capsys):
    rc = main(["steady", "--which", "local"])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert payload["which"] == "local"
    assert payload["basis"] == ["11", "10", "01", "00"]
    assert payload["concurrence"] == pytest.approx(0.25, abs=1e-14)
    assert payload["matrix"][3][3] == pytest.approx(0.75)
    assert payload["matrix"][1][2] == pytest.approx(0.125)


def test_cli_steady_nonlocal(capsys):
    rc = main(["steady", "--which", "nonlocal", "--r", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert payload["r"] == 1.0
    assert payload["concurrence"] == pytest.approx(0.25, abs=1e-14)
    assert payload["purity_threshold"] == pytest.approx(STEADY_PURITY_THRESHOLD)
    assert payload["matrix"][0][0] == 0.0
    assert payload["matrix"][1][2] == pytest.approx(0.125)
    # below the threshold the plateau is separable
    main(["steady", "--which", "nonlocal", "--r", "0.5"])
    low = json.loads(capsys.readouterr().out)
    assert low["concurrence"] == 0.0


def test_cli_steady_local_rejects_r(capsys):
    assert main(["steady", "--which", "local", "--r", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --r does not apply")


def test_cli_steady_requires_r_for_nonlocal(capsys):
    assert main(["steady", "--which", "nonlocal"]) == 2
    assert "--r is required" in capsys.readouterr().err


def test_cli_main_keeps_no_state_between_calls(tmp_path, capsys):
    # main builds its parser once per process; no flag, default or error
    # of one call may carry over to the next
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_GOOD), encoding="utf-8")
    assert main(["evolve", "--config", str(cfg_path)]) == 0
    from_file = capsys.readouterr().out
    assert main(["evolve", "--config", str(cfg_path), "--r", "0.3"]) == 0
    assert capsys.readouterr().out != from_file
    assert main(["evolve", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == from_file

    assert main(["steady", "--which", "nonlocal", "--r", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 0.5
    assert main(["steady", "--which", "local"]) == 0  # --r 0.5 would be refused here
    assert json.loads(capsys.readouterr().out)["which"] == "local"

    with pytest.raises(SystemExit) as exc:
        main(["steady", "--which", "both"])
    assert exc.value.code == 2
    assert main(["steady", "--which", "local"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["which"] == "local"
    assert "invalid choice" in captured.err

    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "validate" in helps[0]


def test_cli_validate_with_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "params_a": {"omega": 1.0, "lam": 5.0},
        "purity": 1.0,
        "t_max": 3.0,
        "samples": 31,
    }), encoding="utf-8")
    rc = main(["validate", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out)
    assert report["passed"] is True
    assert report["preset"] is None


@pytest.mark.parametrize("omega0", [0.0, 10.0, 100.0, 1000.0, 1e9])
def test_cli_validate_is_blind_to_omega0(tmp_path, capsys, omega0):
    # omega0 only turns coherences between excitation sectors by exact
    # phases; an oracle that resolved them by RK4 steps bounded by omega
    # and lam was off by 1.6e-4 at omega0 = 100 and failed. The probe's
    # coherences turn at omega0 +- omega, and their deviations stay at
    # rounding. At 1e9 each route rounds a phase of up to 1.5e10 radians
    # on its own; the gap, 7.6e-8, stays far inside the gate.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "params_a": {"omega": 1.0, "lam": 5.0, "gamma0": 1.0, "omega0": omega0},
        "purity": 1.0,
        "t_max": 15.0,
        "samples": 151,
    }), encoding="utf-8")
    assert main(["validate", "--config", str(cfg_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["max_dev_pair"] <= (1e-12 if omega0 <= 1000.0 else 1e-6)


@pytest.mark.parametrize("omega0", ["1e9", "1e12"])
def test_cli_evolve_is_blind_to_omega0(tmp_path, omega0):
    # the concurrences meet omega0 only through a free phase times its
    # conjugate; a phase of (omega0 +- omega) t rounded omega's share away
    # and left a state with eigenvalue -2.058e-08 at 1e9, refused with exit 2
    tables = []
    for value in ("0", omega0):
        out = tmp_path / f"omega0_{value}.csv"
        argv = ["evolve", "--omega", "1", "--lambda", "5", "--r", "1", "--tmax", "15"]
        assert main([*argv, "--omega0", value, "--out", str(out)]) == 0
        tables.append(np.loadtxt(out, delimiter=",", skiprows=1))
    assert np.abs(tables[1] - tables[0]).max() <= 1e-12


def test_validate_fails_when_the_closed_form_turns_coherences_at_a_wrong_omega0(monkeypatch):
    # the physical state holds no coherence between excitation sectors
    # and does not depend on omega0; only the probe's coherences turn at
    # omega0 +- omega, so only they expose a closed form off by 1 in omega0
    transfer_tensor = evolution.transfer_tensor

    def shifted(p, t):
        return transfer_tensor(dataclasses.replace(p, omega0=p.omega0 + 1.0), t)

    monkeypatch.setattr(evolution, "transfer_tensor", shifted)
    report = validation_report(preset_config("fig2a"), "fig2a")
    assert 0.3 < report["max_dev_pair"] < 0.5
    assert report["pass_oracle"] is False
    assert report["passed"] is False
    # the physical state, and so its positivity, does not depend on omega0
    assert report["pass_positivity"] is True


def test_cli_exits_141_when_the_reader_closes_the_pipe(tmp_path):
    # far more CSV than a pipe buffers, so the writer is still running
    # when the reader goes away, as with `djcm evolve ... | head -2`
    env = dict(os.environ, PYTHONPATH=str(Path(djcm.__file__).parents[1]))
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "djcm.cli", "evolve", "--omega", "1", "--lambda", "5",
             "--r", "1", "--tmax", "15", "--samples", "20000"],
            stdout=subprocess.PIPE, stderr=err, env=env,
        )
        try:
            assert proc.stdout.readline().decode().startswith("gamma0_t,")
            proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
    stderr = err_path.read_text()
    assert "error:" not in stderr
    assert "Traceback" not in stderr


def test_cli_entry_point_installed():
    # the child does not inherit pytest's `pythonpath` setting, so it is
    # pointed at the package under test ahead of any PYTHONPATH it had
    src = str(Path(djcm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "djcm.cli", "steady", "--which", "local"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["which"] == "local"
