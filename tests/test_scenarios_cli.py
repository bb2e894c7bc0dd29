"""Presets, trajectory records, file formats, and the command line.

Output formats are contract surfaces: the CSV header, the 12-digit
formatting, LF endings, and byte-identical reruns are all asserted
exactly. CLI tests go through main() with argv lists, checking exit
codes and parsing everything printed.
"""

import json
import math
import subprocess
import sys

import pytest

from djcm.cli import main
from djcm.entanglement import STEADY_PURITY_THRESHOLD
from djcm.propagator import JcmParams, integrated_rate_minus, integrated_rate_plus
from djcm.scenarios import (
    CSV_HEADER,
    PRESET_NAMES,
    SWEEP_PRESETS,
    SWEEP_PURITIES,
    ScenarioConfig,
    column,
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
from djcm.states import ReductionTarget

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
    with pytest.raises(ValueError):
        _small_cfg(output="yaml")
    with pytest.raises(ValueError):
        _small_cfg(targets=())


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


def test_time_grid():
    grid = time_grid(_small_cfg())
    assert len(grid) == 31
    assert grid[0] == 0.0
    assert grid[-1] == 3.0


# ------------------------------------------------------------- trajectories


def test_evolve_concurrences_start_values():
    records = evolve_concurrences(_small_cfg())
    assert len(records) == 31
    first = records[0]
    assert first.t == 0.0
    assert first.values[ReductionTarget.ab] == pytest.approx(1.0, abs=1e-10)
    assert first.values[ReductionTarget.AB] == pytest.approx(0.0, abs=1e-10)
    assert first.values[ReductionTarget.Aa] == pytest.approx(0.0, abs=1e-10)
    col = column(records, ReductionTarget.ab)
    assert col[0] == first.values[ReductionTarget.ab]
    assert len(col) == 31


def test_evolve_respects_target_selection():
    cfg = _small_cfg(targets=(ReductionTarget.AB,), samples=5)
    records = evolve_concurrences(cfg)
    assert set(records[0].values) == {ReductionTarget.AB}


def test_local_pair_trajectory_matches_derived_closed_form():
    # for identical partitions and a pure Bell start, the atom-cavity
    # concurrence reduces to a two-exponent expression; the full pipeline
    # (9x9 propagation, reduction, spectral concurrence) must hit it
    cfg = _small_cfg(samples=61)
    records = evolve_concurrences(cfg)
    for rec in records:
        ep = math.exp(-0.5 * integrated_rate_plus(P, rec.t))
        em = math.exp(-0.5 * integrated_rate_minus(P, rec.t))
        expected = 0.25 * math.sqrt(
            (ep - em) ** 2 + 4.0 * ep * em * math.sin(2.0 * P.omega * rec.t) ** 2
        )
        assert rec.values[ReductionTarget.Aa] == pytest.approx(expected, abs=5e-9)
        assert rec.values[ReductionTarget.Bb] == pytest.approx(expected, abs=5e-9)


# ------------------------------------------------------------------ output


def test_csv_format(tmp_path):
    records = evolve_concurrences(_small_cfg(samples=5))
    path = tmp_path / "out.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_csv(records, fh)
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


# -------------------------------------------------------------- validation


def test_validation_report_clean_run():
    report = validation_report(_small_cfg(samples=31), preset=None)
    assert report["preset"] is None
    assert report["max_dev_single"] < 1e-6
    assert report["max_dev_pair"] < 1e-6
    assert report["max_dev_rate_minus"] < 1e-8
    assert report["max_dev_rate_plus"] < 1e-8
    assert report["min_eigenvalue"] > -1e-8
    assert report["min_integrated_rate_plus"] >= 0.0
    assert report["pass_oracle"] and report["pass_rates"] and report["pass_positivity"]
    assert report["passed"] is True


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
        "purity": 1.0,
        "t_max": 1.0,
        "samples": 3,
        "output": "json",
    }), encoding="utf-8")
    rc = main(["evolve", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert len(payload["records"]) == 3


def test_cli_evolve_errors(capsys, tmp_path):
    # missing everything
    assert main(["evolve"]) == 2
    assert "missing" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--omega", "nan", "omega"),
        ("--lambda", "inf", "lam"),
        ("--omega0", "nan", "omega0"),
        ("--tmax", "inf", "t_max"),
        ("--omega", "1e300", "overflow"),
    ],
)
def test_cli_evolve_rejects_out_of_range_numbers(capsys, flag, value, field):
    argv = ["evolve", "--omega", "1", "--lambda", "5", "--r", "1", "--tmax", "2", "--samples", "3"]
    assert main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert field in captured.err


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


def test_cli_steady_requires_r_for_nonlocal(capsys):
    assert main(["steady", "--which", "nonlocal"]) == 2
    assert "--r is required" in capsys.readouterr().err


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


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "djcm.cli", "steady", "--which", "local"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["which"] == "local"
