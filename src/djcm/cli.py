"""Command-line front end.

Subcommands:
    evolve     run one trajectory and emit the concurrence table as CSV
    figure     run a named preset (fig2a..fig5), writing CSV files
    validate   compare the closed-form solution against the brute-force
               oracles and print a JSON report
    steady     print the quasi-steady pair state and its concurrence

All frequencies and rates are in units of gamma0, times in 1/gamma0.
A JSON config file (--config) may supply any ScenarioConfig field,
including different parameters for the two partitions; command-line
flags override file values and always set both partitions alike.

Exit codes: 0 success, 1 validation failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .entanglement import (
    STEADY_PURITY_THRESHOLD,
    concurrence_x_state,
    steady_pair_local,
    steady_pair_nonlocal,
)
from .scenarios import (
    PRESET_NAMES,
    SWEEP_PRESETS,
    SWEEP_PURITIES,
    config_from_dict,
    evolve_concurrences,
    preset_config,
    validation_report,
    write_csv,
    write_json,
)

__all__ = ["main"]


def _load_config_file(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}")


def _merged_config(args: argparse.Namespace):
    """Combine config-file values with command-line flags (flags win)."""
    data = _load_config_file(args.config) if args.config else {}
    pa = dict(data.get("params_a", {}))
    pb = dict(data.get("params_b", pa))
    for key, val in (("omega", args.omega), ("lam", args.lam), ("omega0", args.omega0)):
        if val is not None:
            pa[key] = val
            pb[key] = val
    for params in (pa, pb):
        params.setdefault("omega0", 0.0)
        params.setdefault("gamma0", 1.0)
    for name, params in (("params_a", pa), ("params_b", pb)):
        missing = {"omega", "lam"} - set(params)
        if missing:
            raise ValueError(
                f"{name} is missing {', '.join(sorted(missing))} "
                "(give --omega/--lambda or a config file)"
            )
    merged = dict(data)
    merged["params_a"] = pa
    merged["params_b"] = pb
    if args.purity is not None:
        merged["purity"] = args.purity
    if args.tmax is not None:
        merged["t_max"] = args.tmax
    if args.samples is not None:
        merged["samples"] = args.samples
    if "purity" not in merged:
        raise ValueError("missing purity (give --r or a config file)")
    if "t_max" not in merged:
        raise ValueError("missing time range (give --tmax or a config file)")
    return config_from_dict(merged)


def _gnuplot_snippet(paths: list[str]) -> str:
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'gamma0 t'",
        "set ylabel 'concurrence'",
    ]
    for path in paths:
        lines.append(f"plot for [col=2:7] '{path}' using 1:col with lines")
    return "\n".join(lines) + "\n"


def cmd_evolve(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    records = evolve_concurrences(cfg)
    writer = write_csv if cfg.output == "csv" else lambda recs, fh: write_json(cfg, recs, fh)
    if args.out is None:
        writer(records, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            writer(records, fh)
    if args.gnuplot_snippet:
        target = str(args.out) if args.out is not None else "data.csv"
        sys.stderr.write(_gnuplot_snippet([target]))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.name in SWEEP_PRESETS:
        jobs = [(f"{args.name}_r{r:g}.csv", preset_config(args.name, purity=r)) for r in SWEEP_PURITIES]
    else:
        jobs = [(f"{args.name}.csv", preset_config(args.name))]
    written = []
    for filename, cfg in jobs:
        path = outdir / filename
        records = evolve_concurrences(cfg)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_csv(records, fh)
        written.append(str(path))
        print(path)
    if args.gnuplot_snippet:
        sys.stderr.write(_gnuplot_snippet(written))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    if args.config is not None:
        cfg = config_from_dict(_load_config_file(args.config))
        preset = None
    else:
        cfg = preset_config(args.preset)
        preset = args.preset
    report = validation_report(cfg, preset=preset)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if report["passed"] else 1


def cmd_steady(args: argparse.Namespace) -> int:
    if args.which == "local":
        pair = steady_pair_local()
        payload = {
            "which": "local",
            "basis": list(pair.basis),
            "matrix": [[float(x.real) for x in row] for row in pair.matrix],
            "concurrence": concurrence_x_state(pair),
        }
    else:
        if args.purity is None:
            raise ValueError("--r is required for the nonlocal steady state")
        pair = steady_pair_nonlocal(args.purity)
        payload = {
            "which": "nonlocal",
            "r": args.purity,
            "basis": list(pair.basis),
            "matrix": [[float(x.real) for x in row] for row in pair.matrix],
            "concurrence": concurrence_x_state(pair),
            "purity_threshold": STEADY_PURITY_THRESHOLD,
        }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="djcm",
        description="Entanglement dynamics of two atom-cavity pairs in Lorentzian reservoirs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="run one trajectory, emit concurrence CSV")
    p.add_argument("--omega", type=float, help="atom-cavity coupling (units of gamma0)")
    p.add_argument("--lambda", dest="lam", type=float, help="reservoir spectral width")
    p.add_argument("--r", dest="purity", type=float, help="initial cavity purity in [0,1]")
    p.add_argument("--tmax", type=float, help="final time (units of 1/gamma0)")
    p.add_argument("--samples", type=int, help="number of grid points (default 1501)")
    p.add_argument("--omega0", type=float, help="transition frequency (default 0)")
    p.add_argument("--config", type=Path, help="JSON config file; flags override")
    p.add_argument("--out", type=Path, help="output file (default: stdout)")
    p.add_argument("--gnuplot-snippet", action="store_true", help="print a gnuplot script to stderr")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("figure", help="run a named preset, write CSV files")
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--outdir", type=Path, default=Path("."))
    p.add_argument("--gnuplot-snippet", action="store_true", help="print a gnuplot script to stderr")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("validate", help="compare closed forms against brute-force oracles")
    p.add_argument("--preset", choices=PRESET_NAMES, default="fig2a")
    p.add_argument("--config", type=Path, help="JSON config file instead of a preset")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("steady", help="print a quasi-steady pair state as JSON")
    p.add_argument("--r", dest="purity", type=float, help="cavity purity (nonlocal only)")
    p.add_argument("--which", choices=("local", "nonlocal"), required=True)
    p.set_defaults(func=cmd_steady)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: numeric overflow, an input is out of range ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
