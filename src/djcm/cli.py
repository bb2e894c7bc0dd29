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
flags override file values, and --omega/--lambda/--omega0 set both
partitions alike. `scenarios.config_from_dict` parses the result, so the
file and the flags share its defaults and its errors. Without --config,
--omega, --lambda, --r and --tmax are required.

Exit codes: 0 success, 1 validation failure, 2 bad input, 3 internal
error (a propagation or oracle guard tripped), 141 when the reader of
standard output closes it early (as `djcm evolve ... | head` does).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from .bases import PAIR_BASIS_LABELS
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
    TARGET_ORDER,
    config_from_dict,
    evolve_concurrences,
    preset_config,
    validation_report,
    write_csv,
    write_json,
)

__all__ = ["main"]


def _load_config_file(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}")


def _merged_config(args: argparse.Namespace):
    """Lay the command-line flags over the config file's values (flags win).

    `config_from_dict` fills in the defaults and checks the result.
    """
    if args.config is None:
        required = {"--omega": args.omega, "--lambda": args.lam, "--r": args.purity, "--tmax": args.tmax}
        missing = [flag for flag, value in required.items() if value is None]
        if missing:
            raise ValueError(f"missing {', '.join(missing)} (or give --config)")
        data = {}
    else:
        data = _load_config_file(args.config)
    if not isinstance(data, dict):
        return config_from_dict(data)  # rejects it, naming the top level
    top = {"purity": args.purity, "t_max": args.tmax, "samples": args.samples}
    params = {"omega": args.omega, "lam": args.lam, "omega0": args.omega0}
    params = {key: value for key, value in params.items() if value is not None}
    merged = {**data, **{key: value for key, value in top.items() if value is not None}}
    # a params_b the file lacks stays absent: config_from_dict copies params_a
    for key, side in (("params_a", data.get("params_a", {})), ("params_b", data.get("params_b"))):
        if isinstance(side, dict):  # any other value is left for config_from_dict to name
            merged[key] = {**side, **params}
    return config_from_dict(merged)


def _gnuplot_snippet(paths: list[str], columns: int) -> str:
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'gamma0 t'",
        "set ylabel 'concurrence'",
    ]
    for path in paths:
        lines.append(f"plot for [col=2:{columns}] '{path}' using 1:col with lines")
    return "\n".join(lines) + "\n"


def cmd_evolve(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    table = evolve_concurrences(cfg)
    if args.out is None:
        out = contextlib.nullcontext(sys.stdout)
    else:
        out = open(args.out, "w", encoding="utf-8", newline="\n")
    with out as fh:
        if cfg.output == "csv":
            write_csv(table, fh, cfg.targets)
        else:
            write_json(cfg, table, fh)
    if args.gnuplot_snippet:
        target = str(args.out) if args.out is not None else "data.csv"
        sys.stderr.write(_gnuplot_snippet([target], table.shape[1]))
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
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_csv(evolve_concurrences(cfg), fh, cfg.targets)
        written.append(str(path))
        print(path)
    if args.gnuplot_snippet:
        sys.stderr.write(_gnuplot_snippet(written, 1 + len(TARGET_ORDER)))
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
        if args.purity is not None:
            raise ValueError("--r does not apply to the local steady state, which is purity-independent")
        payload = {"which": "local"}
        pair = steady_pair_local()
    else:
        if args.purity is None:
            raise ValueError("--r is required for the nonlocal steady state")
        payload = {"which": "nonlocal", "r": args.purity}
        pair = steady_pair_nonlocal(args.purity)
    payload["basis"] = list(PAIR_BASIS_LABELS)
    payload["matrix"] = [[float(x.real) for x in row] for row in pair]
    payload["concurrence"] = concurrence_x_state(pair)
    if args.which == "nonlocal":
        payload["purity_threshold"] = STEADY_PURITY_THRESHOLD
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader is gone; nothing is wrong with the input. Send the rest of
        # stdout to devnull so the flush at exit does not fail again, and exit
        # as a shell reports a SIGPIPE death (128 + 13).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: numeric overflow, an input is out of range ({exc})", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
