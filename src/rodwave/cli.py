"""Command-line front end: run, compare, converge, emit-plots, list-experiments.

Output goes to per-run directories under --out (or $RODWAVE_OUT, default
./rodwave_runs).  Exit code 0 on success; on failure a machine-readable
error report is printed to stderr.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
import os
import sys
from pathlib import Path

from . import experiments
from .errors import RodwaveError

OUT_ENV_VAR = "RODWAVE_OUT"


def _out_root(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUT_ENV_VAR, "rodwave_runs"))


def _config_from_args(args) -> experiments.ExperimentConfig:
    cfg = experiments.resolve_config(args.config)
    if getattr(args, "scheme", None):
        schemes = tuple(s.strip() for s in args.scheme.split(",") if s.strip())
        if len(schemes) > 1 and args.command != "compare":
            raise ValueError(f"{args.command} takes one scheme, got {args.scheme!r}")
        # a single scheme also becomes the run's scheme
        stepper = replace(cfg.stepper, scheme=schemes[0]) if len(schemes) == 1 else cfg.stepper
        cfg = replace(cfg, stepper=stepper, schemes=schemes)
    given = {key: values for key in ("dt", "dxi")
             if (values := _parse_floats(getattr(args, f"{key}_list", None)))}
    if given:
        cfg = replace(cfg, sweep={**cfg.sweep, **given})
    return cfg


def _parse_floats(text: str | None) -> list:
    return [float(x) for x in (text or "").split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rodwave",
        description="Conservative Lagrangian solver for the hyperelastic rod wave equation",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="bundled experiment name or path to a config/manifest JSON")
        p.add_argument("--out", default=None,
                       help=f"output root (default: ${OUT_ENV_VAR} or ./rodwave_runs)")
        p.add_argument("--scheme", default=None,
                       help="override scheme(s), comma separated")

    p_run = sub.add_parser("run", help="run one experiment")
    add_common(p_run)

    p_cmp = sub.add_parser("compare", help="run all schemes from identical initial data")
    add_common(p_cmp)

    p_conv = sub.add_parser("converge", help="error-vs-resolution sweeps")
    add_common(p_conv)
    p_conv.add_argument("--dt-list", default=None,
                        help="comma-separated dt sweep; overrides the config's sweep.dt")
    p_conv.add_argument("--dxi-list", default=None,
                        help="comma-separated dxi sweep; overrides the config's sweep.dxi")

    p_plot = sub.add_parser("emit-plots", help="write gnuplot scripts for a run directory")
    p_plot.add_argument("artifacts_dir", help="directory containing manifest.json")

    sub.add_parser("list-experiments", help="list bundled experiments")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-experiments":
            for name, d in experiments.BUNDLED.items():
                print(f"{name:28s} {d['description']}")
            return 0
        if args.command == "emit-plots":
            for path in experiments.emit_plots(args.artifacts_dir):
                if not args.quiet:
                    print(path)
            return 0

        cfg = _config_from_args(args)
        out_root = _out_root(args)
        if args.command == "run":
            experiments.run_experiment(cfg, out_root / cfg.name, quiet=args.quiet)
        elif args.command == "compare":
            experiments.compare_experiment(
                cfg, out_root / f"{cfg.name}_compare", quiet=args.quiet
            )
        elif args.command == "converge":
            experiments.converge_experiment(cfg, out_root / f"{cfg.name}_converge",
                                            quiet=args.quiet)
        return 0
    except (RodwaveError, ValueError, KeyError, OSError) as err:
        json.dump(
            {"error": type(err).__name__, "message": str(err)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
