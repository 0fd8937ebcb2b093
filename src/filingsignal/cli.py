"""Command-line entry point.

`pipeline` runs any subset of the stages from a YAML config with
content-hash skipping; it is the only way to run a stage. `synth` builds the
offline synthetic fixture workspace.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import pipeline as pl
from .errors import PipelineError


def cmd_pipeline(args) -> int:
    config = pl.PipelineConfig.from_yaml(args.config)
    pl.run_pipeline(config, args.stages)
    return 0


def cmd_synth(args) -> int:
    from .synthetic import make_workspace  # a stage run has no use for it

    make_workspace(args.dir, seed=args.seed)
    print(f"synthetic workspace written to {args.dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filingsignal",
        description="Annual-report LLM scoring, non-negative regression, "
                    "and top-k backtesting pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", help="run stages from a YAML config")
    p.add_argument("--config", required=True)
    p.add_argument("--stages", nargs="+", default=None,
                   choices=[s.name for s in pl.STAGES],
                   help="stages to run, in pipeline order (default: all)")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("synth", help="generate the synthetic fixture workspace")
    p.add_argument("--dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, OSError) as exc:  # OSError: a config path, say a directory
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
