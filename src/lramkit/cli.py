"""Command-line entry point.

Verbs select how far down the pipeline a run goes:

    lramkit validate     --config run.cfg
    lramkit optimize     --config run.cfg [--out DIR] [--snapshot-every N]
    lramkit homogenize   --config run.cfg          # needs a level-set file
    lramkit dispersion   --config run.cfg
    lramkit transmission --config run.cfg
    lramkit pipeline     --config run.cfg [--stage STAGE]

Exit codes: 0 ok, 1 configuration error, 2 failure inside a stage.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import STAGES, load_config, validate
from .errors import ConfigError
from .pipeline import run

_VERBS = ("validate", "optimize", "homogenize", "dispersion", "transmission",
          "pipeline")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lramkit",
        description="Design locally resonant acoustic metamaterial panels: "
                    "level-set cell optimization, homogenization, dispersion "
                    "and transmission loss.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--snapshot-every", type=int, default=None,
                       help="level-set snapshot cadence in iterations")
        if verb == "pipeline":
            p.add_argument("--stage", choices=STAGES, default=None,
                           help="run the pipeline only up to this stage")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.snapshot_every is not None:
        cfg = replace(cfg, snapshot_every=args.snapshot_every)

    if args.verb == "validate":
        diags = validate(cfg)
        for d in diags:
            print(str(d))
        errors = sum(d.severity == "error" for d in diags)
        print(f"{errors} error(s), "
              f"{sum(d.severity == 'warning' for d in diags)} warning(s)")
        return 1 if errors else 0

    if args.verb == "pipeline":
        last = args.stage or cfg.stages[-1]
    else:
        last = args.verb
    upto = STAGES.index(last)
    first = 0 if cfg.level_set_file is None else 1
    stages = STAGES[min(first, upto):upto + 1]
    cfg = replace(cfg, stages=stages)

    result = run(cfg)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
