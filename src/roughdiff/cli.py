"""Command line front end.

Subcommands: ``run`` executes every sweep of a scenario config,
``summarize`` prints the table for an existing manifest, ``kernel`` and
``potential`` run just that part of a config.  Exit status: 0 when every
gated check passes, 1 when a verdict is FAIL, 2 on configuration or
precondition errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import runner
from .errors import ConditionViolated, ConfigError, Error


def _finish_run(manifest):
    sys.stdout.write(runner.summarize(manifest))
    sys.stdout.write(
        f"manifest: {os.path.join(manifest.out_dir, 'manifest.json')}\n")
    if not manifest.all_pass():
        failing = [k for k, v in manifest.verdicts.items() if v == "FAIL"]
        sys.stdout.write(f"FAIL: {', '.join(sorted(failing))}\n")
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="roughdiff",
        description="Monte Carlo sweeps for divergence-form diffusions "
                    "along dyadic grids")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="scenario JSON file")
    p_run.add_argument("--workers", type=int, default=1,
                       help="parallel workers (never changes the outputs)")
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--seed-override", type=int, default=None)

    p_sum = sub.add_parser("summarize", help="print the table for a manifest")
    p_sum.add_argument("manifest", help="manifest.json file")

    p_ker = sub.add_parser("kernel",
                           help="solve the kernel PDE and fit the envelope "
                                "constant, nothing else")
    p_ker.add_argument("config")
    p_ker.add_argument("--out-dir", default=None)

    p_pot = sub.add_parser("potential",
                           help="build the resolvent potential, nothing else")
    p_pot.add_argument("config")
    p_pot.add_argument("--out-dir", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            manifest = runner.run_scenario(
                args.config, workers=args.workers, out_dir=args.out_dir,
                seed_override=args.seed_override)
            return _finish_run(manifest)
        if args.command == "summarize":
            sys.stdout.write(runner.summarize(args.manifest))
            return 0
        cfg = runner.read_config(args.config)
        if isinstance(cfg, dict):  # the loader rejects anything else
            cfg["sweeps"] = (["aronson"] if args.command == "kernel"
                             else ["potential"])
        manifest = runner.run_scenario(cfg, out_dir=args.out_dir)
        return _finish_run(manifest)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConditionViolated as exc:
        print(f"condition violated: {exc}", file=sys.stderr)
        return 2
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
