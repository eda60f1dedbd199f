"""Command line driver: sweep, calibrate, verify, bounds."""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import harness


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid", required=True, help="grid config file (key = value)")
    sub.add_argument("--seed", type=int, default=None,
                     help="replace the seed list with this single seed")
    sub.add_argument("--out", default=None, help="output path")
    sub.add_argument("--algorithms", default=None,
                     help="comma-separated pipeline subset")
    sub.add_argument("--policy", choices=["crew", "erew"], default=None)


def _spec_from_args(parser: argparse.ArgumentParser, args) -> harness.ExperimentSpec:
    """The grid file's spec with the command line overrides; a bad grid
    file, an algorithm list with an unknown name, a repeated one or none,
    or a grid that leaves no row to run is a usage error (exit 2)."""
    try:
        spec = harness.load_spec(args.grid)
    except (ValueError, OSError) as exc:
        parser.error(f"{args.grid}: {exc}")
    if args.seed is not None:
        spec.seeds = [args.seed]
    if args.algorithms is not None:
        names = [a.strip() for a in args.algorithms.split(",") if a.strip()]
        if not names:
            parser.error(f"--algorithms {args.algorithms!r} names no pipeline")
        for a in names:
            if a not in harness.PIPELINES:
                parser.error(f"unknown algorithm {a!r}")
        repeat = harness.first_repeat(names)
        if repeat is not None:
            parser.error(f"--algorithms {args.algorithms!r} names {repeat!r} twice")
        spec.algorithms = names
    if args.policy:
        spec.policy = args.policy
    if not spec.points() or not spec.seeds or not spec.algorithms:
        parser.error(f"{args.grid}: an empty list leaves no row to run")
    return spec


@contextlib.contextmanager
def _writing_out(parser: argparse.ArgumentParser, path: str):
    """An ``--out`` path that cannot be written is a usage error (exit 2)."""
    try:
        yield
    except OSError as exc:
        parser.error(f"--out {path}: {exc.strerror}")


def _write_output(parser: argparse.ArgumentParser, path: str | None, text: str) -> None:
    """Write a command's CSV to ``path``, or to stdout without one."""
    if path:
        with _writing_out(parser, path), open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pemshuffle",
        description="PEM shuffle-step simulator: sweeps, calibration, bound checks")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("sweep", "calibrate", "verify", "bounds"):
        _add_common(subs.add_parser(name))
    args = parser.parse_args(argv)
    spec = _spec_from_args(parser, args)

    if args.command == "sweep":
        report = harness.run_sweep(spec)
        _write_output(parser, args.out, report.to_csv())
        ok = report.all_pass()
        print(f"{len(report.rows)} rows, "
              f"{sum(1 for r in report.rows if r['status'] == 'skipped')} skipped, "
              f"verdicts {'pass' if ok else 'FAIL'}", file=sys.stderr)
        return 0 if ok else 1

    if args.command == "calibrate":
        report = harness.run_sweep(spec)
        try:
            constants = harness.calibrate(report)
        except harness.CalibrationError as exc:
            print(f"calibration failed: {exc}", file=sys.stderr)
            return 1
        if args.out:
            with _writing_out(parser, args.out):
                harness.write_constants(constants, args.out)
        for algo in sorted(constants):
            c = constants[algo]
            print(f"{algo}: C1={c['C1']} C2={c['C2']}")
        return 0

    if args.command == "verify":
        report, verdicts = harness.verify(spec)
        if args.out:
            _write_output(parser, args.out, report.to_csv())
        for name, ok in (("budget", verdicts.budget_ok),
                         ("correctness", verdicts.correctness_ok),
                         ("potential", verdicts.potential_ok),
                         ("bounds", verdicts.bounds_ok)):
            print(f"{name}: {'pass' if ok else 'FAIL'}")
        for line in verdicts.failures[:20]:
            print(f"  {line}", file=sys.stderr)
        return 0 if verdicts.all_ok() else 1

    # bounds
    _write_output(parser, args.out, harness.bounds_catalog(spec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
