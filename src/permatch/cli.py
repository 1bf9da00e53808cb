"""Command-line interface.

Subcommands:

- ``match``: match two CSV feature files, write the estimated permutation
  as CSV rows ``i,pi_i`` (1-based: second-set feature i matches first-set
  feature pi_i).
- ``experiment``: run a Monte Carlo experiment described by a flat
  ``key = value`` config file and emit a summary as CSV or SVG.
- ``packing``: build a Hamming packing of an l2 ball of permutations,
  print its size, and optionally dump it as CSV.
- ``rates``: print the separation rate, recovery thresholds, and the
  worst-case mismatch bound for given (sigma, n, d, alpha).

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 internal error
(a solution failed its optimality certificate: a bug, not bad input).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import harness, model, permgroup
from .assignment import CertificateError
from .estimators import ESTIMATOR_NAMES, EstimatorKind, estimate
from .metrics import (
    minimax_separation_rate,
    mismatch_probability_bound,
    separation_threshold,
    separation_threshold_conservative,
)

__all__ = ["main", "entrypoint", "parse_config_file", "config_from_mapping"]

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_IO = 2
_EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures into exit code 1
        raise ValueError(message)


def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment; blanks ignored;
    a key may appear once."""
    mapping: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in mapping:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            mapping[key] = value
    return mapping


def _parse_value(kind, text: str):
    """One config value, read as its ``ExperimentConfig`` field type; a
    tuple is comma-separated, and a blank part is skipped."""
    if kind in (str, int, float):
        return kind(text)
    parts = [part for part in text.split(",") if part.strip()]
    if kind == tuple[EstimatorKind, ...]:
        return tuple(EstimatorKind.from_name(part) for part in parts)
    if kind in (tuple[float, ...], tuple[float, ...] | None):
        return tuple(float(part) for part in parts)
    raise TypeError(f"no config parser for {kind}")


def config_from_mapping(mapping: dict[str, str]) -> harness.ExperimentConfig:
    kinds = harness._field_types(harness.ExperimentConfig)
    unknown = set(mapping) - set(kinds)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "scenario" not in mapping or "sweep" not in mapping:
        raise ValueError("config must set at least 'scenario' and 'sweep'")
    values = {}
    for key, text in mapping.items():
        try:
            values[key] = _parse_value(kinds[key], text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return harness.ExperimentConfig(**values)


def _cmd_match(args) -> int:
    instance = model.load_instance_csv(args.first, args.second)
    kind = EstimatorKind.from_name(args.estimator)
    permutation = estimate(instance, kind)
    lines = ["i,pi_i"] + [
        f"{i + 1},{int(j) + 1}" for i, j in enumerate(permutation.map)
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def _cmd_experiment(args) -> int:
    mapping = parse_config_file(args.config)
    if args.trials is not None:
        mapping["trials"] = str(args.trials)
    if args.seed is not None:
        mapping["seed"] = str(args.seed)
    config = config_from_mapping(mapping)
    unread = sorted(set(mapping) - config.read_keys)
    if unread:
        raise ValueError(f"{unread[0]} is not read by the {config.scenario} scenario")
    records = harness.run_experiment(config)
    summary = harness.aggregate(records)
    harness.emit(summary, args.out, fmt=args.format, xlabel=harness.SWEEP_LABELS[config.scenario])
    sys.stdout.write(f"wrote {args.out} ({len(summary)} rows)\n")
    return _EXIT_OK


def _cmd_packing(args) -> int:
    result = permgroup.pack_greedy(args.n, args.radius, args.eps, restarts=args.restarts, seed=args.seed)
    ratio = math.log(result.size) / (args.n * math.log(args.n)) if result.size > 1 else 0.0
    sys.stdout.write(
        f"n={args.n} radius={args.radius:g} eps={args.eps:g} size={result.size} "
        f"log_size_ratio={ratio:.4f} exhaustive={result.is_exhaustive}\n"
    )
    if args.out:
        permgroup.write_packing_csv(result, args.out)
        sys.stdout.write(f"wrote {args.out}\n")
    return _EXIT_OK


def _cmd_rates(args) -> int:
    rate = minimax_separation_rate(args.sigma, args.n, args.d)
    threshold = separation_threshold(args.alpha, args.n, args.d, args.sigma)
    conservative = separation_threshold_conservative(args.alpha, args.n, args.d, args.sigma)
    bound = mismatch_probability_bound(conservative, args.sigma, args.n, args.d)
    rows = [
        ("separation rate (up to constants)", rate),
        ("recovery threshold", threshold),
        ("recovery threshold (conservative)", conservative),
        ("mismatch bound at conservative threshold", bound),
    ]
    for name, value in rows:
        sys.stdout.write(f"{name:<42}{value:.6g}\n")
    return _EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first ``main`` call and kept for the process."""
    parser = _Parser(prog="permatch", description="Match noisy feature sets by permutation estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="match two CSV feature files")
    p_match.add_argument("first", help="CSV of the reference feature set (rows id,x1,...,xd[,sigma])")
    p_match.add_argument("second", help="CSV of the feature set to match against the first")
    p_match.add_argument("--estimator", default="lsl", choices=ESTIMATOR_NAMES)
    p_match.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p_match.set_defaults(func=_cmd_match)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo experiment from a config file")
    p_exp.add_argument("config", help="flat key = value config file")
    p_exp.add_argument("--out", required=True, help="output file path")
    p_exp.add_argument("--format", default="csv", choices=["csv", "svg-plot"])
    p_exp.add_argument("--trials", type=int, default=None, help="override the config's trial count")
    p_exp.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p_exp.set_defaults(func=_cmd_experiment)

    p_pack = sub.add_parser("packing", help="greedy Hamming packing of a permutation l2 ball")
    p_pack.add_argument("--n", type=int, required=True)
    p_pack.add_argument("--radius", type=float, default=2.0)
    p_pack.add_argument("--eps", type=float, default=0.25)
    p_pack.add_argument("--restarts", type=int, default=0)
    p_pack.add_argument("--seed", type=int, default=0)
    p_pack.add_argument("--out", default=None, help="optional CSV path for the packing itself")
    p_pack.set_defaults(func=_cmd_packing)

    p_rates = sub.add_parser("rates", help="print rate and threshold formulas for given parameters")
    p_rates.add_argument("--sigma", type=float, default=1.0)
    p_rates.add_argument("--n", type=int, required=True)
    p_rates.add_argument("--d", type=int, required=True)
    p_rates.add_argument("--alpha", type=float, default=0.05)
    p_rates.set_defaults(func=_cmd_rates)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return _EXIT_IO
    except CertificateError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return _EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
