"""Command-line front end.

Subcommands: exact (closed forms for one instance), estimate (Monte
Carlo next to the closed forms), sweep (closed-form tables over a
dimension-by-gap grid), tessellate (multi-plane success estimation and
width planning), validate (built-in invariant grids).

Instances are given either explicitly (--c/--x/--r/--p/--k) or through
the symmetric generator (--dim/--sinphi with optional --r/--p and
--k-factor); --k overrides the generated bias range with an absolute
value, and --k-factor is then not read.  Tables print 6 significant
digits; CSV and JSON carry full precision.  Exit codes: 0 success, 1
validation failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import probability, selfcheck
from .errors import BallsepError
from .geometry import (
    _MAX_DIMENSION, Ball, SeparationInstance, _dimension, _radius, make_instance, symmetric_instance
)
from .montecarlo import DEFAULT_SEED, McConfig, estimate_modes
from .probability import _gap, separation_report
from .tessellation import MODES, achieved_confidence, estimate_all_pairs, width_for_confidence

# sweep rows, counted before any range is expanded: about 100 MB traced, to sort the dimensions
_MAX_SWEEP_ROWS = 2**22
_EXACT_COLUMNS = ("n", "delta", "r", "p", "k", "sin_phi", "q", "p_bias", "p_weight", "p_full")
_SWEEP_COLUMNS = _EXACT_COLUMNS + ("envelope",)
_ESTIMATE_COLUMNS = ("estimator", "mean", "std_error", "exact", "z")
_TESSELLATE_COLUMNS = (
    "mode", "width", "samples", "per_pair_exact", "predicted", "estimate", "std_error", "target"
)

# each mode's `estimate` row name and SeparationReport field, in estimate's row order
_MODE_TABLE = {
    "random-bias": ("bias", "p_random_bias"),
    "random-weight": ("weight", "p_random_weight"),
    "fully-random": ("full", "p_fully_random"),
}


def _merge_vector_flags(argv: list) -> list:
    # argparse treats "-2,0" after "--c" as an unknown flag; fold the
    # value into the same token so negative coordinates parse
    merged = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in ("--c", "--x") and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            merged.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            merged.append(token)
            i += 1
    return merged


def _parse_list(text: str, name: str, entry) -> list:
    """entry(part) of each nonblank comma-separated part of text, where a ValueError is bad text."""
    try:
        values = [entry(part) for part in map(str.strip, text.split(",")) if part]
    except ValueError:
        raise BallsepError(f"could not parse {name} list from {text!r}")
    if not values:
        raise BallsepError(f"{name} list is empty")
    return values


def _dim_range(part: str) -> range:
    """The dimensions of a --dim entry, "n" or "lo..hi", unexpanded: a caller counts them first."""
    lo, hi = map(int, part.split("..", 1)) if ".." in part else (int(part),) * 2
    if hi < lo:
        raise ValueError
    if hi > _MAX_DIMENSION:  # _dimension's error
        _dimension(hi)
    return range(lo, hi + 1)


def _instance_from_args(args) -> SeparationInstance:
    explicit = args.c is not None or args.x is not None
    generated = args.dim is not None or args.sinphi is not None
    if explicit and generated:
        raise BallsepError("give either --c/--x or --dim/--sinphi, not both")
    if explicit:
        if args.c is None or args.x is None:
            raise BallsepError("explicit instances need both --c and --x")
        if args.k is None:
            raise BallsepError("explicit instances need --k")
        ball_a = Ball(_parse_list(args.c, "--c", float), args.r)
        ball_b = Ball(_parse_list(args.x, "--x", float), args.p)
        return make_instance(ball_a, ball_b, args.k)
    if args.dim is None or args.sinphi is None:
        raise BallsepError("specify an instance with --c/--x/--k or with --dim/--sinphi")
    if args.k is None:
        return symmetric_instance(args.dim, args.sinphi, args.r, args.p, args.k_factor)
    inst = symmetric_instance(args.dim, args.sinphi, args.r, args.p)
    return make_instance(inst.ball_a, inst.ball_b, args.k)


def _csv_cell(value) -> str:
    # what csv.writer writes for these types; no field ballsep writes needs quoting
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def _csv_text(columns, lines) -> str:
    """The CSV header of columns, if there are any, then each line of the iterable lines."""
    header = [",".join(columns)] if columns else []
    return "\n".join([*header, *lines, ""])


def _json_safe(record) -> dict:
    # JSON has no inf or nan; write them as the strings CSV writes
    return {
        name: repr(value) if isinstance(value, float) and not math.isfinite(value) else value
        for name, value in record.items()
    }


# json.dumps(..., allow_nan=False) builds an encoder per call; one per layout does for all
_JSON_ENCODERS = {indent: json.JSONEncoder(indent=indent, allow_nan=False) for indent in (None, 2)}


def _json_lines(records, indent=None) -> str:
    encode = _JSON_ENCODERS[indent].encode
    return "".join(encode(_json_safe(record)) + "\n" for record in records)


def _table_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if value is None:
        return "-"
    return str(value)


def _key_value_text(record) -> str:
    width = max(len(name) for name in record)
    lines = [f"{name:<{width}}  {_table_value(value)}" for name, value in record.items()]
    return "\n".join(lines) + "\n"


def _emit(text: str, stream) -> None:
    stream.write(text)


def _write(out, pieces, code: int = 0) -> int:
    """Write the str pieces in order to stdout, or to the file out, opened as the first piece
    is made, after the command's input checks: bad input leaves out as it was.  A piece is
    dropped once written, so text made a block at a time is held a block at a time."""
    stream = sys.stdout
    try:
        with contextlib.ExitStack() as files:
            for piece in pieces:
                if out and stream is sys.stdout:
                    stream = files.enter_context(open(out, "w", encoding="utf-8", newline=""))
                _emit(piece, stream)
                del piece
    except OSError as exc:
        if not out:
            raise
        raise BallsepError(f"cannot write --out {out!r}: {exc.strerror or exc}") from exc
    return code


def _records_text(args, columns, output, table=None) -> str:
    """A record (a dict) or a list of records in --format.

    A record prints as one indented JSON object, a CSV row or name/value
    lines; records as one JSON object per line, CSV rows or `table(output)`.
    """
    single = isinstance(output, dict)
    records = [output] if single else output
    if args.format == "json":
        return _json_lines(records, indent=2 if single else None)
    if args.format == "csv":
        return _csv_text(columns, (",".join([_csv_cell(r[c]) for c in columns]) for r in records))
    return _key_value_text(output) if single else table(records)


def _gap_values(inst: SeparationInstance, p_bias: float) -> tuple:
    """The columns delta to p_bias, which depend on the gap and not on n."""
    radii = inst.ball_a.radius, inst.ball_b.radius
    return inst.gap, *radii, inst.bias_half_range, inst.sin_phi, inst.q_value, p_bias


def cmd_exact(args) -> int:
    inst = _instance_from_args(args)
    report = separation_report(inst)
    gap = _gap_values(inst, report.p_random_bias)
    values = (inst.dimension, *gap, report.p_random_weight, report.p_fully_random)
    record = dict(zip(_EXACT_COLUMNS, values))
    return _write(args.out, [_records_text(args, _EXACT_COLUMNS, record)])


def cmd_estimate(args) -> int:
    inst = _instance_from_args(args)
    cfg = McConfig(samples=args.samples, seed=args.seed, chunks=args.chunks)
    report = separation_report(inst)
    rows = {mode: row for mode, row in _MODE_TABLE.items() if args.which in ("all", row[0])}
    records = []
    for (name, field), estimate in zip(rows.values(), estimate_modes([inst], 1, tuple(rows), cfg)):
        exact = getattr(report, field)
        if estimate.std_error > 0.0:
            z = (estimate.mean - exact) / estimate.std_error
        elif estimate.mean == exact:
            z = 0.0
        else:
            z = math.copysign(math.inf, estimate.mean - exact)
        values = name, estimate.mean, estimate.std_error, exact, z
        records.append(dict(zip(_ESTIMATE_COLUMNS, values)))
    return _write(args.out, [_records_text(args, _ESTIMATE_COLUMNS, records, _estimate_table)])


def _estimate_table(records) -> str:
    header = f"{'estimator':<10} {'mean':>12} {'std_error':>12} {'exact':>12} {'z':>9}"
    rows = [
        f"{r['estimator']:<10} {r['mean']:>12.6g} {r['std_error']:>12.6g} "
        f"{r['exact']:>12.6g} {r['z']:>9.3g}"
        for r in records
    ]
    return "\n".join([header] + rows) + "\n"


def cmd_sweep(args) -> int:
    ranges = _parse_list(args.dim, "--dim", _dim_range)
    # a NaN hashes by identity and compares false, so it is placed first, not by memory layout
    deltas = sorted(set(_parse_list(args.delta, "--delta", float)), key=lambda d: (d == d, d))
    rows = sum(map(len, ranges)) * len(deltas)
    if rows > _MAX_SWEEP_ROWS:
        raise BallsepError(f"--dim and --delta list {rows} rows, more than {_MAX_SWEEP_ROWS}")
    dims = np.unique(np.concatenate([np.arange(listed.start, listed.stop) for listed in ranges]))
    if args.k is None and not args.k_factor >= 1.0:
        raise BallsepError(f"--k-factor must be >= 1, got {args.k_factor!r}")
    # the closed forms see the dimension only through the incomplete beta's
    # shape, and |c - x|, |c|, |x| of a center on the first axis are the same
    # in R^2 as in R^n, so each gap is validated once as a planar instance
    for radius in (args.r, args.p):  # a bad radius is named before centers are built from it
        _radius(radius)
    planar = []
    for delta in deltas:
        if not 0.0 < delta < math.inf:
            bound = "finite" if delta > 0.0 else "positive" if delta <= 0.0 else "numbers"
            raise BallsepError(f"--delta entries must be {bound}, got {delta!r}")
        if dims[0] < 2:
            raise BallsepError(f"balls need dimension >= 2, got {dims[0]}")
        distance = args.r + args.p + delta
        if distance == math.inf:
            raise BallsepError("|c - x| overflows double precision")
        if distance <= args.r + args.p:
            raise BallsepError(f"--delta {delta!r} is lost in r + p + delta = {distance!r}")
        k = args.k if args.k is not None else args.k_factor * 0.5 * distance
        if k == math.inf and args.k is None:
            message = f"--k-factor {args.k_factor!r} overflows k = --k-factor * max(|c|, |x|)"
            raise BallsepError(message)
        ball_a = Ball([-0.5 * distance, 0.0], args.r)
        planar.append(make_instance(ball_a, Ball([0.5 * distance, 0.0], args.p), k))
    logs = [_gap(inst) for inst in planar]
    gaps = [_gap_values(inst, gap[-1]) for inst, gap in zip(planar, logs)]
    if args.format != "json":  # each gap's columns are rendered once
        gaps = [",".join(map(_csv_cell, gap)) for gap in gaps]
    block = functools.partial(_sweep_block, args.format == "json", dims, np.array(logs).T, gaps)
    return _write(args.out, map(block, range(0, len(dims) * len(gaps), probability._BLOCK)))


def _sweep_block(json_rows: bool, dims, logs, gaps, start: int) -> str:
    """JSON or CSV lines of sweep's block of cells from start, n-major, the CSV header first
    at start 0: cell i has dimension dims[i // G] and the gap of `_gap` columns logs[:, i % G]
    and columns delta to p_bias gaps[i % G], values for JSON and text for CSV; G = len(gaps)."""
    cells = np.arange(start, min(start + probability._BLOCK, len(dims) * len(gaps)))
    dim_at, gap_at = np.divmod(cells, len(gaps))
    _, report, envelopes = probability._closed_forms(dims[dim_at], logs[:, gap_at])
    probability._check_ordering(*report)
    # n and the envelope depend on the dimension alone, so they are taken once per dimension
    local = dim_at - dim_at[0]
    _, first = np.unique(local, return_index=True)
    ns, ends = dims[dim_at[first]].tolist(), envelopes[first].tolist()
    rows = zip(local.tolist(), gap_at.tolist(), report[1].tolist(), report[2].tolist())
    if json_rows:
        values = ((ns[d], *gaps[j], w, f, ends[d]) for d, j, w, f in rows)
        return _json_lines(dict(zip(_SWEEP_COLUMNS, v)) for v in values)
    ends = list(map(_csv_cell, ends))
    lines = (f"{ns[d]},{gaps[j]},{w!r},{f!r},{ends[d]}" for d, j, w, f in rows)
    return _csv_text(_SWEEP_COLUMNS if start == 0 else (), lines)


def cmd_tessellate(args) -> int:
    if (args.width is None) == (args.target is None):
        raise BallsepError("exactly one of --width or --target is required")
    inst = _instance_from_args(args)
    per_pair = getattr(separation_report(inst), _MODE_TABLE[args.mode][1])
    width = args.width if args.target is None else width_for_confidence(per_pair, args.target)
    cfg = McConfig(samples=args.samples, seed=args.seed, chunks=args.chunks)
    estimate = estimate_all_pairs([inst], width, args.mode, cfg)
    predicted = achieved_confidence(per_pair, width)
    values = args.mode, width, args.samples, per_pair, predicted, estimate.mean, estimate.std_error
    record = dict(zip(_TESSELLATE_COLUMNS, (*values, args.target)))
    return _write(args.out, [_records_text(args, _TESSELLATE_COLUMNS, record)])


def cmd_validate(args) -> int:
    results = selfcheck.run_all(ordering_samples=args.samples, seed=args.seed)
    lines = [result.describe() for result in results]
    for result in results:
        for cell in result.failures[:3]:
            lines.append(f"  {result.name} failing cell: {cell}")
    failed = [result for result in results if not result.passed]
    total = sum(result.cells for result in results)
    if failed:
        lines.append(f"validation FAILED in {len(failed)} of {len(results)} checks")
    else:
        lines.append(f"all {len(results)} checks passed across {total} cells")
    return _write(args.out, ["\n".join(lines) + "\n"], 1 if failed else 0)


def _add_instance_flags(sub) -> None:
    sub.add_argument("--c", help="center of the first ball, comma-separated reals")
    sub.add_argument("--x", help="center of the second ball, comma-separated reals")
    sub.add_argument("--r", type=float, default=1.0, help="radius of the first ball")
    sub.add_argument("--p", type=float, default=1.0, help="radius of the second ball")
    sub.add_argument("--k", type=float, default=None, help="bias half range (absolute)")
    sub.add_argument("--dim", type=int, default=None, help="dimension for the symmetric generator")
    sub.add_argument("--sinphi", type=float, default=None, help="sin of the cone half angle")
    sub.add_argument(
        "--k-factor",
        type=float,
        default=1.0,
        help="bias range as a multiple of max(|c|, |x|); not read with --k",
    )


def _add_output_flags(sub, default_format=None) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default=default_format)
    sub.add_argument("--out", default=None, help="write output to FILE instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballsep",
        description="Separation probabilities for ball pairs under partly random hyperplanes",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("exact", help="closed-form probabilities for one instance")
    _add_instance_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_exact)

    sub = commands.add_parser("estimate", help="Monte Carlo estimates next to the closed forms")
    _add_instance_flags(sub)
    sub.add_argument("--samples", type=int, default=100000)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--chunks", type=int, default=1)
    sub.add_argument("--which", choices=("full", "weight", "bias", "all"), default="all")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_estimate)

    sub = commands.add_parser("sweep", help="closed-form table over a dimension-by-gap grid")
    sub.add_argument("--dim", required=True, help="dimensions, e.g. 2,3,10 or 2..500")
    sub.add_argument("--delta", required=True, help="gaps, comma-separated positive reals")
    sub.add_argument("--r", type=float, default=1.0)
    sub.add_argument("--p", type=float, default=1.0)
    sub.add_argument("--k", type=float, default=None, help="absolute bias half range for all cells")
    sub.add_argument("--k-factor", type=float, default=1.0)
    _add_output_flags(sub, default_format="csv")
    sub.set_defaults(func=cmd_sweep)

    sub = commands.add_parser("tessellate", help="multi-plane success estimation and width planning")
    _add_instance_flags(sub)
    sub.add_argument("--width", type=int, default=None, help="number of hyperplanes")
    sub.add_argument("--target", type=float, default=None, help="target success probability")
    sub.add_argument("--mode", choices=MODES, default="fully-random")
    sub.add_argument("--samples", type=int, default=10000)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--chunks", type=int, default=1)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_tessellate)

    sub = commands.add_parser("validate", help="run the built-in invariant grids")
    sub.add_argument("--samples", type=int, default=10000, help="random ordering-chain instances")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_vector_flags(list(argv))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BallsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
