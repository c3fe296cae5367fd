"""Command-line front end.

Subcommands mirror the library: exact schedules, feasibility verdicts,
closed-form bounds, persistent/deadline analysis, recurrence enclosures,
and Monte Carlo simulation.  Reports are JSON by default; `schedule`,
`analyze --persistent` and `simulate` can also emit CSV.  Every report
goes to stdout or, with --output-path, to a file, with the same bytes.
Rational parameters are passed as "num/den" text so exactness survives
the command line.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import sys

from . import analysis, engine, protocols
from .schedule import Schedule, parse_int, parse_rational


def _add_c(parser):
    parser.add_argument(
        "--c", type=parse_rational, default="11/10", help="growth factor as a rational, e.g. 11/10"
    )


def _add_cp(parser):
    _add_c(parser)
    parser.add_argument(
        "--p", type=parse_rational, default="3/4",
        help="scheduled-slot transmission probability as a rational, e.g. 3/4 or 0.75",
    )


def _add_output(parser, formats: bool = False):
    if formats:
        parser.add_argument("--output-format", choices=("json", "csv"), default="json")
    parser.add_argument("--output-path", default=None, help="write the report here instead of stdout")


def _emit(path, report) -> None:
    """Write a report to the file at path, or to stdout when path is
    None; the file gets the same bytes as stdout would.  A report is a
    text or an iterator of text chunks, such as a CSV table's finished
    \r\n lines; chunks are written as they come."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as out:
        if isinstance(report, str):
            out.write(report)
        else:
            out.writelines(report)


_LEAF_TYPES = frozenset({str, int, float, bool, type(None)})
# json.dumps' text of a leaf; in a list's text "\x00" parts the leaves (ensure_ascii escapes it in strings)
_encode = json.JSONEncoder(separators=("\x00", ":")).encode


def _texts(leaves: list) -> list:
    """The JSON text of each of a nonempty list of leaves, from one encoder call."""
    return _encode(leaves)[1:-1].split("\x00")


def _table(rows, indent: str) -> str | None:
    """rows as _write writes them, when every row is a dict with one nonempty key tuple and only
    leaf values: one row template, repeated and filled by one % over every cell's text; else None."""
    if set(map(type, rows)) != {dict} or len(keys := set(map(tuple, rows))) != 1:
        return None
    cells = list(itertools.chain.from_iterable(map(dict.values, rows)))
    if not cells or not _LEAF_TYPES.issuperset(map(type, cells)):
        return None
    inner, names = indent + "  ", [name.replace("%", "%%") for name in _texts(list(keys.pop()))]
    row = "{" + ",".join([f"\n{inner}  {name}: %s" for name in names]) + "\n" + inner + "}"
    return ("[\n" + inner + (",\n" + inner).join([row] * len(rows)) + "\n" + indent + "]") % tuple(_texts(cells))


def _write(value, indent: str) -> str:
    """value as json.dumps(value, indent=2) writes it at this indent: str-keyed dicts, lists, tuples, leaves."""
    if type(value) in _LEAF_TYPES:
        return _encode(value)
    is_dict = isinstance(value, dict)
    if not value:
        return "{}" if is_dict else "[]"
    if not is_dict and (table := _table(value, indent)) is not None:
        return table
    inner = indent + "  "
    children = list(itertools.chain.from_iterable(value.items())) if is_dict else value  # keys, values alternate
    if _LEAF_TYPES.issuperset(map(type, children)):
        items = _texts(children)
    else:  # a nested container is encoded as null, then written in its place
        texts = _texts([v if type(v) in _LEAF_TYPES else None for v in children])
        items = [t if type(v) in _LEAF_TYPES else _write(v, inner) for v, t in zip(children, texts)]
    if is_dict:
        return ("{" + ",".join([f"\n{inner}%s: %s"] * len(value)) + "\n" + indent + "}") % tuple(items)
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _json(payload) -> str:
    return _write(payload, "") + "\n"


def cmd_schedule(args):
    # CPython refuses to print integers longer than this (0: no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    past = 10**limit if limit else math.inf
    sched = Schedule(args.c, min(args.k, 0))
    # grown by doubling, so the quadratic build stops soon after the first entry past the limit
    while sched.horizon_k < args.k and sched.s[-1] < past:
        sched.extend_to(min(args.k, 2 * sched.horizon_k + 1))
    if sched.s[-1] >= past:
        k = bisect.bisect_left(sched.s, past)
        raise ValueError(
            f"schedule entry s_{k} has more than {limit} digits, Python's limit for printing an integer"
        )
    if args.output_format == "csv":
        lines = (f"{k},{x},{s}\r\n" for k, (x, s) in enumerate(zip(sched.x, sched.s)))
        return itertools.chain(["k,x,s\r\n"], lines)
    # streamed, not built by _json: the report can pass 60 MB, and chunks keep peak memory low
    return itertools.chain(json.JSONEncoder(indent=2).iterencode(sched.to_json()), ["\n"])


def cmd_feasibility(args) -> str:
    return _json(analysis.feasibility(args.c, args.p).to_json())


def cmd_bounds(args) -> str:
    report = analysis.bound_report(args.c, args.p, k1_prime=args.k1, k_max=args.kmax)
    return _json(report.to_json())


def cmd_analyze(args):
    if not args.persistent:
        if args.output_format == "csv":
            raise ValueError("--output-format csv needs --persistent")
        table = analysis.solve_expectations(args.c, args.p, semantics=args.semantics, truncation_K=args.K)
        return _json(table.to_json())
    dist = analysis.persistent_distribution(args.c, args.p, args.zmax)
    if args.output_format == "csv":
        data = dist.to_json()
        rows = zip(itertools.count(), dist.support, data["pmf"], data["partial_expectations"])
        lines = (f"{z},{s},{pmf},{e}\r\n" for z, s, pmf, e in rows)
        return itertools.chain(["z,support,pmf,partial_expectation\r\n"], lines)
    return _json(dist.to_json())


def _load_config(path: str) -> engine.GameConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # malformed JSON, or bytes that do not decode
            raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must hold a JSON object, not a {type(data).__name__}")
    try:
        profile = protocols.profile_from_json(data)
        seed = parse_int(data["seed"], "seed")
        n = parse_int(data.get("n", len(profile)), "n")
        slot_cap = parse_int(data.get("slot_cap", engine.GameConfig.slot_cap), "slot_cap")
        return engine.GameConfig(n=n, profile=tuple(profile), seed=seed, slot_cap=slot_cap)
    except KeyError as exc:
        raise ValueError(f"config {path} is missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"config {path} has a value of the wrong type: {exc}") from None
    except ValueError as exc:  # a value out of its range
        raise ValueError(f"config {path}: {exc}") from None


def _samples(outcomes: engine.Outcomes):
    """The samples CSV as text chunks: the header line, then one line per trial and player."""
    return itertools.chain([engine.SAMPLES_HEADER], engine.outcomes_to_csv_rows(outcomes))


def cmd_simulate(args):
    config = _load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if not 0 <= args.player < config.n:
        raise ValueError(f"--player {args.player} is not a player of this {config.n}-player config")
    outcomes = engine.run_trials(config, args.trials)
    if args.output_format == "csv":  # the rows alone, with no summary
        report = _samples(outcomes)
    else:  # summarized before any file is written
        report = _json(dataclasses.asdict(engine.summarize(outcomes, args.player)))
    if args.samples_path:
        _emit(args.samples_path, _samples(outcomes))
    return report


def cmd_compare_deadline(args) -> str:
    report = analysis.deadline_comparison(args.c, args.p, args.t0, z_grid=tuple(args.zmax_grid))
    return _json(report.to_json())


@functools.cache  # built by the first main call in a process, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contention",
        description="Exact schedules, bounds, and Monte Carlo for the 3-player contention game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("schedule", help="print the exact non-trivial slot schedule")
    _add_c(sp)
    sp.add_argument("--k", type=int, default=8, help="schedule horizon index")
    _add_output(sp, formats=True)
    sp.set_defaults(handler=cmd_schedule)

    fp = sub.add_parser("feasibility", help="exact parameter-region verdict")
    _add_cp(fp)
    _add_output(fp)
    fp.set_defaults(handler=cmd_feasibility)

    bp = sub.add_parser("bounds", help="closed-form latency upper bounds")
    _add_cp(bp)
    bp.add_argument("--k1", type=int, default=None, help="truncation index (defaults to the minimum feasible)")
    bp.add_argument("--kmax", type=int, default=10, help="table horizon for the lone-player bound")
    _add_output(bp)
    bp.set_defaults(handler=cmd_bounds)

    ap = sub.add_parser("analyze", help="exact distributions and recurrence enclosures")
    _add_cp(ap)
    ap.add_argument("--persistent", action="store_true", help="persistent-deviator latency law")
    ap.add_argument("--zmax", type=int, default=200, help="support points for --persistent")
    ap.add_argument("--semantics", choices=analysis.SEMANTICS, default="literal")
    ap.add_argument("--K", type=int, default=60, help="truncation for the expectation enclosures")
    _add_output(ap, formats=True)
    ap.set_defaults(handler=cmd_analyze)

    mp = sub.add_parser("simulate", help="Monte Carlo latency estimation")
    mp.add_argument("--config", required=True, help="game config JSON (players, seed, slot_cap)")
    mp.add_argument("--trials", type=int, default=100_000)
    mp.add_argument("--player", type=int, default=0, help="player whose latency is summarized")
    mp.add_argument("--seed", type=int, default=None, help="override the config seed")
    mp.add_argument("--samples-path", default=None, help="also write per-trial CSV samples here")
    _add_output(mp, formats=True)
    mp.set_defaults(handler=cmd_simulate)

    dp = sub.add_parser("compare-deadline", help="lower-bound evidence against a deadline deviator")
    _add_cp(dp)
    dp.add_argument("--t0", type=int, required=True)
    dp.add_argument("--zmax-grid", type=int, nargs="+", default=(25, 50, 100, 200, 400))
    _add_output(dp)
    dp.set_defaults(handler=cmd_compare_deadline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.output_path, args.handler(args))
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # its str() is empty
        print("error: out of memory", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
