"""Command-line front end with JSON I/O.

Commands
--------
closed          evaluate the closed-form resultant report for a cubic
compare         run closed form, reduction chain, and (optionally) the
                Macaulay oracle, and report agreement
witness         produce a verified common-root witness or null
sweep           evaluate the closed form over an (A1, A2) grid, one JSON
                line per point, deterministic row-major order
configuratrix   evaluate the configuratrix resultant at a momentum

Exit codes: 0 success; 1 routes disagree (compare only); 2 malformed input;
3 vanishing resultant (closed only); 4 resource guard tripped or memory
exhausted, or an answer too large to print. All numbers in JSON payloads
are decimal strings so exactness survives any JSON parser. This module owns
the JSON formats; scalars follow `polycore.parse_scalar`, as in the library.
Each command returns its output text and exit code, and `main` writes it.
The oracle and the configuratrix layer are imported inside the commands
that use them, so `closed` and `sweep` never load them.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import repeat
from typing import Optional

from .closedform import (
    ResultantReport,
    closed_form_resultant,
    formula_to_canonical_ratio,
    resultant_via_reduction,
)
from .polycore import MatrixSizeError, QuadExt, parse_scalar
from .symcubic import SymmetricCubic, TransformationUndefinedError, check_dimension

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VANISHES = 3
EXIT_GUARD = 4

MAX_SWEEP_POINTS = 10 ** 6

_ENCODER = json.JSONEncoder(default=str)


def _read_json(path: Optional[str]) -> dict:
    """The JSON object in the file, or on stdin for None or '-'."""
    with nullcontext(sys.stdin) if path in (None, "-") else open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if type(data) is not dict:
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    return data


def read_cubic(data: dict) -> SymmetricCubic:
    """The cubic of {"n": int, "A1": "rat", "A2": "rat", "A3": "rat"}."""
    return SymmetricCubic(data["n"], *(str(data[key]) for key in ("A1", "A2", "A3")))


def read_momentum(data: dict):
    """The `finsler.Momentum` of {"y": ["rat", ...]}."""
    from .finsler import Momentum

    values = data["y"]
    if type(values) is not list:
        raise ValueError(f"y must be a JSON list, got {values!r}")
    return Momentum.of([str(v) for v in values])


def json_line(payload) -> str:
    """One JSON line; exact values (Fraction, QuadExt) print as their str():
    "num", "num/den" or "p+q*r". A number past Python's int->str digit limit
    is an answer too large to print, refused like any other size guard."""
    try:
        return _ENCODER.encode(payload) + "\n"
    except ValueError as exc:
        raise MatrixSizeError(f"answer too large to print: {exc}") from None


def report_json(report: ResultantReport) -> dict:
    return {
        "canonical": report.canonical_value,
        "paper": report.formula_value,
        "vanishes": report.vanishes,
        "factors": [{"k": f.k, "Y": f.value, "exp": f.exponent} for f in report.factors],
        "ratio": None if report.vanishes else formula_to_canonical_ratio(len(report.factors)),
    }


def witness_json(witness) -> dict:
    """The payload of an `oracle.RootWitness`, or of None."""
    if witness is None:
        return {"witness": None}
    radicands = [x.radicand for x in witness.point if isinstance(x, QuadExt) and x.radical]
    pattern = None
    if witness.pattern is not None:
        k, t, u = witness.pattern
        pattern = {"k": k, "t": t, "u": u}
    return {
        "pattern": pattern,
        "point": list(witness.point),
        "field": f"quadratic(delta={radicands[0]})" if radicands else "rational",
    }


def cmd_closed(args) -> tuple[str, int]:
    report = closed_form_resultant(read_cubic(_read_json(args.input)))
    payload = report_json(report)
    payload["value"] = payload["paper"] if args.paper_normalization else payload["canonical"]
    return json_line(payload), EXIT_VANISHES if report.vanishes else EXIT_OK


def cmd_compare(args) -> tuple[str, int]:
    from .oracle import MacaulaySystem, check_macaulay_size, macaulay_resultant

    cubic = read_cubic(_read_json(args.input))
    if args.oracle:
        check_macaulay_size(repeat(2, cubic.n))
    report = closed_form_resultant(cubic)
    values = [report.canonical_value]
    try:
        chain = resultant_via_reduction(cubic)
        values.append(chain)
    except TransformationUndefinedError:
        chain = "unavailable"
    oracle = None
    if args.oracle:
        oracle = macaulay_resultant(MacaulaySystem.from_forms(cubic.gradient_system()))
        values.append(oracle)
    agree = all(v == values[0] for v in values)
    payload = {"boxed": report.canonical_value, "chain": chain, "oracle": oracle, "agree": agree}
    return json_line(payload), EXIT_OK if agree else 1


def cmd_witness(args) -> tuple[str, int]:
    from .oracle import root_witness

    return json_line(witness_json(root_witness(read_cubic(_read_json(args.input))))), EXIT_OK


def _parse_range(spec: dict) -> tuple[Fraction, Fraction, int]:
    """Start, step and point count of an inclusive grid range."""
    start = parse_scalar(str(spec["start"]))
    stop = parse_scalar(str(spec["stop"]))
    step = parse_scalar(str(spec["step"]))
    if step <= 0:
        raise ValueError("grid step must be positive")
    count = (stop - start) // step + 1
    if count < 1:
        raise ValueError("empty grid range")
    return start, step, count


def cmd_sweep(args) -> tuple[str, int]:
    spec = _read_json(args.input)
    n = spec["n"]
    check_dimension(n)
    a1_start, a1_step, a1_count = _parse_range(spec["A1"])
    a2_start, a2_step, a2_count = _parse_range(spec["A2"])
    a3 = parse_scalar(str(spec["A3"]))
    if a1_count * a2_count > MAX_SWEEP_POINTS:
        raise MatrixSizeError(f"sweep grid has over {MAX_SWEEP_POINTS} points")
    a1_grid = [a1_start + i * a1_step for i in range(a1_count)]
    a2_grid = [a2_start + i * a2_step for i in range(a2_count)]
    lines = []
    for a1 in a1_grid:
        for a2 in a2_grid:
            if a1 == 0 and a2 == 0 and a3 == 0:
                continue  # the zero polynomial has no resultant report
            report = closed_form_resultant(SymmetricCubic(n, a1, a2, a3))
            lines.append(json_line({"A1": a1, "A2": a2, "canonical": report.canonical_value,
                                     "vanishes": report.vanishes}))
    return "".join(lines), EXIT_OK


def cmd_configuratrix(args) -> tuple[str, int]:
    from .finsler import MetricFunction, configuratrix_resultant

    metric = MetricFunction(read_cubic(_read_json(args.metric)))
    result = configuratrix_resultant(metric, read_momentum(_read_json(args.momentum)))
    payload = {"resultant": result.value, "vanishes": result.vanishes,
               "diagnostic": result.diagnostic}
    return json_line(payload), EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symres",
        description="Exact resultants of symmetric-cubic gradient systems.")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write output to file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_closed = sub.add_parser("closed", parents=[out], help="closed-form resultant report")
    p_closed.add_argument("input", nargs="?", default=None,
                          help="cubic JSON file ('-' or omitted: stdin)")
    p_closed.add_argument("--paper-normalization", action="store_true",
                          help="report the raw formula value as primary")
    p_closed.set_defaults(func=cmd_closed)

    p_cmp = sub.add_parser("compare", parents=[out], help="cross-check all computation routes")
    p_cmp.add_argument("input", nargs="?", default=None)
    p_cmp.add_argument("--oracle", action="store_true",
                       help="include the Macaulay-matrix oracle")
    p_cmp.set_defaults(func=cmd_compare)

    p_wit = sub.add_parser("witness", parents=[out], help="common-root witness or null")
    p_wit.add_argument("input", nargs="?", default=None)
    p_wit.set_defaults(func=cmd_witness)

    p_sweep = sub.add_parser("sweep", parents=[out], help="closed form over an (A1, A2) grid")
    p_sweep.add_argument("input", nargs="?", default=None,
                         help="sweep spec JSON file ('-' or omitted: stdin)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_conf = sub.add_parser("configuratrix", parents=[out],
                            help="configuratrix resultant at a momentum")
    p_conf.add_argument("metric", help="cubic JSON file ('-' for stdin)")
    p_conf.add_argument("momentum", help="momentum JSON file ('-' for stdin)")
    p_conf.set_defaults(func=cmd_configuratrix)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.func(args)
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
            fh.write(text)
        return code
    except (MatrixSizeError, MemoryError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc) or "out of memory"}) + "\n")
        return EXIT_GUARD
    except (ValueError, KeyError, TypeError, RecursionError, OSError) as exc:
        message = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        sys.stderr.write(json.dumps({"error": message}) + "\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
