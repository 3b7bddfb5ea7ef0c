"""Command-line front end: info, verify, trace, mindeg and table reports.

Exit codes: 0 all applicable checks pass, 1 a check failed, 2 usage or input
error, 3 a resource cap was exceeded, 4 a fault in the computation itself
(a ``RuntimeError``, such as a guaranteed trace step that fails, a
configuration the counts suite drew that fails the suite's own check, or a
Mathieu minimal degree that misses its pinned value).  JSON reports are canonical: for a
fixed group, suite, seed and version they are byte-identical across runs and
across --jobs settings (the elapsed_ms field is pinned to 0 for that reason;
wall-clock timing goes to stderr).

The minimal degree is always computed by the stabilizer-prefix backtrack;
``mindeg --method exhaustive`` runs the exhaustive scan, the reference
oracle, instead (``backtrack`` is the default).  ``--cap`` bounds
the number of elements in the two places that still enumerate them: the
conjugation-orbit closures of the ``double``, ``triple`` and ``quadruple``
traces, and ``mindeg --method exhaustive``.  It bounds element counts, not
memory or time, never selects an algorithm, and is accepted but unused by
``info``, ``verify``, ``table``, ``trace … jordan`` and ``mindeg`` without
``--method exhaustive``; a value below 1 is a usage error.
``--jobs`` is accepted for compatibility and has no effect; a value below 1
is a usage error too.

``verify`` and ``fractions`` are imported inside the handlers that use them,
so ``info`` and ``mindeg`` load neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import catalog
from .groups import DEFAULT_CAP, CapExceeded, PermutationGroup
from .mindeg import minimal_degree, minimal_degree_exhaustive
from .perm import format_cycles

if TYPE_CHECKING:
    from fractions import Fraction

    from .verify import CountCheck

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_FAULT = 4


def resolve_group(spec: str) -> PermutationGroup:
    if spec.startswith("catalog:"):
        return catalog.parse_group_name(spec[len("catalog:"):])
    if spec.startswith("file:"):
        return catalog.load_generator_file(spec[len("file:"):])
    raise ValueError(f"group spec must start with 'catalog:' or 'file:', got {spec!r}")


def _fraction_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _check_json(check: CountCheck) -> dict:
    return {
        "label": check.label,
        "relation": check.relation,
        "observed": str(check.observed),
        "formula": _fraction_str(check.formula),
        "pass": check.passed,
    }


def _suite_json(name: str, checks, applicable: bool, details: dict | None = None) -> dict:
    suite = {
        "name": name,
        "checks": [_check_json(c) for c in checks],
        "applicable": applicable,
    }
    if details is not None:
        suite["details"] = details
    return suite


def _envelope(header: dict, m: int | None, suites: list[dict], seed: int) -> dict:
    """The canonical report: schema, the group header, m, suites, seed."""
    return {"schema": 1, **header, "m": m, "suites": suites, "seed": seed,
            "elapsed_ms": 0}


def _report_json(group: PermutationGroup, m: int | None, suites: list[dict],
                 seed: int) -> dict:
    return _envelope({
        "group": group.label,
        "n": group.degree,
        "order": str(group.order),
        "t": group.transitivity_degree(),
    }, m, suites, seed)


def _write_json(report: dict, path: str | None) -> None:
    if path:
        Path(path).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def _print_checks(checks) -> None:
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"  [{status}] {check.label}: {check.observed} {check.relation} "
              f"{_fraction_str(check.formula)}")


def _trace_details(report) -> dict:
    from fractions import Fraction

    derived = {}
    for key in sorted(report.derived):
        value = report.derived[key]
        derived[key] = _fraction_str(value) if isinstance(value, Fraction) else value
    return {
        "witnesses": dict(sorted(report.witnesses.items())),
        "sizes": dict(sorted(report.sizes.items())),
        "derived": derived,
        "degenerate": report.degenerate,
        "conclusion_holds": report.conclusion_holds,
    }


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument("--samples", type=_positive_int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="accepted (at least 1); has no effect")
    parser.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
                        help="element bound (at least 1) for trace orbit closures "
                             "and mindeg --method exhaustive; unused elsewhere")


def _maybe_minimal_degree(group: PermutationGroup):
    if group.order <= 1:
        return None
    return minimal_degree(group)


def _cmd_info(args) -> int:
    group = resolve_group(args.group)
    result = _maybe_minimal_degree(group)
    shown = f"{result.m} ({result.method})" if result else "undefined (trivial group)"
    print(f"group {group.label}: n={group.degree} order={group.order} "
          f"t={group.transitivity_degree()} m={shown}")
    report = _report_json(group, result.m if result else None, [], args.seed)
    _write_json(report, args.json)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import (all_pass, commutator_law_suite, count_identity_suite,
                         relation_balance_checks)

    group = resolve_group(args.group)
    suites = []
    ran = []

    def emit(name: str, checks, applicable: bool = True, details: dict | None = None):
        suites.append(_suite_json(name, checks, applicable, details))
        ran.extend(checks)
        print(f"suite {name} on {group.label}:")
        _print_checks(checks)

    if args.suite in ("laws", "all"):
        emit("laws", commutator_law_suite(group, args.samples, args.seed))
    if args.suite in ("counts", "all"):
        checks, inapplicable = count_identity_suite(group, args.samples, args.seed)
        emit("counts", checks, bool(checks), {"inapplicable_clauses": inapplicable})
        for clause in inapplicable:
            print(f"  [SKIP] {clause}: inapplicable at this transitivity degree")
        if group.transitivity_degree() >= 2:
            emit("pair-relation", relation_balance_checks(group))
        else:
            suites.append(_suite_json("pair-relation", [], False))
            print("suite pair-relation: inapplicable (needs a doubly transitive group)")
    result = _maybe_minimal_degree(group)
    report = _report_json(group, result.m if result else None, suites, args.seed)
    _write_json(report, args.json)
    return EXIT_OK if all_pass(ran) else EXIT_CHECK_FAILED


def _cmd_trace(args) -> int:
    from .verify import TRACES, all_pass

    group = resolve_group(args.group)
    builder = TRACES[args.theorem]
    # seed 0 is the deterministic trace; any other seed re-runs the
    # construction with random valid witness choices
    rng = random.Random(args.seed) if args.seed else None
    if args.theorem == "jordan":
        report = builder(group, rng=rng)
    else:
        report = builder(group, rng=rng, cap=args.cap)
    print(f"trace {report.name} on {report.group_label}: n={report.n} "
          f"t={report.t} m={report.m}")
    # an inapplicable trace has no checks, no conclusion and no degeneracy
    if not report.applicable:
        print("  inapplicable: hypotheses not met")
    if report.degenerate:
        print(f"  warning: construction degenerate: {report.degenerate}")
    _print_checks(report.checks)
    if report.conclusion_holds is not None:
        print(f"  conclusion holds: {report.conclusion_holds}")
    json_report = _report_json(group, report.m, [
        _suite_json(f"trace:{report.name}", report.checks, report.applicable,
                    _trace_details(report)),
    ], args.seed)
    _write_json(json_report, args.json)
    return EXIT_OK if all_pass(report.checks) else EXIT_CHECK_FAILED


def _cmd_mindeg(args) -> int:
    group = resolve_group(args.group)
    if args.method == "exhaustive":
        result = minimal_degree_exhaustive(group, args.cap)
    else:
        result = minimal_degree(group)
    print(f"group {group.label}: m={result.m} witness={format_cycles(result.witness)} "
          f"method={result.method} visited={result.elements_visited} "
          f"pruned={result.nodes_pruned}")
    report = _report_json(group, result.m, [
        _suite_json("mindeg", [], True, {
            "witness": format_cycles(result.witness),
            "method": result.method,
            "visited": result.elements_visited,
            "pruned": result.nodes_pruned,
        }),
    ], args.seed)
    _write_json(report, args.json)
    return EXIT_OK


def _cmd_table(args) -> int:
    from .verify import _ge, all_pass, mathieu_bound_table

    checks = []
    suites = []
    for row in mathieu_bound_table():
        print(f"{row.label}: n={row.n} t={row.t} m={row.m} bound={row.bound}")
        checks.append(_ge("minimal-degree-meets-bound", row.m, row.bound))
        suites.append(_suite_json(f"table:{row.label}", checks[-1:], True))
    header = {"group": "mathieu-table", "n": 0, "order": "0", "t": 0}
    _write_json(_envelope(header, None, suites, args.seed), args.json)
    return EXIT_OK if all_pass(checks) else EXIT_CHECK_FAILED


# help and usage text wrapped as on an 80-column terminal whatever the
# terminal's width (argparse reads COLUMNS otherwise), so that a usage
# error's bytes are fixed
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permdeg",
        description="minimal degree reports and exact counting verifiers "
                    "for permutation groups",
        formatter_class=_FORMATTER)
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, formatter_class=_FORMATTER)

    p_info = add_parser("info", help="degree, order, transitivity and minimal degree")
    p_info.add_argument("group")
    _add_common(p_info)

    p_verify = add_parser("verify", help="run a sampled check suite")
    p_verify.add_argument("group")
    p_verify.add_argument("suite", choices=("laws", "counts", "all"))
    _add_common(p_verify)

    p_trace = add_parser("trace", help="replay one bound trace")
    p_trace.add_argument("group")
    # spelled out so that parsing loads no verify; a test keeps the tuple
    # equal to sorted(verify.TRACES)
    p_trace.add_argument("theorem", choices=("double", "jordan", "quadruple", "triple"))
    _add_common(p_trace)

    p_mindeg = add_parser("mindeg", help="compute the minimal degree")
    p_mindeg.add_argument("group")
    p_mindeg.add_argument("--method", choices=("backtrack", "exhaustive"), default="backtrack",
                          help="backtrack (the default) or the exhaustive oracle")
    _add_common(p_mindeg)

    p_table = add_parser("table", help="Mathieu degree/bound table")
    _add_common(p_table)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args reads the parser without changing it, so one process
    # builds it once and every main call reuses it
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handlers = {
        "info": _cmd_info,
        "verify": _cmd_verify,
        "trace": _cmd_trace,
        "mindeg": _cmd_mindeg,
        "table": _cmd_table,
    }
    start = time.monotonic()
    try:
        code = handlers[args.command](args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except RuntimeError as exc:
        # after CapExceeded, which is a RuntimeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"elapsed: {int((time.monotonic() - start) * 1000)} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
