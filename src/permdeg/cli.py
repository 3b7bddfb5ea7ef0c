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

Every command's --json report and exit code come from ``main``: a handler
only computes and prints.  ``verify`` and ``fractions`` are imported inside
the handlers that use them, and ``main`` imports ``verify`` only for a report
that holds checks, so ``info`` and ``mindeg`` load neither.
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


def _suite_json(name: str, checks, applicable: bool, details: dict | None) -> dict:
    suite = {
        "name": name,
        "checks": [_check_json(c) for c in checks],
        "applicable": applicable,
    }
    if details is not None:
        suite["details"] = details
    return suite


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


# Each handler prints its report and returns (m, suites), each suite a
# (name, checks, applicable, details) record; main writes them and picks
# the exit code.


def _cmd_info(args, group: PermutationGroup):
    result = _maybe_minimal_degree(group)
    shown = f"{result.m} ({result.method})" if result else "undefined (trivial group)"
    print(f"group {group.label}: n={group.degree} order={group.order} "
          f"t={group.transitivity_degree()} m={shown}")
    return (result.m if result else None), []


def _cmd_verify(args, group: PermutationGroup):
    from .verify import commutator_law_suite, count_identity_suite, relation_balance_checks

    suites = []

    def emit(name: str, checks, applicable: bool = True, details: dict | None = None):
        suites.append((name, checks, applicable, details))
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
            suites.append(("pair-relation", [], False, None))
            print("suite pair-relation: inapplicable (needs a doubly transitive group)")
    result = _maybe_minimal_degree(group)
    return (result.m if result else None), suites


def _cmd_trace(args, group: PermutationGroup):
    from .verify import TRACES

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
    return report.m, [(f"trace:{report.name}", report.checks, report.applicable,
                       _trace_details(report))]


def _cmd_mindeg(args, group: PermutationGroup):
    if args.method == "exhaustive":
        result = minimal_degree_exhaustive(group, args.cap)
    else:
        result = minimal_degree(group)
    print(f"group {group.label}: m={result.m} witness={format_cycles(result.witness)} "
          f"method={result.method} visited={result.elements_visited} "
          f"pruned={result.nodes_pruned}")
    return result.m, [("mindeg", [], True, {
        "witness": format_cycles(result.witness),
        "method": result.method,
        "visited": result.elements_visited,
        "pruned": result.nodes_pruned,
    })]


def _cmd_table(args, group):
    from .verify import _ge, mathieu_bound_table

    suites = []
    for row in mathieu_bound_table():
        print(f"{row.label}: n={row.n} t={row.t} m={row.m} bound={row.bound}")
        suites.append((f"table:{row.label}",
                       [_ge("minimal-degree-meets-bound", row.m, row.bound)], True, None))
    return None, suites


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
    p_info.set_defaults(handler=_cmd_info)

    p_verify = add_parser("verify", help="run a sampled check suite")
    p_verify.add_argument("group")
    p_verify.add_argument("suite", choices=("laws", "counts", "all"))
    _add_common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_trace = add_parser("trace", help="replay one bound trace")
    p_trace.add_argument("group")
    # spelled out so that parsing loads no verify; a test keeps the tuple
    # equal to sorted(verify.TRACES)
    p_trace.add_argument("theorem", choices=("double", "jordan", "quadruple", "triple"))
    _add_common(p_trace)
    p_trace.set_defaults(handler=_cmd_trace)

    p_mindeg = add_parser("mindeg", help="compute the minimal degree")
    p_mindeg.add_argument("group")
    p_mindeg.add_argument("--method", choices=("backtrack", "exhaustive"), default="backtrack",
                          help="backtrack (the default) or the exhaustive oracle")
    _add_common(p_mindeg)
    p_mindeg.set_defaults(handler=_cmd_mindeg)

    p_table = add_parser("table", help="Mathieu degree/bound table")
    _add_common(p_table)
    p_table.set_defaults(handler=_cmd_table)
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
    start = time.monotonic()
    try:
        group = resolve_group(args.group) if "group" in args else None
        m, suites = args.handler(args, group)
        if args.json:
            # the canonical report: schema, the group header, m, suites, seed
            header = ({"group": "mathieu-table", "n": 0, "order": "0", "t": 0}
                      if group is None else
                      {"group": group.label, "n": group.degree, "order": str(group.order),
                       "t": group.transitivity_degree()})
            report = {"schema": 1, **header, "m": m,
                      "suites": [_suite_json(*suite) for suite in suites],
                      "seed": args.seed, "elapsed_ms": 0}
            Path(args.json).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
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
    # every command exits by the checks its report carries
    checks = [check for _, held, _, _ in suites for check in held]
    if checks:
        from .verify import all_pass

        if not all_pass(checks):
            return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
