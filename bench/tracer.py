"""Spans and counters around permdeg's public functions, for the traced run.

``install`` rebinds the public functions of permdeg's six modules to
wrappers, in every module that binds the name (``cli`` binds
``minimal_degree`` and ``TRACES``, ``verify`` binds ``conjugation_closure``
and ``minimal_degree``), so the program itself is unchanged.  A span records
name, start, end, parent span and job id; spans stay in memory until
``dump`` writes them out.  Permutation arithmetic gets counters only: a span
per product would swamp the run.

Spans opened on a pool thread (``--jobs 2``) with nothing open on that thread
take the main thread's innermost open span as parent.  Self time is a span's
duration minus the part of it that its children's intervals cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import weakref
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.job = "setup"
        self.spans: list[tuple] = []   # (id, parent, name, start, end, job, thread)
        self.job_walls: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: list[Counter] = []
        self._chain_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._main = threading.get_ident()
        self._main_stack = self._state()[0]

    def _state(self) -> tuple[list[int], Counter]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], Counter())
            self._local.state = state
            with self._lock:
                self._counters.append(state[1])
        return state

    def counts(self) -> Counter:
        total = Counter()
        for c in self._counters:
            total.update(c)
        return total

    def span(self, name, fn, measure=None):
        """Wrap ``fn`` in a span; ``measure(counts, result, args)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, counts = tracer._state()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._main and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            job = tracer.job
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end, job,
                                     threading.get_ident()))
            if measure is not None:
                measure(counts, result, args)
            return result

        return wrapper

    def counter(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._state()[1][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path) -> None:
        payload = {"spans": self.spans, "counts": self.counts(),
                   "job_walls": self.job_walls}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _patch(modules, attr, wrapped) -> None:
    for module in modules:
        if hasattr(module, attr):
            setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Rebind permdeg's public functions to traced wrappers."""
    import permdeg
    from permdeg import catalog, cli, groups, mindeg, perm, verify

    P = perm.Permutation
    for attr, key in (("__init__", "perm.constructed"), ("__mul__", "perm.mul"),
                      ("inverse", "perm.inverse"), ("conjugate", "perm.conjugate"),
                      ("commutator", "perm.commutator")):
        setattr(P, attr, tracer.counter(key, getattr(P, attr)))

    def chain_shape(counts, chain, _args):
        counts["groups.build_chain.built"] += 1
        counts["groups.build_chain.levels"] += len(chain.levels)
        counts["groups.build_chain.strong_gens"] += len(chain.strong_gens)

    _patch((groups, permdeg), "build_chain",
           tracer.span("groups.build_chain", groups.build_chain, chain_shape))

    G = groups.PermutationGroup
    plain_chain = G.chain

    def chain(group, base_prefix=()):
        # a hit is a call that built no chain; distinct keys are the
        # (group, base prefix) pairs requested, each counted once
        counts = tracer._state()[1]
        built = counts["groups.build_chain.built"]
        result = plain_chain(group, base_prefix)
        counts["groups.chain.calls"] += 1
        if counts["groups.build_chain.built"] == built:
            counts["groups.chain.hits"] += 1
        key = tuple(base_prefix)
        with tracer._lock:
            keys = tracer._chain_keys.setdefault(group, set())
            fresh = key not in keys
            keys.add(key)
        if fresh:
            counts["groups.chain.distinct_keys"] += 1
        return result

    G.chain = chain

    for method in ("pointwise_stabilizer", "transporter", "transitivity_degree",
                   "contains", "random_element"):
        setattr(G, method, tracer.span(f"groups.{method}", getattr(G, method)))

    plain_elements = G.elements

    def elements(group):
        counts = tracer._state()[1]
        for g in plain_elements(group):
            counts["groups.elements.yielded"] += 1
            yield g

    G.elements = elements

    def closure_size(counts, orbit, args):
        gens = args[0]
        counts["groups.conjugation_closure.elements"] += len(orbit)
        counts["groups.conjugation_closure.new"] += len(orbit) - 1
        counts["groups.conjugation_closure.tried"] += len(orbit) * len(gens)

    _patch((groups, verify, permdeg), "conjugation_closure",
           tracer.span("groups.conjugation_closure", groups.conjugation_closure,
                       closure_size))

    def search_size(counts, result, _args):
        counts["mindeg.backtrack.nodes"] += getattr(result, "elements_visited", 0)
        counts["mindeg.backtrack.pruned"] += getattr(result, "nodes_pruned", 0)

    def scan_size(counts, result, _args):
        counts["mindeg.exhaustive.visited"] += getattr(result, "elements_visited", 0)

    _patch((mindeg, permdeg), "minimal_degree_backtrack",
           tracer.span("mindeg.backtrack", mindeg.minimal_degree_backtrack, search_size))
    _patch((mindeg, permdeg), "minimal_degree_exhaustive",
           tracer.span("mindeg.exhaustive", mindeg.minimal_degree_exhaustive, scan_size))
    _patch((mindeg, cli, verify, permdeg), "minimal_degree",
           tracer.span("mindeg.minimal_degree", mindeg.minimal_degree))

    for name in ("commutator_law_suite", "count_identity_suite",
                 "conjugate_orbit_count_checks", "relation_balance_checks",
                 "mathieu_bound_table"):
        _patch((verify, cli), name, tracer.span(f"verify.{name}", getattr(verify, name)))
    for theorem, fn in list(verify.TRACES.items()):
        wrapped = tracer.span(f"verify.trace.{theorem}", fn)
        verify.TRACES[theorem] = wrapped   # the dict cli binds as TRACES
        _patch((verify,), fn.__name__, wrapped)

    for family, fn in list(catalog._BUILDERS.items()):
        wrapped = tracer.span("catalog.build", fn)
        catalog._BUILDERS[family] = wrapped
        _patch((catalog,), fn.__name__, wrapped)
    catalog.load_generator_file = tracer.span("catalog.load_generator_file",
                                              catalog.load_generator_file)
    cli.main = tracer.span("cli.main", cli.main)


# ---------------------------------------------------------------------------
# aggregation


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def aggregate(payloads: list[dict]) -> dict:
    """Per-layer totals over the spans and counts of one or more processes."""
    out: dict = defaultdict(float)
    cover_self = cover_wall = 0.0
    for payload in payloads:
        for key, value in payload["counts"].items():
            out[key] += value
        spans = {s[0]: s for s in payload["spans"]}
        children = defaultdict(list)
        for s in spans.values():
            if s[1] is not None:
                children[s[1]].append(s)
        self_time = {}
        for sid, (_, _, name, start, end, _, _) in spans.items():
            self_time[sid] = (end - start) - _covered(
                start, end, [(c[3], c[4]) for c in children[sid]])
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_time[sid]
            out[f"{name}.total_s"] += end - start

        def ancestors(span):
            while span[1] is not None and span[1] in spans:
                span = spans[span[1]]
                yield span

        searched = set()
        for s in spans.values():
            names = {a[2]: a for a in ancestors(s)}
            if s[2] == "groups.build_chain" and "mindeg.backtrack" in names:
                out["mindeg.backtrack.chain_builds"] += 1
                out["backtrack.chain_s"] += s[4] - s[3]
            if s[2] in ("mindeg.backtrack", "mindeg.exhaustive") \
                    and "mindeg.minimal_degree" in names:
                searched.add(names["mindeg.minimal_degree"][0])
            if "verify.count_identity_suite" in names:
                if s[2] == "verify.conjugate_orbit_count_checks":
                    out["verify.count_identity_suite.draws"] += 1
                elif s[2] == "groups.conjugation_closure":
                    out["suite.closure_s"] += s[4] - s[3]
        out["mindeg.minimal_degree.misses"] += len(searched)

        by_job = defaultdict(list)
        for s in spans.values():
            by_job[s[5]].append(s)
        for job, wall in payload["job_walls"].items():
            members = by_job.get(job, [])
            if len({s[6] for s in members}) == 1:   # single-threaded jobs only
                cover_self += sum(self_time[s[0]] for s in members)
                cover_wall += wall

    def ratio(num, den):
        return num / den if den else 0.0

    out["groups.chain.hit_ratio"] = ratio(out["groups.chain.hits"], out["groups.chain.calls"])
    out["groups.conjugation_closure.useful_ratio"] = ratio(
        out["groups.conjugation_closure.new"], out["groups.conjugation_closure.tried"])
    out["mindeg.backtrack.chain_share"] = ratio(out["backtrack.chain_s"],
                                                out["mindeg.backtrack.total_s"])
    out["mindeg.minimal_degree.cache_hit_ratio"] = ratio(
        out["mindeg.minimal_degree.calls"] - out["mindeg.minimal_degree.misses"],
        out["mindeg.minimal_degree.calls"])
    out["verify.count_identity_suite.closure_share"] = ratio(
        out["suite.closure_s"], out["verify.count_identity_suite.total_s"])
    out["trace.coverage"] = ratio(cover_self, cover_wall)
    return out
