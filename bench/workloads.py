"""Seeded inputs, job lists and the correctness gate for the permdeg benchmark.

Nothing here imports permdeg: the generating sets, the relabelled ``.perm``
copies and every expected value are built or pinned independently of the
code under test, so a wrong answer from the program cannot be mistaken for
the expected one.

A job is a dict: ``argv`` (the permdeg command line without ``--json``),
``expect`` (the values its JSON report must carry) and, in the verify
session, ``pair`` (the index of the same command at the other ``--jobs``
value, whose report bytes must be identical).
"""

from __future__ import annotations

import random
from math import factorial
from pathlib import Path

# Mathieu generators in 1-based cycle notation (the standard fixtures).
MATHIEU = {
    11: ("(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)"),
    12: ("(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)",
         "(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)"),
    23: ("(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23)",
         "(3,17,10,7,9)(5,4,13,14,19)(11,12,23,8,18)(21,16,15,20,22)"),
    24: ("(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23)",
         "(3,17,10,7,9)(5,4,13,14,19)(11,12,23,8,18)(21,16,15,20,22)",
         "(1,24)(2,23)(3,12)(4,16)(5,18)(6,10)(7,20)(8,14)(9,21)(11,17)(13,22)(15,19)"),
}
# Known values for the Mathieu groups: (order, transitivity, minimal degree).
MATHIEU_KNOWN = {11: (7920, 4, 8), 12: (95040, 5, 8),
                 23: (10200960, 4, 16), 24: (244823040, 5, 16)}
# The Mathieu degree/bound table: label -> (n, t, m, bound).
TABLE = {"M11": (11, 4, 8, 6), "M12": (12, 5, 8, 6),
         "M23": (23, 4, 16, 10), "M24": (24, 5, 16, 11)}


def _cycles(text: str, n: int) -> list[int]:
    images = list(range(n))
    for chunk in text.strip("()").split(")("):
        pts = [int(x) - 1 for x in chunk.split(",")]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return images


def _cycle_of(points) -> str:
    return "(" + ",".join(str(p) for p in points) + ")"


def _mobius(q: int, a: int, b: int, c: int, d: int) -> list[int]:
    """x -> (ax + b)/(cx + d) on 0..q-1, with q standing for infinity."""
    images = []
    for x in range(q):
        den = (c * x + d) % q
        images.append(q if den == 0 else (a * x + b) * pow(den, -1, q) % q)
    images.append(q if c == 0 else a * pow(c, -1, q) % q)
    return images


def _primitive_root(q: int) -> int:
    return next(g for g in range(2, q)
                if len({pow(g, k, q) for k in range(1, q)}) == q - 1)


def group_data(name: str) -> tuple[list[list[int]], dict]:
    """Generators (0-based image lists) and the pinned n, order, t and m."""
    if name.startswith("M"):
        n = int(name[1:])
        order, t, m = MATHIEU_KNOWN[n]
        gens = [_cycles(c, n) for c in MATHIEU[n]]
    elif name.startswith("S"):
        n = int(name[1:])
        order, t, m = factorial(n), n, 2
        gens = [_cycles("(1,2)", n), _cycles(_cycle_of(range(1, n + 1)), n)]
    elif name.startswith("A"):
        n = int(name[1:])
        order, t, m = factorial(n) // 2, n - 2, 3
        long_cycle = range(1, n + 1) if n % 2 else range(2, n + 1)
        gens = [_cycles("(1,2,3)", n), _cycles(_cycle_of(long_cycle), n)]
    elif name.startswith(("PGL2_", "PSL2_")):
        q = int(name[5:])
        n = q + 1
        if name.startswith("PGL2_"):
            order, t, m = q * (q * q - 1), 4 if q == 3 else 3, q - 1
            gens = [_mobius(q, 1, 1, 0, 1), _mobius(q, _primitive_root(q), 0, 0, 1),
                    _mobius(q, 0, 1, 1, 0)]
        else:
            # PSL2_3 is A4 on 4 points, whose least support is a 3-cycle
            order, t, m = q * (q * q - 1) // 2, 2, 3 if q == 3 else q - 1
            gens = [_mobius(q, 1, 1, 0, 1), _mobius(q, 0, q - 1, 1, 0)]
    else:
        raise ValueError(f"no benchmark data for group {name!r}")
    return gens, {"n": n, "order": str(order), "t": t, "m": m}


def _format_cycles(images: list[int]) -> str:
    seen = set()
    out = []
    for a in range(len(images)):
        if a in seen or images[a] == a:
            continue
        cyc = [a]
        seen.add(a)
        b = images[a]
        while b != a:
            cyc.append(b)
            seen.add(b)
            b = images[b]
        out.append(_cycle_of(p + 1 for p in cyc))
    return "".join(out)


def write_relabelled(name: str, path: Path, rng: random.Random) -> None:
    """Write a ``.perm`` copy of a group under a random relabelling of its
    points, with one redundant generator (a product of two existing ones)
    inserted at a random position."""
    gens, info = group_data(name)
    n = info["n"]
    pi = list(range(n))
    rng.shuffle(pi)
    relabelled = []
    for g in gens:
        h = [0] * n
        for a in range(n):
            h[pi[a]] = pi[g[a]]
        relabelled.append(h)
    while True:
        i, j = rng.sample(range(len(relabelled)), 2)
        extra = [relabelled[j][relabelled[i][a]] for a in range(n)]
        if extra != list(range(n)):
            break
    relabelled.insert(rng.randint(0, len(relabelled)), extra)
    lines = [f"# {name} relabelled", f"degree {n}"]
    lines += [_format_cycles(g) for g in relabelled]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _group_expect(name: str) -> dict:
    return dict(group_data(name)[1])


# ---------------------------------------------------------------------------
# job lists.  Each workload repeats a fixed round of commands; the seed
# changes relabellings, sample and witness seeds and the order of jobs
# within a round, never how many jobs of each kind a round holds, so the
# work per run stays comparable across seeds.

# Most cold jobs are small (interpreter start, import, construction); the
# heavy ones (exhaustive scans, M24 chains, the table) fill the tail.  The
# projective groups use q = 13 so that no relabelling-sensitive job sits at
# the median, where it would move job_p50_ms from seed to seed.
COLD_INFO = ("M11", "M12", "M23", "M24", "S9", "PGL2_13", "PSL2_13", "PSL2_3")
COLD_MINDEG = ("M11", "M12", "M23", "M24", "S9", "A9", "PGL2_13", "PSL2_13")
COLD_JORDAN = ("M11", "M12", "M24", "PGL2_13", "PSL2_13")
COLD_FILES = sorted(set(COLD_INFO + COLD_MINDEG + COLD_JORDAN))

# One round of verify jobs.  Orbit sizes, and so the cost of a counts
# configuration (20 samples share one orbit), swing widely with the sampled
# element on S8 and M12, so those two get one configuration per round and
# the seed-steady groups carry most of the counts work.
VERIFY_CONFIGS = (
    ("counts", "S8", 20), ("counts", "M11", 200), ("counts", "M12", 20),
    ("counts", "PSL2_31", 400), ("counts", "PGL2_31", 400),
    ("laws", "S8", 1000), ("laws", "M11", 1000), ("laws", "M12", 1000),
    ("laws", "M23", 1000), ("laws", "M24", 1000),
    ("all", "M11", 200), ("all", "PSL2_31", 200),
)
TRACE_GROUPS = ("M12", "M23", "M24")
TRACE_THEOREMS = ("jordan", "double", "triple", "quadruple")

# Wall seconds of one round on the baseline commit (2 cores); a run holds
# round(seconds / ROUND_S) rounds, so the job count depends only on the
# --seconds argument and the percentile positions never move between runs.
ROUND_S = {"cli-cold": 13.0, "verify-session": 6.0, "trace-session": 1.8}


def session_groups(workload: str) -> list[str]:
    """Catalog groups a session builds and validates during set-up."""
    if workload == "verify-session":
        return sorted({g for _, g, _ in VERIFY_CONFIGS})
    return list(TRACE_GROUPS)


def _spec(name: str, use_file: bool, rnd: int, files: Path) -> str:
    return f"file:{files / f'{name}-r{rnd}.perm'}" if use_file else f"catalog:{name}"


def cold_jobs(rng: random.Random, rounds: int, files: Path) -> list[dict]:
    """Fresh-interpreter jobs; writes the relabelled copies they read.

    Whether a job reads ``catalog:NAME`` or the round's relabelled copy
    alternates by round and by position in its list, with ``info`` and
    ``mindeg`` on opposite parities, so two rounds are balanced between
    catalog and file inputs.
    """
    jobs = []
    for rnd in range(rounds):
        for name in COLD_FILES:
            write_relabelled(name, files / f"{name}-r{rnd}.perm", rng)
        batch = []
        for i, name in enumerate(COLD_INFO):
            batch.append({"argv": ["info", _spec(name, (rnd + i) % 2 == 1, rnd, files)],
                          "expect": {"kind": "info", **_group_expect(name)}})
        for i, name in enumerate(COLD_MINDEG):
            batch.append({"argv": ["mindeg", _spec(name, (rnd + i) % 2 == 0, rnd, files),
                                   "--method", "backtrack"],
                          "expect": {"kind": "mindeg", **_group_expect(name)}})
        for i, name in enumerate(COLD_JORDAN):
            batch.append({"argv": ["trace", _spec(name, (rnd + i) % 2 == 1, rnd, files),
                                   "jordan", "--seed", str(rng.randint(1, 10**6))],
                          "expect": {"kind": "trace", "applies": True,
                                     **_group_expect(name)}})
        batch.append({"argv": ["table"], "expect": {"kind": "table"}})
        rng.shuffle(batch)
        jobs.extend(batch)
    return jobs


def verify_jobs(rng: random.Random, rounds: int) -> list[dict]:
    """In-process verify jobs, each run at --jobs 1 and --jobs 2 back to back;
    which of the two goes first alternates, so warm chains favour neither."""
    jobs = []
    for _ in range(rounds):
        configs = list(VERIFY_CONFIGS)
        rng.shuffle(configs)
        for suite, name, samples in configs:
            argv = ["verify", f"catalog:{name}", suite, "--samples", str(samples),
                    "--seed", str(rng.randint(1, 10**6))]
            first, second = (1, 2) if len(jobs) % 4 == 0 else (2, 1)
            base = len(jobs)
            for k, workers in enumerate((first, second)):
                jobs.append({"argv": argv + ["--jobs", str(workers)],
                             "expect": {"kind": "verify", "suite": suite,
                                        **_group_expect(name)},
                             "pair": base + 1 - k})
    return jobs


def trace_jobs(rng: random.Random, rounds: int) -> list[dict]:
    """Every trace on every group; round k uses witness seed k (1..K).

    The workload seed only orders the groups within a round.  The traces of
    one group run in a fixed order: traces sharing a witness seed share
    chains, so shuffling them would move chain builds from job to job and
    the median job latency with them.
    """
    jobs = []
    for k in range(1, rounds + 1):
        names = list(TRACE_GROUPS)
        rng.shuffle(names)
        jobs.extend({"argv": ["trace", f"catalog:{name}", theorem, "--seed", str(k)],
                     "expect": {"kind": "trace", "applies": True, **_group_expect(name)}}
                    for name in names for theorem in TRACE_THEOREMS)
    return jobs


# ---------------------------------------------------------------------------
# correctness gate


def _checks_pass(suite: dict) -> bool:
    return all(c["pass"] or "informational" in c["label"] for c in suite["checks"])


def check_job(job: dict, code: int, report: dict | None) -> str | None:
    """Return why the job's result is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no JSON report"
    expect = job["expect"]
    kind = expect["kind"]
    if kind == "table":
        rows = {s["name"]: s for s in report["suites"]}
        if sorted(rows) != sorted(f"table:{k}" for k in TABLE):
            return f"table rows {sorted(rows)}"
        for label, (_, _, m, bound) in TABLE.items():
            check = rows[f"table:{label}"]["checks"][0]
            if (check["observed"], check["formula"], check["pass"]) != (str(m), str(bound), True):
                return f"table row {label}: {check}"
        return None
    for key in ("n", "order", "t", "m"):
        if report[key] != expect[key]:
            return f"{key} = {report[key]!r}, expected {expect[key]!r}"
    suites = report["suites"]
    if kind == "mindeg":
        witness = suites[0]["details"]["witness"]
        moved = sum(len(c.split(",")) for c in witness.strip("()").split(")("))
        if moved != expect["m"]:
            return f"witness {witness} moves {moved} points"
    if kind == "verify":
        names = [s["name"] for s in suites]
        want = {"laws": ["laws"], "counts": ["counts", "pair-relation"],
                "all": ["laws", "counts", "pair-relation"]}[expect["suite"]]
        if names != want:
            return f"suites {names}, expected {want}"
        for suite in suites:
            if not suite["applicable"] or not suite["checks"] or not _checks_pass(suite):
                return f"suite {suite['name']} failed"
    if kind == "trace":
        suite = suites[0]
        if not _checks_pass(suite):
            return "a trace check failed"
        if expect["applies"] and not (suite["applicable"]
                                      and suite["details"]["conclusion_holds"] is True):
            return "trace conclusion does not hold"
    return None
