"""Workload inputs and the facts their outputs are checked against.

Every workload is a list of CLI operations.  The seed only picks among
equivalent spellings of the same group, so the program does the same work
on every seed.  The checks never call into auslab: each fact is computed
here from its own arithmetic.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from math import gcd
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("scan", "dihedral_verdict", "scalar_verdict", "rings")


def import_cli():
    """auslab.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import auslab.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import auslab from {SRC}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: auslab was imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments (without --out), the report file it writes
    under --out, the checks on that report's payload, and what counts as the
    operation failing."""

    argv: tuple[str, ...]
    output: str
    check: Callable[[dict, str], list[str]]
    failed: Callable[[int, dict], bool]


def _nonzero_exit(rc: int, payload: dict) -> bool:
    return rc != 0


def _scan_disagrees_on_unknown(rc: int, payload: dict) -> bool:
    """Fails when the scan exits non-zero or marks an inconclusive row as a
    disagreement with the closed-form classifier."""
    return rc != 0 or any(
        row["verdict_empirical"] == "unknown" and row["agree"] in (False, "disagree")
        for row in payload["rows"]
    )


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _dihedral_spelling(n: int, rng: random.Random | None) -> str:
    """D_n as <rot(a), refl(j)> with gcd(a, n) = 1.  Only one-digit a and j
    are drawn, so every spelling has the same length and the payload bytes
    do not depend on the seed."""
    if rng is None:
        return "rot(1),refl(0)"
    a = rng.choice([a for a in range(1, 10) if gcd(a, n) == 1])
    j = rng.randrange(min(n, 10))
    terms = [f"rot({a})", f"refl({j})"]
    rng.shuffle(terms)
    return ",".join(terms)


def _scalar_spelling(n: int, m: int, rng: random.Random | None) -> str:
    """The cyclic group of uniform m-th roots, scalar(m; e,...; m-e,...) with
    e coprime to the prime m."""
    e = 1 if rng is None else rng.randrange(1, m)
    return f"scalar({m};{','.join([str(e)] * n)};{','.join([str(m - e)] * n)})"


def make_ops(workload: str, seed: int | None) -> list[Op]:
    """The operations of one pass; seed None gives the reference spelling."""
    rng = None if seed is None else random.Random(seed)
    if workload == "scan":
        return [
            Op(
                ("scan", "--n-list", "12", "--all-dihedral-subgroups", "--jobs", "1"),
                "scan.json",
                lambda p, out: check_scan(p, out, n=12, degree=4 * 12 + 4),
                _nonzero_exit,
            ),
            # Fails today: the boolean `agree` reads an inconclusive verdict
            # as a contradiction, and the scan exits 2.
            Op(
                ("scan", "--n-list", "3", "--all-dihedral-subgroups", "--degree", "4", "--jobs", "1"),
                "scan.json",
                lambda p, out: check_scan(p, out, n=3, degree=4),
                _scan_disagrees_on_unknown,
            ),
        ]
    if workload == "dihedral_verdict":
        return [
            Op(
                ("auslander", "--n", "16", "--group", _dihedral_spelling(16, rng), "--degree", "68"),
                "auslander_n16.json",
                lambda p, out: check_dihedral_verdict(p, n=16, degree=68),
                _nonzero_exit,
            )
        ]
    if workload == "scalar_verdict":
        return [
            Op(
                ("auslander", "--n", "5", "--group", _scalar_spelling(5, 7, rng)),
                "auslander_n5.json",
                lambda p, out: check_scalar_verdict(p, n=5, m=7),
                _nonzero_exit,
            )
        ]
    if workload == "rings":
        return [
            Op(
                ("invariants", "--n", "8", "--group", _dihedral_spelling(8, rng), "--degree", "32"),
                "invariants_n8.json",
                lambda p, out: check_dihedral_invariants(p, n=8, degree=32),
                _nonzero_exit,
            ),
            Op(
                ("hilbert", "--n", "4", "--degree", "18", "--matrix"),
                "hilbert_n4.json",
                lambda p, out: check_hilbert(p, n=4, degree=18),
                _nonzero_exit,
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def payload_sha256(envelope: dict) -> tuple[str, int]:
    """sha256 and length of the canonical payload serialization."""
    body = json.dumps(envelope["payload"], sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(body).hexdigest(), len(body)


# ---------------------------------------------------------------------------
# Facts
# ---------------------------------------------------------------------------


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def expected_subgroups(n: int) -> dict[str, tuple[int, bool]]:
    """label -> (order, contains every vertex-fixing reflection) for the
    subgroups <rho^d> and <rho^d, refl(j)> of D_n.  refl(j) fixes a vertex
    when 2i = j (mod n) is solvable."""
    fixing = {j for j in range(n) if any((2 * i - j) % n == 0 for i in range(n))}
    out = {}
    for d in divisors(n):
        out[f"cyclic({d})"] = (n // d, False)
    for d in divisors(n):
        for j in range(d):
            reflections = {k for k in range(n) if (k - j) % d == 0}
            out[f"dihedral({d},{j})"] = (2 * n // d, fixing <= reflections)
    return out


def _check_dims(dims: list[int], n: int, degree: int) -> list[str]:
    if len(dims) != degree + 1:
        return [f"{len(dims)} dims for cutoff {degree}"]
    return [f"dims[{d}] = {x} outside [0, {n * (d + 1)}]" for d, x in enumerate(dims) if not 0 <= x <= n * (d + 1)]


def _check_not_iso_tail(dims: list[int], n: int) -> list[str]:
    """Nonzero from degree 2n+1 on, and bounded: the last n entries do not
    exceed the maximum seen before them.  Needs a cutoff of at least 3n+1."""
    degree = len(dims) - 1
    if degree < 3 * n + 1:
        return []
    problems = [f"dims[{d}] = 0 in a not_iso tail" for d in range(2 * n + 1, degree + 1) if not dims[d]]
    if max(dims[degree - n + 1 :]) > max(dims[2 * n + 1 : degree - n + 1]):
        problems.append("not_iso tail still growing")
    return problems


def check_scan(payload: dict, out_dir: str, n: int, degree: int) -> list[str]:
    expected = expected_subgroups(n)
    rows = payload["rows"]
    problems = []
    if len(rows) != len(divisors(n)) + sum(divisors(n)):
        problems.append(f"{len(rows)} rows, expected tau(n)+sigma(n) = {len(divisors(n)) + sum(divisors(n))}")
    if sorted(r["subgroup_descriptor"] for r in rows) != sorted(expected):
        problems.append("subgroup descriptors differ from the subgroups of D_n")
    for row in rows:
        label = row["subgroup_descriptor"]
        if label not in expected or row["n"] != n:
            continue
        order, contains_all = expected[label]
        verdict = "not_iso" if contains_all else "iso"
        where = f"n={n} {label}"
        if row["order"] != order:
            problems.append(f"{where}: order {row['order']}, expected {order}")
        if row["contains_all_vertex_fixing_reflections"] != contains_all:
            problems.append(f"{where}: wrong vertex-fixing reflection flag")
        if row["verdict_classifier"] != verdict:
            problems.append(f"{where}: classifier says {row['verdict_classifier']}, expected {verdict}")
        dims = row["identity_component_dims"]
        problems += [f"{where}: {p}" for p in _check_dims(dims, n, degree)]
        if row["verdict_empirical"] == "unknown":
            continue
        if row["verdict_empirical"] != verdict:
            problems.append(f"{where}: verdict {row['verdict_empirical']}, expected {verdict}")
        if verdict == "iso" and any(dims[2 * n + 1 :]):
            problems.append(f"{where}: iso but dims nonzero from degree {2 * n + 1}")
        if verdict == "not_iso":
            problems += [f"{where}: {p}" for p in _check_not_iso_tail(dims, n)]
            if row["pertinency"] != 1:
                problems.append(f"{where}: pertinency {row['pertinency']}, expected 1")
    with open(os.path.join(out_dir, "scan.csv"), newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    if [r["subgroup_descriptor"] for r in csv_rows] != [r["subgroup_descriptor"] for r in rows]:
        problems.append("scan.csv rows differ from scan.json rows")
    return problems


def check_dihedral_verdict(payload: dict, n: int, degree: int) -> list[str]:
    problems = _check_dims(payload["identity_component_dims"], n, degree)
    problems += _check_not_iso_tail(payload["identity_component_dims"], n)
    if payload["group_order"] != 2 * n:
        problems.append(f"group order {payload['group_order']}, expected {2 * n}")
    for key, want in (("verdict_empirical", "not_iso"), ("verdict_classifier", "not_iso"), ("pertinency", 1)):
        if payload[key] != want:
            problems.append(f"{key} = {payload[key]!r}, expected {want!r}")
    return problems


def check_scalar_verdict(payload: dict, n: int, m: int) -> list[str]:
    """A uniform primitive m-th root scales the pure path of length m by a
    primitive root, so the identity component vanishes from 4m-1 on."""
    bound = 4 * m - 1
    degree = payload["degree"]
    dims = payload["identity_component_dims"]
    problems = _check_dims(dims, n, degree)
    if payload["group_order"] != m:
        problems.append(f"group order {payload['group_order']}, expected {m}")
    if payload["zero_tail_bound"] != bound:
        problems.append(f"zero-tail bound {payload['zero_tail_bound']}, expected {bound}")
    if payload["verdict_empirical"] != "iso":
        problems.append(f"verdict {payload['verdict_empirical']}, expected iso")
    if degree < bound or any(dims[bound:]):
        problems.append(f"dims not zero from degree {bound} to the cutoff {degree}")
    return problems


def check_dihedral_invariants(payload: dict, n: int, degree: int) -> list[str]:
    """The full dihedral invariant ring has Hilbert series 1/((1-t)(1-t^2))."""
    problems = []
    if payload["group_order"] != 2 * n:
        problems.append(f"group order {payload['group_order']}, expected {2 * n}")
    if payload["dims"] != [d // 2 + 1 for d in range(degree + 1)]:
        problems.append("invariant dims differ from floor(d/2)+1")
    return problems


def _cycle_adjacency(n: int) -> list[list[int]]:
    return [[(j == (i + 1) % n) + (j == (i - 1) % n) for j in range(n)] for i in range(n)]


def check_hilbert(payload: dict, n: int, degree: int) -> list[str]:
    """Totals n(d+1); matrices C_0 = I, C_1 = M, C_d = M C_{d-1} - C_{d-2}."""
    problems = []
    if payload["totals"] != [n * (d + 1) for d in range(degree + 1)]:
        problems.append("Hilbert totals differ from n(d+1)")
    m = _cycle_adjacency(n)
    expected = [[[int(i == j) for j in range(n)] for i in range(n)], m]
    while len(expected) <= degree:
        prev, prev2 = expected[-1], expected[-2]
        expected.append(
            [
                [sum(m[i][k] * prev[k][j] for k in range(n)) - prev2[i][j] for j in range(n)]
                for i in range(n)
            ]
        )
    if payload["matrices"] != expected:
        problems.append("matrix series breaks C_d = M C_{d-1} - C_{d-2}")
    return problems
