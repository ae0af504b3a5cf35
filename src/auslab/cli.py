"""Command-line front end: group-spec parsing, one subcommand per
computation, scan orchestration over (n, subgroup) grids, and deterministic
JSON/CSV reports.

Reports are envelopes {schema_version, payload, meta}.  The payload is
fully determined by the inputs and serializes canonically (sorted keys,
exact values only); wall-clock timing and engine versions live in the meta
block so that byte-identical payloads witness reproducibility.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass
from math import gcd

from . import __version__
from .invariants import (
    check_basis_size,
    check_free_module_size,
    check_orbit_sum_relations,
    check_presentation_size,
    invariant_basis,
    keeps_parity,
    orbit_monomials,
    orbit_of,
    orbit_sums,
    reynolds,
    verify_free_module,
    verify_presentation,
    verify_shift_summand,
)
from .preproj import AlgebraElement, NFMonomial, RelationIdealOracle, check_matrix_entries, hilbert, nf_basis
from .quiver import QuiverA
from .smash import (
    NAIVE_ROW_LIMIT,
    IdealTruncation,
    SmashElement,
    auslander_verdict,
    check_ideal_cells,
    naive_ideal_dimension,
    naive_row_count,
)
from .symmetry import (
    Automorphism,
    CapExceededError,
    build_subgroup,
    classify_auslander,
    dihedral_group,
    generate_group,
    reflection,
    rotation,
    scalar_powers,
    subgroup_keys,
    subgroup_label,
    w_subgroup,
)

SCHEMA_VERSION = 1
ENV_DEFAULT_DEGREE = "AUSLAB_DEFAULT_DEGREE"


class GroupSpecError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# Group-spec surface syntax
# ---------------------------------------------------------------------------


@dataclass
class GroupSpec:
    """Parsed generator list: rot(a) | refl(j) | scalar(m; e...; e*...),
    with each term's character offset in the spec text."""

    terms: list[tuple]
    offsets: list[int]

    def canonical(self) -> str:
        def arg(x) -> str:
            return ",".join(map(str, x)) if isinstance(x, list) else str(x)

        return ",".join(f"{t[0]}({';'.join(map(arg, t[1:]))})" for t in self.terms)

    def elaborate(self, n: int) -> list[Automorphism]:
        q = QuiverA(n)
        gens = []
        for t, offset in zip(self.terms, self.offsets):
            if t[0] == "rot":
                gens.append(rotation(q, t[1] % n))
            elif t[0] == "refl":
                gens.append(reflection(q, t[1] % n))
            else:
                _, m, exps, star_exps = t
                if len(exps) != n or len(star_exps) != n:
                    raise GroupSpecError(
                        f"scalar term needs {n} exponents per list, got "
                        f"{len(exps)} and {len(star_exps)}",
                        offset,
                    )
                gens.append(scalar_powers(q, m, exps, star_exps))
        return gens


# A term: a name, then ( and ;-separated lists of ,-separated integers, with
# whitespace anywhere between tokens.  \d is a decimal digit, which int reads.
_INTS = r"\s*-?\d+\s*(?:,\s*-?\d+\s*)*"
_TERM = re.compile(rf"(\w+)\s*\(({_INTS}(?:;{_INTS})*)\)\s*")
_FORMS = "rot(a), refl(j) or scalar(m; e...; e*...)"


def parse_group(text: str) -> GroupSpec:
    terms, offsets, pos = [], [], 0
    while True:
        pos = len(text) - len(text[pos:].lstrip())
        match = _TERM.match(text, pos)
        if not match:
            raise GroupSpecError(f"expected {_FORMS}", pos)
        name, lists = match[1], [[int(x) for x in part.split(",")] for part in match[2].split(";")]
        if name in ("rot", "refl") and len(lists) == 1 == len(lists[0]):
            terms.append((name, lists[0][0]))
        elif name == "scalar" and len(lists) == 3 and len(lists[0]) == 1:
            if lists[0][0] < 1:
                raise GroupSpecError("scalar conductor must be >= 1 (roots of unity are nonzero)", pos)
            terms.append((name, lists[0][0], lists[1], lists[2]))
        elif name in ("rot", "refl", "scalar"):
            raise GroupSpecError(f"expected {_FORMS}", pos)
        else:
            raise GroupSpecError(f"unknown generator {name!r}", pos)
        offsets.append(pos)
        pos = match.end()
        if pos == len(text):
            return GroupSpec(terms, offsets)
        if text[pos] != ",":
            raise GroupSpecError("expected ',' between terms", pos)
        pos += 1


def build_group(spec_text: str, n: int, cap: int = 4096):
    spec = parse_group(spec_text)
    return generate_group(spec.elaborate(n), cap=cap), spec


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def canonical_payload_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def make_envelope(command: str, payload: dict, started: float) -> dict:
    body = canonical_payload_bytes(payload)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "payload": payload,
        "meta": {
            "engine": "auslab",
            "version": __version__,
            "python": sys.version.split()[0],
            "elapsed_seconds": round(time.monotonic() - started, 3),
            "payload_sha256": hashlib.sha256(body).hexdigest(),
        },
    }


def emit(envelope: dict, out_dir: str | None, filename: str) -> None:
    text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    if out_dir:
        with open(os.path.join(out_dir, filename), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _default_degree(args_degree: int | None, fallback: int | None, least: int = 0) -> int | None:
    """--degree, else $AUSLAB_DEFAULT_DEGREE, else the command's fallback;
    a given degree must be an integer >= 0, and at least `least`."""
    if args_degree is not None:
        source, text = "--degree", str(args_degree)
    else:
        source, text = ENV_DEFAULT_DEGREE, os.environ.get(ENV_DEFAULT_DEGREE, "").strip()
        if not text:
            return fallback
    if not text.isdecimal():
        raise ValueError(f"{source} must be an integer >= 0, got {text}")
    if int(text) < least:
        raise ValueError(
            f"{source} must be at least {least} for a verdict, "
            f"which compares two windows of degrees; got {text}"
        )
    return int(text)


def cmd_hilbert(args) -> int:
    started = time.monotonic()
    degree = _default_degree(args.degree, 12)
    report = hilbert(QuiverA(args.n), degree)
    payload = {
        "n": args.n,
        "degree": degree,
        "totals": report.totals,
        "recurrence_holds": report.recurrence_holds,
        "matches_inverse_square_series": report.matches_inverse_square_series,
        "note": report.note(),
    }
    if args.matrix:
        payload["matrices"] = report.matrices
    emit(make_envelope("hilbert", payload, started), args.out, f"hilbert_n{args.n}.json")
    return 0


def cmd_invariants(args) -> int:
    started = time.monotonic()
    degree = _default_degree(args.degree, 16)
    check_basis_size(args.n, degree)
    if args.check_presentation:
        check_presentation_size(args.n, degree)
    if args.check_free_module:
        check_free_module_size(args.n, min(degree, 12))
    group, spec = build_group(args.group, args.n)
    # A subgroup of D_n holding every vertex-fixing reflection holds the
    # subgroup W they generate: it is D_n at order 2n, or W at order n.  Both
    # checks read its orbit sums over each source parity: D_n's one, (None,),
    # or W's two, (0, 1).
    parities = None
    if not group.has_scalars and classify_auslander(args.n, group) == "not_iso":
        parities = {2 * args.n: (None,), args.n: (0, 1)}[len(group)]
    if (args.check_presentation or args.check_free_module) and not parities:
        print(
            "presentation and free-module checks exist for the full dihedral "
            "group and the vertex-reflection subgroup only",
            file=sys.stderr,
        )
        return 1
    basis = invariant_basis(group, degree)
    payload = {
        "n": args.n,
        "degree": degree,
        "group": spec.canonical(),
        "group_order": len(group),
        "dims": basis.dims,
    }
    if keeps_parity(group):
        payload["matrix_dims"] = [basis.matrix_dims(d) for d in range(degree + 1)]
    failures = []
    if args.check_presentation:
        pres = verify_presentation(parities, args.n, degree, basis)
        payload["presentation"] = asdict(pres)
        failures += pres.failures
        if not pres.ok:
            failures.append("presentation check failed")
    if args.check_free_module:
        # the checks read the closed-form orbit sums through degree 12 only
        q = group.quiver
        vectors = [orbit_sums(q, d, parities) for d in range(min(degree, 12) + 1)]
        free = verify_free_module(q, vectors)
        shift = verify_shift_summand(q, vectors)
        payload["free_module_ok_through"] = _ok_through(free)
        payload["shift_summand_ok_through"] = _ok_through(shift)
        failures += [c.detail for c in free + shift if not c.ok]
    emit(make_envelope("invariants", payload, started), args.out, f"invariants_n{args.n}.json")
    return 2 if failures else 0


def _ok_through(checks) -> int:
    through = -1
    for c in checks:
        if not c.ok:
            break
        through = c.degree
    return through


def cmd_auslander(args) -> int:
    started = time.monotonic()
    degree = _default_degree(args.degree, None, least=1)
    check_ideal_cells(args.n, 1 if degree is None else degree)     # before the O(n) group build
    group, spec = build_group(args.group, args.n)
    report = auslander_verdict(args.n, group, degree, label=spec.canonical())
    emit(
        make_envelope("auslander", report.payload(), started),
        args.out,
        f"auslander_n{args.n}.json",
    )
    return 0


SCAN_CSV_COLUMNS = [
    "n",
    "subgroup_descriptor",
    "order",
    "contains_all_vertex_fixing_reflections",
    "first_zero_degree",
    "growth_kind",
    "pertinency",
    "verdict_empirical",
    "verdict_classifier",
    "agree",
]


def _scan_job(job: tuple[int, str, int, int | None, int]) -> dict:
    n, kind, d, j, degree = job
    label, group = build_subgroup(n, kind, d, j)
    report = auslander_verdict(n, group, degree, label=label)
    return {
        "n": n,
        "subgroup_descriptor": label,
        "order": len(group),
        "contains_all_vertex_fixing_reflections": report.classifier == "not_iso",
        "degree": degree,
        "identity_component_dims": report.dims,
        "first_zero_degree": report.first_zero,
        "growth_kind": report.growth.kind,
        "pertinency": report.pertinency,
        "verdict_empirical": report.verdict,
        "verdict_classifier": report.classifier,
        "agree": report.classifier_agrees,
    }


def run_scan(n_list: list[int], degree: int | None, jobs: int = 1) -> dict:
    """Auslander verdicts for every subgroup of D_n over the grid; the
    cutoff defaults to 4n+4 per n.  One job runs per conjugacy class of
    subgroups, on its first member in grid order, and every member gets a
    copy of its row; at most one worker per core and per class is started.

    Conjugate subgroups have the same row.  For sigma in D_n and
    G' = sigma G sigma^-1, the map r#g -> sigma(r) # sigma g sigma^-1 is a
    graded algebra isomorphism R#G -> R#G':
    sigma(r1 g1(r2)) = sigma(r1) (sigma g1 sigma^-1)(sigma(r2)).  It sends
    f_G to f_G', so (f_G) onto (f_G'), and R_d#1 onto R_d#1, so the two
    identity series agree.  Conjugation permutes the vertex-fixing
    reflections, so G holds them all exactly when G' does, and the order,
    the classifier and everything read off the series agree too.

    The classes: <rho^d> is normal.  Conjugation by rho^k sends
    <rho^d, rho^j r> to <rho^d, rho^(j+2k) r>, and by r to
    <rho^d, rho^(-j) r>; as j is taken mod d and d | n, j + 2k runs over j
    mod gcd(2, d), which -j keeps.  So (kind, d, j) of `subgroup_keys(n)`
    has the class key (n, kind, d, j mod gcd(2, d))."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    grid = []
    for n in n_list:
        cutoff = degree if degree is not None else 4 * n + 4
        check_ideal_cells(n, cutoff)        # before the O(n) subgroup walk
        grid += [(n, kind, d, j, cutoff) for kind, d, j in subgroup_keys(n)]
    keys = [(n, kind, d, j if j is None else j % gcd(2, d)) for n, kind, d, j, _ in grid]
    classes: dict[tuple, tuple] = {}
    for key, job in zip(keys, grid):
        classes.setdefault(key, job)
    workers = min(jobs, os.cpu_count() or 1, len(classes))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            found = dict(zip(classes, pool.map(_scan_job, classes.values())))
    else:
        found = {key: _scan_job(job) for key, job in classes.items()}
    rows = [
        dict(
            found[key],
            subgroup_descriptor=subgroup_label(kind, d, j),
            identity_component_dims=list(found[key]["identity_component_dims"]),
        )
        for key, (_, kind, d, j, _) in zip(keys, grid)
    ]
    rows.sort(key=lambda r: (r["n"], r["subgroup_descriptor"]))
    return {
        "n_list": n_list,
        "degree_policy": degree if degree is not None else "4n+4",
        "rows": rows,
    }


def scan_csv_text(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SCAN_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in payload["rows"]:
        writer.writerow(
            {
                key: ("" if row.get(key) is None else row.get(key))
                for key in SCAN_CSV_COLUMNS
            }
        )
    return buf.getvalue()


def cmd_scan(args) -> int:
    started = time.monotonic()
    if not args.all_dihedral_subgroups:
        print("scan currently supports --all-dihedral-subgroups only", file=sys.stderr)
        return 1
    try:
        n_list = [int(x) for x in args.n_list.split(",")]
    except ValueError:
        n_list = []
    if not n_list or len(set(n_list)) != len(n_list):
        raise ValueError(
            f"--n-list must be distinct integers separated by commas, got {args.n_list!r}"
        )
    degree = _default_degree(args.degree, None, least=1)
    payload = run_scan(n_list, degree, jobs=args.jobs)
    envelope = make_envelope("scan", payload, started)
    emit(envelope, args.out, "scan.json")
    if args.out:
        with open(os.path.join(args.out, "scan.csv"), "w") as fh:
            fh.write(scan_csv_text(payload))
    disagreements = [r for r in payload["rows"] if r["agree"] is False]
    return 2 if disagreements else 0


# ---------------------------------------------------------------------------
# Verify suites
# ---------------------------------------------------------------------------


def suite_structure(n: int, degree: int) -> list[tuple[str, bool, str]]:
    """Closed-form engine against the relation-ideal oracle."""
    q = QuiverA(n)
    check_matrix_entries(n, min(degree, 10))       # the `hilbert` below, before the O(n) degree 0
    oracle = RelationIdealOracle(q)
    oracle.extend(degree)                 # refused up front over its label limit
    results = []
    dims_ok = all(oracle.dimension(d) == n * (d + 1) for d in range(degree + 1))
    results.append(("oracle dims equal n(d+1)", dims_ok, f"d <= {degree}"))
    # The canonical monomial (i, d - k, k), d - k nonstars then k stars,
    # has the code i 2^d + 2^k - 1; in source-major order these increase.
    basis_ok = all(
        oracle.minima(d) == [(i << d) + (1 << k) - 1 for i in range(n) for k in range(d + 1)]
        for d in range(degree + 1)
    )
    results.append(("canonical monomials are the oracle basis", basis_ok, ""))
    prod_ok = True
    rep = hilbert(q, min(degree, 10), oracle)
    for a in range(0, 5):
        for b in range(0, 5 - a):
            for m1 in nf_basis(q, a):
                for m2 in nf_basis(q, b):
                    if m2.source != m1.target(n):
                        continue
                    w = q.compose(m1.word(q), m2.word(q))
                    closed = NFMonomial(m1.source, m1.nonstars + m2.nonstars, m1.stars + m2.stars)
                    if oracle.class_minimum(w) != closed.word(q):
                        prod_ok = False
    results.append(("closed-form products match oracle reduction", prod_ok, "total degree <= 4"))
    results.append(
        ("matrix recurrence C_d = M C_{d-1} - C_{d-2}", rep.recurrence_holds, "")
    )
    return results


def suite_orbits(n: int, degree: int) -> list[tuple[str, bool, str]]:
    # The orbits cover the monomials a basis covers; for even n the parity
    # orbits of W are walked as well.
    check_basis_size(n, degree, walks=2 - n % 2)
    q = QuiverA(n)
    dn = dihedral_group(q)
    results = []
    ok = True
    for d in range(degree + 1):
        seen = set()
        for k in range(d // 2 + 1):
            block = set(orbit_monomials(q, d - k, k))
            if orbit_of(NFMonomial(0, d - k, k), dn) != block:
                ok = False
            seen |= block
        if seen != set(nf_basis(q, d)):
            ok = False
    results.append(("orbits partition each degree", ok, f"d <= {degree}"))
    if n % 2 == 0:
        wn = w_subgroup(q)
        ok = all(
            orbit_of(NFMonomial(p, d - k, k), wn)
            == set(orbit_monomials(q, d - k, k, parity=p))
            for d in range(degree + 1)
            for k in range(d // 2 + 1)
            for p in (0, 1)
        )
        results.append(("parity orbits match for the reflection subgroup", ok, ""))
    x = AlgebraElement.arrow(q, 0)
    avg = reynolds(dn, x)
    results.append(("reynolds is idempotent", reynolds(dn, avg) == avg, ""))
    return results


def suite_relations(n: int, degree: int) -> list[tuple[str, bool, str]]:
    report = check_orbit_sum_relations(n, degree)
    failure = report.first_failure()
    return [
        (
            f"orbit-sum relations through degree {degree}",
            report.all_hold,
            "" if report.all_hold else f"{failure.name}: {failure.detail}",
        )
    ]


def suite_smash(n: int, degree: int) -> list[tuple[str, bool, str]]:
    """The incremental ideal of D_n against the naive spanning set through
    degree min(degree, 4), refused up front when that set is too large."""
    q = QuiverA(n)
    small = min(degree, 4)
    rows = naive_row_count(n, 2 * n, small)
    if rows > NAIVE_ROW_LIMIT:
        fits = [d for d in range(small) if naive_row_count(n, 2 * n, d) <= NAIVE_ROW_LIMIT]
        raise MemoryError(
            f"the naive spanning set of D_{n} through degree {small} has {rows} rows, "
            f"over the limit of {NAIVE_ROW_LIMIT}; "
            + (f"the largest --degree that fits is {fits[-1]}" if fits else f"no --degree fits at n = {n}")
        )
    dn = dihedral_group(q)
    results = []
    trunc = IdealTruncation(dn)
    trunc.extend(small)
    naive_ok = all(
        trunc.ideal_dimension(d) == naive_ideal_dimension(dn, d) for d in range(small + 1)
    )
    results.append(("incremental ideal matches naive spanning set", naive_ok, f"d <= {small}"))
    f_g = SmashElement.group_sum(dn)
    p = AlgebraElement.monomial(q, NFMonomial(0, n, 0))
    qq = AlgebraElement.monomial(q, NFMonomial(0, 0, n))
    cert = SmashElement.from_algebra(dn, p - qq)
    trunc.extend(n)
    results.append(("circuit-difference certificate lies in the ideal", trunc.contains(cert), ""))
    fg_in = trunc.contains(f_g)
    results.append(("f_G lies in its own ideal", fg_in, ""))
    return results


SUITES = {
    "structure": suite_structure,
    "orbits": suite_orbits,
    "relations": suite_relations,
    "smash": suite_smash,
}


def cmd_verify(args) -> int:
    started = time.monotonic()
    degree = _default_degree(args.degree, 8)
    try:
        results = SUITES[args.suite](args.n, degree)
    except MemoryError as exc:
        raise MemoryError(f"verify --suite {args.suite}: {exc}") from exc
    payload = {
        "suite": args.suite,
        "n": args.n,
        "degree": degree,
        "checks": [{"name": n_, "ok": ok, "detail": detail} for n_, ok, detail in results],
    }
    emit(make_envelope("verify", payload, started), args.out, f"verify_{args.suite}_n{args.n}.json")
    for name, ok, detail in results:
        print(f"[{'ok' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""), file=sys.stderr)
    return 0 if all(ok for _, ok, _ in results) else 2


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


# Built once per process: a parser is a cycle of some 300 objects, which
# every call of `main` in one process (the tests, the benchmark) would
# otherwise leave to the cyclic garbage collector.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auslab",
        description="Exact computations with preprojective algebras of type "
        "A-tilde_n: Hilbert series, invariant rings, smash-product ideals and "
        "the Auslander-map verdict.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="dimension series of R from the relation-ideal oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--matrix", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("invariants", help="invariant ring dimensions and structure checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--check-presentation", action="store_true")
    p.add_argument("--check-free-module", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("auslander", help="decide the Auslander map for (R, G)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_auslander)

    p = sub.add_parser("scan", help="verdicts for every subgroup of D_n over a grid of n")
    p.add_argument("--n-list", required=True)
    p.add_argument("--all-dihedral-subgroups", action="store_true")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; report 1 and keep 0 for --help.
        return 0 if exc.code in (0, None) else 1
    try:
        if args.out:
            os.makedirs(args.out, exist_ok=True)        # a bad --out fails before any work
        return args.func(args)
    except GroupSpecError as exc:
        print(f"group spec error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, MemoryError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
