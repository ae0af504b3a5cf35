"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -v -s`).

1. structure/oracle equivalence (exact, runtime <= 2 min)
2. matrix Hilbert recurrence + inverse-square discrepancy flag
3. invariant Hilbert series (exact, zero tolerance)
4. orbit-sum relation suite (exact)
5. main-theorem scan, every subgroup of D_n for n = 3..6 (<= 15 min)
6. pertinency 1 for the full dihedral and vertex-reflection groups
7. scalar-action cases with cutoff 4mn+2
8. presentations through degree 16; module structure through degree 12
9. determinism: byte-identical scan payloads
"""

import json
import time

from auslab.cli import canonical_payload_bytes, main
from auslab.invariants import (
    check_orbit_sum_relations,
    invariant_basis,
    series_coefficients,
    swap_matrix_series_coefficient,
    verify_free_module,
    verify_presentation_dihedral,
    verify_presentation_two_vertex,
    verify_shift_summand,
)
from auslab.preproj import AlgebraElement, NFMonomial, RelationIdealOracle, hilbert, nf_basis
from auslab.quiver import QuiverA
from auslab.smash import SmashElement, auslander_verdict
from auslab.symmetry import (
    dihedral_group,
    enumerate_subgroups,
    generate_group,
    scalar_powers,
    w_subgroup,
)
from reference import adjacency_matrix, build_ideal, mat_mul, oracle_basis, orbit_walk

SCAN_NS = [3, 4, 5, 6]


def _report(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion} ({name}): {status}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_structure_oracle_equivalence():
    started = time.monotonic()
    for n in SCAN_NS:
        q = QuiverA(n)
        oracle = RelationIdealOracle(q)
        for d in range(13):
            sub = oracle_basis(oracle, d)
            assert sub.dimension == n * (d + 1), (n, d, sub.dimension)
            assert set(sub.basis_words) == {m.word(q) for m in nf_basis(q, d)}, (n, d)
        # closed-form products against oracle reduction, total degree <= 8
        for a in range(9):
            for b in range(9 - a):
                for m1 in nf_basis(q, a):
                    t1 = m1.target(n)
                    w1 = m1.word(q)
                    for m2 in nf_basis(q, b):
                        if m2.source != t1:
                            continue
                        w = q.compose(w1, m2.word(q))
                        closed = NFMonomial(
                            m1.source, m1.nonstars + m2.nonstars, m1.stars + m2.stars
                        )
                        assert oracle.class_minimum(w) == closed.word(q), (n, m1, m2)
    elapsed = time.monotonic() - started
    _report(1, "structure/oracle equivalence", elapsed <= 120, f"{elapsed:.1f}s")


def test_criterion_2_matrix_recurrence_and_flag():
    for n in SCAN_NS:
        q = QuiverA(n)
        rep = hilbert(q, 12)
        m = adjacency_matrix(q)
        for d in range(2, 13):
            lhs = rep.matrices[d]
            rhs = [
                [x - y for x, y in zip(row_m, row_p)]
                for row_m, row_p in zip(mat_mul(m, rep.matrices[d - 1]), rep.matrices[d - 2])
            ]
            assert lhs == rhs, (n, d)
        assert rep.recurrence_holds
        # the discrepancy with (I - M t)^-2 is flagged, not fatal
        assert rep.matches_inverse_square_series is False
        assert "(I - M*t)^-2" in rep.note()
    _report(2, "matrix Hilbert recurrence", True)


def test_criterion_3_invariant_hilbert_series():
    expected_dn = series_coefficients([1, 2], 20)
    for n in SCAN_NS:
        basis = invariant_basis(dihedral_group(QuiverA(n)), 20)
        assert basis.dims == expected_dn, n
    expected_wn = series_coefficients([1, 2], 20, numerator=2)
    for n in (4, 6):
        basis = invariant_basis(w_subgroup(QuiverA(n)), 20)
        assert basis.dims == expected_wn, n
        for d in range(21):
            assert basis.matrix_dims(d) == swap_matrix_series_coefficient(d), (n, d)
    _report(3, "invariant Hilbert series", True)


def test_criterion_4_relation_suite():
    for n in SCAN_NS:
        report = check_orbit_sum_relations(n, 12)
        failure = report.first_failure()
        assert report.all_hold, f"n={n}: {failure.name}: {failure.detail}"
    _report(4, "orbit-sum relation suite", True, "total degree <= 12, n in 3..6")


def test_criterion_5_main_theorem_scan(scan_run):
    assert scan_run["exit_code"] == 0
    rows = scan_run["envelope"]["payload"]["rows"]
    assert len(rows) == sum(len(enumerate_subgroups(n)) for n in SCAN_NS)
    for row in rows:
        n = row["n"]
        assert row["degree"] == 4 * n + 4
        # empirical verdict: zero tail behind 2n+1
        tail = row["identity_component_dims"][2 * n + 1 :]
        empirically_finite = not any(tail)
        assert (row["verdict_empirical"] == "iso") == empirically_finite, row
        assert row["verdict_empirical"] == row["verdict_classifier"], row
        assert row["agree"] is True, row
        assert (row["verdict_empirical"] == "not_iso") == row[
            "contains_all_vertex_fixing_reflections"
        ], row
    not_iso = sorted(
        (r["n"], r["subgroup_descriptor"]) for r in rows if r["verdict_empirical"] == "not_iso"
    )
    assert not_iso == [
        (3, "dihedral(1,0)"),
        (4, "dihedral(1,0)"),
        (4, "dihedral(2,0)"),
        (5, "dihedral(1,0)"),
        (6, "dihedral(1,0)"),
        (6, "dihedral(2,0)"),
    ]
    _report(
        5,
        "main theorem scan",
        scan_run["elapsed"] <= 900,
        f"{len(rows)} subgroups in {scan_run['elapsed']:.1f}s",
    )


def _scan_row(scan_run, n, label):
    for row in scan_run["envelope"]["payload"]["rows"]:
        if row["n"] == n and row["subgroup_descriptor"] == label:
            return row
    raise KeyError((n, label))


def test_criterion_6_pertinency_one(scan_run):
    cases = [(n, "dihedral(1,0)") for n in (3, 4, 5)] + [
        (n, "dihedral(2,0)") for n in (4, 6)
    ]
    for n, label in cases:
        row = _scan_row(scan_run, n, label)
        dims = row["identity_component_dims"]
        beyond = dims[2 * n + 2 :]
        assert any(beyond), (n, label, "expected nonzero dims beyond 2n+1")
        assert row["growth_kind"] == "gk1", (n, label)
        assert row["pertinency"] == 1, (n, label)
        # membership certificate: circuit minus reversed circuit lies in (f_G)
        q = QuiverA(n)
        group = dihedral_group(q) if label == "dihedral(1,0)" else w_subgroup(q)
        trunc = build_ideal(group, n)
        p = AlgebraElement.monomial(q, NFMonomial(0, n, 0))
        qq = AlgebraElement.monomial(q, NFMonomial(0, 0, n))
        assert trunc.contains(SmashElement.from_algebra(group, p - qq)), (n, label)
        assert not trunc.contains(SmashElement.from_algebra(group, p)), (n, label)
    _report(6, "pertinency one for maximal reflection groups", True)


def _scalar_group(n, m, exps, star_exps):
    return generate_group([scalar_powers(QuiverA(n), m, exps, star_exps)])


def test_criterion_7_scalar_actions():
    cases = [
        # all xi = -1 (order 2), pure paths of length 2
        ("uniform m=2", 3, 2, [1, 1, 1], [1, 1, 1], 2),
        # all xi = zeta_4 with stars inverse, pure paths of length 4
        ("uniform m=4", 3, 4, [1, 1, 1], [3, 3, 3], 4),
        # xi = (1, 1, -1): the circuit is scaled by a primitive 2nd root
        ("circuit m=2", 3, 2, [0, 0, 1], [0, 0, 1], 6),
    ]
    for name, n, m, exps, star_exps, pure_len in cases:
        group = _scalar_group(n, m, exps, star_exps)
        assert len(group) == m, name
        cutoff = 4 * m * n + 2
        report = auslander_verdict(n, group, cutoff)
        assert report.verdict == "iso", (name, report.verdict)
        assert report.verdict_basis == "theorem_bound", name
        assert report.growth.kind == "finite_dim", name
        assert 0 <= report.first_zero <= cutoff, name
        # product certificates: the pure nonstar and pure star paths whose
        # scalar orbit multiplies to a full primitive root
        q = QuiverA(n)
        trunc = build_ideal(group, pure_len)
        nonstar = SmashElement.from_algebra(
            group, AlgebraElement.monomial(q, NFMonomial(0, pure_len, 0))
        )
        star = SmashElement.from_algebra(
            group, AlgebraElement.monomial(q, NFMonomial(0, 0, pure_len))
        )
        assert trunc.contains(nonstar), name
        assert trunc.contains(star), name
    _report(7, "scalar-action cases", True, "cutoff 4mn+2")


def test_criterion_8_presentations_and_freeness():
    for n in (3, 4):
        rep = verify_presentation_dihedral(n, 16)
        assert rep.well_defined and rep.dims_match_series, n
        assert rep.bijective_through == 16, (n, rep.failures)
    rep = verify_presentation_two_vertex(4, 16)
    assert rep.well_defined and rep.dims_match_series
    assert rep.bijective_through == 16, rep.failures

    for group in (dihedral_group(QuiverA(3)), w_subgroup(QuiverA(4))):
        vectors = [orbit_walk(group, d) for d in range(13)]
        free = verify_free_module(group.quiver, vectors)
        assert all(c.ok for c in free), [c.detail for c in free if not c.ok]
        shift = verify_shift_summand(group.quiver, vectors)
        assert all(c.ok for c in shift), [c.detail for c in shift if not c.ok]
    _report(8, "presentations and freeness", True, "degree 16 / 12")


def test_criterion_9_scan_determinism(scan_run, tmp_path):
    code = main(
        ["scan", "--n-list", "3,4,5,6", "--all-dihedral-subgroups", "--out", str(tmp_path)]
    )
    assert code == 0
    second = json.loads((tmp_path / "scan.json").read_text())
    first_bytes = canonical_payload_bytes(scan_run["envelope"]["payload"])
    second_bytes = canonical_payload_bytes(second["payload"])
    assert first_bytes == second_bytes
    # the CSV is byte-identical as well
    assert (tmp_path / "scan.csv").read_text() == scan_run["csv"]
    _report(9, "scan determinism", True, f"{len(first_bytes)} payload bytes")
