from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import burnside_dims, orbit_walk
from test_symmetry import group_specs

from auslab.cli import build_group

from auslab.invariants import (
    ScalarGroupOrbitNotMonomialError,
    check_orbit_sum_relations,
    invariant_basis,
    orbit_monomials,
    orbit_of,
    orbit_sum,
    orbit_sums,
    reynolds,
    s_elements,
    series_coefficients,
    swap_matrix_series_coefficient,
    verify_free_module,
    verify_presentation_dihedral,
    verify_presentation_two_vertex,
    verify_shift_summand,
)
from auslab.linalg import FieldEchelon
from auslab.preproj import AlgebraElement, NFMonomial, nf_basis
from auslab.quiver import QuiverA
from auslab.symmetry import (
    CapExceededError,
    apply,
    build_subgroup,
    dihedral_group,
    generate_group,
    rotation,
    scalar_powers,
    subgroup_keys,
    w_subgroup,
)


def test_series_coefficients():
    # 1/((1-t)(1-t^2)) = 1 + t + 2t^2 + 2t^3 + 3t^4 + ...
    assert series_coefficients([1, 2], 6) == [1, 1, 2, 2, 3, 3, 4]
    assert series_coefficients([1, 2], 4, numerator=2) == [2, 2, 4, 4, 6]


def test_reynolds_fixes_invariants_and_projects():
    q = QuiverA(3)
    dn = dihedral_group(q)
    s1 = s_elements(q)[1]
    assert reynolds(dn, s1) == s1
    x = AlgebraElement.monomial(q, NFMonomial(0, 1, 0))
    avg = reynolds(dn, x)
    # orbit of alpha_0 is all of B_{1,0} with trivial stabilizer: each of the
    # six monomials shows up once across the six group elements
    assert avg == orbit_sum(q, 1, 0).scale(Fraction(1, 6))
    assert reynolds(dn, avg) == avg
    y = AlgebraElement.monomial(q, NFMonomial(0, 1, 1))
    # stabilizer of the out-and-back loop is {1, r}
    assert reynolds(dn, y) == orbit_sum(q, 1, 1).scale(Fraction(1, 3))
    for g in dn.elements:
        assert apply(g, avg) == avg


def test_orbit_examples():
    q = QuiverA(3)
    dn = dihedral_group(q)
    o = orbit_of(NFMonomial(0, 1, 0), dn)
    assert o == set(orbit_monomials(q, 1, 0)) and len(o) == 6
    o = orbit_of(NFMonomial(0, 1, 1), dn)
    assert o == set(orbit_monomials(q, 1, 1)) and len(o) == 3
    q4 = QuiverA(4)
    w4 = w_subgroup(q4)
    o = orbit_of(NFMonomial(0, 1, 0), w4)
    assert o == set(orbit_monomials(q4, 1, 0, parity=0)) and len(o) == 4


def test_orbits_partition_each_degree():
    q = QuiverA(5)
    dn = dihedral_group(q)
    for d in range(7):
        seen = []
        for k in range(d // 2 + 1):
            block = orbit_monomials(q, d - k, k)
            assert orbit_of(NFMonomial(2, d - k, k), dn) == set(block)
            seen += block
        assert sorted(seen) == sorted(nf_basis(q, d))


def test_scalar_orbits_are_refused():
    q = QuiverA(3)
    sigma = scalar_powers(q, 2, [1] * 3, [1] * 3)
    grp = generate_group([sigma])
    with pytest.raises(ScalarGroupOrbitNotMonomialError):
        orbit_of(NFMonomial(0, 1, 0), grp)
    # even-degree monomials are fixed, so their orbits are fine
    assert orbit_of(NFMonomial(0, 1, 1), grp) == {NFMonomial(0, 1, 1)}


def test_invariant_dims_dihedral():
    q = QuiverA(3)
    basis = invariant_basis(dihedral_group(q), 8)
    assert basis.dims == [1, 1, 2, 2, 3, 3, 4, 4, 5]


def test_invariant_dims_reflection_subgroup():
    q = QuiverA(4)
    basis = invariant_basis(w_subgroup(q), 8)
    assert basis.dims == [2, 2, 4, 4, 6, 6, 8, 8, 10]
    assert basis.matrix_dims(3) == [[0, 2], [2, 0]]
    for d in range(7):
        assert basis.matrix_dims(d) == swap_matrix_series_coefficient(d)


def _echelon_matrix_dims(group, d):
    """Parity-block ranks of the walked degree-d orbit sums, by elimination."""
    n = group.quiver.n
    index = {m: k for k, m in enumerate(nf_basis(group.quiver, d))}
    vectors = orbit_walk(group, d)
    out = [[0, 0], [0, 0]]
    for p in (0, 1):
        for t in (0, 1):
            ech = FieldEchelon()
            for v in vectors:
                row = {index[m]: c for m, c in v.terms.items() if m.source % 2 == p and m.target(n) % 2 == t}
                if row:
                    ech.insert(row)
            out[p][t] = ech.rank
    return out


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_matrix_dims_are_the_parity_block_ranks(n):
    # every parity-preserving subgroup of D_n: the counted block dimensions
    # are the ranks an elimination finds
    checked = 0
    for key in subgroup_keys(n):
        _, group = build_subgroup(n, *key)
        if any((vm[v] - v) % 2 for vm in group.vertex_maps for v in range(n)):
            continue
        basis = invariant_basis(group, 16)
        for d in range(17):
            assert basis.matrix_dims(d) == _echelon_matrix_dims(group, d), (n, key, d)
        checked += 1
    assert checked > 1


def test_invariant_dims_scalar_group():
    q = QuiverA(3)
    sigma = scalar_powers(q, 2, [1] * 3, [1] * 3)
    basis = invariant_basis(generate_group([sigma]), 6)
    assert basis.dims == [3 * (d + 1) if d % 2 == 0 else 0 for d in range(7)]


def test_every_basis_vector_is_fixed():
    q = QuiverA(4)
    for group in (dihedral_group(q), w_subgroup(q)):
        for d in range(6):
            for v in orbit_walk(group, d):
                for g in group.elements:
                    assert apply(g, v) == v


def test_specific_orbit_sum_products():
    q3 = QuiverA(3)
    assert orbit_sum(q3, 1, 0) * orbit_sum(q3, 1, 1) == orbit_sum(q3, 2, 1)
    q4 = QuiverA(4)
    # boundary case l = k+1: the diagonal orbit sum appears twice
    assert orbit_sum(q4, 1, 0) * orbit_sum(q4, 2, 1) == orbit_sum(q4, 3, 1) + orbit_sum(
        q4, 2, 2
    ).scale(Fraction(2))
    q5 = QuiverA(5)
    s0, s1, s2 = s_elements(q5)
    assert s1 * s1 - s2 - orbit_sum(q5, 1, 1).scale(Fraction(2)) == AlgebraElement.zero(q5)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_orbit_sum_relations_hold(n):
    report = check_orbit_sum_relations(n, 10)
    failure = report.first_failure()
    assert report.all_hold, failure and f"{failure.name}: {failure.detail}"
    # D_n's 37 checks, and for n even W's 134: both vertices' own 37, and
    # u_p O(l,k)^p = 0 for each of the 30 degree shifts at each vertex
    assert len(report.checks) == (37 if n % 2 else 37 + 2 * 37 + 2 * 30)


def test_presentation_dihedral():
    rep = verify_presentation_dihedral(3, 10)
    assert rep.ok and rep.well_defined and rep.bijective_through == 10
    assert rep.dims_match_series


def test_presentation_two_vertex():
    rep = verify_presentation_two_vertex(4, 10)
    assert rep.ok and rep.well_defined and rep.bijective_through == 10
    with pytest.raises(ValueError):
        verify_presentation_two_vertex(3, 4)


def test_free_module_dihedral():
    q = QuiverA(3)
    group = dihedral_group(q)
    checks = verify_free_module(q, [orbit_walk(group, d) for d in range(9)])
    assert len(checks) == 9 and all(c.ok for c in checks)
    # the degree-2 dimension count: 3*2 + 3*1 = 9 = dim R_2
    basis = invariant_basis(dihedral_group(q), 3)
    assert 3 * basis.dims[2] + 3 * basis.dims[1] == 9


def test_free_module_reflection_subgroup():
    q = QuiverA(4)
    group = w_subgroup(q)
    checks = verify_free_module(q, [orbit_walk(group, d) for d in range(9)])
    assert len(checks) == 9 and all(c.ok for c in checks)


def test_checks_report_the_ranks_where_they_fail():
    # R is not free on {e_i, alpha_i} over the invariants of the rotations,
    # and s1, s2 do not span them: the failures carry the ranks found
    q = QuiverA(4)
    rotations = generate_group([rotation(q, 1)])
    checks = verify_free_module(q, [orbit_walk(rotations, d) for d in range(3)])
    assert [c.ok for c in checks] == [True, False, False]
    assert checks[1].detail == "rank 8, direct-sum count 12, expected 8"
    rep = verify_presentation_dihedral(4, 2, invariant_basis(rotations, 2))
    assert not rep.ok and rep.bijective_through == 0
    assert rep.failures[0] == "degree 1: image rank 1, free dim 1, invariant dim 2, series 1"
    # the rotations by rho^2 alone have more invariants than W in each
    # parity block from degree 1 on, while W's relations still hold
    rep = verify_presentation_two_vertex(4, 3, invariant_basis(generate_group([rotation(q, 2)]), 3))
    assert rep.well_defined and rep.bijective_through == 0 and not rep.dims_match_series
    assert rep.failures == [
        "degree 1: invariant matrix dims [[0, 2], [2, 0]] != [[0, 1], [1, 0]]",
        "degree 1: image rank 2, quotient dim 2, invariant dim 4",
        "degree 2: invariant matrix dims [[3, 0], [0, 3]] != [[2, 0], [0, 2]]",
        "degree 2: image rank 4, quotient dim 4, invariant dim 6",
        "degree 3: invariant matrix dims [[0, 4], [4, 0]] != [[0, 2], [2, 0]]",
        "degree 3: image rank 4, quotient dim 4, invariant dim 8",
    ]


def test_shift_summand():
    for group in (dihedral_group(QuiverA(3)), w_subgroup(QuiverA(4))):
        checks = verify_shift_summand(group.quiver, [orbit_walk(group, d) for d in range(9)])
        assert len(checks) == 9 and all(c.ok for c in checks)
        assert checks[0].degree == 0


def test_shift_summand_fails_with_the_wrong_arrow(monkeypatch):
    # left multiplication by alpha_0, which leaves vertex 0 instead of
    # entering it, is not the shift of e_0 R^G: every degree fails
    q = QuiverA(4)
    group = dihedral_group(q)
    vectors = [orbit_walk(group, d) for d in range(5)]
    alpha_0 = AlgebraElement.monomial(q, NFMonomial(0, 1, 0))
    monkeypatch.setattr(AlgebraElement, "arrow", staticmethod(lambda q, i, starred=False: alpha_0))
    checks = verify_shift_summand(q, vectors)
    assert [c.ok for c in checks] == [False] * 5
    assert checks[2].detail == "alpha_3 v is not the shift of e_0 v for 2 of 2 basis vectors"


def test_presentation_two_vertex_n6():
    rep = verify_presentation_two_vertex(6, 8)
    assert rep.ok and rep.bijective_through == 8


@pytest.mark.parametrize(
    "verify",
    [verify_presentation_dihedral, verify_presentation_two_vertex],
    ids=["verify_presentation_dihedral", "verify_presentation_two_vertex"],
)
def test_presentation_checks_refuse_before_any_work(verify):
    # D_40 through degree 24 would take about 8 s
    with pytest.raises(MemoryError, match="presentation check at n = 40 through degree 24"):
        verify(40, 24)


def _reynolds_basis(group, d):
    """Reference: Reynolds images of the degree-d monomials, row-reduced."""
    q = group.quiver
    basis = nf_basis(q, d)
    index = {m: i for i, m in enumerate(basis)}
    ech = FieldEchelon()
    for m in basis:
        img = reynolds(group, AlgebraElement.monomial(q, m))
        if img.terms:
            ech.insert({index[x]: c for x, c in img.terms.items()})
    return [
        AlgebraElement(q, {basis[i]: c for i, c in ech.pivots[lead].items()})
        for lead in sorted(ech.pivots)
    ]


@pytest.mark.parametrize(
    "n, key",
    [
        pytest.param(n, key, id=f"n{n}-{key[0]}-{key[1]}-{key[2]}")
        for n in range(3, 9)
        for key in subgroup_keys(n)
    ],
)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(
    D=st.integers(0, 10),
    terms=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(-9, 9), st.integers(1, 9)),
        min_size=1,
        max_size=6,
    ),
)
@example(D=10, terms=[(0, 1, 1), (5, -3, 4)])
def test_orbit_sums_are_the_reynolds_basis(n, key, D, terms):
    _, group = build_subgroup(n, *key)
    assert not group.has_scalars
    q = group.quiver
    basis = invariant_basis(group, D)
    for d in range(D + 1):
        ref, walked = _reynolds_basis(group, d), orbit_walk(group, d)
        assert walked == ref and basis.dims[d] == len(ref)
        for got, want in zip(walked, ref):
            assert {m: type(c) for m, c in got.terms.items()} == {m: type(c) for m, c in want.terms.items()}
    mons = nf_basis(q, D)
    x = AlgebraElement(q, {mons[i % len(mons)]: Fraction(a, b) for i, a, b in terms})
    avg = reynolds(group, x)
    assert reynolds(group, avg) == avg


@settings(max_examples=40, deadline=None, derandomize=True)
@given(group_specs())
def test_twisted_orbit_sums_are_the_reynolds_basis(case):
    # groups with scalars: the twisted orbit sums are the normalized echelon
    # rows of the Reynolds images, vector for vector and by value
    n, spec = case
    try:
        group, _ = build_group(spec, n, cap=64)
    except CapExceededError:
        assume(False)
    walked = [orbit_walk(group, d) for d in range(5)]
    for d in range(5):
        assert walked[d] == _reynolds_basis(group, d)
    # one per orbit that Burnside's count counts
    assert invariant_basis(group, 4).dims == [len(v) for v in walked]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(group_specs())
@example((4, "refl(0),scalar(4;1,2,3,1;3,2,1,3)"))        # mixed, keeps parity
@example((4, "rot(2),refl(0),scalar(2;1,0,0,0;1,0,0,0)"))
def test_counted_dims_are_the_walked_orbit_sums(case):
    # groups with scalars: Burnside's count over T of the monomials with
    # trivial N-character gives as many basis vectors as the orbit walk
    # builds, and, where parity is kept, the parity blocks an elimination
    # finds
    n, spec = case
    try:
        group, _ = build_group(spec, n, cap=64)
    except CapExceededError:
        assume(False)
    basis = invariant_basis(group, 12)
    assert basis.dims == [len(orbit_walk(group, d)) for d in range(13)]
    # Burnside's sums are multiples of |T| before the division, by source
    # parity too where T keeps it
    t_order = len(group) // len(group.n_elements)
    assert all(sum(f) % t_order == 0 for f in basis.fixed)
    if n % 2 == 0 and all(g.rot % 2 == 0 for g in group.elements):
        for d in range(13):
            assert basis.fixed[d][0] % t_order == 0
            assert basis.matrix_dims(d) == _echelon_matrix_dims(group, d), d


def test_invariant_dims_are_burnsides_count():
    # every subgroup of D_n, n = 3..12: the count over T's fixed points is
    # Burnside's over all of G, monomial by monomial
    for n in range(3, 13):
        for key in subgroup_keys(n):
            _, group = build_subgroup(n, *key)
            assert invariant_basis(group, 40).dims == burnside_dims(group, 40), (n, key)


def test_twisted_orbit_sums_drop_orbits_with_a_scaling_stabilizer():
    # order 64: zeta_4 on alpha_0 and its conjugates under rho^2 and rho r
    # scale monomials their elements fix, so most orbits drop out
    group, _ = build_group("rot(2),refl(1),scalar(4;1,0,0,0;3,0,0,0)", 4)
    assert len(group) == 64 and len(group.n_elements) == 16
    for d in range(5):
        assert orbit_walk(group, d) == _reynolds_basis(group, d)
    assert invariant_basis(group, 4).dims == [1, 1, 1, 1, 1]
    # -1 on every arrow fixes each monomial and scales the odd-degree ones
    # by -1, so in degree 1 the rotation orbit {alpha_0, alpha_1, alpha_2}
    # and its star counterpart drop out
    group, _ = build_group("rot(1),scalar(2;1,1,1;1,1,1)", 3)
    assert orbit_walk(group, 1) == _reynolds_basis(group, 1) == []
    assert orbit_walk(group, 2) == _reynolds_basis(group, 2)
    assert sorted(len(v.terms) for v in orbit_walk(group, 2)) == [3, 3, 3]


def _orbit_sums_by_images(group, d):
    """Reference: the twisted orbit sums from `monomial_image`, the first
    element sending the least monomial to an image giving its coefficient."""
    q, rows, seen = group.quiver, [], set()
    for m in nf_basis(q, d):
        if m in seen:
            continue
        terms, fixed = {}, True
        for g in group.elements:
            c, img = g.monomial_image(m)
            fixed = terms.setdefault(img, c) == c and fixed
        seen.update(terms)
        if fixed:
            rows.append(AlgebraElement(q, terms))
    return rows


@pytest.mark.parametrize(
    "n, spec",
    [
        (5, "scalar(7;1,1,1,1,1;6,6,6,6,6)"),
        (6, "rot(2),scalar(6;1,2,3,4,5,0;5,4,3,2,1,0)"),
        (3, "rot(1),scalar(4;1,0,0;3,0,0)"),
    ],
)
def test_twisted_orbit_sums_past_the_wrap(n, spec):
    # at D = 2n + 3 the canonical words run around the cycle, which the
    # degree-4 comparisons above never reach for n >= 5; the coefficients
    # are those of the field values, type for type
    group, _ = build_group(spec, n)
    assert group.has_scalars
    D = 2 * n + 3
    for d in range(D + 1):
        ref, walked = _orbit_sums_by_images(group, d), orbit_walk(group, d)
        assert walked == ref == _reynolds_basis(group, d)
        for got, want in zip(walked, ref):
            assert [(m, type(c)) for m, c in got.terms.items()] == [(m, type(c)) for m, c in want.terms.items()]


def test_matrix_dims_need_even_n():
    # the target parity p + d holds only when n is even
    basis = invariant_basis(dihedral_group(QuiverA(5)), 2)
    with pytest.raises(ValueError, match="n even"):
        basis.matrix_dims(2)


def test_matrix_dims_need_parity_kept():
    # D_4's rotation by 1 moves every vertex to the other parity, so no
    # parity block is an invariant subspace
    basis = invariant_basis(dihedral_group(QuiverA(4)), 2)
    with pytest.raises(ValueError, match="every element of even rotation"):
        basis.matrix_dims(2)


def test_closed_form_orbit_sums_are_the_walked_ones():
    # the structure checks read the closed-form orbit sums of D_n and, over
    # both source parities, of W: the same vectors the walk builds
    for n in range(3, 13):
        q = QuiverA(n)
        cases = [(dihedral_group(q), (None,))] + ([(w_subgroup(q), (0, 1))] if n % 2 == 0 else [])
        for group, parities in cases:
            for d in range(13):
                closed, walked = orbit_sums(q, d, parities), orbit_walk(group, d)
                assert sorted(closed, key=_support) == sorted(walked, key=_support), (n, parities, d)


def _support(v):
    return sorted(v.terms)
