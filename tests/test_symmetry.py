import itertools
import random
from fractions import Fraction

import pytest

from auslab.preproj import AlgebraElement, NFMonomial, nf_basis, normal_form
from auslab.quiver import QuiverA
from auslab.scalars import get_context, make_root_of_unity
from auslab.symmetry import (
    CapExceededError,
    FiniteGroup,
    build_subgroup,
    NotAnAutomorphismError,
    ScalarGroupNotClassifiableError,
    apply,
    classify_auslander,
    dihedral_group,
    enumerate_subgroups,
    generate_group,
    identity_automorphism,
    reflection,
    rotation,
    scalar_automorphism,
    subgroup_keys,
    validate,
    vertex_fixing_reflections,
    w_subgroup,
)


def test_validate_rotation_and_reflection():
    q = QuiverA(4)
    v = validate(rotation(q, 1))
    assert v.kind == "star_preserving" and v.relation_scalar == 1
    v = validate(reflection(q, 0))
    assert v.kind == "star_inverting" and v.relation_scalar == -1


def test_validate_scalar_diag():
    q = QuiverA(3)
    minus = Fraction(-1)
    sigma = scalar_automorphism(q, [minus] * 3, [minus] * 3)
    v = validate(sigma)
    assert v.kind == "scalar_diag"
    assert v.omega == 1


def test_validate_rejects_inconsistent_scalars():
    q = QuiverA(3)
    bad = scalar_automorphism(q, [Fraction(-1), Fraction(1), Fraction(1)], [Fraction(1)] * 3)
    with pytest.raises(NotAnAutomorphismError):
        validate(bad)


def test_validate_accepts_constant_product_scalars():
    q = QuiverA(3)
    ctx = get_context(4)
    z = make_root_of_unity(ctx, 1)
    sigma = scalar_automorphism(q, [z, z * z, z], [z.inverse(), (z * z).inverse(), z.inverse()])
    v = validate(sigma)
    assert v.kind == "scalar_diag" and v.omega == 1


def test_group_law_sanity():
    for n in (3, 4, 5):
        q = QuiverA(n)
        rho, r = rotation(q, 1), reflection(q, 0)
        ident = identity_automorphism(q)
        # r rho r = rho^-1
        assert r * rho * r == rotation(q, n - 1)
        power = ident
        for k in range(1, n + 1):
            power = power * rho
        assert power == ident
        assert r * r == ident


def test_apply_examples():
    q = QuiverA(3)
    rho, r = rotation(q, 1), reflection(q, 0)
    a0 = AlgebraElement.monomial(q, NFMonomial(0, 1, 0))
    assert apply(rho, a0) == AlgebraElement.monomial(q, NFMonomial(1, 1, 0))
    assert apply(r, a0) == AlgebraElement.monomial(q, NFMonomial(0, 0, 1))
    q4 = QuiverA(4)
    x = AlgebraElement.monomial(q4, NFMonomial(1, 2, 1))
    assert apply(reflection(q4, 0), x) == AlgebraElement.monomial(q4, NFMonomial(3, 1, 2))


@pytest.mark.parametrize("n", [3, 4])
def test_closed_form_matches_wordwise_action(n):
    q = QuiverA(n)
    elements = list(dihedral_group(q))
    for d in range(9):
        for m in nf_basis(q, d):
            w = m.word(q)
            for g in elements:
                coeff, img = g.monomial_image(m)
                c2, img_word = g.word_image(w)
                assert coeff == c2 == 1
                assert normal_form(q, img_word) == img


def test_apply_is_an_algebra_map():
    q = QuiverA(4)
    rng = random.Random(5)
    mons = [m for d in range(4) for m in nf_basis(q, d)]
    group = list(dihedral_group(q))
    for _ in range(200):
        g = rng.choice(group)
        h = rng.choice(group)
        x = AlgebraElement.monomial(q, rng.choice(mons), Fraction(rng.randint(1, 5)))
        y = AlgebraElement.monomial(q, rng.choice(mons))
        assert apply(g, x * y) == apply(g, x) * apply(g, y)
        assert apply(g * h, x) == apply(g, apply(h, x))


def test_scalar_action_multiplies_coefficients():
    q = QuiverA(3)
    sigma = scalar_automorphism(q, [Fraction(-1)] * 3, [Fraction(-1)] * 3)
    x = AlgebraElement.monomial(q, NFMonomial(0, 1, 0))
    assert apply(sigma, x) == x.scale(Fraction(-1))
    y = AlgebraElement.monomial(q, NFMonomial(0, 1, 1))
    assert apply(sigma, y) == y


def test_generate_group_sizes():
    q = QuiverA(3)
    assert len(generate_group([rotation(q, 1)])) == 3
    assert len(dihedral_group(q)) == 6
    q4 = QuiverA(4)
    w4 = w_subgroup(q4)
    assert len(w4) == 4
    assert len(dihedral_group(q4)) == 2 * len(w4)


@pytest.mark.parametrize("n", [3, 5])
def test_odd_n_vertex_reflections_generate_everything(n):
    q = QuiverA(n)
    refls = vertex_fixing_reflections(q)
    assert len(refls) == n
    assert w_subgroup(q) == dihedral_group(q)


def test_vertex_fixing_parity_characterization():
    # computed from fixed points, asserted against the parity rule
    for n in (3, 4, 5, 6):
        q = QuiverA(n)
        fixing = {g.rot for g in vertex_fixing_reflections(q)}
        if n % 2:
            assert fixing == set(range(n))
        else:
            assert fixing == set(range(0, n, 2))


def test_cap_exceeded():
    q = QuiverA(5)
    with pytest.raises(CapExceededError):
        generate_group([rotation(q, 1), reflection(q, 0)], cap=4)


def test_enumerate_subgroups_counts():
    assert len(enumerate_subgroups(3)) == 6
    assert len(enumerate_subgroups(4)) == 10
    assert len(enumerate_subgroups(6)) == 16


@pytest.mark.parametrize("n", [3, 4])
def test_enumerate_subgroups_against_brute_force(n):
    """Independent oracle: close every subset of D_n, deduplicate."""
    q = QuiverA(n)
    elements = list(dihedral_group(q))
    found = set()
    for size in range(1, len(elements) + 1):
        for subset in itertools.combinations(elements, size):
            try:
                group = generate_group(list(subset), cap=2 * n, check=False)
            except CapExceededError:  # pragma: no cover - cannot happen in D_n
                continue
            found.add(group.element_key_set())
    enumerated = {g.element_key_set() for _, g in enumerate_subgroups(n)}
    assert enumerated == found


@pytest.mark.parametrize("n", range(3, 9))
def test_enumeration_is_the_per_key_builds(n):
    assert enumerate_subgroups(n) == [build_subgroup(n, *key) for key in subgroup_keys(n)]


@pytest.mark.parametrize("n", range(3, 9))
def test_dihedral_table_matches_composition(n):
    for _, group in enumerate_subgroups(n):
        assert not group.has_scalars
        assert group.table == group.composition_table()


def test_subgroup_descriptors_flag_reflection_content():
    descs = dict((d.label, d) for d, _ in enumerate_subgroups(4))
    assert descs["dihedral(1,0)"].contains_all_vertex_fixing_reflections
    assert descs["dihedral(2,0)"].contains_all_vertex_fixing_reflections
    assert not descs["dihedral(2,1)"].contains_all_vertex_fixing_reflections
    assert not descs["cyclic(1)"].contains_all_vertex_fixing_reflections


def test_classify_auslander():
    q = QuiverA(3)
    assert classify_auslander(3, generate_group([rotation(q, 1)])) == "iso"
    assert classify_auslander(3, dihedral_group(q)) == "not_iso"
    q4 = QuiverA(4)
    assert classify_auslander(4, w_subgroup(q4)) == "not_iso"
    mixed = generate_group([rotation(q4, 2), reflection(q4, 1)])
    assert classify_auslander(4, mixed) == "iso"
    sigma = scalar_automorphism(QuiverA(3), [Fraction(-1)] * 3, [Fraction(-1)] * 3)
    with pytest.raises(ScalarGroupNotClassifiableError):
        classify_auslander(3, generate_group([sigma]))


def test_group_closure_is_verified():
    q = QuiverA(3)
    rho = rotation(q, 1)
    with pytest.raises(ValueError):
        FiniteGroup(q, [identity_automorphism(q), rho])  # missing rho^2


def test_closed_form_scalar_multiplier_matches_wordwise():
    # mixed scalar-dihedral elements: the monomial action's coefficient is
    # cross-checked against the arrow-by-arrow image of the canonical word
    from auslab.scalars import get_context, make_root_of_unity

    q = QuiverA(4)
    z = make_root_of_unity(get_context(4), 1)
    xi = [z, z * z, z * z * z, z]
    sigma = scalar_automorphism(q, xi, [c.inverse() for c in xi])
    validate(sigma)
    for g in (sigma, rotation(q, 1) * sigma, reflection(q, 2) * sigma, sigma * reflection(q, 1)):
        for d in range(6):
            for m in nf_basis(q, d):
                coeff, img = g.monomial_image(m)
                c2, w2 = g.word_image(m.word(q))
                assert coeff == c2
                assert normal_form(q, w2) == img
