import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from auslab.cli import build_group
from auslab.preproj import AlgebraElement, NFMonomial, nf_basis
from auslab.quiver import ArrowRef, QuiverA, Word
from auslab.scalars import root
from auslab.smash import _scalar_theorem_bound, root_order
from auslab.symmetry import (
    CapExceededError,
    build_subgroup,
    NotAnAutomorphismError,
    ScalarGroupNotClassifiableError,
    Validation,
    apply,
    classify_auslander,
    dihedral_group,
    enumerate_subgroups,
    generate_group,
    identity_automorphism,
    reflection,
    rotation,
    scalar_powers,
    subgroup_keys,
    validate,
    w_subgroup,
)
from reference import multiplicative_order, normal_form, word_image, xi, xi_star


def _omega_words(q: QuiverA) -> dict[Word, int]:
    """The preprojective relation as a free-algebra element."""
    out: dict[Word, int] = {}
    for i in range(q.n):
        nonstar, star = ArrowRef(i, False), ArrowRef(i, True)
        out[q.word(i, (nonstar, star))] = 1
        out[q.word((i + 1) % q.n, (star, nonstar))] = -1
    return out


def _validate_in_free_algebra(g):
    """The oracle for `validate`: sigma(Omega) word by word in the free
    algebra, with the ratio to Omega checked on every word and the per-vertex
    products xi_i * xi_i* checked against it."""
    q = g.quiver
    omega = _omega_words(q)
    image: dict[Word, object] = {}
    for w, sign in omega.items():
        c, img = word_image(g, w)
        acc = image.get(img, 0) + sign * c
        if acc:
            image[img] = acc
        else:
            image.pop(img, None)
    scalar = None
    for w, c in image.items():
        if w not in omega:
            raise NotAnAutomorphismError(f"sigma(Omega) has support outside Omega at word {w}")
        ratio = c if omega[w] == 1 else -c
        if scalar is None:
            scalar = ratio
        elif scalar != ratio:
            raise NotAnAutomorphismError(f"ratio {ratio} at word {w} disagrees with {scalar}")
    values, values_star = xi(g), xi_star(g)
    omega_value = values[0] * values_star[0]
    for i in range(q.n):
        if values[i] * values_star[i] != omega_value:
            raise NotAnAutomorphismError(f"xi_{i} * xi_{i}* differs from xi_0 * xi_0*")
    if g.refl:
        kind, expected = "star_inverting", -omega_value
    else:
        kind, expected = ("scalar_diag" if g.rot == 0 else "star_preserving"), omega_value
    if scalar != expected:
        raise NotAnAutomorphismError(f"sigma(Omega) = {scalar} * Omega but xi products give {expected}")
    return Validation(kind, omega_value, scalar)


@st.composite
def candidate_automorphisms(draw, constant: bool):
    """A rotation or reflection with scalars zeta_m^e on the arrows, n 3..7
    and m up to 12.  With `constant` e_i + e_i* is one constant mod m, so the
    candidate is an automorphism; otherwise the exponents are free."""
    n, m = draw(st.integers(3, 7)), draw(st.integers(1, 12))
    e = draw(st.lists(st.integers(0, 3 * m), min_size=n, max_size=n))
    if constant:
        c = draw(st.integers(0, m - 1))
        e_star = [c - k + m * draw(st.integers(-1, 1)) for k in e]
    else:
        e_star = draw(st.lists(st.integers(0, 3 * m), min_size=n, max_size=n))
    q = QuiverA(n)
    dihedral = draw(st.sampled_from([rotation, reflection]))(q, draw(st.integers(0, n - 1)))
    return dihedral * scalar_powers(q, m, e, e_star)


# Half of the candidates have a constant sum e_i + e_i*, half free exponents.
@pytest.mark.parametrize("constant", [True, False])
def test_validate_matches_the_free_algebra_oracle(constant):
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(candidate_automorphisms(constant))
    def check(g):
        _check_validate_against_oracle(g)

    check()


def _check_validate_against_oracle(g):
    try:
        expected = _validate_in_free_algebra(g)
    except NotAnAutomorphismError:
        with pytest.raises(NotAnAutomorphismError, match="not proportional to Omega"):
            validate(g)
        return
    got = validate(g)
    assert got.kind == expected.kind
    assert got.omega == expected.omega and got.relation_scalar == expected.relation_scalar


def test_validate_names_the_first_differing_product():
    q = QuiverA(5)
    bad = reflection(q, 1) * scalar_powers(q, 6, [1, 1, 2, 1, 4], [0, 0, 0, 0, 0])
    with pytest.raises(NotAnAutomorphismError, match="xi_2 \\* xi_2\\* = zeta_6\\^2"):
        validate(bad)


def test_validate_rotation_and_reflection():
    q = QuiverA(4)
    v = validate(rotation(q, 1))
    assert v.kind == "star_preserving" and v.relation_scalar == 1
    v = validate(reflection(q, 0))
    assert v.kind == "star_inverting" and v.relation_scalar == -1


def test_validate_scalar_diag():
    q = QuiverA(3)
    sigma = scalar_powers(q, 2, [1] * 3, [1] * 3)
    v = validate(sigma)
    assert v.kind == "scalar_diag"
    assert v.omega == 1


def test_validate_rejects_inconsistent_scalars():
    q = QuiverA(3)
    bad = scalar_powers(q, 2, [1, 0, 0], [0] * 3)
    with pytest.raises(NotAnAutomorphismError):
        validate(bad)


def test_validate_accepts_constant_product_scalars():
    q = QuiverA(3)
    sigma = scalar_powers(q, 4, [1, 2, 1], [3, 2, 3])
    v = validate(sigma)
    assert v.kind == "scalar_diag" and v.omega == 1


def test_scalar_terms_are_written_at_their_true_order():
    q = QuiverA(3)
    assert scalar_powers(q, 4, (2,) * 3, (2,) * 3) == scalar_powers(q, 2, (1,) * 3, (1,) * 3)
    assert scalar_powers(q, 65536, (32768,) * 3, (-32768,) * 3) == scalar_powers(q, 2, (1,) * 3, (1,) * 3)
    assert scalar_powers(q, 6, [2, 4, 0], [4, 2, 0]) == scalar_powers(q, 3, [1, 2, 0], [2, 1, 0])
    assert scalar_powers(q, 8, [0] * 3, [8] * 3) == identity_automorphism(q)
    # exponents sharing no factor with m keep it
    assert scalar_powers(q, 4, [1, 2, 1], [3, 2, 3]).m == 4


def test_scalar_order_over_the_cap_is_refused_before_validation(monkeypatch):
    q = QuiverA(3)
    zeta8 = scalar_powers(q, 8, [1] * 3, [7] * 3)
    assert len(generate_group([zeta8, rotation(q, 1)], cap=24)) == 24
    # the lcm of the vertex-fixing generators' orders bounds the order from
    # below, so it is checked before `validate` builds any field
    monkeypatch.setattr("auslab.symmetry.validate", lambda g: pytest.fail("validated past the cap"))
    with pytest.raises(CapExceededError, match="exceeded cap 7"):
        generate_group([zeta8], cap=7)
    with pytest.raises(CapExceededError, match="exceeded cap 4096.*lcm 65536"):
        generate_group([scalar_powers(q, 65536, [1] * 3, [65535] * 3), rotation(q, 1)], cap=4096)
    zeta5 = scalar_powers(q, 5, [1] * 3, [4] * 3)
    with pytest.raises(CapExceededError, match="lcm 40"):
        generate_group([zeta8, zeta5], cap=39)


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
    elements = list(dihedral_group(q).elements)
    for d in range(9):
        for m in nf_basis(q, d):
            w = m.word(q)
            for g in elements:
                coeff, img = g.monomial_image(m)
                c2, img_word = word_image(g, w)
                assert coeff == c2 == 1
                assert normal_form(q, img_word) == img


def test_apply_is_an_algebra_map():
    q = QuiverA(4)
    rng = random.Random(5)
    mons = [m for d in range(4) for m in nf_basis(q, d)]
    group = list(dihedral_group(q).elements)
    for _ in range(200):
        g = rng.choice(group)
        h = rng.choice(group)
        x = AlgebraElement.monomial(q, rng.choice(mons), Fraction(rng.randint(1, 5)))
        y = AlgebraElement.monomial(q, rng.choice(mons))
        assert apply(g, x * y) == apply(g, x) * apply(g, y)
        assert apply(g * h, x) == apply(g, apply(h, x))


def test_scalar_action_multiplies_coefficients():
    q = QuiverA(3)
    sigma = scalar_powers(q, 2, [1] * 3, [1] * 3)
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


def _vertex_fixing_reflections(q: QuiverA):
    """The reflections of D_n whose vertex permutation has a fixed point,
    found by testing every vertex."""
    return [
        g for g in (reflection(q, j) for j in range(q.n))
        if any(g.vertex_image(i) == i for i in range(q.n))
    ]


@pytest.mark.parametrize("n", [3, 5])
def test_odd_n_vertex_reflections_generate_everything(n):
    q = QuiverA(n)
    refls = _vertex_fixing_reflections(q)
    assert len(refls) == n
    assert w_subgroup(q).element_key_set() == dihedral_group(q).element_key_set()


def test_vertex_fixing_parity_characterization():
    # computed from fixed points, asserted against the parity rule
    for n in (3, 4, 5, 6):
        q = QuiverA(n)
        fixing = {g.rot for g in _vertex_fixing_reflections(q)}
        if n % 2:
            assert fixing == set(range(n))
        else:
            assert fixing == set(range(0, n, 2))


@pytest.mark.parametrize("n", range(3, 31))
def test_classify_auslander_matches_the_fixed_point_oracle(n):
    # every subgroup of D_n, and the same subgroup spelled by other
    # generators in shuffled order: 'not_iso' exactly when the group holds
    # every reflection that fixes some vertex
    q = QuiverA(n)
    fixing = _vertex_fixing_reflections(q)
    rng = random.Random(n)
    for kind, d, j in subgroup_keys(n):
        _, group = build_subgroup(n, kind, d, j)
        want = "not_iso" if all(tau in group.elements for tau in fixing) else "iso"
        assert classify_auslander(n, group) == want, (n, kind, d, j)
        unit = rng.choice([u for u in range(1, n // d + 1) if math.gcd(u, n // d) == 1])
        terms = [f"rot({unit * d % n})"]
        if kind == "dihedral":
            terms += [f"refl({(j + rng.randrange(n // d) * d) % n})", f"refl({(j + rng.randrange(n // d) * d) % n})"]
        rng.shuffle(terms)
        spelled, _ = build_group(",".join(terms), n)
        assert spelled.element_key_set() == group.element_key_set() and classify_auslander(n, spelled) == want, (n, terms)



def test_vertex_fixing_is_the_identity_then_the_elements_fixing_every_vertex():
    group, _ = build_group("rot(1),refl(0),scalar(4;1,0,0,0;3,0,0,0)", 4)
    fixing = [gi for gi, vm in enumerate(group.vertex_maps) if vm == (0, 1, 2, 3)]
    assert fixing == list(range(len(group.n_elements))) and len(fixing) == len(group) // 8
    assert group.elements[0] == identity_automorphism(group.quiver) and group.elements[: len(fixing)] == group.n_elements


def _assert_split_layout(group):
    """The oracle for the layout: T, the scalar-free elements sorted by
    (refl, rot), and N, the elements fixing every vertex sorted by
    `sort_key`, each read off the element list; then elements[c |N| + k] is
    T[c] N[k], T[c]^-1 is the inverse and conj[c][k] the position of the
    conjugate in N.  Each element's vertex preimage inverts its image,
    and the tracer's table `vertex_maps` agrees with the closed form."""
    ident = identity_automorphism(group.quiver)
    for gi, g in enumerate(group.elements):
        for v in range(group.quiver.n):
            assert g.vertex_preimage(g.vertex_image(v)) == v and group.vertex_maps[gi][v] == g.vertex_image(v)
    t = sorted((g for g in group.elements if g.m == 1), key=lambda g: g.sort_key())
    normal = sorted((g for g in group.elements if not g.rot and not g.refl), key=lambda g: g.sort_key())
    assert t[0] == normal[0] == ident and len(t) * len(normal) == len(group)
    assert group.n_elements == normal and group.elements == [a * h for a in t for h in normal]
    assert group.conductor == math.lcm(*(g.m for g in group.elements))
    for c, a in enumerate(t):
        assert a * t[group.t_inverse[c]] == ident
        assert [normal[k] for k in group.conj[c]] == [a * h * t[group.t_inverse[c]] for h in normal]


@pytest.mark.parametrize("n", range(3, 13))
def test_w_subgroup_is_generated_by_the_vertex_fixing_reflections(n):
    q = QuiverA(n)
    assert w_subgroup(q).element_key_set() == generate_group(_vertex_fixing_reflections(q), cap=2 * n).element_key_set()


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
    elements = list(dihedral_group(q).elements)
    found = set()
    for size in range(1, len(elements) + 1):
        for subset in itertools.combinations(elements, size):
            try:
                group = generate_group(list(subset), cap=2 * n)
            except CapExceededError:  # pragma: no cover - cannot happen in D_n
                continue
            found.add(group.element_key_set())
    enumerated = {g.element_key_set() for _, g in enumerate_subgroups(n)}
    assert enumerated == found


@pytest.mark.parametrize("n", range(3, 9))
def test_enumeration_is_the_per_key_builds(n):
    keyed = lambda pairs: [(label, group.element_key_set()) for label, group in pairs]
    assert keyed(enumerate_subgroups(n)) == keyed(build_subgroup(n, *key) for key in subgroup_keys(n))


def test_subgroup_cap_is_sized_from_n():
    # a subgroup of D_n has at most 2n elements, past the default cap of 512
    _, group = build_subgroup(257, "dihedral", 1, 0)
    assert len(group) == 514 and len(dihedral_group(QuiverA(257))) == 514
    assert len(w_subgroup(QuiverA(257))) == 514


@pytest.mark.parametrize("n", range(3, 9))
def test_subgroup_tables_follow_dihedral_law(n):
    # rho^a r^s * rho^b r^t = rho^(a -+ b) r^(s xor t), minus when s is set;
    # N is trivial, so T is the whole group
    for _, group in enumerate_subgroups(n):
        assert not group.has_scalars and len(group.n_elements) == 1
        _assert_split_layout(group)
        for gi, g in enumerate(group.elements):
            for hi, h in enumerate(group.elements):
                product = group.elements[group.mul(gi, hi)]
                assert product == g * h and group.t_mul(gi, hi) == group.mul(gi, hi)
                assert product.rot == (g.rot + (-h.rot if g.refl else h.rot)) % n
                assert product.refl == g.refl ^ h.refl


def test_subgroup_descriptors_flag_reflection_content():
    groups = dict(enumerate_subgroups(4))
    assert classify_auslander(4, groups["dihedral(1,0)"]) == "not_iso"
    assert classify_auslander(4, groups["dihedral(2,0)"]) == "not_iso"
    assert classify_auslander(4, groups["dihedral(2,1)"]) == "iso"
    assert classify_auslander(4, groups["cyclic(1)"]) == "iso"


def test_classify_auslander():
    q = QuiverA(3)
    assert classify_auslander(3, generate_group([rotation(q, 1)])) == "iso"
    assert classify_auslander(3, dihedral_group(q)) == "not_iso"
    q4 = QuiverA(4)
    assert classify_auslander(4, w_subgroup(q4)) == "not_iso"
    mixed = generate_group([rotation(q4, 2), reflection(q4, 1)])
    assert classify_auslander(4, mixed) == "iso"
    sigma = scalar_powers(QuiverA(3), 2, [1] * 3, [1] * 3)
    with pytest.raises(ScalarGroupNotClassifiableError):
        classify_auslander(3, generate_group([sigma]))


def test_closed_form_scalar_multiplier_matches_wordwise():
    # mixed scalar-dihedral elements: the monomial action's coefficient is
    # cross-checked against the arrow-by-arrow image of the canonical word
    q = QuiverA(4)
    sigma = scalar_powers(q, 4, [1, 2, 3, 1], [3, 2, 1, 3])
    validate(sigma)
    for g in (sigma, rotation(q, 1) * sigma, reflection(q, 2) * sigma, sigma * reflection(q, 1)):
        for d in range(6):
            for m in nf_basis(q, d):
                coeff, img = g.monomial_image(m)
                c2, w2 = word_image(g, m.word(q))
                assert coeff == c2
                assert normal_form(q, w2) == img


def test_cayley_table_of_a_large_group_is_the_composition():
    # order 2048 = |T| |N| = 8 * 256: products are index arithmetic
    group, _ = build_group("rot(1),refl(0),scalar(4;1,0,0,0;3,0,0,0)", 4)
    elements = group.elements
    assert len(group) == 2048 and len(group.n_elements) == 256
    _assert_split_layout(group)
    index = {g: i for i, g in enumerate(elements)}
    rng = random.Random(2048)
    for _ in range(2000):
        a, b = rng.randrange(2048), rng.randrange(2048)
        assert group.mul(a, b) == index[elements[a] * elements[b]]


@st.composite
def group_specs(draw):
    """(n, spec) for a random group: one scalar term and up to two more
    rotations, reflections or scalar terms, with conductors up to 6, mixed
    conductors included.  A scalar term keeps xi_i * xi_i* constant, so
    every generator is an automorphism."""
    n = draw(st.integers(3, 6))
    kinds = ["scalar"] + draw(st.lists(st.sampled_from(["rot", "refl", "scalar"]), max_size=2))
    terms = []
    for kind in draw(st.permutations(kinds)):
        if kind != "scalar":
            terms.append(f"{kind}({draw(st.integers(0, n - 1))})")
            continue
        m = draw(st.integers(1, 6))
        c = draw(st.integers(0, m - 1))
        if draw(st.booleans()):
            exps = [draw(st.integers(0, m - 1))] * n
        else:
            exps = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        star = [(c - k) % m for k in exps]
        terms.append(f"scalar({m};{','.join(map(str, exps))};{','.join(map(str, star))})")
    return n, ",".join(terms)


@functools.lru_cache(maxsize=None)
def _value_order(value):
    return multiplicative_order(value)


def _value_theorem_bound(group):
    """The zero-tail bound computed on scalar values rather than exponents."""
    n, order = group.quiver.n, len(group)
    if order == 1 or any(g.refl or g.rot for g in group.elements):
        return None

    def pure_length(values):
        if len(set(values)) == 1 and _value_order(values[0]) == order:
            return order
        return order * n if _value_order(functools.reduce(operator.mul, values)) == order else None

    ident = identity_automorphism(group.quiver)
    for g in group.elements:
        power, g_order = g, 1
        while power != ident:
            power, g_order = power * g, g_order + 1
        lengths = (pure_length(xi(g)), pure_length(xi_star(g)))
        if g_order == order and None not in lengths:
            return 4 * max(lengths) - 1, f"scalar_pure_path_length_{max(lengths)}"
    return None


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(group_specs(), st.randoms(use_true_random=False))
def test_cayley_table_matches_the_action(case, rng):
    n, spec = case
    try:
        group, _ = build_group(spec, n, cap=64)
    except CapExceededError:
        assume(False)
    q, size, mul = group.quiver, len(group), group.mul
    _assert_split_layout(group)
    # index arithmetic is the composition of the elements
    index = {g: i for i, g in enumerate(group.elements)}
    for gi, g in enumerate(group.elements):
        assert [index[g * h] for h in group.elements] == [mul(gi, hi) for hi in range(size)]
    for g in range(size):
        assert mul(0, g) == mul(g, 0) == g
    for _ in range(300):
        a, b, c = (rng.randrange(size) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
    # g(h(x)), scalars multiplied, is the action of the element mul names
    monomials = [x for d in range(5) for x in nf_basis(q, d)]
    for _ in range(12):
        gi, hi = rng.randrange(size), rng.randrange(size)
        g, h = group.elements[gi], group.elements[hi]
        for x in monomials:
            c_h, y = h.monomial_image(x)
            c_g, z = g.monomial_image(y)
            assert group.monomial_action(mul(gi, hi), x) == (c_g * c_h, z)
    # the closed form on exponents agrees with the scalar values arrow by arrow
    for g in rng.sample(group.elements, min(size, 4)):
        for x in monomials[: 10 * n]:
            coeff, img = g.monomial_image(x)
            c_word, w = word_image(g, x.word(q))
            assert coeff == c_word and normal_form(q, w) == img
    # integer orders of zeta_m^k against the orders of the values
    for g in group.elements:
        for exps, values in ((g.e, xi(g)), (g.e_star, xi_star(g))):
            for k, value in zip(exps, values):
                assert root_order(g.m, k) == _value_order(value)
            product = functools.reduce(operator.mul, values)
            assert root(g.m, sum(exps) % g.m) == product
            assert root_order(g.m, sum(exps)) == _value_order(product)
    assert _scalar_theorem_bound(group) == _value_theorem_bound(group)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(group_specs())
@example((4, "rot(2),refl(1),scalar(4;1,0,0,0;3,0,0,0)"))
def test_each_generator_of_n_at_least_doubles_it(case):
    # N grows by a whole coset for each generator it keeps, so under the
    # 4096-element cap it has at most 12 generators: the bound the
    # invariants' term limit rests on
    n, spec = case
    try:
        group, _ = build_group(spec, n)
    except CapExceededError:
        assume(False)
    assert 2 ** len(group.n_gens) <= len(group.n_elements)


def _exponent_by_arrows(g, x):
    """Reference: g's exponents summed arrow by arrow along the canonical
    word of x, mod g's conductor."""
    n, i, l = g.quiver.n, x.source, x.nonstars
    k = sum(g.e[(i + t) % n] for t in range(l))
    k += sum(g.e_star[(i + l - 1 - t) % n] for t in range(x.stars))
    return k % g.m


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(group_specs(), st.randoms(use_true_random=False))
@example((4, "refl(1),scalar(4;1,2,3,1;3,2,1,3)"), random.Random(4))
@example((5, "scalar(3;1,0,2,1,1;2,0,1,2,2),scalar(4;1,2,3,0,1;3,2,1,0,3)"), random.Random(5))
@example((6, "rot(3),refl(2),scalar(6;1,2,3,4,5,0;5,4,3,2,1,0)"), random.Random(6))
def test_prefix_sum_exponents_match_the_arrow_sums(case, rng):
    # degrees up to 3n + 2, so the canonical words wrap around the cycle
    # more than once; reflections and mixed conductors among the groups
    n, spec = case
    try:
        group, _ = build_group(spec, n, cap=64)
    except CapExceededError:
        assume(False)
    for g in rng.sample(group.elements, min(len(group), 6)):
        for d in range(3 * n + 3):
            for j in range(n):
                want = [_exponent_by_arrows(g, NFMonomial(j, l, d - l)) for l in range(d + 1)]
                assert g.word_exponents(j, d, range(d + 1)) == want
                assert g.word_exponents(j, d, range(d % 2, d + 1, 2)) == want[d % 2 :: 2]
                assert [g.monomial_image(NFMonomial(j, l, d - l))[0] for l in range(d + 1)] == [root(g.m, k) for k in want]


def _apply_accumulating(g, x):
    """The reference for `apply`: the images of the terms summed one by one,
    a term dropped when its sum cancels."""
    out = {}
    for m, c in x.terms.items():
        mult, img = g.monomial_image(m)
        acc = out.get(img, 0) + c * mult
        if acc:
            out[img] = acc
        else:
            out.pop(img, None)
    return AlgebraElement(x.quiver, out)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(group_specs(), st.randoms(use_true_random=False))
@example((6, "rot(3),refl(2),scalar(6;1,2,3,4,5,0;5,4,3,2,1,0)"), random.Random(6))
def test_apply_matches_the_accumulating_loop(case, rng):
    # random elements of mixed degree, with rational and cyclotomic
    # coefficients, under random elements of groups with scalars
    n, spec = case
    try:
        group, _ = build_group(spec, n, cap=64)
    except CapExceededError:
        assume(False)
    q, conductor = group.quiver, math.lcm(*(g.m for g in group.elements))
    monomials = [x for d in range(2 * n) for x in nf_basis(q, d)]
    for _ in range(20):
        g = rng.choice(group.elements)
        x = AlgebraElement(q, {
            m: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * root(conductor, rng.randrange(conductor))
            for m in rng.sample(monomials, 15)
        })
        got, want = apply(g, x), _apply_accumulating(g, x)
        assert got == want and list(got.terms) == list(want.terms)
