import itertools
import random
import unittest.mock
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from reference import build_ideal, contains, cover_series, eval_auslander_map, expand, insert, span_rows
from test_symmetry import group_specs

from auslab.cli import build_group
from auslab.linalg import FieldEchelon, IntEchelon, SignedPartition
from auslab.preproj import AlgebraElement, NFMonomial, nf_basis
from auslab.quiver import QuiverA
from auslab.smash import (
    IdealTruncation,
    MixedDegreeError,
    SmashElement,
    WindowTooLargeError,
    auslander_verdict,
    default_cutoff,
    first_zero_degree,
    growth_classify,
    identity_component_dims,
    naive_ideal_dimension,
    theorem_bound,
)
from auslab.symmetry import (
    CapExceededError,
    build_subgroup,
    classify_auslander,
    dihedral_group,
    enumerate_subgroups,
    generate_group,
    reflection,
    rotation,
    identity_automorphism,
    scalar_powers,
    subgroup_keys,
    w_subgroup,
)


def minus_ones_group(n=3):
    q = QuiverA(n)
    sigma = scalar_powers(q, 2, [1] * n, [1] * n)
    return generate_group([sigma])


def test_group_part_multiplication():
    q = QuiverA(3)
    dn = dihedral_group(q)
    one = AlgebraElement.one(q)
    for gi in range(len(dn)):
        for hi in range(len(dn)):
            x = SmashElement.from_algebra(dn, one, gi)
            y = SmashElement.from_algebra(dn, one, hi)
            assert x * y == SmashElement.from_algebra(dn, one, dn.mul(gi, hi))


def test_idempotent_cut_of_group_sum():
    q = QuiverA(3)
    dn = dihedral_group(q)
    f_g = SmashElement.group_sum(dn)
    e0 = SmashElement.from_algebra(dn, AlgebraElement.idempotent(q, 0))
    f1 = e0 * f_g * e0
    r0 = dn.elements.index(reflection(q, 0))
    expected = SmashElement(
        dn,
        {
            (NFMonomial(0, 0, 0), 0): Fraction(1),
            (NFMonomial(0, 0, 0), r0): Fraction(1),
        },
    )
    assert f1 == expected


def test_twisted_product_example():
    q = QuiverA(3)
    dn = dihedral_group(q)
    rho = dn.elements.index(rotation(q, 1))
    a0 = AlgebraElement.monomial(q, NFMonomial(0, 1, 0))
    x = SmashElement.from_algebra(dn, a0, rho)
    y = SmashElement.from_algebra(dn, a0)
    # rho(alpha_0) = alpha_1, then alpha_0 alpha_1 # rho
    assert x * y == SmashElement.from_algebra(
        dn, AlgebraElement.monomial(q, NFMonomial(0, 2, 0)), rho
    )


def test_monomial_times_group_sum_absorbs_group_part():
    q = QuiverA(4)
    dn = dihedral_group(q)
    f_g = SmashElement.group_sum(dn)
    rng = random.Random(3)
    mons = [m for d in range(3) for m in nf_basis(q, d)]
    for _ in range(30):
        m = rng.choice(mons)
        gi = rng.randrange(len(dn))
        p = AlgebraElement.monomial(q, m)
        lhs = SmashElement.from_algebra(dn, p, gi) * f_g
        rhs = SmashElement.from_algebra(dn, p) * f_g
        assert lhs == rhs


def test_smash_associativity_random():
    q = QuiverA(3)
    dn = dihedral_group(q)
    rng = random.Random(17)
    mons = [m for d in range(3) for m in nf_basis(q, d)]

    def rand_elem():
        terms = {}
        for _ in range(2):
            terms[(rng.choice(mons), rng.randrange(len(dn)))] = Fraction(rng.randint(1, 4))
        return SmashElement(dn, terms)

    for _ in range(60):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)


def test_unit_of_smash():
    q = QuiverA(3)
    dn = dihedral_group(q)
    one = SmashElement.unit(dn)
    x = SmashElement.from_algebra(dn, AlgebraElement.monomial(q, NFMonomial(1, 2, 0)), 3)
    assert one * x == x
    assert x * one == x


def test_eval_auslander_map():
    q = QuiverA(3)
    dn = dihedral_group(q)
    one = AlgebraElement.one(q)
    x = AlgebraElement.monomial(q, NFMonomial(0, 1, 0))
    assert eval_auslander_map(dn, one, 0, x) == x
    # e_0 * r(alpha_0) = alpha_{n-1}*
    e0 = AlgebraElement.idempotent(q, 0)
    r = dn.elements.index(reflection(q, 0))
    assert eval_auslander_map(dn, e0, r, x) == AlgebraElement.monomial(
        q, NFMonomial(0, 0, 1)
    )


def test_eval_auslander_is_multiplicative():
    q = QuiverA(4)
    dn = dihedral_group(q)
    rng = random.Random(23)
    mons = [m for d in range(3) for m in nf_basis(q, d)]
    for _ in range(50):
        a = AlgebraElement.monomial(q, rng.choice(mons))
        b = AlgebraElement.monomial(q, rng.choice(mons))
        c = AlgebraElement.monomial(q, rng.choice(mons))
        gi, hi = rng.randrange(len(dn)), rng.randrange(len(dn))
        inner = eval_auslander_map(dn, b, hi, c)
        lhs = eval_auslander_map(dn, a, gi, inner)
        prod = SmashElement.from_algebra(dn, a, gi) * SmashElement.from_algebra(dn, b, hi)
        rhs = AlgebraElement.zero(q)
        for (m, ki), coeff in prod.terms.items():
            rhs = rhs + eval_auslander_map(
                dn, AlgebraElement.monomial(q, m, coeff), ki, c
            )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Ideal truncations
# ---------------------------------------------------------------------------


def test_trivial_group_ideal_is_everything():
    q = QuiverA(3)
    triv = generate_group([identity_automorphism(q)])
    trunc = build_ideal(triv, 6)
    for d in range(7):
        assert trunc.ideal_dimension(d) == 3 * (d + 1) * len(triv)
    assert identity_component_dims(triv, 6) == [0] * 7


def test_rho_ideal_saturates():
    q = QuiverA(3)
    grp = generate_group([rotation(q, 1)])
    trunc = build_ideal(grp, 8)
    assert trunc.ideal_dimension(7) == 3 * 8 * 3 == 3 * 8 * len(grp)


def test_saturated_block_identity_intersection_is_coordinate_tail():
    # saturated blocks count their identity coordinates, the first ones of
    # the block, without building it; the coordinate scheme is the reference
    groups = [g for _, g in enumerate_subgroups(6)] + [minus_ones_group()]
    nonzero = 0
    for group in groups:
        trunc = build_ideal(group, 12)
        for d in range(13):
            for rep in trunc.orbit_reps:
                if trunc._block(rep, d).full:
                    coords = trunc.block_coords(*rep, d)
                    ident = coords.count[0]
                    assert trunc.block_identity_intersection(rep, d) == ident
                    nonzero += ident > 0
    assert nonzero > 0


@pytest.mark.parametrize(
    "make_group,degree",
    [
        (lambda: dihedral_group(QuiverA(3)), 4),
        (lambda: generate_group([rotation(QuiverA(3), 1)]), 4),
        (lambda: w_subgroup(QuiverA(4)), 3),
        (minus_ones_group, 4),
    ],
)
def test_incremental_ideal_matches_naive_spanning(make_group, degree):
    group = make_group()
    trunc = build_ideal(group, degree)
    for d in range(degree + 1):
        assert trunc.ideal_dimension(d) == naive_ideal_dimension(group, d)


def test_identity_component_dims_examples():
    q = QuiverA(3)
    dims_rho = identity_component_dims(generate_group([rotation(q, 1)]), 10)
    assert all(v == 0 for v in dims_rho[7:])
    dims_d3 = identity_component_dims(dihedral_group(q), 16)
    assert dims_d3[:4] == [3, 6, 9, 9]
    assert max(dims_d3) == 9 and dims_d3[-1] > 0


def test_every_small_scalar_group_follows_the_cover_count():
    # the 97 groups scalar(m; e; s - e) at n = 3, m = 2 and 3, through
    # degree 12: every element fixes every vertex
    for m in (2, 3):
        for e in itertools.product(range(m), repeat=3):
            for s in range(m):
                spec = f"scalar({m};{','.join(map(str, e))};{','.join(str((s - k) % m) for k in e)})"
                group = _smash_group((3, spec))
                assert identity_component_dims(group, 12) == cover_series(group, 12), spec


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(group_specs())
def test_scalar_only_spec_groups_follow_the_cover_count(case):
    n, spec = case
    assume("rot" not in spec and "refl" not in spec)
    try:
        group, _ = build_group(spec, n, cap=256)
    except CapExceededError:
        assume(False)
    assert identity_component_dims(group, 10) == cover_series(group, 10)


def test_ideal_rows_stay_in_ideal_under_multiplication():
    q = QuiverA(3)
    dn = dihedral_group(q)
    trunc = build_ideal(dn, 8)
    f_g = SmashElement.group_sum(dn)
    e1 = SmashElement.from_algebra(dn, AlgebraElement.idempotent(q, 1))
    f1 = e1 * f_g * e1
    seeds = [f_g, f1, e1 * f_g]
    rng = random.Random(31)
    for seed in seeds:
        x = seed
        for _ in range(5):
            m = AlgebraElement.monomial(q, rng.choice(nf_basis(q, 1)))
            gi = rng.randrange(len(dn))
            if rng.random() < 0.5:
                x = SmashElement.from_algebra(dn, m) * x
            else:
                x = x * SmashElement.from_algebra(dn, m, gi)
            if x.is_zero():
                break
            assert trunc.contains(x)


def test_membership_certificates():
    q = QuiverA(3)
    dn = dihedral_group(q)
    trunc = build_ideal(dn, 4)
    p = AlgebraElement.monomial(q, NFMonomial(0, 3, 0))
    qq = AlgebraElement.monomial(q, NFMonomial(0, 0, 3))
    assert trunc.contains(SmashElement.from_algebra(dn, p - qq))
    assert not trunc.contains(SmashElement.from_algebra(dn, p))
    assert trunc.contains(SmashElement.group_sum(dn))
    # the ideal is defined over Q, so membership holds over Q(zeta_m) alike
    from auslab.scalars import get_context, make_root_of_unity

    z = make_root_of_unity(get_context(5), 2)
    assert trunc.contains(SmashElement.from_algebra(dn, p - qq).scale(z))
    assert not trunc.contains(SmashElement.from_algebra(dn, p).scale(z))


def test_membership_scalar_case():
    group = minus_ones_group()
    q = group.quiver
    trunc = build_ideal(group, 2)
    prod = AlgebraElement.monomial(q, NFMonomial(0, 2, 0))  # alpha_0 alpha_1
    assert trunc.contains(SmashElement.from_algebra(group, prod))


def test_membership_requires_homogeneous():
    q = QuiverA(3)
    dn = dihedral_group(q)
    trunc = build_ideal(dn, 2)
    mixed = SmashElement.from_algebra(
        dn,
        AlgebraElement.idempotent(q, 0) + AlgebraElement.monomial(q, NFMonomial(0, 1, 0)),
    )
    with pytest.raises(MixedDegreeError):
        trunc.contains(mixed)


# ---------------------------------------------------------------------------
# Growth classification and verdicts
# ---------------------------------------------------------------------------


def test_first_zero_degree():
    assert first_zero_degree([0, 0, 0]) == 0
    assert first_zero_degree([3, 2, 0, 0]) == 2
    assert first_zero_degree([3, 2, 0, 1]) == -1
    assert first_zero_degree([]) == 0


def test_growth_classify_kinds():
    zeros = [3, 2, 1] + [0] * 9
    assert growth_classify(zeros, 4).kind == "finite_dim"
    bounded = [3, 6, 9] + [9] * 9
    assert growth_classify(bounded, 4).kind == "gk1"
    linear = [3 * (d + 1) for d in range(12)]
    verdict = growth_classify(linear, 4)
    assert verdict.kind == "gk2_likely"
    assert verdict.evidence["increment"] == 3
    erratic = [1, 9, 1, 4, 4, 9, 1, 1, 2, 3, 5, 30]
    assert growth_classify(erratic, 3).kind == "inconclusive"
    with pytest.raises(WindowTooLargeError):
        growth_classify([1, 2, 3], 2)


def test_theorem_bounds():
    q = QuiverA(3)
    assert theorem_bound(3, generate_group([rotation(q, 1)])) == (
        7,
        "missing_vertex_fixing_reflection",
    )
    assert theorem_bound(3, dihedral_group(q)) == (None, None)
    assert theorem_bound(3, minus_ones_group())[0] == 7  # 4*2 - 1


def test_default_cutoff_policy():
    q = QuiverA(4)
    assert default_cutoff(4, dihedral_group(q)) == 20
    grp = minus_ones_group()
    assert default_cutoff(3, grp) >= theorem_bound(3, grp)[0]


def test_auslander_verdicts():
    q = QuiverA(3)
    rep = auslander_verdict(3, generate_group([rotation(q, 1)]), 14)
    assert (rep.verdict, rep.pertinency, rep.classifier_agrees) == ("iso", 2, True)
    rep = auslander_verdict(3, dihedral_group(q), 16)
    assert (rep.verdict, rep.pertinency, rep.growth.kind) == ("not_iso", 1, "gk1")
    rep = auslander_verdict(4, w_subgroup(QuiverA(4)), 20)
    assert (rep.verdict, rep.pertinency) == ("not_iso", 1)
    rep = auslander_verdict(3, minus_ones_group(), 16)
    assert (rep.verdict, rep.verdict_basis) == ("iso", "theorem_bound")
    assert rep.classifier is None and rep.classifier_agrees is None


def test_verdict_payload_shape():
    q = QuiverA(3)
    rep = auslander_verdict(3, dihedral_group(q), 12, label="rot(1),refl(0)")
    payload = rep.payload()
    assert payload["group"] == "rot(1),refl(0)"
    assert payload["verdict_empirical"] == "not_iso"
    assert isinstance(payload["identity_component_dims"], list)


def test_mixed_group_uses_window_verdict():
    q = QuiverA(3)
    sigma = scalar_powers(q, 2, [1] * 3, [1] * 3)
    mixed = generate_group([rotation(q, 1), sigma])
    assert mixed.has_scalars and len(mixed) == 6
    rep = auslander_verdict(3, mixed, 14)
    assert rep.classifier is None and rep.classifier_agrees is None
    assert theorem_bound(3, mixed) == (None, None)
    assert rep.verdict == "iso" and rep.verdict_basis == "window"


def test_mixed_group_ideal_matches_naive_spanning():
    # right extensions carry scalar multipliers here; the orbit transfers do
    # not, because the pure rotation sorts before its scalar multiples
    q = QuiverA(3)
    sigma = scalar_powers(q, 2, [1] * 3, [1] * 3)
    mixed = generate_group([rotation(q, 1), sigma])
    trunc = build_ideal(mixed, 3)
    for d in range(4):
        assert trunc.ideal_dimension(d) == naive_ideal_dimension(mixed, d)
    sig4 = scalar_powers(q, 4, [1] * 3, [3] * 3)
    mixed4 = generate_group([rotation(q, 1), sig4])
    trunc4 = build_ideal(mixed4, 2)
    for d in range(3):
        assert trunc4.ideal_dimension(d) == naive_ideal_dimension(mixed4, d)


def test_mixed_conductor_ideal_matches_naive_spanning():
    # zeta_3 and zeta_4 scalars generate a cyclic group of order 12 whose
    # scalars all lie in Q(zeta_12)
    from auslab.cli import build_group

    group, _ = build_group("scalar(3;1,1,1;2,2,2),scalar(4;1,1,1;3,3,3)", 3)
    assert len(group) == 12 and {g.m for g in group.elements} == {1, 12}
    assert group.element_key_set() == build_group("scalar(12;7,7,7;5,5,5)", 3)[0].element_key_set()
    trunc = build_ideal(group, 2)
    for d in range(3):
        assert trunc.ideal_dimension(d) == naive_ideal_dimension(group, d)


# ---------------------------------------------------------------------------
# Signed partitions against the integer row engine
# ---------------------------------------------------------------------------


def _coords_of(bc):
    """The coordinates (g, l) of a BlockCoords, in position order."""
    return tuple((g, bc.first[g] + k * bc.step) for g, count in enumerate(bc.count) for k in range(count))


def _identity_intersection(ech, count):
    """dim of an echelon's span meeting the identity coordinates, positions
    0 to count - 1: its rank minus the rank of its rows with those dropped."""
    rest = type(ech)()
    for row in ech.pivots.values():
        rest.insert({k: c for k, c in row.items() if k >= count})
    return ech.rank - rest.rank


class _RowEngine:
    """The row engine the closed-form maps replaced, kept as their oracle:
    one echelon per orbit-rep block and degree (IntEchelon for subgroups of
    D_n, FieldEchelon for groups with scalars), fed the degree-0 cuts and
    then every echelon row of the four source blocks, moved by coordinate
    maps whose positions and multipliers come from `monomial_action` over
    coordinates found by scanning all (g, l).  Shares only the orbit
    structure with the engine."""

    def __init__(self, trunc):
        self.trunc = trunc
        self.group = trunc.group
        self.scalars = trunc.group.has_scalars
        self.one = Fraction(1) if self.scalars else 1
        self.coords = {}
        self.layers = []

    def block(self, i, j, d):
        key = (i, j, d)
        if key not in self.coords:
            group, n = self.group, self.group.quiver.n
            coords = [
                (gi, l)
                for gi in range(len(group))
                for l in range(d + 1)
                if (i + 2 * l - d - group.vertex_maps[gi][j]) % n == 0
            ]
            self.coords[key] = (coords, {c: p for p, c in enumerate(coords)})
        return self.coords[key]

    @staticmethod
    def moved(row, remap):
        """row through remap[k] = (new index, multiplier)."""
        out = {}
        for k, c in row.items():
            tgt, s = remap[k]
            out[tgt] = c if s == 1 else c * s
        return out

    def rows(self, pair, d):
        """Spanning rows of any block at degree d, in its own coordinates."""
        trunc, group = self.trunc, self.group
        rep, t = trunc._locate(pair)
        ech = self.layers[d][rep]
        coords, index = self.block(*pair, d)
        if ech is None:
            return [{k: self.one} for k in range(len(coords))]
        if pair == rep:
            return list(ech.pivots.values())
        size = len(group.n_elements)
        tinv = group.t_inverse[t // size] * size
        remap = []
        for h, l in self.block(*rep, d)[0]:
            scalar, img = group.monomial_action(t, NFMonomial(rep[0], l, d - l))
            assert self.scalars or scalar == 1
            remap.append((index[(group.mul(group.mul(t, h), tinv), img.nonstars)], scalar))
        return [self.moved(row, remap) for row in ech.pivots.values()]

    def extend(self, D):
        group, n = self.group, self.group.quiver.n
        while len(self.layers) <= D:
            d = len(self.layers)
            layer = {}
            for (i, j) in self.trunc.orbit_reps:
                coords, index = self.block(i, j, d)
                ech = FieldEchelon() if self.scalars else IntEchelon()
                if d == 0:
                    cut = {index[(gi, 0)]: self.one for gi in range(len(group)) if group.vertex_maps[gi][j] == i}
                    ech.insert(cut)
                else:
                    # left multiplication adds a nonstar (from (i+1, j)) or a
                    # star (from (i-1, j)); right multiplication by m0 # 1
                    # appends g(m0), scaled by g's scalar on m0
                    sources = [((src, j), lambda gi, dl=dl: (dl, 1)) for src, dl in (((i + 1) % n, 1), ((i - 1) % n, 0))]
                    for src, m0 in (
                        ((j - 1) % n, NFMonomial((j - 1) % n, 1, 0)),
                        ((j + 1) % n, NFMonomial((j + 1) % n, 0, 1)),
                    ):
                        sources.append(((i, src), lambda gi, m0=m0: self._right(gi, m0)))
                    for pair, extra in sources:
                        if ech.rank == len(coords):
                            break
                        remap = []
                        for gi, l in self.block(*pair, d - 1)[0]:
                            dl, scalar = extra(gi)
                            remap.append((index[(gi, l + dl)], scalar))
                        for row in self.rows(pair, d - 1):
                            if ech.insert(self.moved(row, remap)) and ech.rank == len(coords):
                                break
                layer[(i, j)] = None if ech.rank == len(coords) else ech
            self.layers.append(layer)

    def _right(self, gi, m0):
        scalar, img = self.group.monomial_action(gi, m0)
        return img.nonstars, scalar


def _compare_with_row_engine(group, D):
    trunc = build_ideal(group, D)
    oracle = _RowEngine(trunc)
    oracle.extend(D)
    for d in range(D + 1):
        for rep in trunc.orbit_reps:
            coords, _ = oracle.block(*rep, d)
            got = trunc.block_coords(*rep, d)
            assert _coords_of(got) == tuple(coords) and got.size == len(coords)
            ech = oracle.layers[d][rep]
            ident = got.count[0]
            want = (
                (len(coords), ident, True)
                if ech is None
                else (ech.rank, _identity_intersection(ech, ident), False)
            )
            block = (
                trunc.block_rank(rep, d),
                trunc.block_identity_intersection(rep, d),
                trunc._block(rep, d).full,
            )
            assert block == want, (group.elements, d, rep)
    return trunc, oracle


@pytest.mark.parametrize("n", range(3, 11))
def test_signed_partitions_match_the_row_engine(n):
    # rank, identity intersection and saturation of every orbit-rep block,
    # for every subgroup of D_n at every degree up to the cutoff 4n+4
    for key in subgroup_keys(n):
        _, group = build_subgroup(n, *key)
        _compare_with_row_engine(group, 4 * n + 4)


def scalar_transfer_group():
    """rot(1) scaled by zeta_4 on alpha_0 and zeta_4^3 on alpha_0*, with
    refl(0), at n = 4: its closure, of order 256, has no pure rotation, so a
    coset of the vertex-fixing elements would hold no scalar-free element
    to be its orbit transfer.  A spec the CLI parses has only pure dihedral
    and pure scalar generators, and the pure dihedral elements become the
    transfers."""
    q = QuiverA(4)
    return generate_group([rotation(q, 1) * scalar_powers(q, 4, [1, 0, 0, 0], [3, 0, 0, 0]), reflection(q, 0)])


def twisted_reflection_group():
    """rot(1) with refl(0) scaled by zeta_3 on every alpha_i and zeta_3^2 on
    every alpha_i*, at n = 3: its closure, of order 6, holds no pure
    reflection."""
    q = QuiverA(3)
    return generate_group([rotation(q, 1), reflection(q, 0) * scalar_powers(q, 3, [1, 1, 1], [2, 2, 2])])


def _assert_transfers_are_scalar_free(group):
    # every coset representative and orbit transfer is scalar-free, so the
    # orbit transfers of the ideal build are relabellings
    trunc = IdealTruncation(group)
    assert len(trunc._reps) * len(group.n_elements) == len(group)
    n = group.quiver.n
    assert all(group.elements[t].m == 1 for t in trunc._reps + [trunc._locate((i, j))[1] for i in range(n) for j in range(n)])


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(group_specs())
@example((4, "rot(2),refl(1),scalar(4;1,2,3,1;3,2,1,3)"))
@example((3, "rot(1),refl(0),scalar(3;1,1,1;2,2,2)"))
def test_every_spec_group_builds_with_scalar_free_transfers(case):
    # every spec generator is a pure rotation, reflection or scalar, so the
    # group is N x| D with D its scalar-free elements
    n, spec = case
    try:
        group, _ = build_group(spec, n, cap=256)
    except CapExceededError:
        assume(False)
    _assert_transfers_are_scalar_free(group)


def test_every_dihedral_subgroup_builds_with_scalar_free_transfers():
    for n in range(3, 11):
        for key in subgroup_keys(n):
            _assert_transfers_are_scalar_free(build_subgroup(n, *key)[1])


def _assert_orbits_are_those_of_all_of_g(group):
    # the columns find what walking all of G finds: each pair's
    # representative is the least pair of its orbit in the column of the
    # least vertex of j's orbit, its orbit size is the walked orbit's, the
    # sizes sum to n^2, and the located element carries it to the pair;
    # each representative's two left sources are located with the identity
    # or with its column's mirror
    n, vertex_maps = group.quiver.n, group.vertex_maps
    trunc = IdealTruncation(group)
    assert sum(trunc.orbit_sizes.values()) == n * n
    assert trunc.orbit_reps == sorted(trunc.orbit_sizes)
    for pair in ((i, j) for i in range(n) for j in range(n)):
        rep, t = trunc._locate(pair)
        orbit = {(vm[pair[0]], vm[pair[1]]) for vm in vertex_maps}
        j0 = min(vm[pair[1]] for vm in vertex_maps)
        assert rep == min(p for p in orbit if p[1] == j0) and trunc.orbit_sizes[rep] == len(orbit)
        assert (vertex_maps[t][rep[0]], vertex_maps[t][rep[1]]) == pair
    for i, j in trunc.orbit_reps:
        for source in (((i + 1) % n, j), ((i - 1) % n, j)):
            assert trunc._locate(source)[1] in (0, trunc._mirror[j])
    # _by_parity shares orbit_reps' tuples, each once
    reps = {id(rep) for rep in trunc.orbit_reps}
    shared = [id(rep) for part in trunc._by_parity for rep in part]
    assert sorted(shared) == sorted(reps)


def test_orbits_of_every_dihedral_subgroup_are_those_of_the_whole_group():
    for n in range(3, 13):
        for key in subgroup_keys(n):
            _assert_orbits_are_those_of_all_of_g(build_subgroup(n, *key)[1])


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(group_specs())
@example((4, "rot(1),refl(0),scalar(4;1,2,3,1;3,2,1,3)"))
@example((6, "rot(2),refl(1),scalar(3;1,1,1,1,1,1;2,2,2,2,2,2)"))
def test_orbits_of_every_spec_group_are_those_of_the_whole_group(case):
    n, spec = case
    try:
        group, _ = build_group(spec, n, cap=256)
    except CapExceededError:
        assume(False)
    _assert_orbits_are_those_of_all_of_g(group)


@pytest.mark.parametrize(
    "make, D",
    [
        # the scalar and mixed groups pinned in tests/test_cli.py, at their
        # default cutoff or past it (the mixed-conductor group to 12)
        pytest.param(lambda n=n, spec=spec: _smash_group((n, spec)), D, id=spec)
        for n, spec, D in (
            (5, "scalar(7;1,1,1,1,1;6,6,6,6,6)", 32),
            (4, "scalar(4;1,2,3,1;3,2,1,3)", 67),
            (3, "rot(1),scalar(4;1,1,1;3,3,3)", 24),
            (3, "rot(1),scalar(2;1,1,1;1,1,1)", 24),
            (3, "scalar(3;1,1,1;2,2,2)", 15),
            (3, "scalar(3;1,1,1;2,2,2),scalar(4;1,1,1;3,3,3)", 12),
        )
    ],
)
def test_scalar_blocks_match_the_row_engine(make, D):
    # groups with scalars: the closed-form maps give the former row
    # engine's rank, identity intersection and saturation
    _compare_with_row_engine(make(), D)


def test_membership_through_transfers_carrying_scalars():
    # a group with a coset of N, the vertex-fixing elements, holding no
    # scalar-free element would need transfers carrying scalars; a generator
    # that both moves vertices and scales arrows is refused, so no such
    # group is built
    for make in (scalar_transfer_group, twisted_reflection_group):
        with pytest.raises(ValueError, match="both moves vertices and scales arrows"):
            make()


@pytest.mark.parametrize("n, spec", [(3, "rot(1),refl(0),scalar(3;1,1,1;2,2,2)"), (4, "refl(1),scalar(4;1,2,3,1;3,2,1,3)")])
def test_membership_through_relabelling_transfers(n, spec):
    # groups with scalars whose orbit transfers are scalar-free elements
    # moving vertices: p f_G (q # h) is a member, and conjugation by 1#t
    # maps the representative's block onto block (i, j) and keeps the
    # two-sided ideal, so x in (i, j) is a member exactly when
    # (1#t^-1) x (1#t) is, which the representative's kernel decides alone
    group = _smash_group((n, spec))
    q = group.quiver
    trunc = build_ideal(group, 5)
    pairs = [(i, j) for i in range(q.n) for j in range(q.n)]
    assert group.has_scalars and any(p != trunc._locate(p)[0] for p in pairs)
    f_g = SmashElement.group_sum(group)
    rng = random.Random(11)
    for _ in range(40):
        pm = rng.choice(nf_basis(q, rng.randint(0, 2)))
        qm = rng.choice([m for m in nf_basis(q, rng.randint(0, 3)) if m.source == pm.target(q.n)])
        p = SmashElement.from_algebra(group, AlgebraElement.monomial(q, pm))
        right = SmashElement.from_algebra(group, AlgebraElement.monomial(q, qm), rng.randrange(len(group)))
        x = p * f_g * right
        assert not x.is_zero() and trunc.contains(x)
    one, size = AlgebraElement.one(q), len(group.n_elements)
    refused = checked = 0
    while checked < 60:
        d = rng.randint(1, 5)
        m1, g1 = rng.choice(nf_basis(q, d)), rng.randrange(len(group))
        pair = (m1.source, group.vertex_maps[g1].index(m1.target(q.n)))
        rep, t = trunc._locate(pair)
        if pair == rep:
            continue
        # a second term of block (i, j): m1 is one candidate
        m2, g2 = rng.choice([(m, g) for m in nf_basis(q, d) for g, vm in enumerate(group.vertex_maps) if m.source == pair[0] and vm[pair[1]] == m.target(q.n)])
        x = SmashElement(group, {(m1, g1): Fraction(rng.randint(1, 3)), (m2, g2): Fraction(rng.choice([-2, -1, 1]))})
        back = SmashElement.from_algebra(group, one, group.t_inverse[t // size] * size) * x * SmashElement.from_algebra(group, one, t)
        assert back.degree() == d and {(m.source, group.vertex_maps[g].index(m.target(q.n))) for m, g in back.terms} == {rep}
        member = trunc.contains(back)
        assert trunc.contains(x) == member
        refused += not member
        checked += 1
    assert refused > 0


def _coordinate_kernel(trunc, rep, d):
    """The span of rep's block at degree d over its coordinates: its kernel,
    or a label block read through the reference expansion."""
    block = trunc._block(rep, d)
    if block.runs is None:
        return block.kernel
    coords = trunc.block_coords(*rep, d)
    return expand(block.runs, coords.start, coords.count)


def _pushed_rows(trunc, i, j, d):
    """The rows the coordinate build pushes into block (i, j) at degree d:
    the two left sources, whose coordinate k goes to e_mapping[k], then the
    cut rows e_i f_G e_j' (m#1), each a sum of e_p over the representatives
    t."""
    one = trunc._values[0]
    reps = {id(block): rep for rep, block in trunc._layers[d - 1].items()}     # a source block's rep, for `_coordinate_kernel`
    sources = [trunc._locate(((i + 1) % trunc.n, j)), trunc._locate(((i - 1) % trunc.n, j))]     # as `_build_block` locates them
    for source, mapping in trunc._sources(i, j, d, sources):
        rows = (
            ({k: 1} for k in range(len(mapping)))
            if source.full
            else span_rows(_coordinate_kernel(trunc, reps[id(source)], d - 1))
        )
        for row in rows:
            yield {mapping[k]: c for k, c in row.items()}
    for runs in trunc._cut_rows(i, j, d):
        for x in range(len(runs[0])):
            yield {pos[x]: one for pos in runs}


def _expanded_cut_rows(trunc, i, k, d):
    """The cut rows of block (i, k) at degree d, back in the coordinates
    (g, l): phi_(t, psi, l) = sum over h in N of psi(h) (t h, l).  Each row
    is a frozenset of ((g, l), exponent of z)."""
    bc, size = trunc.block_coords(i, k, d), len(trunc.group.n_elements)
    at = {bc.start[g] + x: (g, bc.first[g] + x * bc.step) for g, count in enumerate(bc.count) for x in range(count)}
    rows = set()
    for runs in trunc._cut_rows(i, k, d):
        for x in range(len(runs[0])):
            row = set()
            for pos in runs:
                label, l = at[pos[x]]
                t, psi = label - label % size, trunc._chars[label % size]
                row |= {((t + h, l), psi[h]) for h in range(size)}
            rows.add(frozenset(row))
    return rows


@pytest.mark.parametrize(
    "make",
    [lambda key=key: build_subgroup(4, *key)[1] for key in subgroup_keys(4)]
    + [lambda key=key: build_subgroup(5, *key)[1] for key in subgroup_keys(5)]
    + [
        lambda: dihedral_group(QuiverA(6)),
        minus_ones_group,
        lambda: _smash_group((3, "rot(1),scalar(4;1,1,1;3,3,3)")),
        lambda: _smash_group((4, "refl(1),scalar(4;1,2,3,1;3,2,1,3)")),
    ],
)
def test_cut_rows_are_the_products_in_the_smash_product(make):
    # every cut row of every orbit-rep block is e_i f_G (m#1) for a monomial
    # m of degree d ending at k, multiplied out in R#G, and every such
    # nonzero product is a cut row
    group = make()
    q, trunc = group.quiver, IdealTruncation(group)
    f_g = SmashElement.group_sum(group)
    for i, k in trunc.orbit_reps:
        left = SmashElement.from_algebra(group, AlgebraElement.idempotent(q, i)) * f_g
        for d in range(6):
            want = set()
            for m in nf_basis(q, d):
                x = left * SmashElement.from_algebra(group, AlgebraElement.monomial(q, m)) if m.target(q.n) == k else None
                if x is not None and not x.is_zero():
                    want.add(frozenset(((g, mono.nonstars), trunc._values.index(c)) for (mono, g), c in x.terms.items()))
            assert _expanded_cut_rows(trunc, i, k, d) == want, (group.elements, i, k, d)


@pytest.mark.parametrize("n", range(3, 7))
def test_partition_membership_matches_int_echelon(n):
    rng = random.Random(n)
    for key in subgroup_keys(n):
        _, group = build_subgroup(n, *key)
        D = 2 * n + 2
        trunc, oracle = _compare_with_row_engine(group, D)
        for d in range(1, D + 1):
            for rep in trunc.orbit_reps:
                ech = oracle.layers[d][rep]
                if ech is None:
                    continue
                part = _coordinate_kernel(trunc, rep, d)
                size = len(part.root)
                for row in _pushed_rows(trunc, *rep, d):
                    assert contains(part, row) and contains(ech, row)
                basis = list(ech.pivots.values())
                for _ in range(12):
                    row = {}
                    for r in rng.sample(basis, min(3, len(basis))):
                        c = rng.choice([-3, -1, 1, 2])
                        for k, v in r.items():
                            row[k] = row.get(k, 0) + c * v
                    if rng.random() < 0.5:
                        k = rng.randrange(size)
                        row[k] = row.get(k, 0) + rng.choice([-1, 1])
                    assert contains(part, row) == contains(ech, row)
                    sparse = {rng.randrange(size): rng.randint(-2, 2) for _ in range(rng.randint(1, 4))}
                    assert contains(part, sparse) == contains(ech, sparse)


def test_block_coords_are_the_scanned_coordinates():
    groups = [g for _, g in enumerate_subgroups(6)] + [minus_ones_group()]
    for group in groups:
        trunc = IdealTruncation(group)
        oracle = _RowEngine(trunc)
        for d in range(9):
            for i in range(6 if group.quiver.n == 6 else 3):
                for j in range(group.quiver.n):
                    coords, index = oracle.block(i, j, d)
                    got = trunc.block_coords(i, j, d)
                    assert _coords_of(got) == tuple(coords) and all(got.start[g] + (l - got.first[g]) // got.step == p for (g, l), p in index.items())
                    assert [p for p, (gi, _) in enumerate(coords) if gi == 0] == list(range(got.count[0]))


def test_degree_zero_refuses_a_cut_of_another_shape():
    # refl(0) and -1 on every arrow fix vertex 0 together with their
    # product, so the cut e_0 f_G e_0 has four terms (g, 0); in character
    # coordinates it is phi_(1, 1, 0) + phi_(refl(0), 1, 0), a binomial, and
    # the group builds.  A partition holds units and signed binomials only,
    # and a row of any other shape is refused.
    q = QuiverA(3)
    minus = scalar_powers(q, 2, [1] * 3, [1] * 3)
    group = generate_group([reflection(q, 0), minus])
    assert len(group) == 4
    trunc = build_ideal(group, 2)
    for d in range(3):
        assert trunc.ideal_dimension(d) == naive_ideal_dimension(group, d)
    with pytest.raises(ValueError, match="neither a unit nor a signed binomial"):
        insert(SignedPartition(4), {0: 1, 1: 1, 2: 1, 3: 1})


# ---------------------------------------------------------------------------
# Properties over random subgroups of D_n
# ---------------------------------------------------------------------------


@st.composite
def dihedral_specs(draw):
    """(n, spec) for a random subgroup of D_n, n = 3..8: one to three
    rotation and reflection terms."""
    n = draw(st.integers(3, 8))
    terms = draw(
        st.lists(
            st.tuples(st.sampled_from(["rot", "refl"]), st.integers(0, n - 1)),
            min_size=1,
            max_size=3,
        )
    )
    return n, ",".join(f"{kind}({a})" for kind, a in terms)


def _smash_group(spec):
    n, text = spec
    return build_group(text, n)[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dihedral_specs(), st.randoms(use_true_random=False))
def test_smash_product_is_associative(spec, rng):
    group = _smash_group(spec)
    mons = [m for d in range(3) for m in nf_basis(group.quiver, d)]

    def element():
        return SmashElement(
            group,
            {(rng.choice(mons), rng.randrange(len(group))): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)},
        )

    for _ in range(10):
        x, y, z = element(), element(), element()
        assert (x * y) * z == x * (y * z)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dihedral_specs(), st.randoms(use_true_random=False))
def test_products_through_the_group_sum_lie_in_the_ideal(spec, rng):
    # p f_G (q # h) lies in (f_G) for monomials p, q and every h; q starts
    # where p ends, so the identity term p q # h keeps the product nonzero
    group = _smash_group(spec)
    q = group.quiver
    trunc = IdealTruncation(group)
    f_g = SmashElement.group_sum(group)
    for _ in range(8):
        pm = rng.choice(nf_basis(q, rng.randint(0, 4)))
        qm = rng.choice([m for m in nf_basis(q, rng.randint(0, 4)) if m.source == pm.target(q.n)])
        p = SmashElement.from_algebra(group, AlgebraElement.monomial(q, pm))
        right = SmashElement.from_algebra(group, AlgebraElement.monomial(q, qm), rng.randrange(len(group)))
        x = p * f_g * right
        assert not x.is_zero() and trunc.contains(x)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dihedral_specs())
def test_partition_invariants(spec):
    # every pushed edge and unit is contained in the block it was pushed
    # into, and no rank exceeds its block dimension
    group = _smash_group(spec)
    n = group.quiver.n
    trunc = build_ideal(group, 2 * n + 2)
    for d in range(2 * n + 3):
        for rep in trunc.orbit_reps:
            block = trunc._block(rep, d)
            size = trunc.block_coords(*rep, d).size
            assert 0 <= trunc.block_rank(rep, d) <= size
            assert 0 <= trunc.block_identity_intersection(rep, d) <= trunc.block_coords(*rep, d).count[0]
            if block.full or d == 0:
                continue
            kernel = _coordinate_kernel(trunc, rep, d)
            assert kernel.rank < size and len(kernel.root) == size
            for row in _pushed_rows(trunc, *rep, d):
                assert contains(kernel, row)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(group_specs(), st.integers(1, 6))
@example((4, "rot(1),refl(0),scalar(5;1,1,1,1;4,4,4,4)"), 6)
@example((6, "refl(0),scalar(4;1,1,1,1,1,1;3,3,3,3,3,3)"), 6)
@example((3, "scalar(3;1,1,1;2,2,2),scalar(4;1,1,1;3,3,3),rot(1)"), 6)
@example((4, "refl(1),scalar(4;1,2,3,1;3,2,1,3)"), 6)
@example((4, "rot(2),scalar(6;1,2,3,4;5,4,3,2)"), 6)
def test_gain_partitions_match_the_row_engine(case, D):
    # random groups with rotations, reflections and scalars (mixed
    # conductors included, order at most 64): every orbit-rep block has the
    # row engine's rank, identity intersection and saturation, every pushed
    # row lies in the block it was pushed into, and 0 <= rank <= dimension
    n, spec = case
    try:
        group, _ = build_group(spec, n, cap=64)
    except CapExceededError:
        assume(False)
    trunc, _ = _compare_with_row_engine(group, D)
    for d in range(D + 1):
        for rep in trunc.orbit_reps:
            block = trunc._layers[d][rep]
            assert 0 <= trunc.block_rank(rep, d) <= trunc.block_coords(*rep, d).size
            if block.full or d == 0:
                continue
            kernel = _coordinate_kernel(trunc, rep, d)
            for row in _pushed_rows(trunc, *rep, d):
                assert contains(kernel, row)


def _predicted_dims(n, group, D):
    """The identity series of a subgroup of D_n in closed form (conjectured
    from the engine): n min(d + 1, n / gcd(n, 2)) when G holds every
    vertex-fixing reflection, and otherwise the number of vertices fixed by
    some reflection of G at degree 0 and nothing after."""
    if classify_auslander(n, group) == "not_iso":
        return [n * min(d + 1, n // gcd(n, 2)) for d in range(D + 1)]
    fixed = {v for g in group.elements if g.refl for v in range(n) if g.vertex_image(v) == v}
    return [len(fixed)] + [0] * D


def test_identity_series_of_dihedral_subgroups_is_closed_form():
    # every subgroup of D_n, n = 3..30, at the cutoff 4n + 4
    count = 0
    for n in range(3, 31):
        for key in subgroup_keys(n):
            _, group = build_subgroup(n, *key)
            assert identity_component_dims(group, 4 * n + 4) == _predicted_dims(n, group, 4 * n + 4), (n, key)
            count += 1
    assert count == 866


@pytest.mark.parametrize("n", [57, 64, 101])
def test_the_label_build_runs_past_the_cell_limit(monkeypatch, n):
    # the limit refuses D_n at its default cutoff for these n; lifted, the
    # label build still gives the closed-form series and the classifier's
    # verdict
    import auslab.smash as smash

    group, D = dihedral_group(QuiverA(n)), 4 * n + 4
    with pytest.raises(MemoryError):
        smash.check_ideal_cells(n, D)
    monkeypatch.setattr(smash, "IDEAL_CELL_LIMIT", 10**12)
    assert identity_component_dims(group, D) == _predicted_dims(n, group, D)
    report = auslander_verdict(n, group)
    assert report.degree == D and report.verdict == report.classifier == classify_auslander(n, group) == "not_iso"


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(group_specs())
@example((4, "refl(0),scalar(2;1,1,1,1;1,1,1,1)"))
@example((3, "refl(0),scalar(2;1,1,1;1,1,1)"))
@example((6, "refl(1),scalar(3;1,1,1,1,1,1;2,2,2,2,2,2)"))
@example((5, "rot(1),scalar(2;1,1,1,1,1;1,1,1,1,1)"))
@example((4, "rot(2),refl(1),scalar(2;1,0,1,0;1,0,1,0)"))
def test_identity_chain_alone_gives_the_series(case):
    # Q = R#G/(f_G) is generated in degree 1 over Q_0 and Q_d vanishes with
    # its identity component, so after the first zero of the series every
    # entry is zero.  The identity chain alone gives the series that a build
    # of both chains, degree by degree, gives; and the two-source recursion
    # spans the naive spanning set's ideal.
    n, spec = case
    try:
        group, _ = build_group(spec, n, cap=16)
    except CapExceededError:
        assume(False)
    D = 14
    dims = identity_component_dims(group, D)
    if 0 in dims:
        assert not any(dims[dims.index(0):])
    both = IdealTruncation(group)
    for d in range(D + 1):
        both.ideal_dimension(d)
    assert both._through == ([D, D] if n % 2 == 0 else [D, -1])
    assert [both.identity_component_dim(d) for d in range(D + 1)] == dims
    for d in range(4):
        assert both.ideal_dimension(d) == naive_ideal_dimension(group, d)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(st.one_of(group_specs(), dihedral_specs()))
@example((3, "rot(1),refl(0)"))
@example((4, "rot(2),refl(0)"))
@example((3, "rot(1),scalar(2;1,1,1;1,1,1)"))
def test_identity_component_vanishes_exactly_when_its_chain_saturates(case):
    # the lemma behind a saturated repeat: at every degree up to the cutoff
    # 4n + 4 the identity component is 0 exactly when every block of the
    # identity chain is saturated, and no nonzero entry follows the first 0
    n, spec = case
    try:
        group, _ = build_group(spec, n, cap=64)
    except CapExceededError:
        assume(False)
    D = 4 * n + 4
    trunc = build_ideal(group, D)
    dims = [trunc.identity_component_dim(d) for d in range(D + 1)]
    for d in range(D + 1):
        saturated = all(trunc._layers[d][rep].full for rep in trunc._by_parity[d % trunc._chains])
        assert (dims[d] == 0) == saturated, (spec, d)
    if 0 in dims:
        assert not any(dims[dims.index(0):])


def test_extend_builds_the_identity_chain_only():
    # D_16 never saturates: extend leaves every block of the other parity
    # chain unbuilt, and a query that reads every block builds it on demand
    group = dihedral_group(QuiverA(16))
    trunc = build_ideal(group, 10)
    assert trunc._through == [10, -1] and trunc.built_through() == 10
    for d in range(11):
        assert {(j - i + d) % 2 for i, j in trunc._layers[d]} == {0}
    assert 0 < trunc.ideal_dimension(10) < 16 * 11 * len(group)
    assert trunc._through == [10, 10]
    assert {(j - i) % 2 for i, j in trunc._layers[10]} == {0, 1}


@pytest.mark.parametrize(
    "spec, n",
    [("rot(0)", 9), ("rot(1),refl(0)", 8), ("rot(2),scalar(6;1,2,3,4,5,0;5,4,3,2,1,0)", 6)],
)
def test_block_coords_read_the_progressions_once_per_degree(monkeypatch, spec, n):
    # an element's progression depends only on d + g(j) - i mod n, so the n
    # progressions of a degree serve all n^2 of its blocks
    import auslab.smash as smash

    progression, calls = smash._progression, []
    monkeypatch.setattr(smash, "_progression", lambda *args: calls.append(args) or progression(*args))
    group, _ = build_group(spec, n)
    trunc = IdealTruncation(group)
    for d in range(4):
        calls.clear()
        for i in range(n):
            for j in range(n):
                coords = trunc.block_coords(i, j, d)
                every = [progression(n, d + vm[j] - i, d) for vm in group.vertex_maps]
                assert (coords.first, coords.count) == ([f for f, _ in every], [c for _, c in every])
        assert len(calls) == n


# ---------------------------------------------------------------------------
# The label build against the coordinate build
# ---------------------------------------------------------------------------


def _ideal_measurements(group, D, every_block):
    """The identity series through degree D, and with `every_block` the
    ideal dimension and every block rank of both chains and the membership
    of the `verify --suite smash` certificates, each beside a non-member, at
    degrees n, n + 1 and 2n + 1; with the number of blocks kept over labels."""
    trunc = build_ideal(group, D)
    out = [trunc.identity_component_dim(d) for d in range(D + 1)]
    if every_block:
        q, n = group.quiver, group.quiver.n
        out += [trunc.ideal_dimension(d) for d in range(D + 1)]
        out += [trunc.block_rank(rep, d) for d in range(D + 1) for rep in trunc.orbit_reps]
        out.append(trunc.contains(SmashElement.group_sum(group)))
        for d in (n, n + 1, 2 * n + 1):
            p = AlgebraElement.monomial(q, NFMonomial(0, d, 0))
            qq = AlgebraElement.monomial(q, NFMonomial(0, 0, d))
            out += [trunc.contains(SmashElement.from_algebra(group, p - qq)), trunc.contains(SmashElement.from_algebra(group, p))]
    return out, sum(block.runs is not None for layer in trunc._layers for block in layer.values())


@pytest.mark.parametrize("n", range(3, 11))
def test_run_ends_meet_at_degree_step(monkeypatch, n):
    # the lemma behind the label build at d = step, where a run can be the
    # two coordinates {0, step}: ((i, step, 0) - (i, 0, step))#g lies in the
    # ideal for every vertex i and element g.  It is checked on the
    # coordinate build, forced by `has_scalars`, so the label build is not
    # its own witness; and (i, step, 0)#g alone is not always a member
    step = n if n % 2 else n // 2
    outside = 0
    for key in subgroup_keys(n):
        _, group = build_subgroup(n, *key)
        monkeypatch.setattr(group, "has_scalars", True)
        q, trunc = group.quiver, build_ideal(group, step)
        for i in range(n):
            top = AlgebraElement.monomial(q, NFMonomial(i, step, 0))
            z = top - AlgebraElement.monomial(q, NFMonomial(i, 0, step))
            for g in range(len(group)):
                assert trunc.contains(SmashElement.from_algebra(group, z, g)), (key, i, g)
                outside += not trunc.contains(SmashElement.from_algebra(group, top, g))
        assert all(block.runs is None for layer in trunc._layers for block in layer.values())
    assert outside > 0


@pytest.mark.parametrize("n", range(3, 17))
def test_label_build_matches_the_coordinate_build(monkeypatch, n):
    # a group without scalars keeps its blocks over their labels, one node
    # per label's run of coordinates; with `has_scalars` forced on, every
    # degree runs the coordinate build, and the identity series (and for
    # n <= 6 every block rank and membership) is the same.  The gate is N
    # trivial, not K = 2: the groups with scalars of order 2 keep every
    # block on its coordinates
    groups = [build_subgroup(n, *key)[1] for key in subgroup_keys(n)]
    if n == 4:
        groups += [_smash_group((4, spec)) for spec in ("rot(2),refl(0),scalar(2;1,1,1,1;0,0,0,0)", "rot(1),refl(0),scalar(2;1,0,0,0;1,0,0,0)")]
    labelled = 0
    for group in groups:
        D = default_cutoff(n, group) + n
        got, kept = _ideal_measurements(group, D, n <= 6)
        with monkeypatch.context() as patched:
            patched.setattr(group, "has_scalars", True)
            want, refused = _ideal_measurements(group, D, n <= 6)
        assert got == want and refused == 0, (n, group.elements)
        if group.has_scalars:
            assert IdealTruncation(group)._K == 2 and kept == 0
        labelled += kept
    assert labelled > 0


@pytest.mark.parametrize("n", range(3, 13))
def test_label_masks_are_the_non_empty_runs(n):
    # below step - 1 a label block reads its mask off the degree's
    # progressions, and from there on one mask per parity of d + j - i;
    # either way it is which runs block_coords lays out non-empty, on both
    # sides of step - 1 and at both parities
    for key in subgroup_keys(n):
        _, group = build_subgroup(n, *key)
        trunc = IdealTruncation(group)
        for d in range(3 * n + 1):
            for i in range(n):
                for j in range(n):
                    want = [c > 0 for c in trunc.block_coords(i, j, d).count]
                    assert trunc._label_mask(i, j, d) == want, (key, i, j, d)


# ---------------------------------------------------------------------------
# The repeat of a scalar-free chain
# ---------------------------------------------------------------------------


def _block_answers(group, D):
    """The identity series through degree D, and the rank and identity
    intersection of every orbit-representative block of both chains."""
    trunc = build_ideal(group, D)
    dims = [trunc.identity_component_dim(d) for d in range(D + 1)]
    blocks = [(trunc.block_rank(rep, d), trunc.block_identity_intersection(rep, d)) for d in range(D + 1) for rep in trunc.orbit_reps]
    return dims, blocks, trunc._repeat_from


@pytest.mark.parametrize("n", range(3, 17))
def test_repeated_layers_change_no_answer(monkeypatch, n):
    # the repeat rule: every subgroup of D_n, built past its repeat, gives
    # the identity series, block ranks and identity intersections of a build
    # whose repeat test never succeeds, so that every degree is built
    import auslab.smash as smash

    step = n if n % 2 else n // 2
    D = 4 * n + 4 + 2 * step
    repeated = 0
    for key in subgroup_keys(n):
        _, group = build_subgroup(n, *key)
        got = _block_answers(group, D)
        with monkeypatch.context() as patched:
            patched.setattr(smash, "_same_span", lambda a, b: False)
            want = _block_answers(group, D)
        assert want[2] == [None, None]
        assert got[:2] == want[:2], (n, key)
        repeated += got[2][0] is not None
    assert repeated > 0


def _series_without_repeat(group, D):
    """`identity_component_dims` of a build whose repeat test never
    succeeds, so that every degree is built and none is read back."""
    import auslab.smash as smash

    with unittest.mock.patch.object(smash, "_same_span", lambda a, b: False):
        return identity_component_dims(group, D)


@pytest.mark.parametrize("n", range(3, 17))
def test_the_series_reads_back_past_the_repeat(n):
    # from the identity chain's repeat on, `identity_component_dims` builds
    # nothing and reads each entry two degrees back: every subgroup of D_n
    # gives the series of a build of every degree
    step = n if n % 2 else n // 2
    D = 4 * n + 4 + 2 * step
    for key in subgroup_keys(n):
        _, group = build_subgroup(n, *key)
        assert identity_component_dims(group, D) == _series_without_repeat(group, D), (n, key)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(group_specs())
@example((4, "refl(0),scalar(2;1,1,1,1;1,1,1,1)"))
@example((3, "rot(1),scalar(2;1,1,1;1,1,1)"))
@example((5, "scalar(7;1,1,1,1,1;6,6,6,6,6)"))
def test_the_series_of_a_group_with_scalars_reads_back_past_the_repeat(case):
    # a group with scalars repeats only once saturated, and reads back zeros
    n, spec = case
    try:
        group, _ = build_group(spec, n, cap=64)
    except CapExceededError:
        assume(False)
    step = n if n % 2 else n // 2
    D = 4 * n + 4 + 2 * step
    assert identity_component_dims(group, D) == _series_without_repeat(group, D), spec


def test_the_verdict_builds_nothing_past_the_repeat(monkeypatch):
    # D_16 at degree 540 repeats from step + 2 = 10, so its verdict builds
    # blocks through degree step + 1 = 9 only
    import auslab.smash as smash

    built, build_block = set(), smash.IdealTruncation._build_block
    monkeypatch.setattr(smash.IdealTruncation, "_build_block", lambda self, i, j, d: built.add(d) or build_block(self, i, j, d))
    report = auslander_verdict(16, dihedral_group(QuiverA(16)), 540)
    assert len(report.dims) == 541 and report.verdict == "not_iso"
    assert max(built) == 9


@pytest.mark.parametrize("n", [7, 8])
def test_a_layer_after_a_saturated_one_is_filled_unbuilt(monkeypatch, n):
    # the trivial group saturates at degree 0, so no block of a later layer
    # is built, and both chains still repeat two degrees after saturating
    import auslab.smash as smash

    built, build_block = set(), smash.IdealTruncation._build_block
    monkeypatch.setattr(smash.IdealTruncation, "_build_block", lambda self, i, j, d: built.add(d) or build_block(self, i, j, d))
    trunc = IdealTruncation(build_subgroup(n, "cyclic", n, None)[1])
    trunc.ideal_dimension(6)
    assert built == {0}
    assert all(block.full for layer in trunc._layers for block in layer.values())
    assert trunc._repeat_from == [3, 3 if n % 2 == 0 else None]
    assert identity_component_dims(trunc.group, 6) == [0] * 7


def test_every_non_saturating_dihedral_subgroup_repeats_at_step_plus_2():
    # the repeat is measured, not proved, to start at step + 2: the groups
    # holding every vertex-fixing reflection never saturate and repeat there,
    # and the others repeat saturated by the cutoff 4n + 4
    count = 0
    for n in range(3, 21):
        step = n if n % 2 else n // 2
        for key in subgroup_keys(n):
            _, group = build_subgroup(n, *key)
            trunc = build_ideal(group, 4 * n + 4)
            repeat = trunc._repeat_from[0]
            assert repeat is not None and repeat <= 4 * n + 4, (n, key)
            saturated = all(trunc._layers[repeat - 1][rep].full for rep in trunc._by_parity[(repeat - 1) % trunc._chains])
            if classify_auslander(n, group) == "not_iso":
                assert repeat == step + 2 and not saturated, (n, key)
                count += 1
            else:
                assert saturated, (n, key)
    assert count == 27


def test_a_repeated_chain_keeps_its_blocks():
    # D_16 through degree 2000 holds no block object that its build through
    # step + 1 does not, and its series is still n^2 / 2; the other chain,
    # built on demand, repeats from step + 2 as well
    group = dihedral_group(QuiverA(16))
    step = 8

    def distinct_blocks(trunc):
        return len({id(block) for layer in trunc._layers for block in layer.values()})

    trunc = build_ideal(group, 2000)
    assert trunc._repeat_from == [step + 2, None]
    assert distinct_blocks(trunc) <= distinct_blocks(build_ideal(group, step + 1))
    assert trunc.identity_component_dim(2000) == 16 * 8
    both, short = IdealTruncation(group), IdealTruncation(group)
    both.ideal_dimension(2000)
    short.ideal_dimension(step + 1)
    assert both._repeat_from == [step + 2, step + 2]
    assert distinct_blocks(both) <= distinct_blocks(short)


@pytest.mark.parametrize("n", [5, 6])
def test_membership_at_repeated_degrees(n):
    # at degrees step + 2 .. step + 9, every layer of the identity chain a
    # copy of the one two degrees earlier: p f_G (q # h) lies in the ideal,
    # and no canonical monomial of R_d # 1 does, as each is alone on a live
    # identity run
    group = dihedral_group(QuiverA(n))
    q = group.quiver
    step = n if n % 2 else n // 2
    rng = random.Random(n)
    trunc = build_ideal(group, step + 9)
    assert trunc._repeat_from[0] == step + 2
    f_g = SmashElement.group_sum(group)
    for d in range(step + 2, step + 10):
        for _ in range(6):
            a = rng.randint(0, d)
            pm = rng.choice(nf_basis(q, a))
            qm = rng.choice([m for m in nf_basis(q, d - a) if m.source == pm.target(n)])
            p = SmashElement.from_algebra(group, AlgebraElement.monomial(q, pm))
            right = SmashElement.from_algebra(group, AlgebraElement.monomial(q, qm), rng.randrange(len(group)))
            x = p * f_g * right
            assert not x.is_zero() and trunc.contains(x), (d, pm, qm)
        for m in nf_basis(q, d):
            assert not trunc.contains(SmashElement.from_algebra(group, AlgebraElement.monomial(q, m))), (d, m)
