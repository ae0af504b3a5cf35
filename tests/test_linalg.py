from fractions import Fraction
from itertools import accumulate
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auslab.linalg import FieldEchelon, IntEchelon, SignedPartition, rank
from auslab.preproj import NFMonomial
from auslab.scalars import get_context, root_powers
from reference import contains, expand, insert, lead_count_at_least, span_rows


def test_int_echelon_rank_and_membership():
    ech = IntEchelon()
    assert ech.insert({0: 2, 1: 4})
    assert ech.insert({1: 1, 2: 1})
    assert not ech.insert({0: 1, 1: 3, 2: 1})  # dependent
    assert ech.rank == 2
    assert contains(ech, {0: 3, 1: 6})
    assert not contains(ech, {2: 5})
    # rows are primitive with positive leads
    for row in ech.pivots.values():
        lead = min(row)
        assert row[lead] > 0


def test_field_echelon_with_fractions():
    ech = FieldEchelon()
    ech.insert({0: Fraction(1, 2), 2: Fraction(3)})
    ech.insert({0: Fraction(1), 2: Fraction(6), 3: Fraction(1)})
    assert ech.rank == 2
    assert contains(ech, {3: Fraction(5)})
    res = ech.residue({1: Fraction(1)})
    assert res == {1: Fraction(1)}


def test_field_echelon_with_cyclotomics():
    from auslab.scalars import get_context, make_root_of_unity

    ctx = get_context(4)
    z = make_root_of_unity(ctx, 1)
    ech = FieldEchelon()
    ech.insert({0: z, 1: ctx.from_rational(1)})
    # z * row has the same span
    assert not ech.insert({0: z * z, 1: z})
    assert ech.insert({1: ctx.from_rational(1)})
    assert ech.rank == 2


def test_lead_counting_reads_suffix_intersections():
    ech = IntEchelon()
    ech.insert({0: 1, 5: 2})
    ech.insert({4: 1, 6: 1})
    ech.insert({5: 3})
    assert lead_count_at_least(ech, 4) == 2
    assert lead_count_at_least(ech, 6) == 0


def test_rank_of_known_matrix():
    rows = [
        {0: 1, 1: 2, 2: 3},
        {0: 2, 1: 4, 2: 6},
        {1: 1},
    ]
    ints = IntEchelon()
    for row in rows:
        ints.insert(row)
    assert ints.rank == 2
    field = FieldEchelon()
    for row in rows:
        field.insert({k: Fraction(v) for k, v in row.items()})
    assert field.rank == 2


def test_signed_partition_unions_and_cycles():
    part = SignedPartition(5)
    assert insert(part, {0: 1, 1: 1})          # e_0 = -e_1
    assert insert(part, {1: 2, 2: -2})          # e_1 = e_2
    assert not insert(part, {0: 3, 2: 3})      # e_0 = -e_2 already holds
    assert (part.rank, part.live) == (2, 3)
    assert contains(part, {0: 1, 2: 1}) and not contains(part, {0: 1, 2: -1})
    assert insert(part, {0: 1, 2: -1})          # unbalanced cycle: 0, 1, 2 die
    assert contains(part, {1: 7}) and part.rank == 3
    assert insert(part, {4: -5})
    assert lead_count_at_least(part, 3) == 1 and lead_count_at_least(part, 0) == 4
    # absorbing e_0 - e_1 into a partition holding e_0 + e_1 closes an
    # unbalanced cycle
    source, part = SignedPartition(2), SignedPartition(3)
    insert(source, {0: 1, 1: -1})
    insert(part, {1: 1, 2: 1})
    part.absorb([2, 1], source)
    assert part.rank == 2 and contains(part, {1: 1}) and contains(part, {2: 1})
    for bad in ({0: 1, 3: 2}, {0: 1, 3: 1, 4: 1}):
        with pytest.raises(ValueError, match="neither a unit nor a signed binomial"):
            insert(SignedPartition(5), bad)


signed_rows = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 9), st.integers(-3, 3).filter(bool)).map(lambda t: {t[0]: t[1]}),
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(1, 3), st.sampled_from([1, -1]))
        .filter(lambda t: t[0] != t[1])
        .map(lambda t: {t[0]: t[2], t[1]: t[3] * t[2]}),
    ),
    max_size=14,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=signed_rows, probes=st.lists(st.dictionaries(st.integers(0, 9), st.integers(-2, 2), max_size=4), max_size=6))
def test_signed_partition_is_the_integer_span(rows, probes):
    # rank, suffix intersections and membership agree with IntEchelon after
    # every insertion; every inserted row is contained, and rows() is a basis
    part, ech = SignedPartition(10), IntEchelon()
    for row in rows:
        assert insert(part, row) == ech.insert(row)
        assert part.rank == ech.rank <= 10
        assert contains(part, row)
    assert [lead_count_at_least(part, t) for t in range(11)] == [lead_count_at_least(ech, t) for t in range(11)]
    for probe in probes + rows:
        assert contains(part, probe) == contains(ech, probe)
        assert contains(part, {k: Fraction(c, 3) for k, c in probe.items()}) == contains(ech, probe)
    basis = IntEchelon()
    for row in span_rows(part):
        assert contains(ech, row) and basis.insert(row)
    assert basis.rank == part.rank
    assert all(part.root[r] == r and part.gain[r] == 0 for r in part.root)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=signed_rows, first=signed_rows, mapping=st.permutations(range(12)))
def test_signed_partition_absorbs_an_image(rows, first, mapping):
    # absorbing a source through an injective map adds the mapped rows,
    # into a fresh partition and into one that already holds rows
    source = SignedPartition(10)
    for row in rows:
        insert(source, row)
    for seed in ([], first):
        part, ech = SignedPartition(12), IntEchelon()
        for row in seed:
            insert(part, row)
            ech.insert(row)
        part.absorb(mapping[:10], source)
        for row in span_rows(source):
            ech.insert({mapping[k]: c for k, c in row.items()})
        assert part.rank == ech.rank
        assert [lead_count_at_least(part, t) for t in range(13)] == [lead_count_at_least(ech, t) for t in range(13)]
    whole = SignedPartition(12)
    whole.absorb(mapping[:10], None)
    assert whole.rank == 10 and lead_count_at_least(whole, 0) == 10


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=signed_rows, counts=st.lists(st.integers(0, 3), min_size=10, max_size=10))
def test_expanded_runs_are_the_span_they_stand_for(rows, counts):
    # node x stands for a run of counts[x] consecutive coordinates: the
    # reference expansion of a partition over the nodes is the span of the
    # same rows on the runs' first coordinates with each run joined at gain
    # 0, and each of its components lists exactly its coordinates
    starts = list(accumulate(counts, initial=0))[:-1]
    rows = [row for row in rows if all(counts[x] for x in row)]
    nodes, coords = SignedPartition(10), SignedPartition(sum(counts))
    for s, c in zip(starts, counts):
        for p in range(s + 1, s + c):
            insert(coords, {s: 1, p: -1})
    for row in rows:
        insert(nodes, row)
        insert(coords, {starts[x]: c for x, c in row.items()})
    expanded = expand(nodes, starts, counts)
    assert expanded.rank == coords.rank and expanded.live == coords.live
    assert all(contains(expanded, row) for row in span_rows(coords)) and all(contains(coords, row) for row in span_rows(expanded))
    components = {r: [k for k, rk in enumerate(expanded.root) if rk == r] for r in set(expanded.root)}
    assert {r: sorted(mem) for r, mem in expanded.members.items()} == {r: mem for r, mem in components.items() if len(mem) > 1}
    assert all(expanded.gain[r] == 0 for r in components)


@st.composite
def tail_runs(draw):
    """(starts, count): runs of `count` consecutive coordinates out of 10,
    one per start, pairwise disjoint."""
    count = draw(st.integers(1, 3))
    starts = draw(st.lists(st.sampled_from(range(0, 11 - count, count)), min_size=1, max_size=3, unique=True))
    return starts, count


gain_rows = st.lists(
    st.one_of(
        st.integers(0, 9).map(lambda a: (a,)),
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 5)).filter(lambda t: t[0] != t[1]),
    ),
    max_size=12,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=gain_rows, runs=tail_runs(), m=st.sampled_from([1, 3, 4]))
@example(rows=[(3,), (4,), (5,), (0, 1, 0)], runs=([0, 3], 3), m=1)   # two images on one root
def test_image_rank_is_the_rank_the_sums_add(rows, runs, m):
    # units e_a and binomials e_a - z^s e_b with z a primitive K-th root,
    # K = lcm(2, m): the rank of the sums' images in the quotient is what
    # they add to the span's rank, found by a FieldEchelon over Q(zeta_m)
    values = root_powers(m)
    part, ech = SignedPartition(10, values), FieldEchelon()
    for row in rows:
        if len(row) == 1:
            part.kill(row[0])
            ech.insert({row[0]: values[0]})
        else:
            a, b, s = row[0], row[1], row[2] % len(values)
            part.join(a, b, s)
            ech.insert({a: values[0], b: -values[s]})
        assert part.rank == ech.rank
    starts, count = runs
    base = ech.rank
    for x in range(count):
        ech.insert({s + x: values[0] for s in starts})
    assert part.image_rank(starts, count) == ech.rank - base


@st.composite
def keyed_rows(draw):
    """(rows, keys, m): rows over up to 8 keys, NFMonomials or
    (NFMonomial, element index) pairs, with rational entries (m = 1) or
    entries in Q(zeta_m); a third of them combine two earlier rows, so the
    rank often falls short of the number of rows."""
    m = draw(st.sampled_from([1, 3, 4, 5]))
    monomials = st.builds(NFMonomial, st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    key = st.tuples(monomials, st.integers(0, 5)) if draw(st.booleans()) else monomials
    keys = draw(st.lists(key, min_size=1, max_size=8, unique=True))
    fraction = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if m == 1:
        entry = fraction
    else:
        ctx = get_context(m)
        entry = st.lists(fraction, min_size=1, max_size=ctx.degree).map(ctx.from_coeffs)
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        if len(rows) >= 2 and draw(st.integers(0, 2)) == 0:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(entry), draw(entry)
            row = {k: ca * a.get(k, 0) + cb * b.get(k, 0) for k in keys}
        else:
            row = draw(st.dictionaries(st.sampled_from(keys), entry, max_size=len(keys)))
        rows.append({k: c for k, c in row.items() if c})
    return rows, keys, m


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=keyed_rows(), data=st.data())
def test_rank_does_not_depend_on_how_keys_are_named(case, data):
    # the rank of rows keyed by NFMonomials or (NFMonomial, int) pairs is
    # the rank of the same rows re-keyed by integer positions, in any order
    rows, keys, m = case
    position = dict(zip(keys, data.draw(st.permutations(range(len(keys))))))
    got = rank(rows)
    assert got == rank({position[k]: c for k, c in row.items()} for row in rows)
    assert got <= min(len(rows), len(keys))
    if m == 1:
        # and, over Q, the rank of the integer rows a fraction-free echelon finds
        ints = IntEchelon()
        for row in rows:
            den = lcm(1, *(c.denominator for c in row.values()))
            ints.insert({position[k]: int(c * den) for k, c in row.items()})
        assert got == ints.rank


def test_rank_of_rows_keyed_by_monomials():
    a, b, c = NFMonomial(0, 1, 0), NFMonomial(0, 0, 1), NFMonomial(1, 1, 0)
    rows = [{a: 1, b: 2}, {a: Fraction(1, 2), b: 1}, {c: 3}, {}]
    assert rank(rows) == 2
    assert rank([{(a, 0): 1}, {(a, 1): 1}, {(a, 0): 1, (a, 1): -1}]) == 2
    assert rank([]) == 0
