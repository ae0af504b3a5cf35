import random
from fractions import Fraction

import pytest

from auslab.linalg import FieldEchelon
from auslab.preproj import (
    AlgebraElement,
    NFMonomial,
    RelationIdealOracle,
    hilbert,
    nf_basis,
)
from auslab.quiver import ArrowRef, QuiverA
from reference import adjacency_matrix, contains, free_basis, normal_form, oracle_basis


def test_oracle_dims_small():
    q = QuiverA(3)
    oracle = RelationIdealOracle(q)
    assert oracle.dimension(0) == 3
    assert oracle.dimension(1) == 6
    assert oracle.dimension(2) == 9


def _word_level_classes(n: int, D: int) -> dict[int, list[int]]:
    """Reference: degree d -> class minimum of every free word, by a
    union-find over all n * 2^d words, merging the arrow multiples of each
    non-minimal word of degree d-1 with those of its class minimum."""
    _rep: dict[int, list[int]] = {}
    for d in range(D + 1):
        size = n << d
        parent = list(range(size))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

        if d == 2:
            # Vertex relations e_i Omega e_i: alpha_i alpha_i* (code 01)
            # equals alpha_{i-1}* alpha_{i-1} (code 10).
            for i in range(n):
                union(i * 4 + 1, i * 4 + 2)
        if d > 2:
            prev_rep = _rep[d - 1]
            half = 1 << (d - 1)
            for flat, rep in enumerate(prev_rep):
                if rep == flat:
                    continue
                src, code = divmod(flat, half)
                rcode = rep - src * half
                # Left multiplication by the two arrows into src.
                lo = ((src - 1) % n) << d
                union(lo + code, lo + rcode)                    # alpha_{src-1}
                hi = (((src + 1) % n) << d) + half
                union(hi + code, hi + rcode)                    # alpha_src*
                # Right multiplication by the two arrows out of the target.
                base = src << d
                union(base + (code << 1), base + (rcode << 1))
                union(base + (code << 1) + 1, base + (rcode << 1) + 1)

        minima: dict[int, int] = {}
        for x in range(size):
            r = find(x)
            if minima.get(r, size) > x:
                minima[r] = x
        _rep[d] = [minima[find(x)] for x in range(size)]
    return _rep


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_label_recursion_matches_word_level_union_find(n):
    D = 11
    q = QuiverA(n)
    oracle = RelationIdealOracle(q)
    reference = _word_level_classes(n, D)
    for d in range(D + 1):
        rep = reference[d]
        got = [oracle.encode(oracle.class_minimum(oracle.decode(d, flat))) for flat in range(n << d)]
        assert got == rep
        minima = sorted(set(rep))
        assert [oracle.encode(w) for w in oracle_basis(oracle, d).basis_words] == minima
        assert oracle.dimension(d) == len(minima)
        for flat in (0, (n << d) // 2, (n << d) - 1):
            assert minima[oracle.reduce_word(oracle.decode(d, flat))] == rep[flat]


def test_degree_two_against_explicit_row_reduction():
    """Independent mini-oracle: the three vertex relations, row-reduced by a
    plain field echelon over the 12 free words of degree 2."""
    q = QuiverA(3)
    words = free_basis(q, 2)
    index = {w: i for i, w in enumerate(words)}
    ech = FieldEchelon()
    for i in range(3):
        rel_pos = q.word(i, [ArrowRef(i, False), ArrowRef(i, True)])
        rel_neg = q.word(i, [ArrowRef((i - 1) % 3, True), ArrowRef((i - 1) % 3, False)])
        ech.insert({index[rel_pos]: Fraction(1), index[rel_neg]: Fraction(-1)})
    assert ech.rank == 3
    assert 12 - ech.rank == 9 == RelationIdealOracle(q).dimension(2)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("d", [3, 4])
def test_higher_degrees_against_explicit_row_reduction(n, d):
    """The same mini-oracle in degrees 3 and 4: a plain field echelon over
    the free words, fed u * r * v for every vertex relation r and every pair
    of words u, v that compose with it to degree d."""
    q = QuiverA(n)
    words = free_basis(q, d)
    index = {w: i for i, w in enumerate(words)}
    relations = [
        (
            q.word(i, [ArrowRef(i, False), ArrowRef(i, True)]),
            q.word(i, [ArrowRef((i - 1) % n, True), ArrowRef((i - 1) % n, False)]),
        )
        for i in range(n)
    ]
    ech = FieldEchelon()
    for k in range(d - 1):
        for u in free_basis(q, k):
            for v in free_basis(q, d - 2 - k):
                for pos, neg in relations:
                    left = q.compose(u, pos)
                    if left is None:
                        continue
                    a, b = q.compose(left, v), q.compose(q.compose(u, neg), v)
                    if a is not None:
                        ech.insert({index[a]: Fraction(1), index[b]: Fraction(-1)})
    oracle = RelationIdealOracle(q)
    assert len(words) - ech.rank == oracle.dimension(d) == n * (d + 1)
    assert ech.rank == (n << d) - oracle.dimension(d)
    for w in words:
        m = oracle.class_minimum(w)
        assert w == m or contains(ech, {index[w]: Fraction(1), index[m]: Fraction(-1)})


def test_oracle_builds_through_its_largest_degree():
    # 2 * 3 * 407 * 408 stored class labels, the most the label limit admits
    q = QuiverA(3)
    oracle = RelationIdealOracle(q)
    oracle.extend(407)
    assert oracle.built_through() == 407
    assert [oracle.dimension(d) for d in range(408)] == [3 * (d + 1) for d in range(408)]
    top = NFMonomial(1, 213, 194).word(q)
    assert oracle.class_minimum(top) == top
    with pytest.raises(MemoryError):
        oracle.extend(408)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_nf_monomials_form_oracle_basis(n):
    q = QuiverA(n)
    oracle = RelationIdealOracle(q)
    for d in range(9):
        sub = oracle_basis(oracle, d)
        assert sub.dimension == n * (d + 1)
        reps = set(sub.basis_words)
        assert reps == {m.word(q) for m in nf_basis(q, d)}
        # reduction hits each basis position exactly once over the reps
        positions = {oracle.reduce_word(w) for w in reps}
        assert positions == set(range(sub.dimension))


def test_normal_form_examples():
    q = QuiverA(3)
    w = q.word(1, [ArrowRef(0, True), ArrowRef(0, False)])
    assert normal_form(q, w) == NFMonomial(1, 1, 1)
    # the oracle agrees: the class minimum is the canonical word
    oracle = RelationIdealOracle(q)
    assert oracle.class_minimum(w) == NFMonomial(1, 1, 1).word(q)

    w2 = q.word(0, [ArrowRef(0, False), ArrowRef(1, False)])
    assert normal_form(q, w2) == NFMonomial(0, 2, 0)

    w3 = q.word(2, [ArrowRef(1, True), ArrowRef(0, True), ArrowRef(0, False), ArrowRef(1, False)])
    assert normal_form(q, w3) == NFMonomial(2, 2, 2)
    assert oracle.class_minimum(w3) == NFMonomial(2, 2, 2).word(q)


def test_multiply_examples():
    q = QuiverA(3)
    m = AlgebraElement.monomial
    assert m(q, NFMonomial(0, 1, 0)) * m(q, NFMonomial(1, 1, 0)) == m(q, NFMonomial(0, 2, 0))
    assert (m(q, NFMonomial(0, 1, 0)) * m(q, NFMonomial(2, 1, 0))).is_zero()
    assert m(q, NFMonomial(0, 2, 1)) * m(q, NFMonomial(1, 0, 1)) == m(q, NFMonomial(0, 2, 2))


@pytest.mark.parametrize("n", [3, 4])
def test_products_match_oracle_reduction(n):
    q = QuiverA(n)
    oracle = RelationIdealOracle(q)
    for a in range(4):
        for b in range(4 - a + 1):
            for m1 in nf_basis(q, a):
                for m2 in nf_basis(q, b):
                    w = q.compose(m1.word(q), m2.word(q))
                    prod = AlgebraElement.monomial(q, m1) * AlgebraElement.monomial(q, m2)
                    if w is None:
                        assert prod.is_zero()
                        continue
                    (mono, coeff), = prod.terms.items()
                    assert coeff == 1
                    assert oracle.class_minimum(w) == mono.word(q)


def test_multiply_associative_on_random_monomials():
    q = QuiverA(4)
    rng = random.Random(99)
    mons = [m for d in range(4) for m in nf_basis(q, d)]
    for _ in range(300):
        x, y, z = (AlgebraElement.monomial(q, rng.choice(mons)) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_unit_element():
    q = QuiverA(5)
    one = AlgebraElement.one(q)
    for m in nf_basis(q, 3):
        x = AlgebraElement.monomial(q, m, Fraction(3, 7))
        assert one * x == x
        assert x * one == x


def test_degree_query():
    q = QuiverA(3)
    x = AlgebraElement.monomial(q, NFMonomial(0, 1, 0))
    y = AlgebraElement.monomial(q, NFMonomial(0, 1, 1))
    assert {m.degree for m in x.terms} == {1}
    assert {m.degree for m in (x + y).terms} == {1, 2}
    assert not AlgebraElement.zero(q).terms


def test_hilbert_report_n3():
    q = QuiverA(3)
    rep = hilbert(q, 6)
    assert rep.totals == [3 * (d + 1) for d in range(7)]
    # only the walk out-and-back lands at its own source in degree 2
    assert rep.matrices[2][0][0] == 1
    assert rep.recurrence_holds
    assert not rep.matches_inverse_square_series
    assert "(I - M*t)^-2" in rep.note()


def test_hilbert_matrix_degree_one_is_adjacency():
    q = QuiverA(4)
    rep = hilbert(q, 2)
    assert rep.matrices[1] == adjacency_matrix(q)


def test_inverse_square_series_really_differs():
    # (1 - M t)^-2 has degree-2 coefficient 3 M^2, total 36 for n = 3,
    # but the oracle sees 9 dimensions.
    q = QuiverA(3)
    rep = hilbert(q, 2)
    from auslab.preproj import _inverse_square_coefficient

    claimed = _inverse_square_coefficient(q, 2)
    assert sum(map(sum, claimed)) == 36
    assert sum(map(sum, rep.matrices[2])) == 9
