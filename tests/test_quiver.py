import random

import pytest

from auslab.quiver import ArrowRef, QuiverA
from auslab.symmetry import reflection, rotation
from reference import adjacency_matrix, arrow_between, free_basis, mat_mul, word_image


def test_small_n_rejected():
    with pytest.raises(ValueError):
        QuiverA(2)
    with pytest.raises(ValueError):
        QuiverA(1)


def test_arrow_endpoints():
    q = QuiverA(4)
    a2 = ArrowRef(2, False)
    assert (q.arrow_source(a2), q.arrow_target(a2)) == (2, 3)
    s3 = ArrowRef(3, True)
    assert (q.arrow_source(s3), q.arrow_target(s3)) == (0, 3)
    assert arrow_between(q, 0, 1) == ArrowRef(0, False)
    assert arrow_between(q, 1, 0) == ArrowRef(0, True)
    with pytest.raises(ValueError):
        arrow_between(q, 0, 2)


def test_compose_examples():
    q = QuiverA(3)
    w_a0 = q.word(0, [ArrowRef(0, False)])
    w_a1 = q.word(1, [ArrowRef(1, False)])
    prod = q.compose(w_a0, w_a1)
    assert prod == q.word(0, [ArrowRef(0, False), ArrowRef(1, False)])
    # target e_1 != source e_0: the null product
    assert q.compose(w_a0, w_a0) is None
    # trivial paths are local identities
    assert q.compose(q.word(2, []), q.word(2, [ArrowRef(2, False)])) == q.word(
        2, [ArrowRef(2, False)]
    )
    assert q.compose(q.word(2, [ArrowRef(2, False)]), q.word(0, [])) == q.word(
        2, [ArrowRef(2, False)]
    )


def test_word_validation():
    q = QuiverA(3)
    with pytest.raises(ValueError):
        q.word(0, [ArrowRef(1, False)])
    with pytest.raises(ValueError):
        q.word(0, [ArrowRef(0, False), ArrowRef(0, False)])


def test_free_basis_small_counts():
    q = QuiverA(3)
    assert len(free_basis(q, 0)) == 3
    assert len(free_basis(q, 1)) == 6
    # sum of entries of M^2 for the doubled A~2 adjacency
    assert len(free_basis(q, 2)) == sum(sum(r) for r in mat_mul(adjacency_matrix(q), adjacency_matrix(q))) == 12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_free_basis_counts_match_adjacency_powers(n):
    q = QuiverA(n)
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]    # M^d counts the words i -> j
    for d in range(13):
        expected = sum(sum(row) for row in power)
        assert len(free_basis(q, d)) == expected == n * 2**d
        power = mat_mul(power, adjacency_matrix(q))


def test_free_basis_words_distinct_and_composable():
    q = QuiverA(4)
    words = free_basis(q, 5)
    assert len(set(words)) == len(words)
    for w in words:
        q.word(w.source, w.arrows)  # re-validates composability


def test_compose_associative_on_samples():
    q = QuiverA(5)
    rng = random.Random(11)
    words = free_basis(q, 2) + free_basis(q, 3)
    for _ in range(200):
        w1, w2, w3 = (rng.choice(words) for _ in range(3))
        lhs = q.compose(w1, w2)
        lhs = q.compose(lhs, w3) if lhs is not None else None
        rhs = q.compose(w2, w3)
        rhs = q.compose(w1, rhs) if rhs is not None else None
        assert lhs == rhs


def test_word_automorphism_images():
    q = QuiverA(4)
    rho, r = rotation(q, 1), reflection(q, 0)
    w = q.word(0, [ArrowRef(0, False)])
    c, img = word_image(rho, w)
    assert c == 1 and img == q.word(1, [ArrowRef(1, False)])
    c, img = word_image(r, w)
    assert c == 1 and img == q.word(0, [ArrowRef(3, True)])


def test_word_automorphism_preserves_length_and_composability():
    q = QuiverA(5)
    rho, r = rotation(q, 2), reflection(q, 1)
    for w in free_basis(q, 4):
        for g in (rho, r, rho * r):
            _, img = word_image(g, w)
            assert len(img.arrows) == len(w.arrows)
            q.word(img.source, img.arrows)


@pytest.mark.parametrize("n", range(3, 8))
def test_adjacency_times_is_the_matrix_product(n):
    q = QuiverA(n)
    rng = random.Random(n)
    c = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    assert q.adjacency_times(c) == mat_mul(adjacency_matrix(q), c)
