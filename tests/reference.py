"""Reference implementations the tests hold the program to, each naming
what it is the oracle for, adapters that read a kernel's span for the
tests that compare kernels, and the ideal build that many tests share."""

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from auslab.linalg import SignedPartition
from auslab.preproj import AlgebraElement, NFMonomial
from auslab.quiver import ArrowRef, Word
from auslab.scalars import root
from auslab.smash import IdealTruncation
from auslab.symmetry import apply


def free_basis(q, d: int) -> list[Word]:
    """Oracle for the relation-ideal oracle's words: every composable word
    of length d, each once."""
    return [w for i in range(q.n) for w in _words_from(q, i, d)]


def _words_from(q, source: int, d: int):
    if d == 0:
        yield Word(source, ())
        return
    stack = [(source, ())]
    while stack:
        at, arrows = stack.pop()
        if len(arrows) == d:
            yield Word(source, arrows)
            continue
        for a in (ArrowRef(at, False), ArrowRef((at - 1) % q.n, True)):     # the arrows leaving `at`
            stack.append((q.arrow_target(a), arrows + (a,)))


def normal_form(q, w: Word) -> NFMonomial:
    """Oracle for `monomial_image`'s target: the canonical form of a word
    keeps its source and its two arrow counts."""
    stars = sum(1 for a in w.arrows if a.starred)
    return NFMonomial(w.source % q.n, len(w.arrows) - stars, stars)


def adjacency_matrix(q) -> list[list[int]]:
    """Oracle for `adjacency_times` and the degree-1 Hilbert matrix: the 0/1
    circulant with ones at j = i +- 1 mod n."""
    n = q.n
    return [[1 if (j - i) % n in (1, n - 1) else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Oracle for the Hilbert matrix recurrence: the plain matrix product."""
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def xi(g) -> tuple:
    """The scalar values on the nonstar arrows, for `word_image` and `validate`."""
    return tuple(root(g.m, k) for k in g.e)


def xi_star(g) -> tuple:
    """The scalar values on the star arrows, for `word_image` and `validate`."""
    return tuple(root(g.m, k) for k in g.e_star)


def arrow_between(q, src: int, dst: int) -> ArrowRef:
    """The unique arrow src -> dst (schurian), for `word_image`; raises if none exists."""
    if dst == (src + 1) % q.n:
        return ArrowRef(src, False)
    if dst == (src - 1) % q.n:
        return ArrowRef(dst, True)
    raise ValueError(f"no arrow {src} -> {dst} in the double of A~{q.n}")


def word_image(g, w: Word) -> tuple[object, Word]:
    """Oracle for `monomial_image` and `validate`: the image of a word arrow
    by arrow, each arrow sent to the unique arrow between the image
    vertices, the scalar the product of the arrows' scalar values."""
    q, image = g.quiver, g.vertex_image
    values, values_star = xi(g), xi_star(g)
    scalar, arrows = Fraction(1), []
    for a in w.arrows:
        scalar = scalar * (values_star[a.index] if a.starred else values[a.index])
        arrows.append(arrow_between(q, image(q.arrow_source(a)), image(q.arrow_target(a))))
    return scalar, q.word(image(w.source), arrows)


def multiplicative_order(a) -> int | None:
    """Oracle for `root_order` and the exponent arithmetic of the scalar
    theorem bound: least e >= 1 with a^e = 1, or None when a has infinite
    order.  The torsion of Q(zeta_m)^x is generated by -zeta_m, of order
    lcm(2, m), so exponents up to that bound are exhaustive."""
    if isinstance(a, (int, Fraction)):
        if not a:
            raise ZeroDivisionError("zero scalar has no multiplicative order")
        return {1: 1, -1: 2}.get(a)
    if not a:
        raise ZeroDivisionError("zero scalar has no multiplicative order")
    m = a.context.m
    one, power = a.context.from_rational(1), a
    for e in range(1, (m if m % 2 == 0 else 2 * m) + 1):
        if power == one:
            return e
        power = power * a
    return None


def eval_auslander_map(group, a, g: int, b):
    """The Auslander map eta itself, the oracle for the twist of the smash
    product: the endomorphism attached to a # g, g an element index,
    evaluated at b, is a * g(b)."""
    return a * apply(group.elements[g], b)


class DegreeSubspace(NamedTuple):
    degree: int
    dimension: int
    basis_words: list[Word]            # complement basis, monomial order


def oracle_basis(oracle, d: int) -> DegreeSubspace:
    """Oracle for the canonical monomial basis: the relation-ideal oracle's
    class minima of degree d, decoded into words."""
    reps = oracle.minima(d)
    return DegreeSubspace(d, len(reps), [oracle.decode(d, r) for r in reps])


def contains(kernel, row: dict) -> bool:
    """Whether a row lies in an echelon's or a partition's span; for a
    partition, when its gain-weighted coefficient sum over every live
    component is 0."""
    if isinstance(kernel, SignedPartition):
        return kernel.vanishes((c, kernel.reduce([(k, 0)])) for k, c in row.items())
    return not kernel.residue(row)


def lead_count_at_least(kernel, threshold: int) -> int:
    """Dimension of the span's intersection with the coordinates from
    `threshold` on: for an echelon the pivots there, whose rows have their
    whole support there."""
    if isinstance(kernel, SignedPartition):
        count = len(kernel.root) - threshold
        return count - kernel.image_rank([threshold], count)
    return sum(1 for lead in kernel.pivots if lead >= threshold)


def insert(part: SignedPartition, row: dict) -> bool:
    """Add a unit row, or a binomial whose two coefficients are equal or
    opposite, to a partition; returns whether the rank grew.  Any other
    shape raises ValueError."""
    terms = [(k, c) for k, c in row.items() if c]
    live = part.live
    if len(terms) == 1:
        part.kill(terms[0][0])
    elif len(terms) == 2 and terms[0][1] in (terms[1][1], -terms[1][1]):
        (a, ca), (b, cb) = terms
        part.join(a, b, part.K // 2 if ca == cb else 0)
    elif terms:
        raise ValueError(f"row {row} is neither a unit nor a signed binomial")
    return part.live < live


def span_rows(part: SignedPartition):
    """A basis of a partition's span: e_k - z^gain[k] e_root[k] for every
    non-root k, and e_r for every dead root r."""
    values = part.values
    for k, (r, s) in enumerate(zip(part.root, part.gain)):
        if r != k:
            yield {k: values[0], r: -values[s]}
    for r in sorted(part.dead):
        yield {r: values[0]}


def expand(runs: SignedPartition, starts: list[int], counts: list[int]) -> SignedPartition:
    """Oracle that reads a label block as a coordinate partition: node x of
    `runs` stands for the coordinates starts[x] .. starts[x] + counts[x] - 1,
    each at x's gain; an empty run is a live node no row touches."""
    out = SignedPartition(sum(counts), runs.values)
    root, gain, node_root = out.root, out.gain, runs.root
    for x, (s, c) in enumerate(zip(starts, counts)):
        if not c:
            continue
        root[s:s + c] = [starts[node_root[x]]] * c
        gain[s:s + c] = [runs.gain[x]] * c
        if node_root[x] == x:
            mem = [p for y in runs.members.get(x, (x,)) for p in range(starts[y], starts[y] + counts[y])]
            if len(mem) > 1:
                out.members[s] = mem
    out.dead = {starts[r] for r in runs.dead}
    out.live = runs.live - counts.count(0)
    return out


def build_ideal(group, D: int) -> IdealTruncation:
    """The smash ideal of `group` with its identity chain built through
    degree D, every layer of it in place for the tests that read them."""
    trunc = IdealTruncation(group)
    trunc.extend(D)
    return trunc


def cover_series(group, D: int) -> list[int]:
    """Oracle for `identity_component_dims` of a group whose elements all fix
    every vertex (T trivial, so G = N): dim_d counts the pairs (i, l),
    0 <= l <= d, for which the characters chi(i, x, y) of N over the
    rectangle x <= l, y <= d - l miss some character of N.  chi(i, x, y) is
    N's character on the monomial (i, x, y), its exponents
    `h.word_exponents(i, x + y, (x,))` over h in N scaled to the group's
    conductor.  The rule is measured, not proved: it agreed with the ideal
    build on every such group tried, at n = 3 and 4 and on random scalar
    specs."""
    n, normal, M = group.quiver.n, group.n_elements, group.conductor
    assert len(normal) == len(group), "every element fixes every vertex"
    dims = []
    for d in range(D + 1):
        dims.append(0)
        for i in range(n):
            for l in range(d + 1):
                chars = {
                    tuple(h.word_exponents(i, x + y, (x,))[0] * (M // h.m) % M for h in normal)
                    for x in range(l + 1)
                    for y in range(d - l + 1)
                }
                dims[d] += len(chars) < len(normal)
    return dims


def burnside_dims(group, D: int) -> list[int]:
    """Oracle for `invariant_basis(group, D).dims` of a scalar-free group,
    whose every orbit sum is invariant, by Burnside's lemma: dim (R^G)_d is
    |G|^-1 sum over g of #{(i, l) : g fixes the monomial (i, l, d - l)}.  g
    fixes it when g(i) = i and, if g reflects (sending nonstar arrows to
    star ones), also l = d - l."""
    assert not group.has_scalars, "a scalar-free group"
    n, order = group.quiver.n, len(group)
    dims = []
    for d in range(D + 1):
        fixed = sum(
            1
            for g in group.elements
            for i in range(n)
            if g.vertex_image(i) == i
            for l in range(d + 1)
            if not g.refl or l == d - l
        )
        assert fixed % order == 0
        dims.append(fixed // order)
    return dims


def orbit_walk(group, d: int) -> list[AlgebraElement]:
    """Oracle for Burnside's count and for the closed-form orbit sums the
    structure checks read: the twisted orbit sums of the contributing orbits
    of the degree-d monomials (j, l, d - l), in `nf_basis` order of the
    monomial each orbit is walked from, each image once, scaled by the first
    element sending (j, l) there.  A monomial is its key (source, nonstar
    count), and an element's scalar on it its exponent k over zeta_m
    (`Automorphism.word_exponents`, one call per element and start vertex),
    compared as k M / m over zeta_M, M the group's conductor.  Only terms of
    contributing orbits become field values, `root(m, k)`."""
    q, n, elements = group.quiver, group.quiver.n, group.elements
    moves = [(g.rot, g.refl, group.conductor // g.m) for g in elements]
    ls, zero = range(d + 1), [0] * (d + 1)
    out, seen, vertex = [], set(), None
    for j, l in product(range(n), range(d, -1, -1)):
        if (j, l) in seen:
            continue
        if j != vertex:
            vertex, exps = j, [g.word_exponents(j, d, ls) if g.m != 1 else zero for g in elements]
        terms, fixed = {}, True
        for gi, (rot, refl, f) in enumerate(moves):
            key = ((rot - j) % n, d - l) if refl else ((rot + j) % n, l)
            s = exps[gi][l] * f
            if terms.setdefault(key, (s, gi))[0] != s:
                fixed = False
        seen.update(terms)
        if fixed:
            out.append(AlgebraElement(q, {
                NFMonomial(i, k, d - k): root(elements[gi].m, exps[gi][l]) for (i, k), (_, gi) in terms.items()
            }))
    return out
