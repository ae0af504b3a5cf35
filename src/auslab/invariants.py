"""Invariant rings R^G: orbit-sum bases, Reynolds averaging, and the one
presentation of the two maximal fixed rings.

Every group element sends a monomial to a root of unity times a monomial,
so each graded piece of R^G has the twisted orbit sums of the monomial basis
as its basis: one per orbit whose stabilizer fixes its monomials with
multiplier 1, the others averaging to zero.  Their number needs no orbit:
N, the vertex-fixing elements, is normal and diagonal, and T, the
scalar-free ones, scales no arrow, so an orbit contributes exactly when its
monomials have trivial N-character, and dim (R^G)_d is Burnside's count of
T's orbits on those monomials (`InvariantBasis`).  The structure checks
exist for the full dihedral group and the vertex-reflection subgroup only,
whose invariants are the plain orbit sums `orbit_sum(q, l, k, parity)` in
closed form, so they read those and no orbit is ever walked.  `reynolds`
averaging stays for `verify` and as the tests' reference.

The fixed rings of the full dihedral group and (n even) of its
vertex-reflection subgroup W have one presentation over the source
parities of their orbit sums, D_n's one, (None,), and W's two, (0, 1): the
quiver with one vertex p per parity, a degree-1 arrow u_p = s1^p to the
next parity p', a degree-2 loop v_p = s2^p, and the relations
v_p u_p = u_p v_p'.  One vertex gives the commutative polynomial ring
k[s1, s2]; two give kQ / (v1 u1 - u1 v2, v2 u2 - u2 v1).  Both are
machine-checked degreewise, as are the orbit-sum products behind them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import rank
from .preproj import AlgebraElement, NFMonomial
from .quiver import QuiverA
from .symmetry import FiniteGroup, apply, dihedral_group, w_subgroup


class ScalarGroupOrbitNotMonomialError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Orbit sums
# ---------------------------------------------------------------------------


def orbit_monomials(q: QuiverA, l: int, k: int, parity: int | None = None) -> list[NFMonomial]:
    """The set B_{l,k}: all monomials with arrow counts {l, k}, optionally
    restricted to sources of one parity (n even)."""
    if l < k:
        raise ValueError("orbit labels require l >= k >= 0")
    if parity is not None and q.n % 2:
        raise ValueError("source parity only makes sense for even n")
    sources = range(q.n) if parity is None else range(parity % 2, q.n, 2)
    out = [NFMonomial(i, l, k) for i in sources]
    if l != k:
        out += [NFMonomial(i, k, l) for i in sources]
    return out


def orbit_sum(q: QuiverA, l: int, k: int, parity: int | None = None) -> AlgebraElement:
    # every term shares one Fraction(1): `--check-free-module` reads 91 n
    # terms of orbit sums, one Fraction each would be 48 bytes a term
    return AlgebraElement(q, dict.fromkeys(orbit_monomials(q, l, k, parity), Fraction(1)))


def s_elements(q: QuiverA, parity: int | None = None) -> tuple[AlgebraElement, AlgebraElement, AlgebraElement]:
    """The generators (s0, s1, s2) = (O(0,0), O(1,0), O(2,0)), optionally
    parity-restricted."""
    return (
        orbit_sum(q, 0, 0, parity),
        orbit_sum(q, 1, 0, parity),
        orbit_sum(q, 2, 0, parity),
    )


def orbit_sums(q: QuiverA, d: int, parities: tuple[int | None, ...] = (None,)) -> list[AlgebraElement]:
    """The degree-d orbit sums O(d - k, k) over each source parity in
    `parities`: a basis of the degree-d invariants of D_n, or, with parities
    (0, 1) and n even, of the vertex-reflection subgroup W."""
    return [orbit_sum(q, d - k, k, p) for p in parities for k in range(d // 2 + 1)]


def reynolds(group: FiniteGroup, x: AlgebraElement) -> AlgebraElement:
    """Average over the group; a projection onto the invariants since the
    coefficient field has characteristic zero."""
    acc = AlgebraElement.zero(x.quiver)
    for g in group.elements:
        acc = acc + apply(g, x)
    return acc.scale(Fraction(1, len(group)))


def orbit_of(m: NFMonomial, group: FiniteGroup) -> set[NFMonomial]:
    """The set of images of a monomial; refuses groups whose action leaves
    non-unit coefficients behind."""
    out = set()
    for g in group.elements:
        coeff, img = g.monomial_image(m)
        if coeff != 1:
            raise ScalarGroupOrbitNotMonomialError(
                f"image of {m} under {g} carries coefficient {coeff}"
            )
        out.add(img)
    return out


# ---------------------------------------------------------------------------
# Invariant bases
# ---------------------------------------------------------------------------


# Burnside's count reads, for each of N's generators, the exponents of the
# monomials (i, l, d - l): n(d+1) per degree, n(D+1)(D+2)/2 through degree D,
# the most terms a basis through degree D can hold.  Each generator at least
# doubles N (`FiniteGroup.__init__`), so under the 4096-element cap of
# `build_group` N has at most 12 generators.  At this limit (n = 3 through
# degree 445, n = 11 through degree 232, n = 100 through degree 75) the worst
# case, twelve independent involutions `scalar(2;...)` at n = 11 (order
# 4096) through degree 232, took 0.9-1.5 s to count and 25 MB peak RSS on a
# shared 2-core x86-64 guest under Python 3.11; scalar-free groups take a
# few milliseconds.
INVARIANT_TERM_LIMIT = 300_000


def check_basis_size(n: int, D: int, walks: int = 1) -> None:
    """Refuse `walks` bases through degree D that together may hold more
    than INVARIANT_TERM_LIMIT terms, before any work."""
    terms = walks * n * (D + 1) * (D + 2) // 2
    if terms > INVARIANT_TERM_LIMIT:
        raise MemoryError(
            f"invariants at n = {n} through degree {D} may hold {terms} basis terms, "
            f"over the limit of {INVARIANT_TERM_LIMIT}"
        )


def keeps_parity(group: FiniteGroup) -> bool:
    """Whether n is even and every element keeps the parity of every vertex:
    g(v) - v = rot (mod 2) whether g reflects or not."""
    return group.quiver.n % 2 == 0 and all(g.rot % 2 == 0 for g in group.elements)


@dataclass
class InvariantBasis:
    """Dimensions of (R^G)_d for d = 0..D, one per contributing orbit,
    counted without walking an orbit.  t h (t in T, h in N) moves a monomial
    as t does and scales it as h does, so an orbit contributes exactly when
    its monomials have trivial N-character (on all of an orbit or none, N
    being normal), and dim (R^G)_d is Burnside's count of T's orbits on those
    monomials: |T|^-1 times the sum over t of the ones t fixes.  `fixed[d][p]`
    is that sum over the sources of parity p."""

    group: FiniteGroup
    dims: list[int]
    fixed: list[list[int]]

    def matrix_dims(self, d: int) -> list[list[int]]:
        """Parity-block dimensions (source parity, target parity) of the
        degree-d invariants, for groups that keep parity (`keeps_parity`).
        The invariants are orbit sums with disjoint supports, so a block's
        dimension counts the orbits with a source of parity p, whose
        monomials end at parity p + d: Burnside's count over the sources of
        parity p."""
        if not keeps_parity(self.group):
            raise ValueError("parity blocks need n even and every element of even rotation")
        t_order = len(self.group) // len(self.group.n_elements)
        out = [[0, 0], [0, 0]]
        for p in (0, 1):
            out[p][(p + d) % 2] = self.fixed[d][p] // t_order
        return out


def invariant_basis(group: FiniteGroup, D: int) -> InvariantBasis:
    """The dimensions of the invariants through degree D, by Burnside's
    count over T."""
    n = group.quiver.n
    check_basis_size(n, D)
    fixing = len(group.n_elements)
    # The N-character is trivial where N's generators all scale by 1.  A
    # rotation other than 1 fixes no vertex; the reflection i -> r - i fixes
    # the i with 2i = r (mod n), and (i, l, d - l) when also 2l = d.
    gens = [group.n_elements[k] for k in group.n_gens]
    reflections = {g.rot for g in group.elements if g.refl}
    mirrored = [i for i in range(n) if 2 * i % n in reflections]
    fixed = []
    for d in range(D + 1):
        ls = range(d + 1)
        trivial = [[True] * (d + 1)] * n if not gens else [
            [not any(e) for e in zip(*(h.word_exponents(i, d, ls) for h in gens))] for i in range(n)
        ]
        counts = [sum(map(sum, trivial[p::2])) for p in (0, 1)]
        for i in mirrored if d % 2 == 0 else ():
            counts[i % 2] += trivial[i][d // 2]
        fixed.append(counts)
    return InvariantBasis(group, [sum(f) * fixing // len(group) for f in fixed], fixed)


def series_coefficients(denominator_degrees: list[int], D: int, numerator: int = 1) -> list[int]:
    """Coefficients of numerator / prod (1 - t^k) through degree D."""
    coeffs = [numerator] + [0] * D
    for k in denominator_degrees:
        for d in range(k, D + 1):
            coeffs[d] += coeffs[d - k]
    return coeffs


# ---------------------------------------------------------------------------
# Orbit-sum relations
# ---------------------------------------------------------------------------


@dataclass
class RelationCheck:
    name: str
    holds: bool
    detail: str = ""


@dataclass
class RelationReport:
    n: int
    degree: int
    checks: list[RelationCheck] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def first_failure(self) -> RelationCheck | None:
        return next((c for c in self.checks if not c.holds), None)

    def add(self, name: str, lhs: AlgebraElement, rhs: AlgebraElement):
        ok = lhs == rhs
        detail = "" if ok else f"lhs = {lhs} ; rhs = {rhs}"
        self.checks.append(RelationCheck(name, ok, detail))


def _degree_shift_product(q: QuiverA, l: int, k: int, parity: int | None) -> AlgebraElement:
    """Expected value of O(1,0) * O(l,k).

    At the boundary l = k + 1 the two middle summands agree, so O(l, k+1)
    appears with multiplicity two; the result keeps the left factor's source
    parity when a parity restriction is in play.
    """
    out = orbit_sum(q, l + 1, k, parity)
    if l == k:
        return out
    weight = Fraction(2) if l == k + 1 else Fraction(1)
    return out + orbit_sum(q, max(l, k + 1), min(l, k + 1), parity).scale(weight)


# `check_orbit_sum_relations` forms (D//2 + 1)((D+1)//2) + 3 products of
# orbit sums and of s1 and s2, twice as many for even n, each counted as n^2
# term pairs plus coefficient arithmetic worth about 110n more: n(n + 110)
# steps.  A product visits only the pairs that match, about n of them, so at
# large n the count overstates the work; it is kept so that the same inputs
# are refused.  At this limit (n = 3 through degree 170, n = 4 through 103,
# n = 200 through 7, n = 859 or 592 at degree 0) the check takes 0.06 to
# 1.4 s on a 2-core x86-64 guest under Python 3.11.
RELATION_STEP_LIMIT = 2_500_000


def check_orbit_sum_relations(n: int, D: int) -> RelationReport:
    """Verify the multiplication rules of orbit sums up to total degree D by
    exact closed-form products, over the source parities of D_n, (None,),
    and for n even of W, (0, 1): at each vertex p with next parity p', the
    relation v_p u_p = u_p v_p' of `verify_presentation`, u_p u_p' =
    v_p + 2 O(1,1)^p, the degree shifts u_p O(l,k)^p', for two vertices
    u_p O(l,k)^p = 0, and the diagonal powers (O(1,1)^p)^m = O(m,m)^p.
    Refused up front over RELATION_STEP_LIMIT."""
    steps = ((D // 2 + 1) * ((D + 1) // 2) + 3) * (2 - n % 2) * n * (n + 110)
    if steps > RELATION_STEP_LIMIT:
        raise MemoryError(
            f"orbit-sum relations at n = {n} through degree {D} count {steps} product steps, "
            f"over the limit of {RELATION_STEP_LIMIT}"
        )
    q = QuiverA(n)
    report = RelationReport(n, D)
    for parities in ((None,), (0, 1))[: 2 - n % 2]:
        s = {p: s_elements(q, p) for p in parities}
        succ = dict(zip(parities, reversed(parities)))
        for p in parities:
            t, t2 = ("", "") if p is None else (f"^{p}", f"^{succ[p]}")
            e, s1, s2 = s[p]
            o11 = orbit_sum(q, 1, 1, p)
            report.add(f"s2{t}*s1{t} = s1{t}*s2{t2}", s2 * s1, s1 * s[succ[p]][2])
            report.add(f"s1{t}*s1{t2} = s2{t} + 2*O(1,1){t}", s1 * s[succ[p]][1], s2 + o11.scale(Fraction(2)))
            for total in range(D):
                for k in range(total // 2 + 1):
                    l = total - k
                    report.add(
                        f"O(1,0){t}*O({l},{k}){t2}",
                        s1 * orbit_sum(q, l, k, succ[p]),
                        _degree_shift_product(q, l, k, p),
                    )
                    if p is not None:
                        report.add(f"O(1,0){t}*O({l},{k}){t} = 0", s1 * orbit_sum(q, l, k, p), AlgebraElement.zero(q))
            power = e
            for m in range(1, D // 2 + 1):
                power = power * o11
                report.add(f"(O(1,1){t})^{m} = O({m},{m}){t}", power, orbit_sum(q, m, m, p))
    return report


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------


@dataclass
class PresentationReport:
    target: str                       # polynomial_two_vars | two_vertex_quiver
    well_defined: bool
    bijective_through: int            # last degree with a degreewise bijection
    dims_match_series: bool
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.well_defined and self.dims_match_series and not self.failures


# A presentation check builds each normal word of degree d once, as a
# generator u_p (2n terms) times a word of degree d-1 (about n d terms):
# about d/2 products a degree.  The limit counts the words as if each were
# built from the generators alone, about d^3/6 products of a generator with
# an image of degree e < d, which bounds that work with room to spare and
# keeps the inputs refused fixed: 2n^2 (D+1)^4/24 term pairs through degree
# D, the 2n (D+1)^4/24 that match carrying arithmetic worth about 110 pairs
# more, and 8n^2 for the products behind `well_defined`:
# n (2 (n + 110) (D+1)^4/24 + 8n) steps.  A product visits only the pairs
# that match, so the pair terms overstate the work at large n.  At this
# limit (n = 3 through degree 33, n = 8 through 25, n = 40 through 15,
# n = 100 through 11) a whole `invariants --check-presentation` run takes
# 0.5-0.9 s on a 2-core x86-64 guest under Python 3.11; D_2048 at degree 0,
# where the products behind `well_defined` are all the work, takes 0.2 s.
PRESENTATION_STEP_LIMIT = 40_000_000


def check_presentation_size(n: int, D: int) -> None:
    """Refuse a presentation check through degree D at n over
    PRESENTATION_STEP_LIMIT, before any work."""
    steps = n * (2 * (n + 110) * ((D + 1) ** 4 // 24) + 8 * n)
    if steps > PRESENTATION_STEP_LIMIT:
        raise MemoryError(
            f"presentation check at n = {n} through degree {D} counts {steps} term steps, "
            f"over the limit of {PRESENTATION_STEP_LIMIT}"
        )


def swap_matrix_series_coefficient(d: int) -> list[list[int]]:
    """Degree-d coefficient of (I - swap*t)^-1 (I - I*t^2)^-1."""
    c = d // 2 + 1
    return [[c, 0], [0, c]] if d % 2 == 0 else [[0, c], [c, 0]]


def verify_presentation(
    parities: tuple[int | None, ...], n: int, D: int, basis: InvariantBasis | None = None
) -> PresentationReport:
    """Check the fixed ring of D_n (`parities` (None,)) or of the
    vertex-reflection subgroup W (`parities` (0, 1), n even) against the
    quiver with one vertex p per parity, an arrow u_p = s1^p to the next
    parity p', a loop v_p = s2^p, and the relations v_p u_p = u_p v_p'; one
    vertex gives the polynomial ring k[s1, s2].  The relations must map to
    zero, and the normal words (u-chain, then loop power) must map
    degreewise onto a basis of the invariants, whose dimensions match
    len(parities) / ((1-t)(1-t^2)); for two vertices the parity blocks must
    match the swap-matrix series.  Refused up front over
    PRESENTATION_STEP_LIMIT."""
    one = len(parities) == 1
    if not one and n % 2:
        raise ValueError("the two-vertex presentation needs n even")
    check_presentation_size(n, D)
    q = QuiverA(n)
    basis = basis or invariant_basis(dihedral_group(q) if one else w_subgroup(q), D)
    s = {p: s_elements(q, p) for p in parities}
    succ = dict(zip(parities, reversed(parities)))
    well_defined = all(s[p][2] * s[p][1] == s[p][1] * s[succ[p]][2] for p in parities)
    expected = series_coefficients([1, 2], D, numerator=len(parities))
    failures = []
    bij = -1
    loop = {p: s[p][0] for p in parities}          # v_p^(d/2) at even d
    words = {p: [] for p in parities}              # (image, end vertex) of each normal word from p
    for d in range(D + 1):
        # a word of degree d >= 1 from p is u_p times a word of degree d-1 from p'
        words = {p: [(s[p][1] * x, end) for x, end in words[succ[p]]] for p in parities}
        if d % 2 == 0:
            for p in parities:
                if d:
                    loop[p] = loop[p] * s[p][2]
                words[p].append((loop[p], p))
        images = [x for p in parities for x, _ in words[p]]
        # an image off degree d lies outside the invariants of degree d
        r = rank(x.terms for x in images if all(m.degree == d for m in x.terms))
        inv_dim = basis.dims[d]
        if not one:
            matrix = basis.matrix_dims(d)
            swap = swap_matrix_series_coefficient(d)
            blocks = [[0, 0], [0, 0]]
            for p in parities:
                for _, end in words[p]:
                    blocks[p][end] += 1
            if matrix != swap:
                failures.append(f"degree {d}: invariant matrix dims {matrix} != {swap}")
            if blocks != swap:
                failures.append(f"degree {d}: quotient block dims {blocks} != {swap}")
        if not (r == len(images) == inv_dim == expected[d]):
            failures.append(
                f"degree {d}: image rank {r}, {'free' if one else 'quotient'} dim {len(images)}, "
                f"invariant dim {inv_dim}" + (f", series {expected[d]}" if one else "")
            )
        elif not failures:
            bij = d
    return PresentationReport(
        target="polynomial_two_vars" if one else "two_vertex_quiver",
        well_defined=well_defined,
        bijective_through=bij,
        dims_match_series=basis.dims[: D + 1] == expected,
        failures=failures,
    )


verify_presentation_dihedral = functools.partial(verify_presentation, (None,))
verify_presentation_two_vertex = functools.partial(verify_presentation, (0, 1))


# ---------------------------------------------------------------------------
# Module structure of R over R^G
# ---------------------------------------------------------------------------


# A free-module check through degree D reads the n (D+1)(D+2)/2 terms of
# its basis vectors once, and row-reduces rows of at most two terms, about
# two per term, once jointly and once per part.  At this limit (n = 439
# through degree 12, n = 952 through 7, n = 2666 through 4) a whole
# `invariants --check-free-module` run takes 0.8-1.5 s on a 2-core x86-64
# guest under Python 3.11.
FREE_MODULE_TERM_LIMIT = 40_000


def check_free_module_size(n: int, D: int) -> None:
    """Refuse a free-module check through degree D at n over
    FREE_MODULE_TERM_LIMIT, before any work."""
    terms = n * (D + 1) * (D + 2) // 2
    if terms > FREE_MODULE_TERM_LIMIT:
        raise MemoryError(
            f"free-module check at n = {n} through degree {D} reads {terms} basis terms, "
            f"over the limit of {FREE_MODULE_TERM_LIMIT}"
        )


@dataclass
class ModuleCheck:
    degree: int
    ok: bool
    detail: str = ""


def verify_free_module(q: QuiverA, vectors: list[list[AlgebraElement]]) -> list[ModuleCheck]:
    """Degreewise check, `vectors[d]` a basis of (R^G)_d, that {e_0..e_{n-1},
    alpha_0..alpha_{n-1}} is a basis of R over R^G: the vectors
    e_i * (R^G)_d and alpha_i * (R^G)_{d-1} jointly have full rank n(d+1)
    and their individual ranks add up to it (so the sum is direct).  Both
    are read off each vector's terms by source: e_i v keeps the terms from
    i, and alpha_i v shifts those from i+1 to (i, l+1, k).  Refused up
    front over FREE_MODULE_TERM_LIMIT."""
    n = q.n
    check_free_module_size(n, len(vectors) - 1)
    out = []
    prev = [[] for _ in range(n)]
    for d, basis in enumerate(vectors):
        by_source = [[{} for _ in basis] for _ in range(n)]    # [i][j]: the terms of e_i v_j
        for j, v in enumerate(basis):
            for m, c in v.terms.items():
                by_source[m.source][j][m] = c
        parts = by_source + [
            [{NFMonomial(i, m.nonstars + 1, m.stars): c for m, c in row.items()} for row in prev[(i + 1) % n]]
            for i in range(n)
        ]
        total = rank(row for part in parts for row in part)
        part_sum = sum(rank(part) for part in parts)
        ok = total == n * (d + 1) == part_sum
        detail = f"rank {total}, direct-sum count {part_sum}, expected {n * (d + 1)}"
        out.append(ModuleCheck(d, ok, "" if ok else detail))
        prev = by_source
    return out


def verify_shift_summand(q: QuiverA, vectors: list[list[AlgebraElement]]) -> list[ModuleCheck]:
    """Witness, `vectors[d]` a basis of (R^G)_d, the degree-shift isomorphism
    e_0 R^G -> alpha_{n-1} R^G given by left multiplication with
    alpha_{n-1}: for every basis vector v it sends each term (0, l, k) of
    e_0 v to (n-1, l+1, k) with the same coefficient, so it is injective in
    every degree, and onto by construction.  The endomorphism ring of R over
    R^G therefore contains a map of negative degree."""
    n = q.n
    e0 = AlgebraElement.idempotent(q, 0)
    alpha = AlgebraElement.arrow(q, n - 1)
    out = []
    for d, basis in enumerate(vectors):
        bad = sum(
            (alpha * v).terms != {NFMonomial(n - 1, m.nonstars + 1, m.stars): c for m, c in (e0 * v).terms.items()}
            for v in basis
        )
        detail = f"alpha_{n - 1} v is not the shift of e_0 v for {bad} of {len(basis)} basis vectors"
        out.append(ModuleCheck(d, not bad, detail if bad else ""))
    return out
