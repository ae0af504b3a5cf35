"""Invariant rings R^G: orbit-sum bases, Reynolds averaging, and the
presentations of the two maximal fixed rings.

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

For the full dihedral group the fixed ring is a commutative polynomial ring
on one generator in degree 1 and one in degree 2; for the index-two
reflection subgroup (n even) it is the path algebra of a two-vertex quiver
with degree-1 arrows u1, u2 and degree-2 loops v1, v2 modulo
(v1 u1 - u1 v2, v2 u2 - u2 v1).  Both claims are machine-checked
degreewise.
"""

from __future__ import annotations

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
# orbit sums and of s1 and s2, twice as many for even n, each n^2 term
# matches plus coefficient arithmetic worth about 110n more: n(n + 110) steps.
# At this limit (n = 3 through degree 170, n = 4 through 103, n = 200 through
# 8, n = 859 or 592 at degree 0) the check takes 0.6 to 1.1 s on a 2-core x86-64 guest under Python 3.11.
RELATION_STEP_LIMIT = 2_500_000


def check_orbit_sum_relations(n: int, D: int) -> RelationReport:
    """Verify the multiplication rules of orbit sums up to total degree D by
    exact closed-form products: degree-shift products, diagonal powers, the
    commutation of s1 and s2, and (n even) their parity-graded refinements.
    Refused up front over RELATION_STEP_LIMIT."""
    steps = ((D // 2 + 1) * ((D + 1) // 2) + 3) * (2 - n % 2) * n * (n + 110)
    if steps > RELATION_STEP_LIMIT:
        raise MemoryError(
            f"orbit-sum relations at n = {n} through degree {D} count {steps} product steps, "
            f"over the limit of {RELATION_STEP_LIMIT}"
        )
    q = QuiverA(n)
    report = RelationReport(n, D)
    s0, s1, s2 = s_elements(q)
    o11 = orbit_sum(q, 1, 1)
    report.add("s1*s2 = s2*s1", s1 * s2, s2 * s1)
    report.add("s1^2 = s2 + 2*O(1,1)", s1 * s1, s2 + o11.scale(Fraction(2)))

    for total in range(0, D):
        for k in range(0, total // 2 + 1):
            l = total - k
            report.add(
                f"O(1,0)*O({l},{k})",
                s1 * orbit_sum(q, l, k),
                _degree_shift_product(q, l, k, None),
            )
    power = AlgebraElement.one(q)
    for m in range(1, D // 2 + 1):
        power = power * o11
        report.add(f"O(1,1)^{m} = O({m},{m})", power, orbit_sum(q, m, m))

    if n % 2 == 0:
        even, odd = 0, 1
        s0e, s1e, s2e = s_elements(q, even)
        s0o, s1o, s2o = s_elements(q, odd)
        o11e = orbit_sum(q, 1, 1, even)
        o11o = orbit_sum(q, 1, 1, odd)
        report.add("s2*s1 = s1*s2'", s2e * s1e, s1e * s2o)
        report.add("s2'*s1' = s1'*s2", s2o * s1o, s1o * s2e)
        report.add(
            "s1*s1' = s2 + 2*O(1,1)^even", s1e * s1o, s2e + o11e.scale(Fraction(2))
        )
        report.add(
            "s1'*s1 = s2' + 2*O(1,1)^odd", s1o * s1e, s2o + o11o.scale(Fraction(2))
        )
        for p in (even, odd):
            opp = 1 - p
            s1p = s_elements(q, p)[1]
            for total in range(0, D):
                for k in range(0, total // 2 + 1):
                    l = total - k
                    report.add(
                        f"O(1,0)^{p}*O({l},{k})^{opp}",
                        s1p * orbit_sum(q, l, k, opp),
                        _degree_shift_product(q, l, k, p),
                    )
                    report.add(
                        f"O(1,0)^{p}*O({l},{k})^{p} = 0",
                        s1p * orbit_sum(q, l, k, p),
                        AlgebraElement.zero(q),
                    )
            powerp = s_elements(q, p)[0]
            o11p = orbit_sum(q, 1, 1, p)
            for m in range(1, D // 2 + 1):
                powerp = powerp * o11p
                report.add(
                    f"(O(1,1)^{p})^{m} = O({m},{m})^{p}",
                    powerp,
                    orbit_sum(q, m, m, p),
                )
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


def verify_presentation_dihedral(n: int, D: int, basis: InvariantBasis | None = None) -> PresentationReport:
    """Check that s1, s2 generate the full fixed ring freely as a commutative
    polynomial ring: the monomials s1^a s2^b of each degree map onto a basis
    of the invariants, whose dimensions match 1/((1-t)(1-t^2))."""
    q = QuiverA(n)
    basis = basis or invariant_basis(dihedral_group(q), D)
    _, s1, s2 = s_elements(q)
    well_defined = s1 * s2 == s2 * s1
    expected = series_coefficients([1, 2], D)
    failures = []
    bij = -1
    s2_pows = [AlgebraElement.one(q)]
    for _ in range(D // 2):
        s2_pows.append(s2_pows[-1] * s2)
    for d in range(D + 1):
        images = []
        for b in range(d // 2 + 1):
            x = s2_pows[b]
            for _ in range(d - 2 * b):
                x = s1 * x
            images.append(x)
        r = rank(x.terms for x in images)
        inv_dim = basis.dims[d]
        if not (r == len(images) == inv_dim == expected[d]):
            failures.append(
                f"degree {d}: image rank {r}, free dim {len(images)}, "
                f"invariant dim {inv_dim}, series {expected[d]}"
            )
        elif bij == d - 1:
            bij = d
    return PresentationReport(
        target="polynomial_two_vars",
        well_defined=well_defined,
        bijective_through=bij,
        dims_match_series=basis.dims[: D + 1] == expected,
        failures=failures,
    )


def swap_matrix_series_coefficient(d: int) -> list[list[int]]:
    """Degree-d coefficient of (I - swap*t)^-1 (I - I*t^2)^-1."""
    c = d // 2 + 1
    return [[c, 0], [0, c]] if d % 2 == 0 else [[0, c], [c, 0]]


def verify_presentation_two_vertex(n: int, D: int, basis: InvariantBasis | None = None) -> PresentationReport:
    """Check the fixed ring of the vertex-reflection subgroup (n even)
    against the two-vertex quiver presentation: the defining relations map
    to zero and the quotient's normal words (u-chain then loop power) map
    degreewise onto the invariants, matching the swap-matrix series."""
    if n % 2:
        raise ValueError("the two-vertex presentation needs n even")
    q = QuiverA(n)
    basis = basis or invariant_basis(w_subgroup(q), D)
    s = {0: s_elements(q, 0), 1: s_elements(q, 1)}

    rel1 = s[0][2] * s[0][1] - s[0][1] * s[1][2]      # v1 u1 - u1 v2
    rel2 = s[1][2] * s[1][1] - s[1][1] * s[0][2]      # v2 u2 - u2 v1
    well_defined = rel1.is_zero() and rel2.is_zero()

    failures = []
    bij = -1
    totals = series_coefficients([1, 2], D, numerator=2)
    dims_ok = basis.dims[: D + 1] == totals
    for d in range(D + 1):
        images = []
        block_counts = [[0, 0], [0, 0]]
        for p in (0, 1):
            for b in range(d // 2 + 1):
                x = s[p][0]
                parity = p
                for _ in range(d - 2 * b):
                    x = x * s[parity][1]
                    parity = 1 - parity
                for _ in range(b):
                    x = x * s[parity][2]
                images.append(x)
                block_counts[p][parity] += 1
        r = rank(x.terms for x in images)
        inv_dim = basis.dims[d]
        matrix = basis.matrix_dims(d)
        swap = swap_matrix_series_coefficient(d)
        if matrix != swap:
            failures.append(f"degree {d}: invariant matrix dims {matrix} != {swap}")
        if block_counts != swap:
            failures.append(f"degree {d}: quotient block dims {block_counts} != {swap}")
        if not (r == len(images) == inv_dim):
            failures.append(
                f"degree {d}: image rank {r}, quotient dim {len(images)}, "
                f"invariant dim {inv_dim}"
            )
        elif not failures and bij == d - 1:
            bij = d
    return PresentationReport(
        target="two_vertex_quiver",
        well_defined=well_defined,
        bijective_through=bij,
        dims_match_series=dims_ok,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Module structure of R over R^G
# ---------------------------------------------------------------------------


@dataclass
class ModuleCheck:
    degree: int
    ok: bool
    detail: str = ""


def verify_free_module(q: QuiverA, vectors: list[list[AlgebraElement]]) -> list[ModuleCheck]:
    """Degreewise check, `vectors[d]` a basis of (R^G)_d, that {e_0..e_{n-1},
    alpha_0..alpha_{n-1}} is a basis of R over R^G: the vectors
    e_i * (R^G)_d and alpha_i * (R^G)_{d-1} jointly have full rank n(d+1)
    and their individual ranks add up to it (so the sum is direct)."""
    n = q.n
    out = []
    for d, basis in enumerate(vectors):
        prev = vectors[d - 1] if d else []
        parts = [[(AlgebraElement.idempotent(q, i) * v).terms for v in basis] for i in range(n)]
        parts += [[(AlgebraElement.arrow(q, i) * v).terms for v in prev] for i in range(n)]
        total = rank(row for part in parts for row in part)
        part_sum = sum(rank(part) for part in parts)
        ok = total == n * (d + 1) == part_sum
        detail = f"rank {total}, direct-sum count {part_sum}, expected {n * (d + 1)}"
        out.append(ModuleCheck(d, ok, "" if ok else detail))
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
