"""The preprojective algebra R = Pi(A-tilde_n): two engines, one truth.

The production engine works in the canonical monomial basis: every nonzero
path equals the unique monomial with its source, nonstar count and star
count, all star arrows pushed to the right (the vertex relations
alpha_i alpha_i* = alpha_{i-1}* alpha_{i-1} rewrite a star-before-nonstar
pair without ever producing zero).  Products then follow a closed form on
(source, nonstars, stars) triples.

The oracle engine never assumes any of that.  It enumerates all free words
degree by degree and row-reduces the relation ideal's truncation inside
each free component.  The ideal is spanned in every degree by differences
of pairs of words (the generators are binomial and stay binomial under
left/right multiplication by arrows), so Gaussian elimination on that
spanning set is exactly the merge of word classes: the reduced basis is
{w - min(class w)} over non-minimal words, the complement basis is the set
of class minima under the monomial order (degree, source, then lex on
arrows with nonstars before stars), and reduction of a word is lookup of
its class minimum.  The oracle is authoritative; tests hold the closed
form to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .quiver import ArrowRef, QuiverA, Word, mat_mul

ORACLE_WORD_LIMIT = 60_000_000


class NFMonomial(NamedTuple):
    """Canonical basis monomial: source vertex, nonstar count, star count."""

    source: int
    nonstars: int
    stars: int

    @property
    def degree(self) -> int:
        return self.nonstars + self.stars

    def target(self, n: int) -> int:
        return (self.source + self.nonstars - self.stars) % n

    def word(self, q: QuiverA) -> Word:
        """The canonical representative word: nonstars first, then stars."""
        n, i, l, k = q.n, self.source, self.nonstars, self.stars
        arrows = [ArrowRef((i + t) % n, False) for t in range(l)]
        arrows += [ArrowRef((i + l - 1 - t) % n, True) for t in range(k)]
        return q.word(i, arrows)

    def __str__(self):
        return f"m({self.source};{self.nonstars},{self.stars})"


def normal_form(q: QuiverA, w: Word) -> NFMonomial:
    """Canonical form of a composable word: exhaustive rewriting preserves
    the source and the two arrow counts and never kills a word."""
    stars = sum(1 for a in w.arrows if a.starred)
    return NFMonomial(w.source % q.n, len(w.arrows) - stars, stars)


def nf_basis(q: QuiverA, d: int) -> list[NFMonomial]:
    """The n*(d+1) canonical monomials of degree d, source-major."""
    return [
        NFMonomial(i, d - k, k) for i in range(q.n) for k in range(d + 1)
    ]


class AlgebraElement:
    """A finite linear combination of canonical monomials.

    Coefficients are exact rationals (Fraction) or cyclotomic ScalarValue;
    zero coefficients are never stored.  Immutable by convention.
    """

    __slots__ = ("quiver", "terms")

    def __init__(self, quiver: QuiverA, terms: dict[NFMonomial, object] | None = None):
        self.quiver = quiver
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(q: QuiverA) -> "AlgebraElement":
        return AlgebraElement(q)

    @staticmethod
    def monomial(q: QuiverA, m: NFMonomial, coeff=Fraction(1)) -> "AlgebraElement":
        return AlgebraElement(q, {m: coeff})

    @staticmethod
    def idempotent(q: QuiverA, i: int) -> "AlgebraElement":
        return AlgebraElement.monomial(q, NFMonomial(i % q.n, 0, 0))

    @staticmethod
    def arrow(q: QuiverA, i: int, starred: bool = False) -> "AlgebraElement":
        # alpha_i is the length-1 monomial at source i; alpha_i* starts at i+1.
        src = (i + 1) % q.n if starred else i % q.n
        return AlgebraElement.monomial(
            q, NFMonomial(src, 0, 1) if starred else NFMonomial(src, 1, 0)
        )

    @staticmethod
    def one(q: QuiverA) -> "AlgebraElement":
        return AlgebraElement(q, {NFMonomial(i, 0, 0): Fraction(1) for i in range(q.n)})

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m, 0) + c
            if acc:
                out[m] = acc
            else:
                out.pop(m, None)
        return AlgebraElement(self.quiver, out)

    def __neg__(self):
        return AlgebraElement(self.quiver, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "AlgebraElement":
        if not c:
            return AlgebraElement.zero(self.quiver)
        return AlgebraElement(self.quiver, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, AlgebraElement):
            return NotImplemented
        return self.scale(c)

    # -- ring structure ------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        self._check(other)
        n = self.quiver.n
        out: dict[NFMonomial, object] = {}
        for m1, c1 in self.terms.items():
            tgt = (m1.source + m1.nonstars - m1.stars) % n
            for m2, c2 in other.terms.items():
                if m2.source != tgt:
                    continue
                m = NFMonomial(m1.source, m1.nonstars + m2.nonstars, m1.stars + m2.stars)
                acc = out.get(m, 0) + c1 * c2
                if acc:
                    out[m] = acc
                else:
                    out.pop(m, None)
        return AlgebraElement(self.quiver, out)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined here")
        result = AlgebraElement.one(self.quiver)
        for _ in range(e):
            result = result * self
        return result

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Common degree of all terms, None for 0 or mixed-degree elements."""
        degs = {m.degree for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def sorted_terms(self) -> list[tuple[NFMonomial, object]]:
        return sorted(self.terms.items(), key=lambda t: t[0])

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.quiver == other.quiver and self.terms == other.terms

    def __hash__(self):
        return hash((self.quiver.n, tuple(self.sorted_terms())))

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{m}" for m, c in self.sorted_terms())

    __repr__ = __str__

    def _check(self, other):
        if self.quiver != other.quiver:
            raise ValueError("elements live over different quivers")


# ---------------------------------------------------------------------------
# The relation-ideal oracle
# ---------------------------------------------------------------------------


class DegreeSubspace(NamedTuple):
    """Row-reduced picture of one free degree component modulo the ideal."""

    degree: int
    dimension: int
    basis_words: list[Word]            # complement basis, monomial order
    rep_index: dict[int, int]          # flat rep id -> position in basis_words


@dataclass
class RelationIdealOracle:
    """Degreewise truncation of the two-sided ideal of vertex relations,
    built incrementally: layer 2 is the n vertex relations, and layer d+1
    is arrows*layer_d + layer_d*arrows.

    Words of degree d from source i are encoded as i * 2^d + code where the
    code's bits, most significant first, flag star arrows; numeric order on
    codes is lex order on arrow sequences (nonstar < star at each slot).
    """

    quiver: QuiverA
    _rep: dict[int, list[int]] = field(default_factory=dict)   # degree -> rep id per word
    _reps: dict[int, list[int]] = field(default_factory=dict)  # degree -> sorted class minima
    _rep_pos: dict[int, dict[int, int]] = field(default_factory=dict)

    def built_through(self) -> int:
        return max(self._reps, default=-1)

    def extend(self, d: int) -> None:
        # n << d > limit exactly when d >= bit_length(limit // n); checked
        # before any degree is built, and without forming n << d.
        if d >= (ORACLE_WORD_LIMIT // self.quiver.n).bit_length():
            raise MemoryError(
                f"free component at degree {d} has {self.quiver.n} * 2^{d} words, over the "
                f"oracle's limit of {ORACLE_WORD_LIMIT}; the oracle is for desk-scale degrees"
            )
        while self.built_through() < d:
            self._build_next()

    # -- word encoding -------------------------------------------------------

    def encode(self, w: Word) -> int:
        code = 0
        for a in w.arrows:
            code = (code << 1) | (1 if a.starred else 0)
        return w.source * (1 << len(w.arrows)) + code

    def decode(self, d: int, flat: int) -> Word:
        n = self.quiver.n
        source, code = divmod(flat, 1 << d)
        arrows = []
        at = source
        for t in range(d - 1, -1, -1):
            if (code >> t) & 1:
                arrows.append(ArrowRef((at - 1) % n, True))
                at = (at - 1) % n
            else:
                arrows.append(ArrowRef(at, False))
                at = (at + 1) % n
        return Word(source, tuple(arrows))

    # -- construction ----------------------------------------------------------

    def _build_next(self) -> None:
        d = self.built_through() + 1
        n = self.quiver.n
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
            prev_rep = self._rep[d - 1]
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
        rep = [minima[find(x)] for x in range(size)]
        reps = sorted(minima.values())
        self._rep[d] = rep
        self._reps[d] = reps
        self._rep_pos[d] = {r: i for i, r in enumerate(reps)}

    # -- queries ---------------------------------------------------------------

    def dimension(self, d: int) -> int:
        self.extend(d)
        return len(self._reps[d])

    def basis(self, d: int) -> DegreeSubspace:
        self.extend(d)
        reps = self._reps[d]
        return DegreeSubspace(
            degree=d,
            dimension=len(reps),
            basis_words=[self.decode(d, r) for r in reps],
            rep_index=dict(self._rep_pos[d]),
        )

    def reduce_word(self, w: Word) -> int:
        """Position of the class of `w` in the complement basis."""
        d = len(w.arrows)
        self.extend(d)
        return self._rep_pos[d][self._rep[d][self.encode(w)]]

    def class_minimum(self, w: Word) -> Word:
        d = len(w.arrows)
        self.extend(d)
        return self.decode(d, self._rep[d][self.encode(w)])

    def ideal_dimension(self, d: int) -> int:
        self.extend(d)
        return len(self._rep[d]) - len(self._reps[d])

    def matrix_dimensions(self, d: int) -> list[list[int]]:
        """(i, j) entry: dimension of e_i R_d e_j."""
        self.extend(d)
        n = self.quiver.n
        out = [[0] * n for _ in range(n)]
        for r in self._reps[d]:
            src, code = divmod(r, 1 << d)
            stars = bin(code).count("1")
            tgt = (src + d - 2 * stars) % n
            out[src][tgt] += 1
        return out


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------


@dataclass
class HilbertReport:
    """Total and matrix-valued dimension series of R through degree D,
    as computed by the oracle, together with two structural checks."""

    n: int
    degree: int
    totals: list[int]
    matrices: list[list[list[int]]]
    recurrence_holds: bool
    matches_inverse_square_series: bool

    def note(self) -> str:
        rec = "C_d = M*C_{d-1} - C_{d-2}"
        if self.recurrence_holds and not self.matches_inverse_square_series:
            return (
                f"matrix series satisfies {rec} (i.e. equals the expansion of "
                "(I - M*t + I*t^2)^-1); it does not match the expansion of "
                "(I - M*t)^-2, whose coefficients grow exponentially"
            )
        return f"recurrence {rec}: {self.recurrence_holds}"


def hilbert(q: QuiverA, D: int, oracle: RelationIdealOracle | None = None) -> HilbertReport:
    """Dimension series through degree D, measured on the oracle."""
    oracle = oracle or RelationIdealOracle(q)
    oracle.extend(D)
    totals = [oracle.dimension(d) for d in range(D + 1)]
    matrices = [oracle.matrix_dimensions(d) for d in range(D + 1)]
    m = q.adjacency_matrix()
    recurrence = all(
        matrices[d]
        == [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(mat_mul(m, matrices[d - 1]), matrices[d - 2])
        ]
        for d in range(2, D + 1)
    )
    inverse_square = all(
        matrices[d] == _inverse_square_coefficient(m, d) for d in range(D + 1)
    )
    return HilbertReport(q.n, D, totals, matrices, recurrence, inverse_square)


def _inverse_square_coefficient(m: list[list[int]], d: int) -> list[list[int]]:
    """Degree-d coefficient of (I - M t)^-2, i.e. (d+1) M^d."""
    n = len(m)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(d):
        out = mat_mul(out, m)
    return [[(d + 1) * x for x in row] for row in out]
