"""The preprojective algebra R = Pi(A-tilde_n): two engines, one truth.

The production engine works in the canonical monomial basis: every nonzero
path equals the unique monomial with its source, nonstar count and star
count, all star arrows pushed to the right (the vertex relations
alpha_i alpha_i* = alpha_{i-1}* alpha_{i-1} rewrite a star-before-nonstar
pair without ever producing zero).  Products then follow a closed form on
(source, nonstars, stars) triples.

The oracle engine never assumes any of that.  It uses only that the
relation ideal is two-sided and generated by the binomial vertex relations
in degree 2.  Binomials stay binomial under left/right multiplication by
arrows, so the ideal is spanned in every degree by differences of pairs of
words, and Gaussian elimination on that spanning set is exactly the merge
of word classes: the reduced basis is {w - min(class w)} over non-minimal
words, the complement basis is the set of class minima under the monomial
order (degree, source, then lex on arrows with nonstars before stars), and
reduction of a word is lookup of its class minimum.  The classes of degree
d+1 follow from those of degree d by a union-find over R-labels (class of
a prefix, plus the last arrow); each L-label (first arrow, plus class of
the suffix) is attached to the first R-label met through it, so the
oracle's cost grows with the number of classes, not of words.  The oracle
is authoritative; tests hold the closed form to it, and hold it to a
word-by-word merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .quiver import ArrowRef, QuiverA, Word

# The oracle builds 4nk class labels at each degree k, 2nd(d+1) through
# degree d, and keeps about half of them: the R-labels of every degree and
# the L-labels of the last.  At this limit (n = 3 through degree 407, n = 20
# through 157) `hilbert --matrix` takes 0.5-0.6 s and 47 MB on a 2-core
# x86-64 guest under Python 3.11.
ORACLE_LABEL_LIMIT = 1_000_000

# `hilbert` keeps an n x n dimension matrix per degree, n^2 (D+1) entries
# through degree D, and builds as many again for its checks.  At this limit
# (n = 400 through degree 6) it takes about 1.3 s and 125 MB on the same
# guest.
MATRIX_ENTRY_LIMIT = 1_200_000


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

    # -- ring structure ------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        self._check(other)
        n = self.quiver.n
        # other's terms by source, so a product costs its terms plus its matches
        by_source: dict[int, list] = {}
        for m2, c2 in other.terms.items():
            by_source.setdefault(m2.source, []).append((m2, c2))
        out: dict[NFMonomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in by_source.get((m1.source + m1.nonstars - m1.stars) % n, ()):
                m = NFMonomial(m1.source, m1.nonstars + m2.nonstars, m1.stars + m2.stars)
                acc = out.get(m, 0) + c1 * c2
                if acc:
                    out[m] = acc
                else:
                    out.pop(m, None)
        return AlgebraElement(self.quiver, out)

    # -- queries -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.quiver == other.quiver and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{m}" for m, c in sorted(self.terms.items()))

    __repr__ = __str__

    def _check(self, other):
        if self.quiver != other.quiver:
            raise ValueError("elements live over different quivers")


# ---------------------------------------------------------------------------
# The relation-ideal oracle
# ---------------------------------------------------------------------------


@dataclass
class RelationIdealOracle:
    """Degreewise truncation of the two-sided ideal of vertex relations,
    kept as the partition of each degree's free words into classes.

    Words of degree d from source i are encoded as i * 2^d + code where the
    code's bits, most significant first, flag star arrows; numeric order on
    codes is lex order on arrow sequences (nonstar < star at each slot), and
    flat(w) = 2 * flat(prefix) + last bit.

    Assumed: the ideal is two-sided and generated by the degree-2 binomial
    relations, so layer d+1 is layer_d * arrows + arrows * layer_d.  Two
    words of degree d+1 are therefore in one class exactly when a chain of
    shared labels joins them: the R-label (class of the first d arrows,
    last arrow bit) or the L-label (first arrow bit, class of the last d
    arrows).  A word a*m*b with m of degree d-1 is an edge between its two
    labels, and both depend only on (a, [m], b), so one edge per (class at
    d-1, a, b) builds the classes.  Not assumed: the closed form of the
    classes, their number, or which words share one.

    Every edge joins an R-label to an L-label, so the union-find runs over
    R-labels only: an L-label is attached to the first R-label met through
    it, each later edge through it unions its R-label with that one, and
    its class is that R-label's.  Every L-label meets an edge.  At degree
    1, the L-label (a, e_j) meets exactly one: the arrow a into j.  At
    degree d >= 2, the L-label (a, c') lies over a class c' of degree d-1,
    which is a union of R-labels (c, b), and the arrow a into the source of
    c exists (each vertex has one nonstar and one star arrow in), so the
    edge (c, a, b) meets it.

    Classes of degree d are numbered by their minima in order; `_rcls[d]`
    gives the class of R-label 2c+b and `_lcls` that of L-label 2c+a at the
    last built degree, the only one the next build reads.  A class's
    minimum is the least 2 * min(c) + b over its R-labels, so the least
    R-label of a component carries it: unions link the larger root under
    the smaller, and the root is that least R-label.
    """

    quiver: QuiverA
    _mins: list[list[int]] = field(default_factory=list)  # degree -> sorted class minima
    _rcls: list[list[int]] = field(default_factory=list)  # degree -> class of R-label 2c+b
    _lcls: list[int] = field(default_factory=list)        # class of L-label 2c+a, last built degree

    def built_through(self) -> int:
        return len(self._mins) - 1

    def extend(self, d: int) -> None:
        # Checked before any degree is built.
        labels = 2 * self.quiver.n * d * (d + 1)
        if labels > ORACLE_LABEL_LIMIT:
            raise MemoryError(
                f"degree {d} needs {labels} stored class labels at n = {self.quiver.n}, over "
                f"the oracle's limit of {ORACLE_LABEL_LIMIT}; the oracle is for desk-scale degrees"
            )
        while self.built_through() < d:
            # Checked again before each degree on the labels built through
            # it, 4 per class of each degree below: on correct classes this
            # is the count above, but a fault that splits them grows it as 2^d.
            built = 4 * sum(map(len, self._mins))
            if built > ORACLE_LABEL_LIMIT:
                raise MemoryError(
                    f"degree {self.built_through() + 1} would bring the class labels built at "
                    f"n = {self.quiver.n} to {built}, over the oracle's limit of "
                    f"{ORACLE_LABEL_LIMIT}; its classes do not follow the closed form"
                )
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
        d = len(self._mins)
        n = self.quiver.n
        if d == 0:
            self._mins.append(list(range(n)))   # the trivial paths e_i
            self._rcls.append([])
            return
        prev = self._mins[d - 1]
        labels = 2 * len(prev)
        parent = list(range(labels))            # union-find over R-labels; parent[x] <= x
        at = [-1] * labels                      # L-label -> first R-label met through it
        if d == 1:
            # alpha_i runs from i to i+1, alpha_{i-1}* from i to i-1.
            for i in range(n):
                at[2 * ((i + 1) % n)] = 2 * i
                at[2 * ((i - 1) % n) + 1] = 2 * i + 1
        else:
            if d == 2:
                # Vertex relations e_i Omega e_i: alpha_i alpha_i* (code 01)
                # equals alpha_{i-1}* alpha_{i-1} (code 10); in degree 2 the
                # R-label of a word is its flat id, and both are still roots.
                for i in range(n):
                    parent[i * 4 + 2] = i * 4 + 1
            # The edge (c, a, b), c a class of degree d-2, joins R-label
            # x = 2 * lcls[2c+a] + b to L-label l = 2 * rcls[2c+b] + a; the
            # four pairs below are (a, b) = (0, 0), (0, 1), (1, 0), (1, 1).
            lit, rit = iter(self._lcls), iter(self._rcls[d - 1])
            for l0, l1, r0, r1 in zip(lit, lit, rit, rit):
                for x, l in ((2 * l0, 2 * r0), (2 * l0 + 1, 2 * r1), (2 * l1, 2 * r0 + 1), (2 * l1 + 1, 2 * r1 + 1)):
                    y = at[l]
                    if y < 0:
                        at[l] = x
                        continue
                    # Path halving: parent[x] is assigned before x is rebound.
                    while parent[x] != x:
                        parent[x] = x = parent[parent[x]]
                    while parent[y] != y:
                        parent[y] = y = parent[parent[y]]
                    if x < y:
                        parent[y] = x
                    elif y < x:
                        parent[x] = y

        # parent[x] <= x, so in one forward pass each root, its component's
        # least R-label, is numbered in order, and every other R-label reads
        # its class through its parent, numbered already.  The numbering
        # follows the minima, since 2 * prev[x >> 1] + (x & 1) grows with x.
        mins = []
        for x in range(labels):
            p = parent[x]
            if p == x:
                parent[x] = len(mins)
                mins.append(2 * prev[x >> 1] + (x & 1))
            else:
                parent[x] = parent[p]
        self._mins.append(mins)
        self._rcls.append(parent)
        self._lcls = [parent[x] for x in at]

    def _class(self, d: int, flat: int) -> int:
        """Class of a word: the class of each prefix, longest last."""
        c = flat >> d
        for k in range(1, d + 1):
            c = self._rcls[k][2 * c + ((flat >> (d - k)) & 1)]
        return c

    # -- queries ---------------------------------------------------------------

    def minima(self, d: int) -> list[int]:
        """The codes of the class minima of degree d, in increasing order."""
        self.extend(d)
        return self._mins[d]

    def dimension(self, d: int) -> int:
        return len(self.minima(d))

    def reduce_word(self, w: Word) -> int:
        """Position of the class of `w` in the complement basis."""
        d = len(w.arrows)
        self.extend(d)
        return self._class(d, self.encode(w))

    def class_minimum(self, w: Word) -> Word:
        c = self.reduce_word(w)
        d = len(w.arrows)
        return self.decode(d, self._mins[d][c])

    def matrix_dimensions(self, d: int) -> list[list[int]]:
        """(i, j) entry: dimension of e_i R_d e_j."""
        self.extend(d)
        n = self.quiver.n
        out = [[0] * n for _ in range(n)]
        for r in self._mins[d]:
            src, code = divmod(r, 1 << d)
            stars = code.bit_count()
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


def check_matrix_entries(n: int, D: int) -> None:
    """Refuse a `hilbert` through degree D at n over MATRIX_ENTRY_LIMIT, before any work."""
    entries = n * n * (D + 1)
    if entries > MATRIX_ENTRY_LIMIT:
        raise MemoryError(f"hilbert at n = {n} through degree {D} needs {entries} matrix entries, over the limit of {MATRIX_ENTRY_LIMIT}")


def hilbert(q: QuiverA, D: int, oracle: RelationIdealOracle | None = None) -> HilbertReport:
    """Dimension series through degree D, measured on the oracle."""
    check_matrix_entries(q.n, D)
    oracle = oracle or RelationIdealOracle(q)
    oracle.extend(D)
    totals = [oracle.dimension(d) for d in range(D + 1)]
    matrices = [oracle.matrix_dimensions(d) for d in range(D + 1)]
    recurrence = all(
        matrices[d]
        == [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(q.adjacency_times(matrices[d - 1]), matrices[d - 2])
        ]
        for d in range(2, D + 1)
    )
    inverse_square = all(
        matrices[d] == _inverse_square_coefficient(q, d) for d in range(D + 1)
    )
    return HilbertReport(q.n, D, totals, matrices, recurrence, inverse_square)


def _inverse_square_coefficient(q: QuiverA, d: int) -> list[list[int]]:
    """Degree-d coefficient of (I - M t)^-2, i.e. (d+1) M^d."""
    n = q.n
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(d):
        out = q.adjacency_times(out)
    return [[(d + 1) * x for x in row] for row in out]
