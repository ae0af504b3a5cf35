"""The doubled quiver of A-tilde_n and its words.

Vertices are residues 0..n-1.  The nonstar arrow alpha_i runs i -> i+1 and
the star arrow alpha_i* runs i+1 -> i, indices mod n.  For n >= 3 the double
is schurian (at most one arrow between any ordered vertex pair), which is
what lets automorphisms act arrow-by-arrow; n <= 2 is rejected.

Words multiply by concatenation, left factor first.  A non-composable
product is the explicit null value `None`, kept distinct from the zero of
any quotient algebra built on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class ArrowRef(NamedTuple):
    index: int
    starred: bool

    def __str__(self):
        return f"a{self.index}*" if self.starred else f"a{self.index}"


@dataclass(frozen=True)
class Word:
    """A composable path: a source vertex and a tuple of arrows."""

    source: int
    arrows: tuple[ArrowRef, ...]

    def __str__(self):
        if not self.arrows:
            return f"e{self.source}"
        return "".join(str(a) for a in self.arrows)


class QuiverA:
    """The double of the extended Dynkin quiver A-tilde_n, n >= 3."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("n >= 3 required: the doubled quiver must be schurian")
        self.n = n

    def __eq__(self, other):
        return isinstance(other, QuiverA) and self.n == other.n

    def __hash__(self):
        return hash(("QuiverA", self.n))

    def __repr__(self):
        return f"QuiverA(n={self.n})"

    # -- arrows ------------------------------------------------------------

    def arrow_source(self, a: ArrowRef) -> int:
        return (a.index + 1) % self.n if a.starred else a.index

    def arrow_target(self, a: ArrowRef) -> int:
        return a.index if a.starred else (a.index + 1) % self.n

    # -- words -------------------------------------------------------------

    def word(self, source: int, arrows) -> Word:
        """Validated word: consecutive arrows must compose from `source`."""
        source %= self.n
        arrows = tuple(arrows)
        at = source
        for a in arrows:
            if self.arrow_source(a) != at:
                raise ValueError(f"arrow {a} does not start at vertex {at}")
            at = self.arrow_target(a)
        return Word(source, arrows)

    def word_target(self, w: Word) -> int:
        at = w.source
        for a in w.arrows:
            at = self.arrow_target(a)
        return at

    def compose(self, w1: Word, w2: Word) -> Word | None:
        """Concatenation when target(w1) = source(w2); None otherwise."""
        if self.word_target(w1) != w2.source:
            return None
        return Word(w1.source, w1.arrows + w2.arrows)

    # -- adjacency ---------------------------------------------------------

    def adjacency_times(self, c: list[list[int]]) -> list[list[int]]:
        """M c for the adjacency matrix M, the 0/1 circulant with ones at
        j = i +- 1 mod n, by shift-and-add: row i of M c is
        row i - 1 plus row i + 1 of c."""
        n = self.n
        return [[a + b for a, b in zip(c[i - 1], c[(i + 1) % n])] for i in range(n)]
