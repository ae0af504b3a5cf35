"""Sparse exact row spans.

Rows are dicts from coordinate index to coefficient.  Three kernels share
one interface (`insert`, `rank`, `contains`, `lead_count_at_least`):

  * `FieldEchelon`, an echelon basis with leading coefficients normalized
    to one, for rational or cyclotomic rows;
  * `IntEchelon`, fraction-free elimination on primitive integer rows;
  * `SignedPartition`, the span of unit rows e_a and signed binomials
    e_a - s e_b (s = +-1), kept as a partition of the coordinates.

`FieldEchelon` and `SignedPartition` also `absorb` another kernel's span
through an injective index map (with per-coordinate multipliers for the
echelon, see `map_row`) and report `live`, the dimension left outside the
span, which is how the smash ideal is built over either.

Echelon pivots are leftmost nonzero coordinates, so any row whose pivot
falls in a suffix of the coordinate order has its whole support in that
suffix; intersections with a coordinate suffix are read straight off the
pivot positions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class IntEchelon:
    """Echelon basis of primitive integer rows, built by insertion."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def residue(self, row: dict[int, int]) -> dict[int, int]:
        """Reduce against the basis: empty means the row lies in the span."""
        v = {k: c for k, c in row.items() if c}
        while v:
            lead = min(v)
            r = self.pivots.get(lead)
            if r is None:
                return v
            a, b = v[lead], r[lead]
            g = gcd(a, b)
            mv, mr = b // g, a // g
            nxt: dict[int, int] = {}
            for k, c in v.items():
                c = mv * c - mr * r.get(k, 0)
                if c:
                    nxt[k] = c
            for k, c in r.items():
                if k not in v:
                    c = -mr * c
                    if c:
                        nxt[k] = c
            v = nxt
        return v

    def insert(self, row: dict[int, int]) -> bool:
        """Insert if independent; returns whether the rank grew."""
        v = self.residue(row)
        if not v:
            return False
        content = 0
        for c in v.values():
            content = gcd(content, c)
        lead = min(v)
        if v[lead] < 0:
            content = -content
        self.pivots[lead] = {k: c // content for k, c in v.items()}
        return True

    def contains(self, row: dict[int, int]) -> bool:
        return not self.residue(row)

    def lead_count_at_least(self, threshold: int) -> int:
        return sum(1 for lead in self.pivots if lead >= threshold)


def map_row(row: dict[int, object], mapping: list[int], multipliers: list | None = None) -> dict[int, object]:
    """The row with coordinate k moved to mapping[k] and its coefficient
    scaled by multipliers[k]; None stands for multipliers that are all 1."""
    if multipliers is None:
        return {mapping[k]: c for k, c in row.items()}
    out = {}
    for k, c in row.items():
        s = multipliers[k]
        out[mapping[k]] = c if s == 1 else c * s
    return out


class FieldEchelon:
    """Echelon basis over a field; rows normalized to leading coefficient 1.
    `size`, the number of coordinates, is needed only for `live` and
    `absorb`."""

    __slots__ = ("pivots", "size")

    def __init__(self, size: int | None = None):
        self.pivots: dict[int, dict[int, object]] = {}
        self.size = size

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def live(self) -> int:
        """Dimension of the quotient by the span."""
        return self.size - len(self.pivots)

    def absorb(self, mapping: list[int], source: "FieldEchelon | None", multipliers: list | None) -> None:
        """Insert the image of `source`'s echelon rows under the injective
        coordinate map `mapping`, with multipliers as in `map_row`; None
        stands for a source that spans its whole space.  Stops once the
        span is everything."""
        if source is None:
            rows = ({k: Fraction(1)} for k in range(len(mapping)))
        else:
            rows = source.pivots.values()
        for row in rows:
            if self.insert(map_row(row, mapping, multipliers)) and not self.live:
                return

    def residue(self, row: dict[int, object]) -> dict[int, object]:
        v = {k: c for k, c in row.items() if c}
        while v:
            lead = min(v)
            r = self.pivots.get(lead)
            if r is None:
                return v
            factor = v[lead]
            nxt: dict[int, object] = {}
            for k, c in v.items():
                c = c - factor * r.get(k, 0)
                if c:
                    nxt[k] = c
            for k, c in r.items():
                if k not in v:
                    c = -factor * c
                    if c:
                        nxt[k] = c
            v = nxt
        return v

    def insert(self, row: dict[int, object]) -> bool:
        v = self.residue(row)
        if not v:
            return False
        lead = min(v)
        inv = 1 / v[lead] if isinstance(v[lead], Fraction) else v[lead].inverse()
        self.pivots[lead] = {k: inv * c for k, c in v.items()}
        return True

    def contains(self, row: dict[int, object]) -> bool:
        return not self.residue(row)

    def lead_count_at_least(self, threshold: int) -> int:
        return sum(1 for lead in self.pivots if lead >= threshold)


class SignedPartition:
    """Span of unit and signed-binomial rows over Q, as a signed graph.

    Modulo the span every coordinate is a signed copy of its component's
    root, e_k = sign[k] * e_root[k]; `root` and `sign` are fully compressed.
    A component is dead (zero in the quotient) once it holds a unit row or
    an unbalanced cycle, and live otherwise, so the quotient has one
    dimension per live root.  Components of two or more coordinates keep
    their member lists, and a union relabels the smaller one.
    """

    __slots__ = ("root", "sign", "members", "dead", "live")

    def __init__(self, size: int):
        self.root = list(range(size))
        self.sign = [1] * size
        self.members: dict[int, list[int]] = {}
        self.dead: set[int] = set()
        self.live = size

    @property
    def rank(self) -> int:
        return len(self.root) - self.live

    def kill(self, a: int) -> None:
        """Add the unit row e_a."""
        r = self.root[a]
        if r not in self.dead:
            self.dead.add(r)
            self.live -= 1

    def join(self, a: int, b: int, s: int) -> None:
        """Add the row e_a - s * e_b, for s = +-1."""
        root, sign, dead = self.root, self.sign, self.dead
        ra, rb = root[a], root[b]
        t = sign[a] * s * sign[b]  # e_ra = t * e_rb in the quotient
        if ra == rb:
            if t != 1 and ra not in dead:
                dead.add(ra)
                self.live -= 1
            return
        members = self.members
        ma = members.pop(ra, None) or [ra]
        mb = members.pop(rb, None) or [rb]
        if len(ma) > len(mb):
            ra, rb, ma, mb = rb, ra, mb, ma
        for x in ma:
            root[x] = rb
            sign[x] *= t
        mb += ma
        members[rb] = mb
        if ra in dead:
            dead.remove(ra)
            if rb in dead:
                return
            dead.add(rb)
        self.live -= 1

    def insert(self, row: dict[int, object]) -> bool:
        """Add a unit or signed-binomial row; returns whether the rank grew.
        Any other shape raises ValueError."""
        terms = [(k, c) for k, c in row.items() if c]
        live = self.live
        if len(terms) == 1:
            self.kill(terms[0][0])
        elif len(terms) == 2 and terms[0][1] in (terms[1][1], -terms[1][1]):
            (a, ca), (b, cb) = terms
            self.join(a, b, -1 if ca == cb else 1)
        elif terms:
            raise ValueError(f"row {row} is neither a unit nor a signed binomial")
        return self.live < live

    def absorb(self, mapping: list[int], source: "SignedPartition | None", multipliers: None = None) -> None:
        """Add the image of `source`'s span under the injective coordinate
        map `mapping` (source index -> own index); None stands for a source
        that spans its whole space.  The rows carry signs only, so there
        are no multipliers."""
        if source is None:
            for a in mapping:
                self.kill(a)
            return
        root, sign, ssign = self.root, self.sign, source.sign
        if self.live == len(root):
            # Nothing added yet: the image partition is copied outright.
            members = self.members
            for r, mem in source.members.items():
                b = mapping[r]
                image = [mapping[x] for x in mem]
                for x, a in zip(mem, image):
                    root[a] = b
                    sign[a] = ssign[x]
                members[b] = image
            self.dead.update(mapping[r] for r in source.dead)
            self.live -= source.rank
            return
        join = self.join
        for r, mem in source.members.items():
            b = mapping[r]
            for x in mem:
                a = mapping[x]
                # Skip rows the partition already holds.
                if root[a] != root[b] or sign[a] * sign[b] != ssign[x]:
                    join(a, b, ssign[x])
        for r in source.dead:
            self.kill(mapping[r])

    def rows(self):
        """A basis of the span: e_k - sign[k] e_root[k] for every non-root
        k, and e_r for every dead root r."""
        for k, (r, s) in enumerate(zip(self.root, self.sign)):
            if r != k:
                yield {k: 1, r: -s}
        for r in sorted(self.dead):
            yield {r: 1}

    def contains(self, row: dict[int, object]) -> bool:
        """A row lies in the span exactly when, for every live root, its
        sign-weighted coefficient sum over that root's component is 0."""
        root, sign, dead = self.root, self.sign, self.dead
        acc: dict[int, object] = {}
        for k, c in row.items():
            r = root[k]
            if r not in dead:
                acc[r] = acc.get(r, 0) + (c if sign[k] == 1 else -c)
        return not any(acc.values())

    def lead_count_at_least(self, threshold: int) -> int:
        """Dimension of the span's intersection with the coordinates from
        `threshold` on: their number minus the live roots they meet."""
        root, dead = self.root, self.dead
        tail = root[threshold:]
        return len(tail) - len(set(tail) - dead)
