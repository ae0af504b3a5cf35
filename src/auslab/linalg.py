"""Sparse exact row spans.

Rows are dicts from ordered keys to coefficients: integer positions, or
any mutually comparable keys such as `NFMonomial`s.  `rank(rows)`, one
`FieldEchelon`, is the only rank asked for outside the smash ideal's
partitions: the invariant-ring checks, the naive spanning set and the one
elimination `image_rank` cannot count.  The kernels:

  * `FieldEchelon`, an echelon basis with leading coefficients normalized
    to one, for rational or cyclotomic rows;
  * `IntEchelon`, fraction-free elimination on primitive integer rows, the
    tests' reference for the partitions;
  * `SignedPartition`, the span of unit rows e_a and binomials
    e_a - z^s e_b, z a primitive K-th root of unity, kept as a gain graph
    with gains stored as exponents mod K (K = 2: signs +-1).

`SignedPartition` builds every block of the smash ideal: it takes unit rows
(`kill`) and binomials (`join`), `absorb`s another partition's span through
an injective relabelling, reports `live`, the dimension left outside the
span, and the rank of a few sums of coordinates in the quotient
(`image_rank`); a row's membership is a sum of coefficients times roots of
unity per live root (`vanishes`).  A partition's nodes need not be single
coordinates: for a group without scalars the smash ideal keeps one node per
run of coordinates, and the same operations serve.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

SIGNS = (1, -1)


def rank(rows) -> int:
    """Rank of rational or cyclotomic rows, dicts from mutually ordered keys."""
    echelon = FieldEchelon()
    for row in rows:
        echelon.insert(row)
    return echelon.rank


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


class FieldEchelon:
    """Echelon basis over a field; rows normalized to leading coefficient 1."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, dict[int, object]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

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
        c = v[lead]
        inv = Fraction(1) / c if isinstance(c, (int, Fraction)) else c.inverse()
        self.pivots[lead] = {k: inv * c for k, c in v.items()}
        return True


class SignedPartition:
    """Span of unit rows e_a and binomials e_a - z^s e_b over a field holding
    the K-th roots of unity z^0 .. z^(K-1), kept as a gain graph.

    `values[s]` is z^s, so K = len(values); the default K = 2 has the signs
    +-1 for gains, the signed graphs of rows over Q.  Modulo the span every
    coordinate is a root-of-unity multiple of its component's root,
    e_k = z^gain[k] * e_root[k], with gains stored as exponents mod K, and
    `root` and `gain` fully compressed.  A component is dead (zero in the
    quotient) once it holds a unit row or a cycle whose gains do not cancel,
    and live otherwise, so the quotient has one dimension per live root.
    Components of two or more coordinates keep their member lists, and a
    union relabels the smaller one.
    """

    __slots__ = ("root", "gain", "members", "dead", "live", "values", "K")

    def __init__(self, size: int, values: tuple = SIGNS):
        self.root = list(range(size))
        self.gain = [0] * size
        self.members: dict[int, list[int]] = {}
        self.dead: set[int] = set()
        self.live = size
        self.values = values
        self.K = len(values)

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
        """Add the row e_a - z^s e_b."""
        root, gain, dead, K = self.root, self.gain, self.dead, self.K
        ra, rb = root[a], root[b]
        t = (s + gain[b] - gain[a]) % K  # e_ra = z^t e_rb in the quotient
        if ra == rb:
            if t and ra not in dead:
                dead.add(ra)
                self.live -= 1
            return
        members = self.members
        ma = members.pop(ra, None) or [ra]
        mb = members.pop(rb, None) or [rb]
        if len(ma) > len(mb):
            ra, rb, ma, mb, t = rb, ra, mb, ma, -t
        for x in ma:
            root[x] = rb
            gain[x] = (gain[x] + t) % K
        mb += ma
        members[rb] = mb
        if ra in dead:
            dead.remove(ra)
            if rb in dead:
                return
            dead.add(rb)
        self.live -= 1

    def absorb(self, mapping: list[int], source: "SignedPartition | None") -> None:
        """Add the image of `source`'s span under the injective relabelling
        sending source coordinate e_x to e_mapping[x]; a None source spans its
        whole space."""
        if source is None:
            for a in mapping:
                self.kill(a)
            return
        # e_x = z^s e_r in the source, s = source_gain[x], maps to
        # e_a = z^s e_b, for a = mapping[x] and b = mapping[r].
        root, gain, source_gain, K = self.root, self.gain, source.gain, self.K
        if self.live == len(root):
            # Nothing added yet: the image partition is copied outright.
            members = self.members
            for r, mem in source.members.items():
                b = mapping[r]
                image = [mapping[x] for x in mem]
                for x, a in zip(mem, image):
                    root[a] = b
                    gain[a] = source_gain[x]
                members[b] = image
            self.dead.update(mapping[r] for r in source.dead)
            self.live -= source.rank
            return
        join = self.join
        for r, mem in source.members.items():
            b = mapping[r]
            rb, gb = root[b], gain[b]
            for x in mem:
                a = mapping[x]
                # Skip rows the partition already holds.
                if root[a] != rb or (gain[a] - gb) % K != source_gain[x]:
                    join(a, b, source_gain[x])
                    rb, gb = root[b], gain[b]
        for r in source.dead:
            self.kill(mapping[r])

    def reduce(self, terms) -> list[tuple[int, int]]:
        """z^s e_k for the (k, s) in `terms`, in the quotient: a list of
        (live root, exponent) pairs, the dead components dropped."""
        root, gain, dead, K = self.root, self.gain, self.dead, self.K
        return [(root[k], (s + gain[k]) % K) for k, s in terms if root[k] not in dead]

    def vanishes(self, rows) -> bool:
        """Whether the sum of c * z^s over the pairs (r, s) of all rows
        (c, pairs) is 0 at every root r, the pairs as `reduce` gives them;
        c lies in the field of `values`, or in any field when K = 2.  The
        coefficients are summed per pair first, so each pair costs one
        product."""
        values, per_pair, acc = self.values, {}, {}
        for c, pairs in rows:
            for pair in pairs:
                per_pair[pair] = per_pair.get(pair, 0) + c
        for (r, s), c in per_pair.items():
            acc[r] = acc.get(r, 0) + c * values[s]
        return not any(acc.values())

    def image_rank(self, starts: list[int], count: int) -> int:
        """Rank of the images in the quotient of the `count` rows
        sum_(s in starts) e_(s + x), x = 0..count-1.  When every image meets
        one root, or no root is met by two images, the rank is a count;
        otherwise it is their `rank`."""
        values = self.values
        images = []
        for x in range(count):
            acc: dict[int, object] = {}
            for r, g in self.reduce((s + x, 0) for s in starts):
                acc[r] = values[g] + acc[r] if r in acc else values[g]
            image = {r: c for r, c in acc.items() if c}
            if image:
                images.append(image)
        met = [r for image in images for r in image]
        if len(met) == len(images):
            return len(set(met))
        if len(set(met)) == len(met):
            return len(images)
        return rank(images)
