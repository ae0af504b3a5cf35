"""The smash product R#G and the two-sided ideal generated by f_G.

Multiplication follows (r1 # g1)(r2 # g2) = r1 g1(r2) # g1 g2.  The ideal
I = (f_G), f_G = sum_g 1#g, is truncated degree by degree by the recursion

    I_0 = span of the cuts e_i f_G e_j,
    I_d = (R_1#1) I_(d-1) + I_0 (R_d#1).

Proof: I_d is the sum of (R_a#G) f_G (R_b#G) over a + b = d.  For a >= 1,
R_a = R_1 R_(a-1), so that piece lies in (R_1#1) I_(d-1).  For a = 0,
(1#g) f_G = f_G, and x (m#h) = (x (1#h)) (h^-1(m)#1) with x (1#h) in I_0
for x in I_0, so the piece is I_0 (R_d#1).  Both pieces lie in I_d.

Everything is graded by idempotent cuts: e_i (R#G) e_j splits each degree
into n^2 blocks, and a spanning vector splits into its block pieces.  The
coordinates of a block are pairs (g, l), l the nonstar count, with
i + 2l - d = g(j) (mod n); for each g these l form an arithmetic
progression, so positions are closed-form, laid out in index order with
the identity components first.  The same positions index the character
coordinates below: the group index g = t h_k labels phi_(t, psi_k), for
the k-th element h_k of N and its k-th character psi_k.

Each block is kept in character coordinates.  A group is built as
G = T x| N (`FiniteGroup`): N, the vertex-fixing elements, is a normal,
abelian, diagonal subgroup, and T, the scalar-free elements, holds one
element of every coset of N, its representative.  For a representative
t, a character psi of N and a nonstar count l,
phi_(t, psi, l) = sum_(h in N) psi(h) (th, l); the characters are the
closure of the arrow characters chi_a (h's scalar on the arrow a), and
character values and scalars are roots of unity, stored as
exponents of z = zeta_K, K = lcm(2, M) for the group's conductor M.  In
these coordinates a left extension keeps phi and an orbit transfer, by a
scalar-free element, is a relabelling.  The cut row e_i f_G e_j (m#1), for
a monomial m of degree d from j to k, lies in block (i, k): it is the sum
over the coset representatives t with t(j) = i of phi_(t, chi_m, l'), with
no factor z^(s_t(m)) as t scales no arrow; chi_m is N's character on m,
read off periodic prefix sums by `Automorphism.word_exponents`, and l' is
m's nonstar count, or its star count when t reflects.  G/N acts on the
vertices as a subgroup of D_n, where a vertex stabilizer has order at most
2, so every cut row is a unit or a binomial.  The span of each block is
therefore a gain graph, kept as a `SignedPartition` with gains mod K:
degree d absorbs the two left-source partitions through composed index
maps, adds its cut rows, and stops once the block is spanned.

With N trivial (the subgroups of D_n), K = 2, the coordinates are the
pairs (g, l) themselves, those of one label g form its run, and runs go
to runs.  A left extension composed with a transfer t sends the
run of h onto the l >= 1 part (nonstar) or the l <= d - 1 part (star) of
the run of t h t^-1, in order or reversed, and a cut row kills one run or
pairs two runs position by position.  So every run lies in one component
at one gain.  By induction on d each part does, and the two parts share a
coordinate unless the run is {0, d}; at d < step (step = n for odd n, n/2
for even n) a run has at most one coordinate, so that needs d = step.
There the ideal joins the two: let z = sum_i [(i, step, 0) - (i, 0, step)]
in R_step.  Rotations fix z and reflections send it to -z, so
(z#1) f_G +- f_G (z#1) puts 2 sum_(g rotation) z#g and
2 sum_(g reflection) z#g in I.  Cut by e_i on the left and e_j#1 on the
right: in G at most one rotation and at most one reflection send j to
i + step, so ((i, step, 0) - (i, 0, step))#g lies in I_step for every g
and i, and that is the row e_(g, step) - e_(g, 0).  A group without
scalars therefore keeps every block as a partition over its |G| labels,
one node per run (`_build_runs`): a source is absorbed through t's
relabelling and a cut row is one join or kill, O(|G|) per block.  Of its
runs it reads only which are empty (below), so `BlockCoords` serves only
the coordinate build, which groups with scalars use, and the queries.

For even n the build splits into two chains by the parity of j - i + d:
block (i, j) at degree d draws only on blocks at d - 1 of its parity, and
conjugation keeps it.  Identity coordinates need j - i + d even, so
`extend` builds that chain only; the queries that see every block
(`block_rank`, `ideal_dimension`, `contains`) build the other on demand.
For odd n there is one chain.

Rank is read off the partition.  The identity coordinates are
(1, l) = |N|^-1 sum_psi phi_(1, psi, l), so the identity intersection is
their number minus the rank of their images in the quotient; that rank is
a count unless two images meet a common root, and only then is it found by
`linalg.rank`, the one field elimination left; in a label block the
identity run is one node, so that rank is 1 if the node is live and the
run is not empty, and 0 otherwise.  Membership writes
an element's coordinates in character coordinates, or in a label block as
their labels' nodes, and checks that its image in the quotient vanishes: a
sum of coefficients times roots of unity per live root
(`SignedPartition.vanishes`).

Three shortcuts keep the exact arithmetic desk-sized.  First, conjugation
by 1#g maps block (i, j) bijectively onto block (g i, g j) preserving
identity components, so only one block per diagonal orbit is built and the
rest are coordinate transfers.  Second, a block whose two left-extension
sources are entirely contained in the ideal is itself entirely contained
(every canonical monomial factors off its first arrow), so saturated
regions propagate without arithmetic.  Third, one repeat rule ends every
chain: if every representative block of a chain at degree d >= 2 spans
what it spanned at d - 2, compared in a canonical form, and either every
block is saturated or d > step, every later layer of the chain is a copy
of the one two degrees earlier, and is not built.  Saturated layers repeat
by the second shortcut, and a coordinate block never counts as a repeat.
A label block at d + 1 reads the chain's layer d, the degree-free
relabellings and `_reps_reaching`, and which labels have a non-empty run
(at d + 1, and at d in a saturated source).  Label g's run in block
(i, j, d) has `_progression(n, d + g(j) - i, d)[1]` coordinates, at least
one once d >= step - 1 unless n is even and d + g(j) - i is odd, so from
d = step - 1 on those masks depend only on d mod 2, and layer d + 1 spans
what layer d - 1 spans.  As g(j) = rot_g +- j, such a mask holds every
label for odd n, and for even n those with d + rot_g + j - i even, so
`_label_mask` keeps one per parity.  Every subgroup of D_n, n <= 30, that
never saturates (those holding every vertex-fixing reflection) repeats
from d = step + 2; that is measured, not proved, so the cell limit still
bounds a build that never repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from math import gcd
from typing import NamedTuple

from .linalg import SignedPartition, rank
from .preproj import AlgebraElement, NFMonomial
from .quiver import QuiverA
from .scalars import root_powers
from .symmetry import FiniteGroup


class MixedDegreeError(ValueError):
    pass


class WindowTooLargeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Smash elements
# ---------------------------------------------------------------------------


class SmashElement:
    """Finite linear combination of (canonical monomial, group element)."""

    __slots__ = ("group", "terms")

    def __init__(self, group: FiniteGroup, terms: dict[tuple[NFMonomial, int], object] | None = None):
        self.group = group
        self.terms = {t: c for t, c in (terms or {}).items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(group: FiniteGroup) -> "SmashElement":
        return SmashElement(group)

    @staticmethod
    def from_algebra(group: FiniteGroup, x: AlgebraElement, g: int = 0) -> "SmashElement":
        """x # g for the element index g, defaulting to x # 1."""
        return SmashElement(group, {(m, g): c for m, c in x.terms.items()})

    @staticmethod
    def unit(group: FiniteGroup) -> "SmashElement":
        one = AlgebraElement.one(group.quiver)
        return SmashElement.from_algebra(group, one)

    @staticmethod
    def group_sum(group: FiniteGroup) -> "SmashElement":
        """f_G = sum over g of 1 # g."""
        terms = {}
        for gi in range(len(group)):
            for i in range(group.quiver.n):
                terms[(NFMonomial(i, 0, 0), gi)] = Fraction(1)
        return SmashElement(group, terms)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "SmashElement") -> "SmashElement":
        out = dict(self.terms)
        for t, c in other.terms.items():
            acc = out.get(t, 0) + c
            if acc:
                out[t] = acc
            else:
                out.pop(t, None)
        return SmashElement(self.group, out)

    def __neg__(self):
        return SmashElement(self.group, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "SmashElement":
        if not c:
            return SmashElement.zero(self.group)
        return SmashElement(self.group, {t: c * v for t, v in self.terms.items()})

    def __mul__(self, other: "SmashElement") -> "SmashElement":
        if not isinstance(other, SmashElement):
            return self.scale(other)
        group = self.group
        n = group.quiver.n
        out: dict[tuple[NFMonomial, int], object] = {}
        for (m1, g1), c1 in self.terms.items():
            tgt = (m1.source + m1.nonstars - m1.stars) % n
            for (m2, g2), c2 in other.terms.items():
                mult, img = group.monomial_action(g1, m2)
                if img.source != tgt:
                    continue
                key = (
                    NFMonomial(m1.source, m1.nonstars + img.nonstars, m1.stars + img.stars),
                    group.mul(g1, g2),
                )
                acc = out.get(key, 0) + c1 * c2 * mult
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return SmashElement(group, out)

    # -- queries ---------------------------------------------------------------

    def degree(self) -> int | None:
        degs = {m.degree for m, _ in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SmashElement):
            return NotImplemented
        return self.group is other.group and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        terms = sorted(self.terms.items(), key=lambda t: (t[0][1], t[0][0]))
        return " + ".join(f"{c}*({m} # g{g})" for (m, g), c in terms)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Ideal truncation
# ---------------------------------------------------------------------------

def _progression(n: int, c: int, d: int) -> tuple[int, int]:
    """(first, count) of the l in 0..d with 2l = c (mod n); they step by
    n for odd n and by n/2 for even n."""
    c %= n
    if n % 2:
        first, step = c * (n + 1) // 2 % n, n        # (n + 1) / 2 inverts 2 mod n
    elif c % 2:
        return 0, 0
    else:
        first, step = c // 2, n // 2
    return first, len(range(first, d + 1, step))


class BlockCoords:
    """Coordinate scheme of e_i (R#G)_d e_j: pairs (g, l), l the nonstar
    count, with i + 2l - d = g(j) (mod n).  For each group index g these l
    run from first[g] in steps of `step`, count[g] of them, laid out in
    index order from start[g]."""

    def __init__(self, first: list[int], count: list[int], step: int):
        self.first, self.count, self.step = first, count, step
        self.start = list(accumulate(count, initial=0))
        self.size = self.start.pop()


class _Block:
    """A block's span at one degree, one gain partition: for a group with
    scalars `kernel`, over its coordinates; for a group without, `runs`,
    over its labels, node g standing for g's run of coordinates (g, l), all
    at g's gain.  A saturated block holds neither."""

    __slots__ = ("kernel", "runs", "full")

    def __init__(self, kernel: SignedPartition | None = None, runs: SignedPartition | None = None):
        self.kernel, self.runs = kernel, runs
        self.full = kernel is None and runs is None


_SATURATED = _Block()


def _span(part: SignedPartition) -> list[tuple[int, int] | None]:
    """A partition's span in canonical form: per node, None if its component
    is dead, otherwise the component's least node and the gain relative to it."""
    least = {r: x for x, r in reversed(list(enumerate(part.root)))}     # the last write is the least
    return [None if r in part.dead else (least[r], (s - part.gain[least[r]]) % part.K) for r, s in zip(part.root, part.gain)]


def _same_span(a: _Block, b: _Block) -> bool:
    """Whether two blocks of one chain span the same: both saturated, or two
    label blocks of one canonical form.  A coordinate block never equals
    another, so a group with scalars repeats only once saturated."""
    return a.full and b.full or a.runs is not None and b.runs is not None and _span(a.runs) == _span(b.runs)


class IdealTruncation:
    """Degreewise spans of the two-sided ideal (f_G) in R#G, one gain
    partition per orbit-representative block, in character coordinates,
    built one parity chain at a time."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.n = group.quiver.n
        self._coords: dict[tuple[int, int, int], BlockCoords] = {}
        self._progressions: dict[int, list[tuple[int, int]]] = {}    # per degree, _progression(n, c, d) for c mod n
        self._masks: list[list[bool] | None] = [None, None]            # per parity, the label masks from d = step - 1 on
        self._layers: list[dict[tuple[int, int], _Block]] = []
        # Per chain, 0 the identity chain: the degree built through, and the first degree copied.
        self._through = [-1, -1]
        self._repeat_from: list[int | None] = [None, None]
        self._saturated = [False, False]    # per chain: whether a built layer is all saturated, and so every later one
        self._chains = 1 if self.n % 2 else 2
        self._step = self.n if self.n % 2 else self.n // 2
        self._refl = [g.refl for g in group.elements]
        self._size = len(group.n_elements)
        self._reps = list(range(0, len(group), self._size))    # T[c], one per coset, is index c |N|
        self._cut_reps: dict[int, dict[int, list[int]]] = {}
        self._character_setup()
        self._orbit_setup()

    # -- diagonal orbit structure ------------------------------------------

    def _orbit_setup(self) -> None:
        """N fixes every vertex, so T's vertex orbits, the columns, fix every
        pair's orbit.  _columns[j] is (j0, t): j0 the column's least vertex,
        t the first element of T, in index order, with t(j0) = j.  A vertex
        stabilizer of D_n has order at most 2, so j0 has one mirror s in T:
        the element other than 1 fixing j0, or 1 if none does.  The orbit of
        (i, j0) meets the column in (i, j0) and (s(i), j0) only, the lesser
        its representative, of |T| / 2 pairs if s != 1 fixes i.  A block's
        left sources lie in its column: 1 or the mirror relabels them."""
        n, elements, order = self.n, self.group.elements, len(self._reps)
        self._columns: list[tuple[int, int] | None] = [None] * n
        self._mirror: dict[int, int] = {}
        for j0 in range(n):
            if self._columns[j0] is None:
                for t in reversed(self._reps):      # the last write is the first in index order
                    self._columns[elements[t].vertex_image(j0)] = (j0, t)
                self._mirror[j0] = next((t for t in self._reps[1:] if elements[t].vertex_image(j0) == j0), 0)
        self.orbit_sizes: dict[tuple[int, int], int] = {}
        for i in range(n):
            for j0, s in self._mirror.items():
                if (si := elements[s].vertex_image(i)) >= i:
                    self.orbit_sizes[(i, j0)] = order // 2 if s and si == i else order
        self.orbit_reps: list[tuple[int, int]] = list(self.orbit_sizes)
        self._source_labels = {t: self._label_map(t) for t in {0, *self._mirror.values()}}
        # Conjugation keeps the parity of j - i when n is even; the blocks of
        # chain c at degree d are those of _by_parity[(c + d) % _chains].
        self._by_parity = [[rep for rep in self.orbit_reps if (rep[1] - rep[0]) % self._chains == p] for p in range(self._chains)]

    def _locate(self, pair: tuple[int, int]) -> tuple[tuple[int, int], int]:
        """pair's representative and an element of T carrying it to pair:
        t of pair's column, or t s for its mirror s != 1 (index 0 is 1)."""
        j0, t = self._columns[pair[1]]
        i, s = self.group.elements[t].vertex_preimage(pair[0]) if t else pair[0], self._mirror[j0]
        if s and (si := self.group.elements[s].vertex_image(i)) < i:
            size = self._size
            return (si, j0), self.group.t_mul(t // size, s // size) * size
        return (i, j0), t

    # -- character coordinates ----------------------------------------------

    def _character_setup(self) -> None:
        """The characters of N (trivial first) as tuples of exponents of
        z = zeta_K over N, the closure of the arrow characters.  The index
        g = c |N| + k of T[c] h_k also labels the character coordinate
        phi_(T[c], psi_k), so with N trivial the labels are the group
        elements themselves."""
        group = self.group
        normal = group.n_elements
        self._values = root_powers(group.conductor)
        self._K = K = len(self._values)
        # One character per arrow: its exponents under the elements of N.
        arrow_chars = set(zip(*([k * (K // h.m) % K for k in h.e + h.e_star] for h in normal)))
        chars = [(0,) * len(normal)]
        index = {chars[0]: 0}
        for psi in chars:
            for chi in arrow_chars:
                x = tuple((u + v) % K for u, v in zip(psi, chi))
                if x not in index:
                    index[x] = len(chars)
                    chars.append(x)
        assert len(chars) == len(normal), "the arrow characters separate the points of N"
        self._chars = chars
        # A character is fixed by its values on the generators of N: each
        # character's index keyed by those values.
        gens = group.n_gens or [0]    # N trivial: the identity, so every monomial has a key
        self._char_gens = gens
        self._char_by_gens = {tuple(psi[k] for k in gens): c for c, psi in enumerate(chars)}

    def _word_exponents(self, g: int, j: int, d: int, ls) -> list[int]:
        """s_l with z^s_l element g's scalar on the monomial (j, l, d - l),
        for the l in ls: its exponents over zeta_m scaled to z = zeta_K."""
        elt = self.group.elements[g]
        scale = self._K // elt.m
        return [s * scale for s in elt.word_exponents(j, d, ls)]

    # -- coordinates --------------------------------------------------------

    def block_coords(self, i: int, j: int, d: int) -> BlockCoords:
        key = (i, j, d)
        hit = self._coords.get(key)
        if hit is None:
            fc = self._run_progressions(i, j, d)
            hit = BlockCoords([f for f, _ in fc], [c for _, c in fc], self._step)
            self._coords[key] = hit
        return hit

    def _run_progressions(self, i: int, j: int, d: int) -> list[tuple[int, int]]:
        """Per label g, (first, count) of its run in block (i, j, d), read
        off the degree's progressions of d + g(j) - i."""
        n = self.n
        by_c = self._progressions.get(d) or self._progressions.setdefault(d, [_progression(n, c, d) for c in range(n)])
        return [by_c[(d + (g.rot - j if g.refl else g.rot + j) - i) % n] for g in self.group.elements]

    def _label_mask(self, i: int, j: int, d: int) -> list[bool]:
        """Per label g, whether its run in block (i, j, d) is non-empty; from
        d = step - 1 on, one mask per parity p of d + j - i (p = 0, and
        every label, for odd n, where _chains is 1)."""
        if d < self._step - 1:
            return [c > 0 for _, c in self._run_progressions(i, j, d)]
        p = (d + j - i) % self._chains
        mask = self._masks[p]
        if mask is None:
            mask = self._masks[p] = [(g.rot + p) % self._chains == 0 for g in self.group.elements]
        return mask

    def _label_map(self, t: int) -> list[int]:
        """Labels, stored for the scalar-free t = T[c]: conjugation by 1#t
        sends phi_(label g) to phi_(labels[g]), with no root of unity.  It
        sends phi_(T[c'], psi) to phi_(t T[c'] t^-1, psi^t), where t T[c'] t^-1
        is scalar-free and psi^t(h) = psi(t^-1 h t)."""
        group, size = self.group, self._size
        c = t // size
        c_inv = group.t_inverse[c]
        pull = group.conj[c_inv]        # pull[j]: the position in N of t^-1 h_j t
        key = self._char_by_gens
        twist = [key[tuple(psi[pull[k]] for k in self._char_gens)] for psi in self._chars]
        cosets = [group.t_mul(group.t_mul(c, x), c_inv) * size for x in range(len(self._reps))]
        return [base + k for base in cosets for k in twist]

    def _push_map(self, pair: tuple[int, int], e: int, dst: BlockCoords, t: int, shift: int) -> list[int]:
        """Index map from block `pair` at degree e into block dst:
        conjugation by t, the identity or a mirror (l goes to e - l when t
        reflects), then a left extension adding `shift` nonstars."""
        src = self.block_coords(*pair, e)
        labels, step, flip = self._source_labels[t], dst.step, self._refl[t]
        out: list[int] = []
        for h, cnt in enumerate(src.count):
            if not cnt:
                continue
            g = labels[h]
            l = (e - src.first[h] if flip else src.first[h]) + shift
            k = dst.start[g] + (l - dst.first[g]) // step     # the position of (g, l)
            out.extend(range(k, k - cnt, -1) if flip else range(k, k + cnt))
        return out

    def _block(self, rep: tuple[int, int], d: int) -> _Block:
        """A representative's block at degree d, its chain built first."""
        self._build_chain((rep[1] - rep[0] + d) % self._chains, d)
        return self._layers[d][rep]

    def block_rank(self, rep: tuple[int, int], d: int) -> int:
        block, coords = self._block(rep, d), self.block_coords(*rep, d)
        if block.full:
            return coords.size
        if block.runs is not None:
            return coords.size - block.runs.live + coords.count.count(0)    # an empty run is a live node
        return block.kernel.rank

    def block_identity_intersection(self, rep: tuple[int, int], d: int) -> int:
        """dim of a representative's block's span meeting the identity
        coordinates (1, l) = |N|^-1 sum_psi phi_(1, psi, l): their number
        minus the rank of their images in the quotient."""
        block = self._block(rep, d)
        count = _progression(self.n, d + rep[1] - rep[0], d)[1]     # the l with i + 2l - d = j
        if block.full:
            return count
        if block.runs is not None:
            # The identity run lies at one gain: its image is one root, or 0.
            return count - (count > 0 and block.runs.root[0] not in block.runs.dead)
        return count - block.kernel.image_rank(self.block_coords(*rep, d).start[: self._size], count)

    # -- construction -----------------------------------------------------------

    def built_through(self) -> int:
        """The degree the identity chain is built through."""
        return self._through[0]

    def extend(self, D: int) -> None:
        """Build the identity chain through degree D."""
        self._build_chain(0, D)

    def _build_chain(self, c: int, D: int) -> None:
        while self._through[c] < D:
            d = self._through[c] + 1
            if d == len(self._layers):
                self._layers.append({})
            layer, reps = self._layers[d], self._by_parity[(c + d) % self._chains]
            if self._repeat_from[c] is not None:
                layer.update({rep: self._layers[d - 2][rep] for rep in reps})
            else:
                # After a saturated layer every block is saturated (the second shortcut).
                full = self._saturated[c]
                for rep in reps:
                    layer[rep] = _SATURATED if full else self._build_block(*rep, d)
                full = self._saturated[c] = full or all(layer[rep].full for rep in reps)
                if d >= 2 and (d > self._step or full) and all(
                    _same_span(layer[rep], self._layers[d - 2][rep]) for rep in reps
                ):
                    self._repeat_from[c] = d + 1
            self._through[c] = d

    def _build_block(self, i: int, j: int, d: int) -> _Block:
        sources = []        # the left sources' representatives and transfers
        if d:
            # alpha_i (from (i+1, j)) adds a nonstar, alpha_{i-1}* (from (i-1, j)) a star.
            n, prev = self.n, self._layers[d - 1]
            sources = [self._locate(((i + 1) % n, j)), self._locate(((i - 1) % n, j))]
            # Every canonical monomial of positive degree factors off its
            # first arrow, so a block whose two left sources are saturated is.
            if prev[sources[0][0]].full and prev[sources[1][0]].full:
                return _SATURATED
        if not self.group.has_scalars:
            return self._build_runs(i, j, d, sources)
        coords = self.block_coords(i, j, d)
        kernel = SignedPartition(coords.size, self._values)
        for source, mapping in self._sources(i, j, d, sources) if d else ():
            kernel.absorb(mapping, source.kernel)
        for pa, *rest in self._cut_rows(i, j, d) if kernel.live else ():
            if rest:
                (pb,) = rest                       # a vertex stabilizer of G/N has order at most 2
                for a, b in zip(pa, pb):
                    kernel.join(a, b, self._K // 2)    # the row e_a + e_b
            else:
                for a in pa:
                    kernel.kill(a)
            if not kernel.live:
                break
        return _Block(kernel=kernel) if kernel.live else _SATURATED

    def _build_runs(self, i: int, j: int, d: int, sources: list) -> _Block:
        """Block (i, j) at degree d over its labels, for a group without
        scalars (the runs of the module docstring): each left source is
        absorbed through its transfer's relabelling, a saturated one as a
        kill of each label with a non-empty run, and a cut row is one kill,
        or one join of the two labels whose runs it pairs.  Which runs are
        empty is read off `_label_mask`."""
        mask = self._label_mask(i, j, d)
        empty = mask.count(False)           # live nodes that stand for no coordinate
        if empty == len(mask):
            return _SATURATED
        runs = SignedPartition(len(mask), self._values)
        for rep, t in sources:
            labels = self._source_labels[t]
            source = self._layers[d - 1][rep]
            if source.full:
                runs.absorb(list(compress(labels, self._label_mask(*rep, d - 1))), None)
            else:
                runs.absorb(labels, source.runs)
        for ts in self._reps_reaching(i).values():
            if runs.live == empty:
                break
            if mask[ts[0]]:
                if len(ts) == 2:
                    runs.join(ts[0], ts[1], self._K // 2)
                else:
                    runs.kill(ts[0])
        return _Block(runs=runs) if runs.live > empty else _SATURATED

    def _sources(self, i: int, j: int, d: int, sources: list):
        """(source representative's block at d - 1, index map into block
        (i, j) at d) for the two left extensions landing in (i, j), located
        in `sources`: the first adds a nonstar, the second a star."""
        prev, dst = self._layers[d - 1], self.block_coords(i, j, d)
        for (rep, t), shift in zip(sources, (1, 0)):
            mapping = self._push_map(rep, d - 1, dst, t, shift)
            if mapping:
                yield prev[rep], mapping

    def _cut_rows(self, i: int, k: int, d: int):
        """The cut rows e_i f_G e_j (m#1) of block (i, k) at degree d, the
        sum over the coset representatives t with t(j) = i of
        phi_(t, chi_m, l'), for the monomials m = (j, l, d - l) ending at k;
        t is scalar-free, so no factor z^(s_t(m)) arises.  Per vertex j, one
        list of positions per t, indexed by the monomials in increasing l: t
        sends them onto its own coordinates of the block, at the label of
        chi_m, reversed when t reflects.  The coordinate build's rows."""
        dst, refl = self.block_coords(i, k, d), self._refl
        for j, ts in self._reps_reaching(i).items():
            count = dst.count[ts[0]]
            if not count:
                continue
            first = _progression(self.n, d + k - j, d)[0]
            ls = range(first, first + count * self._step, self._step)
            chis = [self._char_by_gens[x] for x in zip(*(self._word_exponents(h, j, d, ls) for h in self._char_gens))]
            yield [[dst.start[t + h] + (count - 1 - x if refl[t] else x) for x, h in enumerate(chis)] for t in ts]

    def _reps_reaching(self, i: int) -> dict[int, list[int]]:
        """j -> the coset representatives t with t(j) = i, in index order."""
        by_j = self._cut_reps.get(i)
        if by_j is None:
            by_j = self._cut_reps[i] = {}
            for t in self._reps:
                by_j.setdefault(self.group.elements[t].vertex_preimage(i), []).append(t)
        return by_j

    # -- measurements -------------------------------------------------------------

    def ideal_dimension(self, d: int) -> int:
        return sum(self.orbit_sizes[rep] * self.block_rank(rep, d) for rep in self.orbit_reps)

    def identity_component_dim(self, d: int) -> int:
        """dim of the image of R_d in (R#G)/(f_G): the identity coordinates
        outside the span, in the identity chain's blocks that are not saturated."""
        self.extend(d)
        return sum(
            self.orbit_sizes[rep] * (_progression(self.n, d + rep[1] - rep[0], d)[1] - self.block_identity_intersection(rep, d))
            for rep in self._by_parity[d % self._chains]
            if not self._layers[d][rep].full
        )

    # -- membership ------------------------------------------------------------------

    def contains(self, x: SmashElement) -> bool:
        """Exact ideal membership for a homogeneous element."""
        if x.is_zero():
            return True
        d = x.degree()
        if d is None:
            raise MixedDegreeError("membership requires a homogeneous element")
        n, elements = self.n, self.group.elements
        pieces: dict[tuple[int, int], list[tuple[int, int, object]]] = {}
        for (m, gi), c in x.terms.items():
            pieces.setdefault((m.source, elements[gi].vertex_preimage(m.target(n))), []).append((gi, m.nonstars, c))
        for pair, terms in pieces.items():
            rep, t = self._locate(pair)
            block = self._block(rep, d)
            part = block.kernel if block.runs is None else block.runs
            if not block.full and not part.vanishes(self._images(rep, t, d, part, terms)):
                return False
        return True

    def _images(self, rep: tuple[int, int], t: int, d: int, part: SignedPartition, terms):
        """(c, image of (g, l)) for each term (g, l, c) of the block t carries
        rep to, at degree d, the image in rep's quotient `part` as (live root,
        exponent of z) pairs: conjugation by 1#u, u = t^-1, sends (g, l) to
        (u g u^-1, l'), and (c h_k, l') = |N|^-1 sum_psi psi(h_k)^-1
        phi_(c, psi, l'), the common factor |N|^-1 dropped.  In a label block
        (N trivial) that is the node u g u^-1 for every l."""
        group, size, flip = self.group, self._size, self._refl[t]
        u = group.t_inverse[t // size]
        dst = self.block_coords(*rep, d)
        for g, l, c in terms:
            base = group.t_mul(group.t_mul(u, g // size), group.t_inverse[u]) * size     # u g u^-1 = base + k
            if group.has_scalars:
                k = group.conj[u][g % size]
                off = ((d - l if flip else l) - dst.first[base + k]) // dst.step
                yield c, part.reduce([(dst.start[base + h] + off, -psi[k]) for h, psi in enumerate(self._chars)])
            else:
                yield c, part.reduce([(base, 0)])


def identity_component_dims(group: FiniteGroup, D: int) -> list[int]:
    """dim of the image of R_d in (R#G)/(f_G) for d = 0..D.  Once the
    identity chain repeats, so does the series, and nothing more is built."""
    trunc, dims = IdealTruncation(group), []
    for d in range(D + 1):
        dims.append(dims[d - 2] if d >= (trunc._repeat_from[0] or d + 1) else trunc.identity_component_dim(d))
    return dims


# `naive_ideal_dimension` eliminates one row p f_G (q # h) per monomial p of
# degree a, monomial q of degree d - a and element h.  At this limit (D_6
# through degree 4, 30,240 rows) `verify --suite smash` takes about 1 s on
# a 2-core x86-64 guest under Python 3.11.
NAIVE_ROW_LIMIT = 32_000


def naive_row_count(n: int, order: int, D: int) -> int:
    """Rows of the naive spanning sets of degrees 0..D together, for a group
    of the given order: n(a+1) * n(d-a+1) * order for each split a + (d - a)."""
    return sum(n * (a + 1) * n * (d - a + 1) * order for d in range(D + 1) for a in range(d + 1))


def naive_ideal_dimension(group: FiniteGroup, d: int) -> int:
    """Rank of the unoptimized spanning set {p f_G (q # h)} of (f_G)_d.
    A brutally direct cross-check for small degrees."""
    from .preproj import nf_basis

    q = group.quiver
    f_g = SmashElement.group_sum(group)

    def rows():
        for a in range(d + 1):
            for p in nf_basis(q, a):
                pf = SmashElement.from_algebra(group, AlgebraElement.monomial(q, p)) * f_g
                for qm in nf_basis(q, d - a):
                    for hi in range(len(group)):
                        yield (pf * SmashElement.from_algebra(group, AlgebraElement.monomial(q, qm), hi)).terms

    return rank(rows())


# ---------------------------------------------------------------------------
# Growth classification and the verdict
# ---------------------------------------------------------------------------


class GrowthVerdict(NamedTuple):
    kind: str                # finite_dim | gk1 | gk2_likely | inconclusive
    evidence: dict


def first_zero_degree(dims: list[int]) -> int:
    """Least f with dims[f:] identically zero; -1 if the tail is nonzero."""
    f = len(dims)
    for d in range(len(dims) - 1, -1, -1):
        if dims[d]:
            break
        f = d
    return f if f < len(dims) else (-1 if dims else 0)


def growth_classify(dims: list[int], window: int) -> GrowthVerdict:
    """Windowed classification of a dimension series tail.

    finite_dim: the last `window` entries vanish.  gk1: the tail is nonzero
    but bounded (its maximum already appeared in the previous window).
    gk2_likely: the tail climbs by a constant positive step.  Anything else
    is inconclusive.
    """
    if window < 1:
        raise WindowTooLargeError("window must be positive")
    if len(dims) < 2 * window:
        raise WindowTooLargeError(
            f"need at least {2 * window} entries for window {window}, got {len(dims)}"
        )
    tail = dims[-window:]
    prev = dims[-2 * window : -window]
    ev = {
        "window": window,
        "tail": list(tail),
        "first_zero_degree": first_zero_degree(dims),
    }
    if not any(tail):
        return GrowthVerdict("finite_dim", ev)
    diffs = {b - a for a, b in zip(tail, tail[1:])}
    if len(diffs) == 1 and min(diffs) > 0:
        ev["increment"] = diffs.pop()
        return GrowthVerdict("gk2_likely", ev)
    if max(tail) == max(prev):
        ev["tail_max"] = max(tail)
        return GrowthVerdict("gk1", ev)
    return GrowthVerdict("inconclusive", ev)


def root_order(m: int, k: int) -> int:
    """Multiplicative order of zeta_m^k."""
    return m // gcd(m, k)


def _scalar_theorem_bound(group: FiniteGroup) -> tuple[int, str] | None:
    """Zero-tail bound for a cyclic group of vertex-fixing scalar
    automorphisms, when a pure-path construction applies.

    If sigma scales a pure nonstar path of length L by a primitive m-th
    root of unity (m the group order), that path's product over the orbit
    of scalars lands in the ideal; likewise on the star side.  Then every
    path of length >= 4L - 1 has 2L arrows of one kind, hence contains a
    pure path of length L after normalization, and lies in the ideal.
    Constructions: all xi equal of full order (L = m), or a full circuit
    scaled by a full-order root (L = m*n), which also covers pairwise
    coprime scalar orders.
    """
    n = group.quiver.n
    order = len(group)
    if order == 1 or len(group.n_elements) < order:
        return None

    def pure_length(m: int, exps: tuple) -> int | None:
        # The scalars are zeta_m^k; their product is zeta_m^(sum of the k).
        if len(set(exps)) == 1 and root_order(m, exps[0]) == order:
            return order
        if root_order(m, sum(exps)) == order:
            return order * n
        return None

    # A root of order |G| among g's scalars or as their product makes g a
    # generator: g's order is a multiple of that root's and divides |G|.
    for g in group.elements:
        l_nonstar = pure_length(g.m, g.e)
        l_star = pure_length(g.m, g.e_star)
        if l_nonstar is not None and l_star is not None:
            l_max = max(l_nonstar, l_star)
            return 4 * l_max - 1, f"scalar_pure_path_length_{l_max}"
    return None


def theorem_bound(n: int, group: FiniteGroup, classifier: str | None = None) -> tuple[int | None, str | None]:
    """Degree beyond which the identity component provably vanishes, when a
    structural argument applies: 2n+1 for subgroups of D_n missing some
    vertex-fixing reflection, 4L-1 for qualifying scalar actions.
    `classifier` is classify_auslander(n, group) when the caller has it."""
    from .symmetry import classify_auslander

    if not group.has_scalars:
        if (classifier or classify_auslander(n, group)) == "iso":
            return 2 * n + 1, "missing_vertex_fixing_reflection"
        return None, None
    return _scalar_theorem_bound(group) or (None, None)


def default_cutoff(n: int, group: FiniteGroup) -> int:
    if not group.has_scalars:
        return 4 * n + 4
    bound, _ = theorem_bound(n, group)
    if bound is not None:
        return bound + max(4, n)
    return max(4 * n + 4, 24)


# The ideal build's set-up once filled tables of 30 cells per vertex pair;
# the count keeps their 30n^2.  At each degree d it lays out about n^2/|G/N|
# orbit-rep blocks, N the vertex-fixing elements, each indexed by all of G,
# and their |N| n(d+1) coordinates: |N| n(wn + d + 1) cells.  Even n builds
# only the identity chain, and w = 1.  Odd n builds every block, and w = 4
# is measured: counted with w = 2, D_51 at its default cutoff took about
# twice as long as D_56 at the same count.  So a build through degree D
# counts 30n^2 + |N| n(D+1)(wn + (D+2)/2) cells.  At this limit, as whole
# `auslander` runs in-process on a 2-core x86-64 guest under Python 3.11,
# the order-192 group of `invariants`' walk limit at n = 3 through degree
# 148 takes 1.1 s, and <rho, r, -1> at n = 100 through degree 77 1.25 s.
# A group without scalars builds over labels and lays out no coordinates,
# and a chain that never saturates stops at its first repeated layer, so
# the count overstates its build: the trivial group at degree 1 takes
# 0.10 s at n = 278 and 0.12-0.14 s at n = 255, D_16 through degree 540
# 0.005-0.008 s, and D_45 and D_56 at the default cutoff 0.04-0.07 s and
# 0.02 s (the coordinate build: 0.95 s, 1.2 s and 0.8 s).  The repeat is
# measured, not proved, to start by step + 2, so the limit still bounds a
# build that never repeats.
IDEAL_CELL_LIMIT = 2_500_000


def check_ideal_cells(n: int, D: int, fixing: int = 1) -> None:
    """Refuse an ideal build over IDEAL_CELL_LIMIT cells; at |N| = 1, its least, before any group is built."""
    QuiverA(n)  # rejects n < 3
    layout = 4 if n % 2 else 1
    cells = 30 * n * n + fixing * n * (D + 1) * (2 * layout * n + D + 2) // 2
    if cells > IDEAL_CELL_LIMIT:
        raise MemoryError(
            f"the ideal build at n = {n} through degree {D} counts {cells} cells at |N| = {fixing}, "
            f"N the vertex-fixing elements, over the limit of {IDEAL_CELL_LIMIT}"
        )


@dataclass
class AuslanderReport:
    n: int
    group_order: int
    group_label: str
    degree: int
    dims: list[int]
    first_zero: int
    growth: GrowthVerdict
    bound: int | None
    bound_reason: str | None
    verdict: str                       # iso | not_iso | unknown
    verdict_basis: str                 # theorem_bound | window | growth | none
    pertinency: int | None
    classifier: str | None             # closed-form verdict when G <= D_n
    classifier_agrees: bool | None     # None without a classifier or a decisive verdict

    def payload(self) -> dict:
        out = {
            "n": self.n,
            "group_order": self.group_order,
            "group": self.group_label,
            "degree": self.degree,
            "identity_component_dims": list(self.dims),
            "first_zero_degree": self.first_zero,
            "growth_kind": self.growth.kind,
            "growth_evidence": self.growth.evidence,
            "zero_tail_bound": self.bound,
            "zero_tail_bound_reason": self.bound_reason,
            "verdict_empirical": self.verdict,
            "verdict_basis": self.verdict_basis,
            "pertinency": self.pertinency,
            "verdict_classifier": self.classifier,
            "classifier_agrees": self.classifier_agrees,
        }
        if self.verdict == "unknown":
            out["advice"] = "growth inconclusive at this cutoff; raise the degree"
        return out


def auslander_verdict(n: int, group: FiniteGroup, D: int | None = None, label: str = "") -> AuslanderReport:
    """Empirical decision for the pair (R, G), cross-checked against the
    closed-form classification when G is a subgroup of D_n."""
    from .symmetry import classify_auslander

    if D is None:
        D = default_cutoff(n, group)
    check_ideal_cells(n, D, len(group.n_elements))
    dims = identity_component_dims(group, D)
    classifier = None if group.has_scalars else classify_auslander(n, group)
    bound, bound_reason = theorem_bound(n, group, classifier)
    if bound is not None:
        window = max(2, (D - min(bound, D) + 1) // 2)
    else:
        window = max(2, (D + 1) // 3)
    window = min(window, (D + 1) // 2)
    growth = growth_classify(dims, window)
    fz = first_zero_degree(dims)

    verdict, basis = "unknown", "none"
    if bound is not None and bound <= D and not any(dims[bound:]):
        verdict, basis = "iso", "theorem_bound"
    elif growth.kind == "finite_dim" and bound is None:
        verdict, basis = "iso", "window"
    elif growth.kind in ("gk1", "gk2_likely"):
        verdict, basis = "not_iso", "growth"
    pert = {"iso": 2, "not_iso": 1 if growth.kind == "gk1" else 0}.get(verdict)

    agrees = None if classifier is None or verdict == "unknown" else verdict == classifier
    return AuslanderReport(
        n=n,
        group_order=len(group),
        group_label=label,
        degree=D,
        dims=dims,
        first_zero=fz,
        growth=growth,
        bound=bound,
        bound_reason=bound_reason,
        verdict=verdict,
        verdict_basis=basis,
        pertinency=pert,
        classifier=classifier,
        classifier_agrees=agrees,
    )
