"""The smash product R#G and the two-sided ideal generated by f_G.

Multiplication follows (r1 # g1)(r2 # g2) = r1 g1(r2) # g1 g2.  The ideal
(f_G), f_G = sum_g 1#g, is truncated degree by degree:

  * degree 0 is spanned by the cuts e_i f_G (e_j # h);
  * degree d is spanned by (degree-1 monomials of R) * layer_{d-1} together
    with layer_{d-1} * (degree-1 monomials # 1) -- right factors 1#h are
    absorbed because v*(m#h) = (v*(1#h)) * (h^{-1}(m)#1) and layer 0 is
    closed under right multiplication by 1#h.

Everything is graded by idempotent cuts: e_i (R#G) e_j splits each degree
into n^2 blocks, and a spanning vector splits into its block pieces.  The
coordinates of a block are pairs (g, l), l the nonstar count, with
i + 2l - d = g(j) (mod n); for each g these l form an arithmetic
progression, so positions are closed-form, with the identity components
last.  The same positions index the character coordinates below: the
group index g = t h_k labels phi_(t, psi_k), for the k-th element h_k of N
and its k-th character psi_k.

Each block is kept in character coordinates.  N, the vertex-fixing
elements of G, is a normal, abelian, diagonal subgroup with G/N <= D_n.  For
a coset representative t, a character psi of N and a nonstar count l,
phi_(t, psi, l) = sum_(h in N) psi(h) (th, l); the characters are the
closure of the arrow characters chi_a (h's scalar on the arrow a), and
character values and scalars are roots of unity, stored as exponents of
z = zeta_K, K = lcm(2, M) for the group's conductor M.  In these
coordinates every map the build uses is monomial: a left extension keeps
phi, a right extension by a sends phi_(t, psi) to s_t(a) phi_(t, psi chi_a),
and an orbit transfer is a root of unity times a relabelling.  A degree-0
cut is the sum of phi_(t, 1, 0) over the t with t(j) = i, and G/N acts on
the vertices as a subgroup of D_n, where a vertex stabilizer has order at
most 2, so every cut is a unit or a binomial.  The span of each block is
therefore a gain graph, kept as a `SignedPartition` with gains mod K;
degree d absorbs each source block's partition through one composed index
map with gains per (target, source) and stops once the target block is
spanned.  With N trivial and no scalars (the subgroups of D_n), K = 2 and
the coordinates are the pairs (g, l) themselves.

Rank is read off the partition.  The identity coordinates are
(1, l) = |N|^-1 sum_psi phi_(1, psi, l), so the identity intersection is
their number minus the rank of their images in the quotient; that rank is
a count unless two images meet a common root, and only then is it found by
a small `FieldEchelon`, the one field elimination left.  Membership writes
an element's coordinates in character coordinates and checks that its
image in the quotient vanishes: a sum of coefficients times roots of unity
per live root (`SignedPartition.vanishes`).

Three shortcuts keep the exact arithmetic desk-sized.  First, conjugation
by 1#g maps block (i, j) bijectively onto block (g i, g j) preserving
identity components, so only one block per diagonal orbit is built and the
rest are coordinate transfers.  Second, a block whose two left-extension
sources are entirely contained in the ideal is itself entirely contained
(every canonical monomial factors off its first arrow), so saturated
regions propagate without arithmetic.  Third, once every block of a degree
is saturated so is every later degree, which is then not built at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .linalg import FieldEchelon, SignedPartition
from .preproj import AlgebraElement, NFMonomial
from .quiver import QuiverA
from .scalars import root_powers
from .symmetry import Automorphism, FiniteGroup, apply


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
    def from_algebra(group: FiniteGroup, x: AlgebraElement, g: int | Automorphism | None = None) -> "SmashElement":
        """x # g, defaulting to x # 1."""
        if g is None:
            gi = group.identity_index
        elif isinstance(g, Automorphism):
            gi = group.index(g)
        else:
            gi = g
        return SmashElement(group, {(m, gi): c for m, c in x.terms.items()})

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
        table = group.table
        out: dict[tuple[NFMonomial, int], object] = {}
        for (m1, g1), c1 in self.terms.items():
            tgt = (m1.source + m1.nonstars - m1.stars) % n
            for (m2, g2), c2 in other.terms.items():
                mult, img = group.monomial_action(g1, m2)
                if img.source != tgt:
                    continue
                key = (
                    NFMonomial(m1.source, m1.nonstars + img.nonstars, m1.stars + img.stars),
                    table[g1][g2],
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

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (t[0][1], t[0][0]))

    def __eq__(self, other):
        if not isinstance(other, SmashElement):
            return NotImplemented
        return self.group is other.group and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*({m} # g{g})" for (m, g), c in self.sorted_terms())

    __repr__ = __str__


def eval_auslander_map(group: FiniteGroup, a: AlgebraElement, g: int | Automorphism, b: AlgebraElement) -> AlgebraElement:
    """The endomorphism attached to a # g, evaluated at b: a * g(b)."""
    if isinstance(g, int):
        g = group.elements[g]
    return a * apply(g, b)


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


def _identity_tail_size(n: int, i: int, j: int, d: int) -> int:
    """Number of identity-component coordinates of e_i (R#G)_d e_j: the l in
    0..d with i + 2l - d = j (mod n)."""
    return _progression(n, d + j - i, d)[1]


class BlockCoords:
    """Coordinate scheme of e_i (R#G)_d e_j: pairs (g, l), l the nonstar
    count, with i + 2l - d = g(j) (mod n).  For each group index g these l
    run from first[g] in steps of `step`, count[g] of them; the elements are
    laid out in `order` (index order, identity last), so the identity
    components form the tail that starts at tail_start."""

    def __init__(self, order: tuple[int, ...], first: list[int], count: list[int], step: int):
        self.order, self.first, self.count, self.step = order, first, count, step
        self.start = [0] * len(first)
        pos = 0
        for gi in order:
            self.start[gi] = pos
            pos += count[gi]
        self.size = pos
        self.tail_start = pos - count[order[-1]]

    def position(self, g: int, l: int) -> int:
        """Index of the coordinate (g, l), which must belong to the block."""
        return self.start[g] + (l - self.first[g]) // self.step


@dataclass
class _Block:
    kernel: SignedPartition | None    # None once saturated
    full: bool = False


_SATURATED = _Block(None, True)


class IdealTruncation:
    """Degreewise spans of the two-sided ideal (f_G) in R#G, one gain
    partition per orbit-representative block, in character coordinates."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.quiver: QuiverA = group.quiver
        self.n = self.quiver.n
        self._coords: dict[tuple[int, int, int], BlockCoords] = {}
        self._layers: list[dict[tuple[int, int], _Block]] = []
        self._full_from: int | None = None     # least degree whose blocks are all saturated
        ident = group.identity_index
        self._order = tuple(gi for gi in range(len(group)) if gi != ident) + (ident,)
        self._step = self.n if self.n % 2 else self.n // 2
        self._refl = [g.refl for g in group.elements]
        self._scales = [g.m != 1 for g in group.elements]
        self._conj: dict[int, list[int]] = {}
        self._labels: dict[tuple, tuple[list[int], list[int] | None]] = {}
        self._monomials: dict[tuple[int, int, int], list[int]] = {}
        self._projections: dict[tuple[tuple[int, int], int, int], dict] = {}
        self._orbit_setup()
        self._character_setup()

    # -- diagonal orbit structure ------------------------------------------

    def _orbit_setup(self) -> None:
        n, group = self.n, self.group
        pairs = [(i, j) for i in range(n) for j in range(n)]
        self.pair_rep: dict[tuple[int, int], tuple[int, int]] = {}
        self.pair_transfer: dict[tuple[int, int], int] = {}
        self.orbit_reps: list[tuple[int, int]] = []
        self.orbit_sizes: dict[tuple[int, int], int] = {}
        seen = set()
        for start in pairs:
            if start in seen:
                continue
            rep = min(
                (group.vertex_maps[gi][start[0]], group.vertex_maps[gi][start[1]])
                for gi in range(len(group))
            )
            orbit = {}
            for gi in range(len(group)):
                vm = group.vertex_maps[gi]
                p = (vm[rep[0]], vm[rep[1]])
                if p not in orbit:
                    orbit[p] = gi
            for p, gi in orbit.items():
                self.pair_rep[p] = rep
                self.pair_transfer[p] = gi
                seen.add(p)
            self.orbit_reps.append(rep)
            self.orbit_sizes[rep] = len(orbit)

    # -- character coordinates ----------------------------------------------

    def _character_setup(self) -> None:
        """N, the vertex-fixing elements (identity first); its characters
        (trivial first) as tuples of exponents of z = zeta_K over N, the
        closure of the arrow characters; and for every group index g = t h_k,
        t the representative of the coset tN (the identity for N itself):
        coset[g] = t and kth[g] = k.  The index g also labels the character
        coordinate phi_(t, psi_k), so with N trivial the labels are the group
        elements themselves."""
        group = self.group
        elements, table, ident = group.elements, group.table, group.identity_index
        self._values = root_powers(lcm(*(g.m for g in elements)))
        self._K = K = len(self._values)
        self._normal = normal = [ident] + [
            gi for gi, g in enumerate(elements) if gi != ident and g.rot == 0 and not g.refl
        ]
        coset: list[int | None] = [None] * len(group)
        kth = [0] * len(group)
        for t in (ident, *range(len(group))):
            if coset[t] is None:
                for k, h in enumerate(normal):
                    coset[table[t][h]], kth[table[t][h]] = t, k
        self._coset, self._kth = coset, kth
        self._reps = sorted(set(coset))
        # One character per arrow: its exponents under the elements of N.
        arrow_chars = set(zip(*(
            [k * (K // elements[h].m) % K for k in elements[h].e + elements[h].e_star] for h in normal
        )))
        chars = [(0,) * len(normal)]
        index = {chars[0]: 0}
        for psi in chars:
            for chi in arrow_chars:
                x = tuple((u + v) % K for u, v in zip(psi, chi))
                if x not in index:
                    index[x] = len(chars)
                    chars.append(x)
        assert len(chars) == len(normal), "the arrow characters separate the points of N"
        self._chars, self._char_index = chars, index

    def _arrow_exponent(self, g: int, arrow: tuple[bool, int]) -> int:
        """s with z^s the scalar of element g on the arrow (starred, i), for
        z = zeta_K."""
        elt = self.group.elements[g]
        star, i = arrow
        return (elt.e_star if star else elt.e)[i] * (self._K // elt.m) % self._K

    # -- coordinates --------------------------------------------------------

    def block_coords(self, i: int, j: int, d: int) -> BlockCoords:
        key = (i, j, d)
        hit = self._coords.get(key)
        if hit is None:
            n = self.n
            by_vertex = [_progression(n, d + v - i, d) for v in range(n)]
            fc = [by_vertex[vm[j]] for vm in self.group.vertex_maps]
            hit = BlockCoords(self._order, [f for f, _ in fc], [c for _, c in fc], self._step)
            self._coords[key] = hit
        return hit

    def _conjugation(self, t: int) -> list[int]:
        """h -> t h t^-1 on group indices."""
        hit = self._conj.get(t)
        if hit is None:
            table, tinv = self.group.table, self.group.inverse[t]
            hit = self._conj[t] = [table[k][tinv] for k in table[t]]
        return hit

    def _label_map(self, t: int, arrow: tuple[bool, int] | None) -> tuple[list[int], list[int] | None]:
        """(labels, gains), stored for (t, arrow): conjugation by 1#t, then
        the right extension by `arrow` when given, sends phi_(label g) to
        z^gains[g] phi_(labels[g]) times t's scalar on the monomial (see
        `_monomial_gains`).

        With t c t^-1 = c' h' (c, c' coset representatives, h' in N),
        conjugation sends phi_(c, psi) to psi^t(h')^-1 phi_(c', psi^t), where
        psi^t(h) = psi(t^-1 h t); the extension then sends phi_(c', psi) to
        s_c'(arrow) phi_(c', psi chi_arrow).  Gains are None when all 0."""
        conj = self._conjugation(t)
        if not self.group.has_scalars:
            # N is trivial and every gain is 0: the labels are the elements.
            hit = self._labels[(t, arrow)] = (conj, None)
            return hit
        table, normal, chars, K = self.group.table, self._normal, self._chars, self._K
        coset, kth, index = self._coset, self._kth, self._char_index
        # pull[j]: the position in N of t^-1 h_j t
        at = {h: k for k, h in enumerate(normal)}
        back = self._conjugation(self.group.inverse[t])
        pull = [at[back[h]] for h in normal]
        twist = [index[tuple(psi[p] for p in pull)] for psi in chars]
        if arrow is not None:
            chi = [self._arrow_exponent(h, arrow) for h in normal]
            shift = [index[tuple((u + v) % K for u, v in zip(psi, chi))] for psi in chars]
        labels, gains = [], []
        for g in range(len(table)):
            x = conj[coset[g]]
            c, psi = coset[x], chars[kth[g]]
            s, k = -psi[pull[kth[x]]], twist[kth[g]]
            if arrow is not None:
                s, k = s + self._arrow_exponent(c, arrow), shift[k]
            labels.append(table[c][normal[k]])
            gains.append(s % K)
        hit = self._labels[(t, arrow)] = (labels, gains if any(gains) else None)
        return hit

    def _monomial_gains(self, t: int, i: int, e: int) -> list[int] | None:
        """s_l with z^s_l t's scalar on the monomial (i, l, e - l), for
        l = 0..e; None when t carries no scalars."""
        if not self._scales[t]:
            return None
        key = (t, i, e)
        if key not in self._monomials:
            elt = self.group.elements[t]
            scale = self._K // elt.m
            self._monomials[key] = [elt.monomial_exponent(NFMonomial(i, l, e - l)) * scale % self._K for l in range(e + 1)]
        return self._monomials[key]

    def _push_map(
        self, pair: tuple[int, int], e: int, dst: BlockCoords, t: int, shift: tuple[int, int], arrow: tuple[bool, int] | None
    ) -> tuple[list[int], list[int] | None]:
        """Index map and gains from block `pair` at degree e into block dst:
        conjugation by t (l goes to e - l when t reflects), then a degree-1
        extension adding shift[refl] nonstars, the right extension by
        `arrow` when given.  Gains are None when all 0."""
        src = self.block_coords(*pair, e)
        labels, label_gains = self._labels.get((t, arrow)) or self._label_map(t, arrow)
        refl, step = self._refl, dst.step
        flip = refl[t]
        out: list[int] = []
        for h in src.order:
            cnt = src.count[h]
            if not cnt:
                continue
            g = labels[h]
            l = (e - src.first[h] if flip else src.first[h]) + shift[refl[h]]
            k = dst.start[g] + (l - dst.first[g]) // step     # dst.position(g, l)
            out.extend(range(k, k - cnt, -1) if flip else range(k, k + cnt))
        mono = self._monomial_gains(t, pair[0], e) if self._scales[t] else None
        if label_gains is None and mono is None:
            return out, None
        gains: list[int] = []
        for h in src.order:
            cnt = src.count[h]
            if not cnt:
                continue
            base = 0 if label_gains is None else label_gains[h]
            if mono is None:
                gains += [base] * cnt
            else:
                first = src.first[h]
                gains += [(base + mono[l]) % self._K for l in range(first, first + cnt * step, step)]
        return out, gains

    def block_rank(self, pair: tuple[int, int], d: int) -> int:
        rep = self.pair_rep[pair]
        block = self._layers[d][rep]
        if block.full:
            return self.block_coords(*rep, d).size
        return block.kernel.rank

    def block_identity_intersection(self, pair: tuple[int, int], d: int) -> int:
        """dim of the block's span meeting the identity coordinates
        (1, l) = |N|^-1 sum_psi phi_(1, psi, l): their number minus the rank
        of their images in the quotient."""
        rep = self.pair_rep[pair]
        block = self._layers[d][rep]
        if block.full:
            return _identity_tail_size(self.n, *rep, d)
        coords = self.block_coords(*rep, d)
        count = coords.count[self.group.identity_index]
        return count - block.kernel.image_rank([coords.start[h] for h in self._normal], count)

    # -- construction -----------------------------------------------------------

    def built_through(self) -> int:
        return len(self._layers) - 1

    def extend(self, D: int) -> None:
        while self.built_through() < D:
            if not self._layers:
                self._build_degree_zero()
            elif self._full_from is not None:
                # Saturation propagates: every later degree is saturated too.
                self._layers.append(self._layers[-1])
            else:
                self._build_next()
            if self._full_from is None and all(b.full for b in self._layers[-1].values()):
                self._full_from = self.built_through()

    def _saturated(self, d: int) -> bool:
        return self._full_from is not None and d >= self._full_from

    def _build_degree_zero(self) -> None:
        # Degree 0 is spanned by the cuts e_i f_G (e_j # h); reindexing the
        # sum over the group shows f_G (e_{j0} # h) = f_G (e_{h^-1 j0} # 1),
        # so the h = identity column cuts already span everything.  A cut is
        # the sum of (g, 0) over the g with g(j) = i, which is the sum of
        # phi_(t, 1, 0) over the coset representatives t with t(j) = i; G/N
        # acts on the vertices as a subgroup of D_n, where a vertex
        # stabilizer has order at most 2, so each cut is a unit or a binomial.
        group, n = self.group, self.n
        kernels = {rep: SignedPartition(self.block_coords(*rep, 0).size, self._values) for rep in self.orbit_reps}
        for j in range(n):
            pieces: dict[int, dict] = {}
            for t in self._reps:
                i = group.vertex_maps[t][j]
                if (i, j) != self.pair_rep[(i, j)]:
                    continue
                pieces.setdefault(i, {})[self.block_coords(i, j, 0).position(t, 0)] = 1
            for i, row in pieces.items():
                kernels[(i, j)].insert(row)
        self._layers.append({
            rep: _Block(kernel) if kernel.live else _SATURATED for rep, kernel in kernels.items()
        })

    def _build_next(self) -> None:
        d = len(self._layers)
        n, prev = self.n, self._layers[d - 1]
        layer: dict[tuple[int, int], _Block] = {}
        for (i, j) in self.orbit_reps:
            # Every canonical monomial of positive degree factors off its
            # first arrow, so a block whose two left sources are saturated is.
            if prev[self.pair_rep[((i + 1) % n, j)]].full and prev[self.pair_rep[((i - 1) % n, j)]].full:
                layer[(i, j)] = _SATURATED
            else:
                layer[(i, j)] = self._build_block(i, j, d)
        self._layers.append(layer)

    def _build_block(self, i: int, j: int, d: int) -> _Block:
        kernel = SignedPartition(self.block_coords(i, j, d).size, self._values)
        if kernel.live:
            for source, mapping, gains in self._sources(i, j, d):
                kernel.absorb(mapping, source.kernel, gains)
                if not kernel.live:
                    break
        return _Block(kernel) if kernel.live else _SATURATED

    def _sources(self, i: int, j: int, d: int):
        """(source representative's block at d - 1, index map into block
        (i, j) at d, gains) for the four degree-1 extensions landing in
        (i, j).  Left multiplication by alpha_i (from (i+1, j)) adds a
        nonstar, by alpha_{i-1}* (from (i-1, j)) a star; right
        multiplication by alpha_{j-1} # 1 (from (i, j-1)) or alpha_j* # 1
        (from (i, j+1)) appends g of that arrow, whose kind flips when g
        reflects."""
        n, prev = self.n, self._layers[d - 1]
        dst = self.block_coords(i, j, d)
        for pair, shift, arrow in (
            (((i + 1) % n, j), (1, 1), None),
            (((i - 1) % n, j), (0, 0), None),
            ((i, (j - 1) % n), (1, 0), (False, (j - 1) % n)),
            ((i, (j + 1) % n), (0, 1), (True, j)),
        ):
            rep = self.pair_rep[pair]
            mapping, gains = self._push_map(rep, d - 1, dst, self.pair_transfer[pair], shift, arrow)
            if mapping:
                yield prev[rep], mapping, gains

    # -- measurements -------------------------------------------------------------

    def ideal_dimension(self, d: int) -> int:
        self.extend(d)
        if self._saturated(d):
            return self.smash_dimension(d)
        return sum(
            self.orbit_sizes[rep] * self.block_rank(rep, d) for rep in self.orbit_reps
        )

    def identity_intersection_dim(self, d: int) -> int:
        self.extend(d)
        if self._saturated(d):
            return self.n * (d + 1)
        return sum(
            self.orbit_sizes[rep] * self.block_identity_intersection(rep, d)
            for rep in self.orbit_reps
        )

    def identity_component_dim(self, d: int) -> int:
        return self.n * (d + 1) - self.identity_intersection_dim(d)

    def smash_dimension(self, d: int) -> int:
        return self.n * (d + 1) * len(self.group)

    # -- membership ------------------------------------------------------------------

    def contains(self, x: SmashElement) -> bool:
        """Exact ideal membership for a homogeneous element."""
        if x.is_zero():
            return True
        d = x.degree()
        if d is None:
            raise MixedDegreeError("membership requires a homogeneous element")
        self.extend(d)
        n, inv_vm = self.n, self.group.inverse_vertex_maps
        pieces: dict[tuple[int, int], list[tuple[int, int, object]]] = {}
        for (m, gi), c in x.terms.items():
            pieces.setdefault((m.source, inv_vm[gi][m.target(n)]), []).append((gi, m.nonstars, c))
        for pair, terms in pieces.items():
            block = self._layers[d][self.pair_rep[pair]]
            if not block.full and not block.kernel.vanishes((c, self._projection(pair, d, g)[l]) for g, l, c in terms):
                return False
        return True

    def _projection(self, pair: tuple[int, int], d: int, g: int) -> dict[int, list[tuple[int, int]]]:
        """l -> the image of the coordinate (g, l) of block `pair` at degree d
        in the quotient of the representative's block, as (live root,
        exponent of z) pairs for `SignedPartition.vanishes`: conjugation by
        1#u, u the inverse transfer, sends it to u's scalar on the monomial
        times (u g u^-1, l'), and (c h_k, l') = |N|^-1 sum_psi psi(h_k)^-1
        phi_(c, psi, l'), whose common factor |N|^-1 is dropped.  Built once
        per (pair, degree, g)."""
        key = (pair, d, g)
        hit = self._projections.get(key)
        if hit is None:
            rep = self.pair_rep[pair]
            kernel = self._layers[d][rep].kernel
            src, dst = self.block_coords(*pair, d), self.block_coords(*rep, d)
            u = self.group.inverse[self.pair_transfer[pair]]
            g2, flip = self._conjugation(u)[g], self._refl[u]
            mono = self._monomial_gains(u, pair[0], d)
            c, k, table = self._coset[g2], self._kth[g2], self.group.table
            starts = [(dst.start[table[c][h]], -psi[k]) for h, psi in zip(self._normal, self._chars)]
            hit = self._projections[key] = {}
            for l in range(src.first[g], src.first[g] + src.count[g] * src.step, src.step):
                off = ((d - l if flip else l) - dst.first[g2]) // dst.step
                s = mono[l] if mono else 0
                hit[l] = kernel.reduce([(p + off, s + t) for p, t in starts])
        return hit


def build_ideal(group: FiniteGroup, D: int) -> IdealTruncation:
    trunc = IdealTruncation(group)
    trunc.extend(D)
    return trunc


def identity_component_dims(group: FiniteGroup, D: int) -> list[int]:
    """dim of the image of R_d in (R#G)/(f_G) for d = 0..D."""
    trunc = build_ideal(group, D)
    return [trunc.identity_component_dim(d) for d in range(D + 1)]


def naive_ideal_dimension(group: FiniteGroup, d: int) -> int:
    """Rank of the unoptimized spanning set {p f_G (q # h)} of (f_G)_d.
    A brutally direct cross-check for small degrees."""
    from .preproj import nf_basis

    q = group.quiver
    f_g = SmashElement.group_sum(group)
    coords: dict[tuple[NFMonomial, int], int] = {}
    for gi in range(len(group)):
        for m in nf_basis(q, d):
            coords[(m, gi)] = len(coords)
    echelon = FieldEchelon()
    for a in range(d + 1):
        for p in nf_basis(q, a):
            left = SmashElement.from_algebra(group, AlgebraElement.monomial(q, p))
            pf = left * f_g
            for qm in nf_basis(q, d - a):
                for hi in range(len(group)):
                    v = pf * SmashElement.from_algebra(
                        group, AlgebraElement.monomial(q, qm), hi
                    )
                    row = {coords[t]: Fraction(c) if isinstance(c, int) else c for t, c in v.terms.items()}
                    if row:
                        echelon.insert(row)
    return echelon.rank


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
    if order == 1 or any(g.refl or g.rot != 0 for g in group.elements):
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


def theorem_bound(n: int, group: FiniteGroup) -> tuple[int | None, str | None]:
    """Degree beyond which the identity component provably vanishes, when a
    structural argument applies: 2n+1 for subgroups of D_n missing some
    vertex-fixing reflection, 4L-1 for qualifying scalar actions."""
    from .symmetry import classify_auslander

    if not group.has_scalars:
        if classify_auslander(n, group) == "iso":
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
    dims = identity_component_dims(group, D)
    bound, bound_reason = theorem_bound(n, group)
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

    classifier = None
    agrees = None
    if not group.has_scalars:
        classifier = classify_auslander(n, group)
        if verdict != "unknown":
            agrees = verdict == classifier
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
