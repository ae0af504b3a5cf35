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
progression, so positions are closed-form.  Coordinates carried by
non-identity group components come first and identity components last, so
the intersection with R_d # 1 is a coordinate-suffix intersection.

Every extension and orbit transfer is an injective index map between
blocks, composed in closed form from the conjugation table, the reflection
bit and the extension's shift.  A group element sends a monomial to a root
of unity times a monomial, so for groups with scalars the map also carries
one multiplier per source coordinate.  Degree d absorbs each source
block's span through one such map per (target, source) into a fresh
kernel, and stops once the target block is spanned.  The kernel follows
the input (see `linalg`):

  * Scalar-free groups (the subgroups of D_n) have no multipliers, and a
    vertex stabilizer has order at most 2, so every degree-0 cut is a unit
    or a binomial.  The block's span is then a signed graph, kept as a
    `SignedPartition`; rank, identity intersection and membership are read
    off the partition.
  * Groups with scalars keep a `FieldEchelon` over Q(zeta_m).

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
from math import gcd
from typing import NamedTuple

from .linalg import FieldEchelon, SignedPartition, map_row
from .preproj import AlgebraElement, NFMonomial
from .quiver import QuiverA
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
    kernel: object | None    # SignedPartition or FieldEchelon; None once saturated
    full: bool = False


_SATURATED = _Block(None, True)


class IdealTruncation:
    """Degreewise spans of the two-sided ideal (f_G) in R#G, one kernel per
    orbit-representative block."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.quiver: QuiverA = group.quiver
        self.n = self.quiver.n
        self.signed = group.is_dihedral_subgroup
        self._kernel = SignedPartition if self.signed else FieldEchelon
        self._coords: dict[tuple[int, int, int], BlockCoords] = {}
        self._layers: list[dict[tuple[int, int], _Block]] = []
        self._full_from: int | None = None     # least degree whose blocks are all saturated
        ident = group.identity_index
        self._order = tuple(gi for gi in range(len(group)) if gi != ident) + (ident,)
        self._step = self.n if self.n % 2 else self.n // 2
        self._refl = [g.refl for g in group.elements]
        self._conj: dict[int, list[int]] = {}
        self._orbit_setup()

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

    def _push_map(
        self, pair: tuple[int, int], e: int, dst: BlockCoords, t: int, shift: tuple[int, int], arrow: NFMonomial | None = None
    ) -> tuple[list[int], list | None]:
        """Index map and multipliers from block `pair` at degree e into block
        dst, through conjugation by t and then a degree-1 extension.
        Conjugation sends (h, l) to (t h t^-1, l), or to (t h t^-1, e - l)
        when t reflects; the extension adds shift[refl(h)] nonstars, and a
        right extension appends g(arrow) for g = t h t^-1.  Shift (0, 0)
        and no arrow give the conjugation alone, at degree e.  The
        multipliers are None for scalar-free groups, whose elements act on
        monomials with multiplier +1."""
        src = self.block_coords(*pair, e)
        conj, refl, step = self._conjugation(t), self._refl, dst.step
        flip = refl[t]
        out: list[int] = []
        for h in src.order:
            cnt = src.count[h]
            if not cnt:
                continue
            g = conj[h]
            l = (e - src.first[h] if flip else src.first[h]) + shift[refl[h]]
            k = dst.start[g] + (l - dst.first[g]) // step     # dst.position(g, l)
            out.extend(range(k, k - cnt, -1) if flip else range(k, k + cnt))
        return out, None if self.signed else self._multipliers(src, pair[0], e, t, arrow)

    def _multipliers(self, src: BlockCoords, i: int, e: int, t: int, arrow: NFMonomial | None) -> list:
        """Per index (h, l) of block src, row vertex i and degree e: t's
        scalar on the monomial (i, l, e - l) times g's scalar on `arrow`,
        for g = t h t^-1; a product is taken only when neither factor is 1."""
        act, conj, step = self.group.monomial_action, self._conjugation(t), src.step
        t_scales = self.group.elements[t].m != 1
        mult: list = []
        for h in src.order:
            cnt = src.count[h]
            if not cnt:
                continue
            ext = 1 if arrow is None else act(conj[h], arrow)[0]
            if not t_scales:
                mult += [ext] * cnt
                continue
            first = src.first[h]
            for l in range(first, first + cnt * step, step):
                s = act(t, NFMonomial(i, l, e - l))[0]
                mult.append(ext if s == 1 else s if ext == 1 else s * ext)
        return mult

    def block_rank(self, pair: tuple[int, int], d: int) -> int:
        rep = self.pair_rep[pair]
        block = self._layers[d][rep]
        if block.full:
            return self.block_coords(*rep, d).size
        return block.kernel.rank

    def block_identity_intersection(self, pair: tuple[int, int], d: int) -> int:
        rep = self.pair_rep[pair]
        block = self._layers[d][rep]
        if block.full:
            return _identity_tail_size(self.n, *rep, d)
        return block.kernel.lead_count_at_least(self.block_coords(*rep, d).tail_start)

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
        # so the h = identity column cuts already span everything.  A cut
        # has one term per g with g(j) = i; in D_n a vertex stabilizer has
        # order at most 2, so for scalar-free groups each cut is a unit or
        # a binomial, and SignedPartition.insert raises on any other shape.
        group, n = self.group, self.n
        kernels = {rep: self._kernel(self.block_coords(*rep, 0).size) for rep in self.orbit_reps}
        for j in range(n):
            pieces: dict[int, dict] = {}
            for gi in range(len(group)):
                i = group.vertex_maps[gi][j]
                if (i, j) != self.pair_rep[(i, j)]:
                    continue
                idx = self.block_coords(i, j, 0).position(gi, 0)
                pieces.setdefault(i, {})[idx] = Fraction(1)
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
        kernel = self._kernel(self.block_coords(i, j, d).size)
        if kernel.live:
            for source, mapping, multipliers in self._sources(i, j, d):
                kernel.absorb(mapping, source.kernel, multipliers)
                if not kernel.live:
                    break
        return _Block(kernel) if kernel.live else _SATURATED

    def _sources(self, i: int, j: int, d: int):
        """(source representative's block at d - 1, index map into block
        (i, j) at d, multipliers) for the four degree-1 extensions landing
        in (i, j).  Left multiplication by alpha_i (from (i+1, j)) adds a
        nonstar, by alpha_{i-1}* (from (i-1, j)) a star; right
        multiplication by alpha_{j-1} # 1 (from (i, j-1)) or alpha_j* # 1
        (from (i, j+1)) appends g of that arrow, whose kind flips when g
        reflects."""
        n, prev = self.n, self._layers[d - 1]
        dst = self.block_coords(i, j, d)
        for pair, shift, arrow in (
            (((i + 1) % n, j), (1, 1), None),
            (((i - 1) % n, j), (0, 0), None),
            ((i, (j - 1) % n), (1, 0), NFMonomial((j - 1) % n, 1, 0)),
            ((i, (j + 1) % n), (0, 1), NFMonomial((j + 1) % n, 0, 1)),
        ):
            rep = self.pair_rep[pair]
            mapping, multipliers = self._push_map(rep, d - 1, dst, self.pair_transfer[pair], shift, arrow)
            if mapping:
                yield prev[rep], mapping, multipliers

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
        group, n = self.group, self.n
        inv_vm = group.inverse_vertex_maps
        pieces: dict[tuple[int, int], dict[int, object]] = {}
        for (m, gi), c in x.terms.items():
            i = m.source
            j = inv_vm[gi][m.target(n)]
            idx = self.block_coords(i, j, d).position(gi, m.nonstars)
            pieces.setdefault((i, j), {})[idx] = c
        for pair, row in pieces.items():
            rep = self.pair_rep[pair]
            block = self._layers[d][rep]
            if block.full:
                continue
            if pair != rep:
                t = group.inverse[self.pair_transfer[pair]]
                row = map_row(row, *self._push_map(pair, d, self.block_coords(*rep, d), t, (0, 0)))
            if not block.kernel.contains(row):
                return False
        return True


def build_ideal(group: FiniteGroup, D: int) -> IdealTruncation:
    trunc = IdealTruncation(group)
    trunc.extend(D)
    return trunc


def identity_component_dims(group_or_trunc, D: int) -> list[int]:
    """dim of the image of R_d in (R#G)/(f_G) for d = 0..D."""
    trunc = (
        group_or_trunc
        if isinstance(group_or_trunc, IdealTruncation)
        else IdealTruncation(group_or_trunc)
    )
    trunc.extend(D)
    return [trunc.identity_component_dim(d) for d in range(D + 1)]


def membership(x: SmashElement, trunc: IdealTruncation) -> bool:
    return trunc.contains(x)


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


def growth_classify(dims: list[int], window: int, expected_increment: int | None = None) -> GrowthVerdict:
    """Windowed classification of a dimension series tail.

    finite_dim: the last `window` entries vanish.  gk1: the tail is nonzero
    but bounded (its maximum already appeared in the previous window).
    gk2_likely: the tail climbs by a constant positive step (equal to
    `expected_increment` when given).  Anything else is inconclusive.
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
    if len(diffs) == 1:
        step = diffs.pop()
        if step > 0 and (expected_increment is None or step == expected_increment):
            ev["increment"] = step
            return GrowthVerdict("gk2_likely", ev)
    if max(tail) == max(prev):
        ev["tail_max"] = max(tail)
        return GrowthVerdict("gk1", ev)
    return GrowthVerdict("inconclusive", ev)


def _element_order(group: FiniteGroup, gi: int) -> int:
    order, k = 1, gi
    while k != group.identity_index:
        k = group.table[k][gi]
        order += 1
    return order


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

    for gi, g in enumerate(group.elements):
        if _element_order(group, gi) != order:
            continue
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

    if group.is_dihedral_subgroup:
        if classify_auslander(n, group) == "iso":
            return 2 * n + 1, "missing_vertex_fixing_reflection"
        return None, None
    hit = _scalar_theorem_bound(group)
    if hit is not None:
        return hit
    return None, None


def default_cutoff(n: int, group: FiniteGroup) -> int:
    if group.is_dihedral_subgroup:
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


def auslander_verdict(
    n: int,
    group: FiniteGroup,
    D: int | None = None,
    label: str = "",
    trunc: IdealTruncation | None = None,
) -> AuslanderReport:
    """Empirical decision for the pair (R, G), cross-checked against the
    closed-form classification when G is a subgroup of D_n."""
    from .symmetry import classify_auslander

    if D is None:
        D = default_cutoff(n, group)
    trunc = trunc or IdealTruncation(group)
    dims = identity_component_dims(trunc, D)
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
    if group.is_dihedral_subgroup:
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
