"""The smash product R#G and the two-sided ideal generated by f_G.

Multiplication follows (r1 # g1)(r2 # g2) = r1 g1(r2) # g1 g2.  The ideal
(f_G), f_G = sum_g 1#g, is truncated degree by degree:

  * degree 0 is spanned by the cuts e_i f_G (e_j # h);
  * degree d is spanned by (degree-1 monomials of R) * layer_{d-1} together
    with layer_{d-1} * (degree-1 monomials # 1) -- right factors 1#h are
    absorbed because v*(m#h) = (v*(1#h)) * (h^{-1}(m)#1) and layer 0 is
    closed under right multiplication by 1#h.

Everything is graded by idempotent cuts: e_i (R#G) e_j splits each degree
into n^2 blocks, a spanning vector splits into its block pieces, and the
echelon bases are kept per block.  Within a block, coordinates carried by
non-identity group components come first and identity components last, so
the intersection with R_d # 1 is read off the pivot positions.

Two shortcuts keep the exact arithmetic desk-sized.  First, conjugation by
1#g maps block (i, j) bijectively onto block (g i, g j) preserving identity
components, so only one block per diagonal-orbit is row-reduced and the
rest are coordinate transfers.  Second, a block whose two left-extension
sources are entirely contained in the ideal is itself entirely contained
(every canonical monomial factors off its first arrow), so saturated
regions propagate without arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .linalg import make_echelon
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


class BlockCoords(NamedTuple):
    """Coordinate scheme of e_i (R#G)_d e_j: pairs (group index, nonstar
    count), non-identity components first, identity components last."""

    coords: tuple[tuple[int, int], ...]
    index: dict[tuple[int, int], int]
    tail_start: int          # first identity-component coordinate


def _identity_tail_size(n: int, i: int, j: int, d: int) -> int:
    """Number of identity-component coordinates of e_i (R#G)_d e_j: the l in
    0..d with i + 2l - d = j (mod n), counted in closed form."""
    c = (d + j - i) % n
    if n % 2:
        r, step = c * (n + 1) // 2 % n, n        # (n + 1) / 2 inverts 2 mod n
    elif c % 2:
        return 0
    else:
        r, step = c // 2, n // 2
    return len(range(r, d + 1, step))


@dataclass
class _Block:
    echelon: object | None   # None once saturated
    full: bool = False


class IdealTruncation:
    """Degreewise echelon bases of the two-sided ideal (f_G) in R#G."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.quiver: QuiverA = group.quiver
        self.n = self.quiver.n
        self.integral = group.is_dihedral_subgroup
        self._coords: dict[tuple[int, int, int], BlockCoords] = {}
        self._transfers: dict[tuple[int, int, int, bool], list] = {}
        self._layers: list[dict[tuple[int, int], _Block]] = []
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
        if hit is not None:
            return hit
        group, n = self.group, self.n
        ident = group.identity_index
        order = [gi for gi in range(len(group)) if gi != ident] + [ident]
        coords = []
        for gi in order:
            v = group.vertex_maps[gi][j]
            for l in range(d + 1):
                if (i + 2 * l - d - v) % n == 0:
                    coords.append((gi, l))
        tail_start = next(
            (pos for pos, (gi, _) in enumerate(coords) if gi == ident), len(coords)
        )
        hit = BlockCoords(tuple(coords), {c: p for p, c in enumerate(coords)}, tail_start)
        self._coords[key] = hit
        return hit

    def _transfer_map(self, pair: tuple[int, int], d: int, to_rep: bool) -> list:
        """Coordinate map (index -> (index, scalar)) realizing conjugation by
        the orbit transfer element between a block and its representative."""
        key = (pair[0], pair[1], d, to_rep)
        hit = self._transfers.get(key)
        if hit is not None:
            return hit
        group = self.group
        rep = self.pair_rep[pair]
        gi = self.pair_transfer[pair]
        if to_rep:
            gi = group.inverse[gi]
            src_pair, dst_pair = pair, rep
        else:
            src_pair, dst_pair = rep, pair
        src = self.block_coords(src_pair[0], src_pair[1], d)
        dst = self.block_coords(dst_pair[0], dst_pair[1], d)
        g = group.elements[gi]
        ginv = group.inverse[gi]
        table = group.table
        out = []
        for (hi, l) in src.coords:
            m = NFMonomial(src_pair[0], l, d - l)
            scalar, img = group.monomial_action(gi, m)
            conj = table[table[gi][hi]][ginv]
            out.append((dst.index[(conj, img.nonstars)], scalar))
        self._transfers[key] = out
        return out

    def _transfer_row(self, row: dict, mapping: list) -> dict:
        out = {}
        for idx, c in row.items():
            tgt, scalar = mapping[idx]
            out[tgt] = c if scalar == 1 else c * scalar
        return out

    # -- block row access -----------------------------------------------------

    def _block_rows(self, pair: tuple[int, int], d: int):
        """Iterate spanning rows of any block at a built degree (echelon rows
        of the representative, transferred; unit rows when saturated)."""
        rep = self.pair_rep[pair]
        block = self._layers[d][rep]
        if block.full:
            size = len(self.block_coords(pair[0], pair[1], d).coords)
            for idx in range(size):
                yield {idx: 1 if self.integral else Fraction(1)}
            return
        rows = block.echelon.pivots.values()
        if pair == rep:
            yield from rows
            return
        mapping = self._transfer_map(pair, d, to_rep=False)
        for row in rows:
            yield self._transfer_row(row, mapping)

    def block_rank(self, pair: tuple[int, int], d: int) -> int:
        rep = self.pair_rep[pair]
        block = self._layers[d][rep]
        if block.full:
            return len(self.block_coords(*rep, d).coords)
        return block.echelon.rank

    def block_identity_intersection(self, pair: tuple[int, int], d: int) -> int:
        rep = self.pair_rep[pair]
        block = self._layers[d][rep]
        if block.full:
            return _identity_tail_size(self.n, *rep, d)
        return block.echelon.lead_count_at_least(self.block_coords(*rep, d).tail_start)

    # -- construction -----------------------------------------------------------

    def built_through(self) -> int:
        return len(self._layers) - 1

    def extend(self, D: int) -> None:
        while self.built_through() < D:
            if not self._layers:
                self._build_degree_zero()
            else:
                self._build_next()

    def _new_block(self) -> _Block:
        return _Block(echelon=make_echelon(self.integral))

    def _build_degree_zero(self) -> None:
        # Degree 0 is spanned by the cuts e_i f_G (e_j # h); reindexing the
        # sum over the group shows f_G (e_{j0} # h) = f_G (e_{h^-1 j0} # 1),
        # so the h = identity column cuts already span everything.
        group, n = self.group, self.n
        layer = {rep: self._new_block() for rep in self.orbit_reps}
        one = 1 if self.integral else Fraction(1)
        for j in range(n):
            pieces: dict[int, dict] = {}
            for gi in range(len(group)):
                i = group.vertex_maps[gi][j]
                if (i, j) != self.pair_rep[(i, j)]:
                    continue
                idx = self.block_coords(i, j, 0).index[(gi, 0)]
                pieces.setdefault(i, {})[idx] = one
            for i, row in pieces.items():
                layer[(i, j)].echelon.insert(row)
        for rep, block in layer.items():
            if block.echelon.rank == len(self.block_coords(*rep, 0).coords):
                block.full = True
                block.echelon = None
        self._layers.append(layer)

    def _build_next(self) -> None:
        d = len(self._layers)
        group, n = self.group, self.n
        prev = self._layers[d - 1]
        layer: dict[tuple[int, int], _Block] = {}
        for (i, j) in self.orbit_reps:
            left_up = self.pair_rep[((i + 1) % n, j)]
            left_down = self.pair_rep[((i - 1) % n, j)]
            if prev[left_up].full and prev[left_down].full:
                layer[(i, j)] = _Block(echelon=None, full=True)
                continue
            layer[(i, j)] = self._new_block()
        self._layers.append(layer)
        for (i, j) in self.orbit_reps:
            block = layer[(i, j)]
            if block.full:
                continue
            coords = self.block_coords(i, j, d)
            blockdim = len(coords.coords)
            if blockdim == 0:
                block.full = True
                block.echelon = None
                continue
            echelon = block.echelon
            filled = False
            for row in self._spanning_rows(i, j, d):
                if echelon.insert(row) and echelon.rank == blockdim:
                    filled = True
                    break
            if filled:
                block.full = True
                block.echelon = None

    def _spanning_rows(self, i: int, j: int, d: int):
        """Left and right degree-1 extensions landing in block (i, j), each
        through a coordinate map from its source block built once."""
        group, n = self.group, self.n
        index = self.block_coords(i, j, d).index
        # Left multiplication by alpha_i (from block (i+1, j)) adds a nonstar;
        # by alpha_{i-1}* (from block (i-1, j)) adds a star.
        for src_i, dl in (((i + 1) % n, 1), ((i - 1) % n, 0)):
            coords = self.block_coords(src_i, j, d - 1).coords
            remap = [(index[(gi, l + dl)], 1) for gi, l in coords]
            for row in self._block_rows((src_i, j), d - 1):
                yield self._transfer_row(row, remap)
        # Right multiplication by (m0 # 1) for the two arrows into j.
        for src_j, m0 in (
            ((j - 1) % n, NFMonomial((j - 1) % n, 1, 0)),
            ((j + 1) % n, NFMonomial((j + 1) % n, 0, 1)),
        ):
            src_pair = (i, src_j)
            src_coords = self.block_coords(i, src_j, d - 1).coords
            remap = []
            for (gi, l) in src_coords:
                scalar, img = group.monomial_action(gi, m0)
                remap.append((index[(gi, l + img.nonstars)], scalar))
            for row in self._block_rows(src_pair, d - 1):
                yield self._transfer_row(row, remap)

    # -- measurements -------------------------------------------------------------

    def ideal_dimension(self, d: int) -> int:
        self.extend(d)
        return sum(
            self.orbit_sizes[rep] * self.block_rank(rep, d) for rep in self.orbit_reps
        )

    def identity_intersection_dim(self, d: int) -> int:
        self.extend(d)
        return sum(
            self.orbit_sizes[rep] * self.block_identity_intersection(rep, d)
            for rep in self.orbit_reps
        )

    def identity_component_dim(self, d: int) -> int:
        return self.n * (d + 1) - self.identity_intersection_dim(d)

    def smash_dimension(self, d: int) -> int:
        return self.n * (d + 1) * len(self.group)

    # -- membership ------------------------------------------------------------------

    def _kernel_row(self, row: dict[int, object]) -> dict[int, object]:
        """Coerce a row to the active kernel's coefficient type; scaling by
        a common denominator does not change membership.  Over a scalar-free
        group the ideal is rational, so coefficients must be too."""
        if not self.integral:
            return row
        fracs = {}
        for k, c in row.items():
            if not isinstance(c, (int, Fraction)):
                c = c.rational_value()
            fracs[k] = Fraction(c)
        scale = 1
        for c in fracs.values():
            scale = scale * c.denominator // gcd(scale, c.denominator)
        return {k: int(c * scale) for k, c in fracs.items()}

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
            idx = self.block_coords(i, j, d).index[(gi, m.nonstars)]
            pieces.setdefault((i, j), {})[idx] = c
        for pair, row in pieces.items():
            row = self._kernel_row(row)
            rep = self.pair_rep[pair]
            block = self._layers[d][rep]
            if block.full:
                continue
            if pair != rep:
                row = self._transfer_row(row, self._transfer_map(pair, d, to_rep=True))
            if not block.echelon.contains(row):
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
    echelon = make_echelon(False)
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
