"""Graded automorphisms of the preprojective algebra and their groups.

An automorphism is a dihedral part (rotation amount plus optional
reflection) together with one nonzero scalar per arrow.  The dihedral part
permutes vertices; since the doubled quiver is schurian, each arrow must
land on the unique arrow between the image vertices, scaled by its scalar.
Rotations are star-preserving, reflections star-inverting, and the
vertex-fixing diagonal family has a homological determinant: the common
value xi_i * xi_i*.  `validate` checks all of this directly on the
preprojective relation in the free algebra rather than trusting the
parametrization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .preproj import AlgebraElement, NFMonomial
from .quiver import ArrowRef, QuiverA, Word, apply_word_automorphism


class NotAnAutomorphismError(ValueError):
    pass


class CapExceededError(RuntimeError):
    pass


class ScalarGroupNotClassifiableError(ValueError):
    pass


def _is_unit(c) -> bool:
    return c == 1


@dataclass(frozen=True)
class Automorphism:
    """A graded automorphism: vertex map i -> rot +- i, per-arrow scalars."""

    quiver: QuiverA
    rot: int
    refl: bool
    xi: tuple          # scalar on alpha_i, indexed by i
    xi_star: tuple     # scalar on alpha_i*, indexed by i

    # -- actions -------------------------------------------------------------

    def vertex_image(self, i: int) -> int:
        n = self.quiver.n
        return (self.rot - i) % n if self.refl else (self.rot + i) % n

    def arrow_image(self, a: ArrowRef) -> tuple[object, ArrowRef]:
        q = self.quiver
        scalar = self.xi_star[a.index] if a.starred else self.xi[a.index]
        img = q.arrow_between(
            self.vertex_image(q.arrow_source(a)), self.vertex_image(q.arrow_target(a))
        )
        return scalar, img

    def unit_scalar(self):
        return Fraction(1)

    @cached_property
    def has_scalars(self) -> bool:
        return not all(_is_unit(c) for c in self.xi + self.xi_star)

    def word_image(self, w: Word) -> tuple[object, Word]:
        return apply_word_automorphism(self, w)

    def monomial_image(self, m: NFMonomial) -> tuple[object, NFMonomial]:
        """Closed form on canonical monomials: rotations shift the source,
        reflections also swap the two arrow counts; the scalar multiplier is
        the product of per-arrow scalars along the canonical word."""
        n = self.quiver.n
        if self.refl:
            img = NFMonomial((self.rot - m.source) % n, m.stars, m.nonstars)
        else:
            img = NFMonomial((self.rot + m.source) % n, m.nonstars, m.stars)
        if not self.has_scalars:
            return Fraction(1), img
        coeff = Fraction(1)
        i, l = m.source, m.nonstars
        for t in range(l):
            coeff = coeff * self.xi[(i + t) % n]
        for t in range(m.stars):
            coeff = coeff * self.xi_star[(i + l - 1 - t) % n]
        return coeff, img

    # -- group structure -------------------------------------------------------

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        """Composition, left factor applied last: (g*h)(x) = g(h(x))."""
        if self.quiver != other.quiver:
            raise ValueError("automorphisms live over different quivers")
        n = self.quiver.n
        rot = (self.rot + (-other.rot if self.refl else other.rot)) % n
        refl = self.refl ^ other.refl
        xi, xi_star = [], []
        for i in range(n):
            for starred, bucket in ((False, xi), (True, xi_star)):
                a = ArrowRef(i, starred)
                c_inner, mid = other.arrow_image(a)
                c_outer, _ = self.arrow_image(mid)
                bucket.append(c_outer * c_inner)
        return Automorphism(self.quiver, rot, refl, tuple(xi), tuple(xi_star))

    def is_identity(self) -> bool:
        return self.rot == 0 and not self.refl and not self.has_scalars

    def fixed_vertices(self) -> list[int]:
        return [i for i in range(self.quiver.n) if self.vertex_image(i) == i]

    def sort_key(self):
        return (self.refl, self.rot, _scalar_key(self.xi), _scalar_key(self.xi_star))

    def __str__(self):
        parts = []
        if self.rot or self.refl:
            parts.append(f"rho^{self.rot}" + (" r" if self.refl else ""))
        if self.has_scalars:
            parts.append(f"xi={tuple(str(c) for c in self.xi)}")
        return " ".join(parts) or "id"


def _scalar_key(values) -> tuple:
    out = []
    for v in values:
        if isinstance(v, Fraction) or isinstance(v, int):
            f = Fraction(v)
            out.append((0, (f.numerator, f.denominator)))
        elif v.is_rational():
            f = v.rational_value()
            out.append((0, (f.numerator, f.denominator)))
        else:
            out.append(
                (v.context.m, tuple((c.numerator, c.denominator) for c in v.coeffs))
            )
    return tuple(out)


# -- constructors -------------------------------------------------------------


def _units(n: int) -> tuple:
    return (Fraction(1),) * n


def identity_automorphism(q: QuiverA) -> Automorphism:
    return Automorphism(q, 0, False, _units(q.n), _units(q.n))


def rotation(q: QuiverA, a: int = 1) -> Automorphism:
    return Automorphism(q, a % q.n, False, _units(q.n), _units(q.n))


def reflection(q: QuiverA, j: int = 0) -> Automorphism:
    """rho^j r: the reflection i -> j - i."""
    return Automorphism(q, j % q.n, True, _units(q.n), _units(q.n))


def scalar_automorphism(q: QuiverA, xi: Sequence, xi_star: Sequence) -> Automorphism:
    xi, xi_star = tuple(xi), tuple(xi_star)
    if len(xi) != q.n or len(xi_star) != q.n:
        raise ValueError(f"need one scalar per arrow family ({q.n} each)")
    if any(not c for c in xi + xi_star):
        raise ValueError("arrow scalars must be nonzero")
    return Automorphism(q, 0, False, xi, xi_star)


# -- validation ----------------------------------------------------------------


class Validation(NamedTuple):
    kind: str                       # star_preserving | star_inverting | scalar_diag
    omega: object                   # homological determinant xi_i * xi_i*
    relation_scalar: object         # c with sigma(Omega) = c * Omega


def _omega_words(q: QuiverA) -> dict[Word, int]:
    """The preprojective relation as a free-algebra element."""
    out: dict[Word, int] = {}
    for i in range(q.n):
        nonstar, star = ArrowRef(i, False), ArrowRef(i, True)
        out[q.word(i, (nonstar, star))] = 1
        out[q.word((i + 1) % q.n, (star, nonstar))] = -1
    return out


def validate(g: Automorphism) -> Validation:
    """Check sigma(Omega) is a scalar multiple of Omega in the free algebra,
    and that the per-vertex products xi_i * xi_i* agree.  Raises
    NotAnAutomorphismError with the offending component otherwise."""
    q = g.quiver
    if any(not c for c in g.xi + g.xi_star):
        raise NotAnAutomorphismError("arrow scalars must be nonzero")
    omega = _omega_words(q)
    image: dict[Word, object] = {}
    for w, sign in omega.items():
        c, img = g.word_image(w)
        acc = image.get(img, 0) + sign * c
        if acc:
            image[img] = acc
        else:
            image.pop(img, None)
    scalar = None
    for w, c in image.items():
        if w not in omega:
            raise NotAnAutomorphismError(
                f"sigma(Omega) has support outside Omega at word {w}"
            )
        ratio = c / omega[w] if omega[w] == 1 else -c
        if scalar is None:
            scalar = ratio
        elif scalar != ratio:
            raise NotAnAutomorphismError(
                f"sigma(Omega) is not proportional to Omega: ratio {ratio} "
                f"at word {w} disagrees with {scalar}"
            )
    products = {i: g.xi[i] * g.xi_star[i] for i in range(q.n)}
    omega_value = products[0]
    for i, p in products.items():
        if p != omega_value:
            raise NotAnAutomorphismError(
                f"xi_{i} * xi_{i}* = {p} differs from xi_0 * xi_0* = {omega_value}"
            )
    if g.refl:
        kind = "star_inverting"
        expected = -omega_value
    else:
        kind = "scalar_diag" if g.rot == 0 else "star_preserving"
        expected = omega_value
    if scalar != expected:
        raise NotAnAutomorphismError(
            f"sigma(Omega) = {scalar} * Omega but xi products give {expected}"
        )
    return Validation(kind, omega_value, scalar)


def apply(g: Automorphism, x: AlgebraElement) -> AlgebraElement:
    """Linear extension of the monomial action."""
    out: dict[NFMonomial, object] = {}
    for m, c in x.terms.items():
        mult, img = g.monomial_image(m)
        acc = out.get(img, 0) + c * mult
        if acc:
            out[img] = acc
        else:
            out.pop(img, None)
    return AlgebraElement(x.quiver, out)


# -- finite groups ----------------------------------------------------------------


class FiniteGroup:
    """A closed finite set of validated automorphisms with its Cayley table.

    Elements are stored in a canonical deterministic order; all group
    arithmetic downstream is on element indices.
    """

    def __init__(self, quiver: QuiverA, elements: list[Automorphism], generators=None):
        self.quiver = quiver
        self.elements = sorted(elements, key=lambda g: g.sort_key())
        self.generators = list(generators or [])
        self._index = {g: i for i, g in enumerate(self.elements)}
        size = len(self.elements)
        self.identity_index = next(
            i for i, g in enumerate(self.elements) if g.is_identity()
        )
        self.has_scalars = any(g.has_scalars for g in self.elements)
        self.is_dihedral_subgroup = not self.has_scalars
        self.table = self.composition_table() if self.has_scalars else self.dihedral_table()
        self.inverse = [0] * size
        for i in range(size):
            self.inverse[i] = self.table[i].index(self.identity_index)
        self.vertex_maps = [
            tuple(g.vertex_image(v) for v in range(quiver.n)) for g in self.elements
        ]
        self._action_cache: dict = {}

    def composition_table(self) -> list[list[int]]:
        """Cayley table by composing the automorphisms themselves; the
        reference for `dihedral_table`.  Raises if the set is not closed."""
        table = []
        for g in self.elements:
            row = [self._index.get(g * h) for h in self.elements]
            if None in row:
                raise ValueError("element set is not closed under composition")
            table.append(row)
        return table

    def dihedral_table(self) -> list[list[int]]:
        """Cayley table of a scalar-free group from (rot, refl) alone:
        rho^a r^s * rho^b r^t = rho^(a -+ b) r^(s xor t), the sign being
        minus when s is set.  Raises if the set is not closed."""
        n = self.quiver.n
        index = {(g.rot, g.refl): i for i, g in enumerate(self.elements)}
        table = []
        for g in self.elements:
            sign = -1 if g.refl else 1
            row = [index.get(((g.rot + sign * h.rot) % n, g.refl ^ h.refl)) for h in self.elements]
            if None in row:
                raise ValueError("element set is not closed under composition")
            table.append(row)
        return table

    def monomial_action(self, gi: int, m) -> tuple:
        """Cached (scalar, image) of a canonical monomial under element gi."""
        key = (gi, m)
        hit = self._action_cache.get(key)
        if hit is None:
            hit = self.elements[gi].monomial_image(m)
            self._action_cache[key] = hit
        return hit

    @property
    def inverse_vertex_maps(self) -> list[tuple[int, ...]]:
        cached = self.__dict__.get("_inv_vertex_maps")
        if cached is None:
            n = self.quiver.n
            cached = []
            for vm in self.vertex_maps:
                inv = [0] * n
                for j, image in enumerate(vm):
                    inv[image] = j
                cached.append(tuple(inv))
            self.__dict__["_inv_vertex_maps"] = cached
        return cached

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: Automorphism) -> bool:
        return g in self._index

    def index(self, g: Automorphism) -> int:
        return self._index[g]

    def element_key_set(self) -> frozenset:
        return frozenset(g.sort_key() for g in self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.quiver == other.quiver
            and self.element_key_set() == other.element_key_set()
        )

    def __hash__(self):
        return hash((self.quiver.n, self.element_key_set()))


def generate_group(
    generators: Sequence[Automorphism], cap: int = 512, check: bool = True
) -> FiniteGroup:
    """Closure of the generators under composition, capped to guard against
    runaway (e.g. infinite-order scalar) inputs."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator (or use trivial_group)")
    q = gens[0].quiver
    if check:
        for g in gens:
            validate(g)
    seen = {identity_automorphism(q)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                p = g * h
                if p not in seen:
                    if len(seen) >= cap:
                        raise CapExceededError(
                            f"group closure exceeded cap {cap}; "
                            "is a generator of infinite order?"
                        )
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return FiniteGroup(q, list(seen), generators=gens)


def trivial_group(q: QuiverA) -> FiniteGroup:
    return FiniteGroup(q, [identity_automorphism(q)])


def dihedral_group(q: QuiverA) -> FiniteGroup:
    return generate_group([rotation(q, 1), reflection(q, 0)])


def vertex_fixing_reflections(q: QuiverA) -> list[Automorphism]:
    """The reflections of D_n whose vertex permutation has a fixed point.
    Computed from fixed points, not from a parity rule."""
    out = []
    for j in range(q.n):
        g = reflection(q, j)
        if g.fixed_vertices():
            out.append(g)
    return out


def w_subgroup(q: QuiverA) -> FiniteGroup:
    """The subgroup generated by the vertex-fixing reflections (equal to
    D_n when n is odd, of index 2 when n is even)."""
    return generate_group(vertex_fixing_reflections(q))


class SubgroupDescriptor(NamedTuple):
    kind: str                 # cyclic | dihedral | scalar | mixed
    d: int | None
    j: int | None
    label: str
    order: int
    contains_all_vertex_fixing_reflections: bool

    @staticmethod
    def describe(q: QuiverA, group: FiniteGroup, kind: str, d=None, j=None):
        label = {
            "cyclic": f"cyclic({d})",
            "dihedral": f"dihedral({d},{j})",
        }.get(kind, kind)
        needed = vertex_fixing_reflections(q)
        return SubgroupDescriptor(
            kind,
            d,
            j,
            label,
            len(group),
            all(t in group for t in needed),
        )


def subgroup_keys(n: int) -> list[tuple[str, int, int | None]]:
    """(kind, d, j) of every subgroup of D_n, each once: <rho^d> for d | n,
    and <rho^d, rho^j r> for d | n and 0 <= j < d."""
    QuiverA(n)  # rejects n < 3
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return [("cyclic", d, None) for d in divisors] + [
        ("dihedral", d, j) for d in divisors for j in range(d)
    ]


def build_subgroup(
    n: int, kind: str, d: int, j: int | None
) -> tuple[SubgroupDescriptor, FiniteGroup]:
    """The subgroup of D_n named by one of `subgroup_keys(n)`."""
    q = QuiverA(n)
    if kind == "cyclic":
        gens = [rotation(q, d)] if d < n else [identity_automorphism(q)]
    elif kind == "dihedral":
        gens = [reflection(q, j)] if d == n else [rotation(q, d), reflection(q, j)]
    else:
        raise ValueError(f"unknown subgroup kind {kind!r}")
    group = generate_group(gens)
    return SubgroupDescriptor.describe(q, group, kind, d=d, j=j), group


def enumerate_subgroups(n: int) -> list[tuple[SubgroupDescriptor, FiniteGroup]]:
    """All subgroups of D_n, each once, in `subgroup_keys` order."""
    out = [build_subgroup(n, *key) for key in subgroup_keys(n)]
    keys = [g.element_key_set() for _, g in out]
    if len(set(keys)) != len(keys):
        raise AssertionError("subgroup enumeration produced duplicates")
    return out


def classify_auslander(n: int, group: FiniteGroup) -> str:
    """'iso' when some vertex-fixing reflection of D_n is missing from the
    group, 'not_iso' when the group contains them all.  Only meaningful for
    subgroups of D_n; groups with scalar parts are refused."""
    if group.has_scalars:
        raise ScalarGroupNotClassifiableError(
            "closed-form classifier applies to subgroups of D_n only; "
            "use the pertinency computation for scalar or mixed actions"
        )
    q = QuiverA(n)
    for tau in vertex_fixing_reflections(q):
        if tau not in group:
            return "iso"
    return "not_iso"
