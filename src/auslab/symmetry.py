"""Graded automorphisms of the preprojective algebra and their groups.

An automorphism is a dihedral part (rotation amount plus optional
reflection) together with one scalar per arrow, a power of one root of
unity zeta_m and stored as its integer exponent.  The dihedral part
permutes vertices; since the doubled quiver is schurian, each arrow must
land on the unique arrow between the image vertices, scaled by its scalar.
Rotations are star-preserving, reflections star-inverting, and the
vertex-fixing diagonal family has a homological determinant: the common
value xi_i * xi_i* = zeta_m^(e_i + e_i*).  `validate` decides in closed
form, on the exponents, whether the parametrized map preserves the
preprojective relation; the tests hold it to the image of the relation in
the free algebra.

The scalar of an element on a canonical monomial is zeta_m to the sum of
the exponents along its word: l nonstars from the source, then the stars
back over the last of them.  Each sum is a difference of periodic prefix
sums of e and e_star, so `word_exponents` gives it in O(1) per monomial,
for Burnside's count in `invariants` and the cut rows of `smash` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from typing import Sequence

from .preproj import AlgebraElement, NFMonomial
from .quiver import QuiverA
from .scalars import root


class NotAnAutomorphismError(ValueError):
    pass


class CapExceededError(RuntimeError):
    pass


class ScalarGroupNotClassifiableError(ValueError):
    pass


@dataclass(frozen=True)
class Automorphism:
    """A graded automorphism: vertex map i -> rot +- i, and the scalars
    zeta_m^e[i] on alpha_i and zeta_m^e_star[i] on alpha_i*.  Exponents are
    reduced mod m, and m = 1 exactly when every exponent is 0, so equality,
    hashing and composition are integer arithmetic."""

    quiver: QuiverA
    rot: int
    refl: bool
    m: int             # conductor: every scalar is a power of zeta_m
    e: tuple           # exponent of the scalar on alpha_i, indexed by i
    e_star: tuple      # exponent of the scalar on alpha_i*, indexed by i

    # -- actions -------------------------------------------------------------

    def vertex_image(self, i: int) -> int:
        n = self.quiver.n
        return (self.rot - i) % n if self.refl else (self.rot + i) % n

    def vertex_preimage(self, i: int) -> int:
        return self.vertex_image(i) if self.refl else (i - self.rot) % self.quiver.n

    def monomial_image(self, x: NFMonomial) -> tuple[object, NFMonomial]:
        """Closed form on canonical monomials: rotations shift the source,
        reflections also swap the two arrow counts; the scalar multiplier is
        zeta_m to the sum of the exponents along the canonical word."""
        source = self.vertex_image(x.source)
        img = NFMonomial(source, x.stars, x.nonstars) if self.refl else NFMonomial(source, x.nonstars, x.stars)
        if self.m == 1:
            return Fraction(1), img
        return root(self.m, self.word_exponents(x.source, x.degree, (x.nonstars,))[0]), img

    @cached_property
    def _prefix_sums(self) -> tuple[list[int], list[int], list[int]]:
        """Prefix sums of e, of e_star and of both: p[i] sums the first i."""
        pre, pre_star = list(accumulate(self.e, initial=0)), list(accumulate(self.e_star, initial=0))
        return pre, pre_star, [a + b for a, b in zip(pre, pre_star)]

    def word_exponents(self, j: int, d: int, ls) -> list[int]:
        """k_l mod m with zeta_m^k_l the scalar on the canonical monomial
        (j, l, d - l), for the l in ls: the sum of the exponents on the
        nonstar arrows j..j+l-1 and the star arrows j+2l-d..j+l-1, indices
        mod n, read off the prefix sums extended periodically."""
        pre, pre_star, both = self._prefix_sums
        n, m = self.quiver.n, self.m
        out = []
        for l in ls:
            q, r = divmod(j + l, n)
            q2, r2 = divmod(j + 2 * l - d, n)
            out.append((q * both[n] + both[r] - q2 * pre_star[n] - pre_star[r2] - pre[j]) % m)
        return out

    # -- group structure -------------------------------------------------------

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        """Composition, left factor applied last: (g*h)(x) = g(h(x)).  The
        scalar on an arrow a is h's on a times g's on h(a), over zeta_lcm."""
        q = self.quiver
        if q != other.quiver:
            raise ValueError("automorphisms live over different quivers")
        n = q.n
        rot, refl = _dihedral_product(n, (self.rot, self.refl), (other.rot, other.refl))
        m = lcm(self.m, other.m)
        if m == 1:
            return Automorphism(q, rot, refl, 1, other.e, other.e_star)
        a, b = m // self.m, m // other.m
        # h sends alpha_i to alpha_h(i), or when it reflects to alpha_h(i+1)*
        # (and the starred arrows to the other kind likewise).
        at = [other.vertex_image(i + 1 if other.refl else i) for i in range(n)]
        outer, outer_star = (self.e_star, self.e) if other.refl else (self.e, self.e_star)
        e = tuple((b * k + a * outer[j]) % m for k, j in zip(other.e, at))
        e_star = tuple((b * k + a * outer_star[j]) % m for k, j in zip(other.e_star, at))
        if not any(e) and not any(e_star):
            m = 1
        return Automorphism(q, rot, refl, m, e, e_star)

    def lift(self, m: int) -> "Automorphism":
        """The same automorphism over zeta_m, for a multiple m of its conductor."""
        f = m // self.m
        e, e_star = tuple(f * k for k in self.e), tuple(f * k for k in self.e_star)
        return self if self.m == 1 else replace(self, m=m, e=e, e_star=e_star)

    def sort_key(self):
        return (self.refl, self.rot, self.m, self.e, self.e_star)

    def __str__(self):
        parts = []
        if self.rot or self.refl:
            parts.append(f"rho^{self.rot}" + (" r" if self.refl else ""))
        if self.m != 1:
            parts.append(f"zeta_{self.m} exponents e={self.e} e*={self.e_star}")
        return " ".join(parts) or "id"


# -- constructors -------------------------------------------------------------


def identity_automorphism(q: QuiverA) -> Automorphism:
    return rotation(q, 0)


def rotation(q: QuiverA, a: int = 1) -> Automorphism:
    return Automorphism(q, a % q.n, False, 1, (0,) * q.n, (0,) * q.n)


def reflection(q: QuiverA, j: int = 0) -> Automorphism:
    """rho^j r: the reflection i -> j - i."""
    return Automorphism(q, j % q.n, True, 1, (0,) * q.n, (0,) * q.n)


def scalar_powers(q: QuiverA, m: int, e: Sequence[int], e_star: Sequence[int]) -> Automorphism:
    """The vertex-fixing automorphism scaling alpha_i by zeta_m^e[i] and
    alpha_i* by zeta_m^e_star[i], written over its true order m / g, g the
    gcd of m and the exponents: zeta_m^(gk) = zeta_(m/g)^k."""
    if len(e) != q.n or len(e_star) != q.n:
        raise ValueError(f"need one scalar per arrow family ({q.n} each)")
    g = gcd(m, *e, *e_star)
    m //= g
    return Automorphism(q, 0, False, m, tuple(k // g % m for k in e), tuple(k // g % m for k in e_star))


# -- validation ----------------------------------------------------------------


def validate(g: Automorphism) -> None:
    """Check that g preserves the preprojective relation Omega, the sum over
    i of alpha_i alpha_i* - alpha_i* alpha_i.  g sends both terms at vertex
    i to xi_i * xi_i* times a term of Omega at the image vertex, with the
    same sign for a rotation and the opposite sign for a reflection (which
    swaps the two kinds).  So sigma(Omega) is proportional to Omega exactly
    when the exponents e_i + e_i* agree mod m, at s say, and then
    sigma(Omega) = +-zeta_m^s Omega; zeta_m^s is the homological
    determinant.  Raises NotAnAutomorphismError naming the first product
    that differs otherwise."""
    sums = [(k + k_star) % g.m for k, k_star in zip(g.e, g.e_star)]
    for i, s in enumerate(sums):
        if s != sums[0]:
            raise NotAnAutomorphismError(
                f"sigma(Omega) is not proportional to Omega: xi_{i} * xi_{i}* = "
                f"zeta_{g.m}^{s} differs from xi_0 * xi_0* = zeta_{g.m}^{sums[0]}"
            )


def apply(g: Automorphism, x: AlgebraElement) -> AlgebraElement:
    """Linear extension of the monomial action, which permutes monomials."""
    out: dict[NFMonomial, object] = {}
    for m, c in x.terms.items():
        mult, img = g.monomial_image(m)
        out[img] = c * mult
    return AlgebraElement(x.quiver, out)


# -- finite groups ----------------------------------------------------------------


class FiniteGroup:
    """A group G = T x| N of automorphisms over one conductor.

    T, the closure of the scalar-free generators, is a subgroup of D_n; N,
    the closure of the T-conjugates of the vertex-fixing generators, is
    diagonal, abelian and normal.  A generator that both moves vertices and
    scales arrows is refused, so every element is t h for one t in T and one
    h in N, and element c |N| + k is T[c] N[k]: the identity is index 0, N
    the first |N| indices and T[c] index c |N|.  T is sorted by (reflection,
    rotation) and N by `sort_key`, identity first in each.  All group
    arithmetic downstream is on indices: T multiplies in closed form on
    (rotation, reflection), and conj[c][k] is the position in N of
    T[c] N[k] T[c]^-1.
    """

    def __init__(self, quiver: QuiverA, generators: Sequence[Automorphism], cap: int):
        self.quiver = quiver
        n = quiver.n
        for g in generators:
            if (g.rot or g.refl) and g.m != 1:
                raise ValueError(
                    f"generator {g} both moves vertices and scales arrows; a group is built "
                    "from scalar-free generators and vertex-fixing ones"
                )
        moves = {(g.rot, g.refl) for g in generators if g.rot or g.refl}
        pairs, seen = [(0, False)], {(0, False)}
        for a in pairs:                        # pairs grows while it is walked
            for b in moves:
                p = _dihedral_product(n, a, b)
                if p not in seen:
                    _check_order(len(pairs) + 1, cap)
                    seen.add(p)
                    pairs.append(p)
        pairs.sort(key=lambda p: (p[1], p[0]))
        self._t_pairs, self._t_index = pairs, {p: c for c, p in enumerate(pairs)}
        self.t_inverse = [self._t_index[(rot, True) if refl else (-rot % n, False)] for rot, refl in pairs]
        # N, kept as an ordered set, grows by one coset N x^i for each power
        # of a conjugate x outside it.
        found, grew = dict.fromkeys([identity_automorphism(quiver)]), []
        for h in (g for g in generators if not g.rot and not g.refl):
            for x in (_conjugate(t, h) for t in pairs):
                if x in found:
                    continue
                grew.append(x)
                base, power = list(found), x
                while power not in found:
                    _check_order(len(pairs) * (len(found) + len(base)), cap)
                    found.update(dict.fromkeys(y * power for y in base))
                    power = power * x
        normal = sorted(found, key=Automorphism.sort_key)
        self._n_index = {h: k for k, h in enumerate(normal)}
        self.n_elements = normal
        self.n_gens = [self._n_index[x] for x in grew]
        self.has_scalars = len(normal) > 1
        # With N trivial every conjugate is the identity, and none is hashed.
        self.conj = [[self._n_index[_conjugate(t, h)] for h in normal] for t in pairs] if self.has_scalars else [[0]] * len(pairs)
        self.conductor = lcm(*(h.m for h in normal))
        # t h scales each arrow as h does, t being scalar-free.
        self.elements = [Automorphism(quiver, rot, refl, h.m, h.e, h.e_star) for rot, refl in pairs for h in normal]
        self._action_cache: dict = {}

    @cached_property
    def vertex_maps(self) -> list[tuple[int, ...]]:
        """Each element's vertex images as an n-tuple, built on first read.
        No command reads it; its one reader is the saturation count of
        perfbench/tracing.py:169."""
        return [tuple(map(g.vertex_image, range(self.quiver.n))) for g in self.elements]

    def t_mul(self, a: int, b: int) -> int:
        """The position in T of T[a] T[b]."""
        return self._t_index[_dihedral_product(self.quiver.n, self._t_pairs[a], self._t_pairs[b])]

    def mul(self, a: int, b: int) -> int:
        """The index of the product of elements a and b, for the naive
        engine: (t1 h1)(t2 h2) = (t1 t2)(t2^-1 h1 t2) h2."""
        size = len(self.n_elements)
        (c1, k1), (c2, k2) = divmod(a, size), divmod(b, size)
        h = self.n_elements[self.conj[self.t_inverse[c2]][k1]] * self.n_elements[k2]
        return self.t_mul(c1, c2) * size + self._n_index[h]

    def monomial_action(self, gi: int, m) -> tuple:
        """Cached (scalar, image) of a canonical monomial under element gi."""
        key = (gi, m)
        hit = self._action_cache.get(key)
        if hit is None:
            hit = self.elements[gi].monomial_image(m)
            self._action_cache[key] = hit
        return hit

    def __len__(self):
        return len(self.elements)

    def element_key_set(self) -> frozenset:
        return frozenset(g.sort_key() for g in self.elements)


def _dihedral_product(n: int, a: tuple[int, bool], b: tuple[int, bool]) -> tuple[int, bool]:
    """(rot, refl) of a b for dihedral parts: rho^r r^s rho^r' r^s' = rho^(r -+ r') r^(s xor s')."""
    return ((a[0] - b[0] if a[1] else a[0] + b[0]) % n, a[1] ^ b[1])


def _conjugate(t: tuple[int, bool], h: Automorphism) -> Automorphism:
    """t h t^-1 for the dihedral part t = (rot, refl) and a vertex-fixing h:
    its scalar on an arrow is h's on the arrow's preimage under t.  The
    rotation by r sends alpha_i to alpha_(i+r); the reflection i -> r - i
    swaps alpha_i and alpha_(r-i-1)*."""
    (rot, refl), n = t, h.quiver.n
    if h.m == 1:
        return h
    at = [(rot - i - 1 if refl else i - rot) % n for i in range(n)]
    e, e_star = (h.e_star, h.e) if refl else (h.e, h.e_star)
    return Automorphism(h.quiver, 0, False, h.m, tuple(e[j] for j in at), tuple(e_star[j] for j in at))


def _check_order(order: int, cap: int) -> None:
    if order > cap:
        raise CapExceededError(f"group closure exceeded cap {cap}: the group's order is over the limit of {cap} elements")


def generate_group(generators: Sequence[Automorphism], cap: int = 512) -> FiniteGroup:
    """Closure of the generators under composition, capped to guard against
    runaway inputs.  Each generator is validated, and all are first written
    over the lcm M of their conductors, so every scalar of the group lies in
    Q or Q(zeta_M).  The vertex-fixing generators span an abelian group whose
    exponent, the lcm of their orders, divides |G|, so an lcm over the cap is
    refused, with that lcm in its message, before any generator is validated.
    Validation reads the exponents alone and builds no Q(zeta_m)."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator (the identity for the trivial group)")
    scalar_order = lcm(*(g.m // gcd(g.m, *g.e, *g.e_star) for g in gens if not g.rot and not g.refl))
    if scalar_order > cap:
        raise CapExceededError(
            f"group closure exceeded cap {cap}: the group's order is over the limit of {cap} elements, "
            f"as its vertex-fixing generators have orders of lcm {scalar_order}"
        )
    for g in gens:
        validate(g)
    conductor = lcm(*(g.m for g in gens))
    return FiniteGroup(gens[0].quiver, [g.lift(conductor) for g in gens], cap)


def dihedral_group(q: QuiverA) -> FiniteGroup:
    return generate_group([rotation(q, 1), reflection(q, 0)], cap=2 * q.n)


def w_subgroup(q: QuiverA) -> FiniteGroup:
    """<rho^2, r>, generated by the vertex-fixing reflections: rho^j r (i -> j - i) fixes
    a vertex exactly when 2i = j (mod n) is solvable, for all j if n is odd, even j if not."""
    return generate_group([rotation(q, 2), reflection(q, 0)], cap=2 * q.n)


def subgroup_keys(n: int) -> list[tuple[str, int, int | None]]:
    """(kind, d, j) of every subgroup of D_n, each once: <rho^d> for d | n,
    and <rho^d, rho^j r> for d | n and 0 <= j < d."""
    QuiverA(n)  # rejects n < 3
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return [("cyclic", d, None) for d in divisors] + [
        ("dihedral", d, j) for d in divisors for j in range(d)
    ]


def build_subgroup(n: int, kind: str, d: int, j: int | None) -> tuple[str, FiniteGroup]:
    """The label and the subgroup of D_n named by one of `subgroup_keys(n)`."""
    q = QuiverA(n)
    if kind == "cyclic":
        gens = [rotation(q, d)] if d < n else [identity_automorphism(q)]
    elif kind == "dihedral":
        gens = [reflection(q, j)] if d == n else [rotation(q, d), reflection(q, j)]
    else:
        raise ValueError(f"unknown subgroup kind {kind!r}")
    return subgroup_label(kind, d, j), generate_group(gens, cap=2 * n)    # a subgroup of D_n has at most 2n elements


def subgroup_label(kind: str, d: int, j: int | None) -> str:
    """The label of the subgroup named by (kind, d, j) of `subgroup_keys`."""
    return f"cyclic({d})" if kind == "cyclic" else f"dihedral({d},{j})"


def enumerate_subgroups(n: int) -> list[tuple[str, FiniteGroup]]:
    """All subgroups of D_n, each once, in `subgroup_keys` order."""
    out = [build_subgroup(n, *key) for key in subgroup_keys(n)]
    keys = [g.element_key_set() for _, g in out]
    if len(set(keys)) != len(keys):
        raise AssertionError("subgroup enumeration produced duplicates")
    return out


def classify_auslander(n: int, group: FiniteGroup) -> str:
    """'iso' when the group misses some vertex-fixing reflection of D_n,
    'not_iso' when it holds them all: rho^j r (i -> j - i) fixes a vertex
    exactly when 2i = j (mod n) is solvable.  Only for subgroups of D_n;
    groups with scalar parts are refused."""
    if group.has_scalars:
        raise ScalarGroupNotClassifiableError(
            "closed-form classifier applies to subgroups of D_n only; "
            "use the pertinency computation for scalar or mixed actions"
        )
    reflections = {g.rot for g in group.elements if g.refl}
    return "not_iso" if reflections.issuperset(range(0, n, 2 - n % 2)) else "iso"
