"""Exact Z[sqrt(2)] geometry of the Peres 33-ray construction.

Rays are directions in 3-space with components a + b*sqrt(2), a, b integer,
held in a canonical form that quotients out integer and sqrt(2) factors
and overall sign.  Orthogonality is exact ring arithmetic, so the 40
mutually-orthogonal triples carry no numerical tolerance at all.  The
Kochen-Specker decision is the library's realization search run on
`ks_support`, whose non-signaling realizations are the ray colorings.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import gcd
from typing import NamedTuple

from .systems import SupportSpec, make_support


class Zr2(NamedTuple):
    """The ring element a + b*sqrt(2)."""

    a: int
    b: int

    def __add__(self, other: "Zr2") -> "Zr2":
        return Zr2(self.a + other.a, self.b + other.b)

    def __mul__(self, other: "Zr2") -> "Zr2":
        # (a + b r)(c + d r) = (ac + 2bd) + (ad + bc) r, with r^2 = 2
        return Zr2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __neg__(self) -> "Zr2":
        return Zr2(-self.a, -self.b)

    def is_zero(self) -> bool:
        # sqrt(2) is irrational, so a + b*sqrt(2) = 0 forces a = b = 0
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        if self.a == 0 and self.b == 0:
            return 0
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.b == 0:
            return 1 if self.a > 0 else -1
        if (self.a > 0) == (self.b > 0):
            return 1 if self.a > 0 else -1
        # opposite signs: compare |a| with |b|*sqrt(2) via squares
        if self.a * self.a > 2 * self.b * self.b:
            return 1 if self.a > 0 else -1
        return 1 if self.b > 0 else -1

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        # A unit b-part prints as its sign alone: 1+√2, 1-√2, -√2.
        b = {1: "+", -1: "-"}.get(self.b, f"{self.b:+}")
        return f"{self.a or ''}{b}√2".removeprefix("+")


Z0 = Zr2(0, 0)
Z1 = Zr2(1, 0)
SQRT2 = Zr2(0, 1)


class Ray(NamedTuple):
    """A direction in Z[sqrt(2)]^3, canonical up to integer and sqrt(2)
    factors and sign.

    Built by `canonical_ray`, which rejects the zero vector.  Rays order
    as their coordinate tuples."""

    coords: tuple[Zr2, Zr2, Zr2]

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def canonical_ray(coords: tuple[Zr2, Zr2, Zr2]) -> Ray:
    """Reduce by common integer factor and sqrt(2), fix the leading sign."""
    cs = list(coords)
    if all(c.is_zero() for c in cs):
        raise ValueError("zero vector is not a ray")
    while True:
        g = 0
        for c in cs:
            g = gcd(g, c.a, c.b)
        if g > 1:
            cs = [Zr2(c.a // g, c.b // g) for c in cs]
        # divisible by sqrt(2) iff every a-part is even: (a + b r)/r = b + (a/2) r
        if any(c.a % 2 for c in cs):
            break
        cs = [Zr2(c.b, c.a // 2) for c in cs]
    lead = next(c for c in cs if not c.is_zero())
    if lead.sign() < 0:
        cs = [-c for c in cs]
    return Ray(coords=tuple(cs))


class Triad(NamedTuple):
    """Three pairwise-orthogonal rays, in canonical ray order."""

    rays: tuple[Ray, Ray, Ray]


def dot(u: Ray, v: Ray) -> Zr2:
    a = b = 0
    for (ua, ub), (va, vb) in zip(u.coords, v.coords):
        a, b = a + ua * va + 2 * ub * vb, b + ua * vb + ub * va
    return Zr2(a, b)


def _orbit(seed: tuple[Zr2, Zr2, Zr2]) -> set[Ray]:
    """Canonical rays in the seed's orbit under permutations and sign flips."""
    out: set[Ray] = set()
    for perm in permutations(range(3)):
        for signs in product((1, -1), repeat=3):
            v = tuple(
                seed[perm[i]] if signs[i] > 0 else -seed[perm[i]]
                for i in range(3)
            )
            out.add(canonical_ray(v))
    return out


def peres_rays() -> list[Ray]:
    """The 33 Peres rays: four orbit families, deduplicated and sorted.

    Families (counts after canonicalization): (0,0,1) gives 3, (0,1,1)
    gives 6, (0,1,sqrt2) gives 12, (1,1,sqrt2) gives 12.
    """
    seeds = [(Z0, Z0, Z1), (Z0, Z1, Z1), (Z0, Z1, SQRT2), (Z1, Z1, SQRT2)]
    rays: set[Ray] = set()
    for seed in seeds:
        rays |= _orbit(seed)
    return sorted(rays)


def cross(u: Ray, v: Ray) -> tuple[Zr2, Zr2, Zr2]:
    (u0, u1, u2), (v0, v1, v2) = u.coords, v.coords
    return (
        u1 * v2 + -(u2 * v1),
        u2 * v0 + -(u0 * v2),
        u0 * v1 + -(u1 * v0),
    )


def orthogonal_triads(rays: list[Ray]) -> list[Triad]:
    """Every orthogonal pair of the given rays closed into a triad, each
    triad once, sorted.

    A pair is closed by each given ray orthogonal to both or, when there is
    none, by the canonical ray of its cross product.  A triple inside the
    set closes each of its three pairs, and the set of triads holds it
    once.  Given rays close a pair by orthogonality, not by `Ray` equality:
    `canonical_ray` keeps the unit 1 + sqrt(2), so (0, 0, 1 + sqrt(2)) lies
    on the line of (0, 0, 1) but is another `Ray`.  On the 33 Peres rays
    this yields 16 internal triads plus 24 completions, the classic count
    of 40 triples over 57 rays.
    """
    given = set(rays)
    orth: dict[Ray, set[Ray]] = {u: set() for u in given}
    for u, v in combinations(given, 2):
        if dot(u, v).is_zero():
            orth[u].add(v)
            orth[v].add(u)
    return sorted({
        Triad(rays=tuple(sorted((u, v, w))))
        for u in given
        for v in orth[u]
        if u < v
        for w in orth[u] & orth[v] or {canonical_ray(cross(u, v))}
    })


RULES = {
    "exactly-one-zero": ("011", "101", "110"),
    "exactly-one-one": ("100", "010", "001"),
}


def ks_support(triads: list[Triad], rule: str = "exactly-one-zero") -> SupportSpec:
    """The support spec whose non-signaling realizations are the 0/1 ray
    colorings with one designated value per triad.

    rule "exactly-one-zero": each triad carries exactly one 0 and two 1s;
    "exactly-one-one" is the complement.  A-settings are the triads (labels
    "1".."T" in the given order); their outcomes are the rule's three
    patterns, read as the triad's ray values in canonical ray order.
    B-settings are every ray of every triad, closing rays included (labels
    "1".."R" in sorted ray order); outcomes are 0/1.  One context per
    (triad, ray on it) makes the ray's outcome the pattern's value there.
    A realization (f, g) is then a coloring g of the rays with f naming its
    pattern on each triad, so the realization search decides colorability.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    patterns = RULES[rule]
    rays = sorted({r for t in triads for r in t.rays})
    label = {r: str(j + 1) for j, r in enumerate(rays)}
    return make_support(
        "ks_support",
        {str(i + 1): patterns for i in range(len(triads))},
        {label[r]: ("0", "1") for r in rays},
        {
            (str(i + 1), label[r]): [(pat, pat[pos]) for pat in patterns]
            for i, t in enumerate(triads)
            for pos, r in enumerate(t.rays)
        },
    )


def build_ksp_support() -> SupportSpec:
    """The possibilistic 40-triad by 33-ray compound system.

    A-settings are the 40 triads (labels "1".."40" in canonical triad
    order); their outcomes are the patterns 011/101/110, read as the
    triad's ray values in canonical ray order.  B-settings are the 33 rays
    (labels "1".."33"); outcomes are 0/1.  When Bob's ray belongs to
    Alice's triad the outcomes must agree on that ray, which cuts the
    context support from 6 pairs to 3.
    """
    rays = peres_rays()
    triads = orthogonal_triads(rays)
    patterns = RULES["exactly-one-zero"]
    a_alphabet = {str(i + 1): patterns for i in range(len(triads))}
    b_alphabet = {str(j + 1): ("0", "1") for j in range(len(rays))}
    supports = {}
    for i, t in enumerate(triads):
        for j, r in enumerate(rays):
            if r in t.rays:
                pos = t.rays.index(r)
                supp = [(pat, pat[pos]) for pat in patterns]
            else:
                supp = [(pat, b) for pat in patterns for b in ("0", "1")]
            supports[(str(i + 1), str(j + 1))] = supp
    return make_support("ksp_support", a_alphabet, b_alphabet, supports)
