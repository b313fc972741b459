"""Shared random generators and mixtures, dense and sparse reference LPs,
a tableau builder for rational LPs, a 2x2 (Fine), a 2xn and a 3322 verdict
oracle, a Bell witness's score on a realization, and ray and coloring
helpers for the Peres tests.

Non-signaling 2x2 binary systems are drawn by fixing exact rational
marginals per setting and a joint mass inside the Frechet bounds, so
non-signaling holds by construction with no tolerance.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import contextuality
from contextuality import chsh, feasibility, make_system, mix_context_dependent
from contextuality.analysis import _require_nonsignaling
from contextuality.feasibility import SCALE, FarkasCertificate, FeasibleSolution, Tableau
from contextuality.peres import Ray, Triad, canonical_ray, cross, dot
from contextuality.systems import ONE, ZERO, SupportSpec, SystemSpec

BIN = ("0", "1")


def random_fraction(rng: random.Random, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def random_ns_2x2(rng: random.Random, name: str = "rand") -> SystemSpec:
    alpha = {x: random_fraction(rng) for x in ("1", "2")}
    beta = {y: random_fraction(rng) for y in ("1", "2")}
    pmfs = {}
    for x in ("1", "2"):
        for y in ("1", "2"):
            lo = max(Fraction(0), alpha[x] + beta[y] - 1)
            hi = min(alpha[x], beta[y])
            # lean on the Frechet endpoints so extremal (often contextual)
            # correlation patterns come up regularly
            roll = rng.random()
            if roll < Fraction(1, 3):
                t = Fraction(0)
            elif roll < Fraction(2, 3):
                t = Fraction(1)
            else:
                t = Fraction(rng.randint(0, 16), 16)
            p11 = lo + t * (hi - lo)
            pmfs[(x, y)] = {
                ("1", "1"): p11,
                ("1", "0"): alpha[x] - p11,
                ("0", "1"): beta[y] - p11,
                ("0", "0"): 1 - alpha[x] - beta[y] + p11,
            }
    alph = {"1": BIN, "2": BIN}
    return make_system(name, alph, alph, pmfs)


def random_shape(rng: random.Random, max_settings: int = 3, max_values: int = 3):
    na, nb = rng.randint(1, max_settings), rng.randint(1, max_settings)
    a_alph = {
        str(i + 1): tuple(str(v) for v in range(rng.randint(2, max_values)))
        for i in range(na)
    }
    b_alph = {
        str(j + 1): tuple(str(v) for v in range(rng.randint(2, max_values)))
        for j in range(nb)
    }
    return a_alph, b_alph


def random_deterministic_ns(rng: random.Random, a_alph, b_alph) -> SystemSpec:
    contexts = [(x, y) for x in a_alph for y in b_alph]
    f = {x: rng.choice(a_alph[x]) for x in a_alph}
    g = {y: rng.choice(b_alph[y]) for y in b_alph}
    pmfs = {c: {(f[c[0]], g[c[1]]): Fraction(1)} for c in contexts}
    return make_system("det", a_alph, b_alph, pmfs)


def mix(
    components: list[tuple[SystemSpec, Fraction]], name: str = "mixture"
) -> SystemSpec:
    """Context-wise convex combination of systems sharing one shape."""
    if not components:
        raise ValueError("empty mixture")
    rule = {ctx: components for ctx in components[0][0].contexts}
    return mix_context_dependent(rule, name=name)


def random_ns_mixture(rng: random.Random, max_components: int = 5) -> SystemSpec:
    a_alph, b_alph = random_shape(rng)
    k = rng.randint(1, max_components)
    systems = [random_deterministic_ns(rng, a_alph, b_alph) for _ in range(k)]
    weights = [rng.randint(1, 9) for _ in range(k)]
    total = sum(weights)
    return mix(
        [(s, Fraction(w, total)) for s, w in zip(systems, weights)],
        name="random-mixture",
    )


def uniform_system(a_alph, b_alph) -> SystemSpec:
    """Every outcome pair equally likely in every context."""
    pmfs = {}
    for x in a_alph:
        for y in b_alph:
            share = Fraction(1, len(a_alph[x]) * len(b_alph[y]))
            pmfs[(x, y)] = {(a, b): share for a in a_alph[x] for b in b_alph[y]}
    return make_system("uniform", a_alph, b_alph, pmfs)


def child_env() -> dict[str, str]:
    """The environment, with this package importable by a child interpreter."""
    paths = [str(Path(contextuality.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def nested(kind, depth):
    """'0' inside `depth` one-item lists or tuples: a refused label deeper
    than refusals quote."""
    value = "0"
    for _ in range(depth):
        value = kind((value,))
    return value


def noisy_mixture(rng: random.Random, a_alph, b_alph) -> SystemSpec:
    """6 random deterministic systems at 1/8 each plus the uniform system
    at 1/4: full support, and an interior point of the LP's feasible set."""
    parts = [(random_deterministic_ns(rng, a_alph, b_alph), Fraction(1, 8)) for _ in range(6)]
    return mix(parts + [(uniform_system(a_alph, b_alph), Fraction(1, 4))], name="noisy")


def chained_box(a_alph, b_alph, k: int, shifts) -> SystemSpec:
    """Outcomes "0".."k-1", a uniform and b = a + shifts.get((x, y), 0) mod k.

    Uniform marginals make it non-signaling.  With settings 1 and 2 on
    each side and one of their four contexts shifted by one, it is a
    chained box and contextual: the four conditions sum to a
    contradiction mod k, so a local mixture meets at most three.
    """
    pmfs = {}
    for x in a_alph:
        for y in b_alph:
            shift = shifts.get((x, y), 0)
            pmfs[(x, y)] = {
                (str(a), str((a + shift) % k)): Fraction(1, k) for a in range(k)
            }
    return make_system(f"chained-{k}", a_alph, b_alph, pmfs)


def full_support(system: SystemSpec) -> SupportSpec:
    """The system's shape with every alphabet pair allowed in every context."""
    return SupportSpec(
        name=system.name,
        a_alphabet=system.a_alphabet,
        b_alphabet=system.b_alphabet,
        supports={ctx: frozenset(system.pairs(ctx)) for ctx in system.contexts},
    )


def realization_score(witness, realization) -> Fraction:
    """A Bell witness's score on a realization read as a 0/1 pmf: the sum of
    the coefficients at (f[x], g[y]) in each context (x, y)."""
    f, g = realization.f, realization.g
    return sum(
        (c for (ctx, a, b), c in witness.coefficients.items() if (f[ctx.x], g[ctx.y]) == (a, b)),
        ZERO,
    )


def perfect_chained_box(settings: int, outcomes: int) -> SystemSpec:
    """Settings "1".."n" per side, and b = a in every context but (1, 2),
    where b = a + 1 mod `outcomes`: no (f, g) fits its support."""
    alph = {str(i): tuple(map(str, range(outcomes))) for i in range(1, settings + 1)}
    return chained_box(alph, alph, outcomes, {("1", "2"): 1})


@cache
def _perfbench_checker():
    path = Path(__file__).parents[1] / "perfbench" / "checker.py"
    spec = importlib.util.spec_from_file_location("perfbench_checker", path)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    return checker


def checker_accepts(system: SystemSpec, coefficients, bound) -> bool:
    """Whether `check_witness` of perfbench/checker.py, which imports nothing
    from the library, accepts a witness of the system by brute force; the
    coefficients are keyed (context, a, b) as in `BellWitness`."""
    checker = _perfbench_checker()
    pmfs = {tuple(ctx): dict(system.pmfs[ctx]) for ctx in system.contexts}
    terms = {(ctx.x, ctx.y, a, b): c for (ctx, a, b), c in coefficients.items()}
    problem = checker.check_witness(system.a_alphabet, system.b_alphabet, pmfs, terms, bound)
    return problem is None


def benchmark_systems(workload: str, seed: int = 1) -> list[SystemSpec]:
    """The systems perfbench/gen.py draws for a workload: the 2,000 of
    `batch-2x2`, or the 8 draws of every `ladder` rung, as the benchmark
    builds them."""
    perfbench = str(Path(__file__).parents[1] / "perfbench")
    sys.path.insert(0, perfbench)  # gen.py imports checker.py by name
    try:
        gen = importlib.import_module("gen")
    finally:
        sys.path.remove(perfbench)
    if workload == "batch-2x2":
        cases = gen.batch_cases(seed)
    else:
        cases = [case for cases in gen.ladder_passes(seed, 8) for case in cases]
    return [make_system(c.name, c.a_alph, c.b_alph, c.pmfs) for c in cases]


def every_pair(system: SystemSpec) -> list:
    """Every (context, pair) of the system, contexts in sorted order."""
    return [(ctx, pair) for ctx in system.contexts for pair in system.pairs(ctx)]


def covered(a_alph, b_alph, contexts):
    """Each side's alphabet cut to the settings the contexts hold: every
    setting a spec declares must be in one of its contexts."""
    xs, ys = {ctx[0] for ctx in contexts}, {ctx[1] for ctx in contexts}
    return (
        {x: outcomes for x, outcomes in a_alph.items() if x in xs},
        {y: outcomes for y, outcomes in b_alph.items() if y in ys},
    )


def restrict(system: SystemSpec, contexts) -> SystemSpec:
    """The system on a subset of its contexts, alphabets cut to their settings."""
    return make_system(
        system.name, *covered(system.a_alphabet, system.b_alphabet, contexts),
        {tuple(ctx): system.pmfs[ctx] for ctx in contexts},
    )


def chsh_2xn_oracle(system: SystemSpec) -> str:
    """Verdict of a non-signaling system with two binary A-settings, binary
    B-settings and every context: noncontextual iff the CHSH value of every
    2x2 sub-box, settings {1, 2} x {y, y'}, is at most 2.

    Why this suffices: with the marginals as a root node, the local
    polytope is the cut polytope of the complete tripartite graph K_{1,2,n}
    (the covariance map).  That graph has no K5 minor (without its root it
    is K_{2,n}, which has no K4 minor), so cycle inequalities on chordless
    cycles describe its cut polytope (Barahona & Mahjoub, "On the cut
    polytope", Math. Programming 36 (1986) 157-173).  Its chordless cycles
    are the triangles through the root, whose inequalities say that
    probabilities are nonnegative, and the 4-cycles x1-y-x2-y'-x1, whose
    inequalities are the CHSH inequalities of that sub-box.  For n = 2
    this is Fine's theorem (Phys. Rev. Lett. 48 (1982) 291).

    Written from the pmfs alone, with no call into the library: outcomes
    are coded -1 and +1 by their place in the alphabet.  That is why it
    stays a test reference for `classify` rather than a widened
    `fine_oracle`, which reads the correlators through `chsh` and refuses
    signaling input first.
    """
    xs, ys = system.a_settings, system.b_settings
    alphabets = list(system.a_alphabet.values()) + list(system.b_alphabet.values())
    if len(xs) != 2 or len(system.contexts) != 2 * len(ys) or {len(al) for al in alphabets} != {2}:
        raise ValueError("the oracle needs two binary A-settings, binary B-settings and every context")

    def correlator(x, y):
        a_alph, b_alph = system.a_alphabet[x], system.b_alphabet[y]
        return sum(
            (p if a_alph.index(a) == b_alph.index(b) else -p)
            for (a, b), p in system.pmfs[(x, y)].items()
        )

    for y, y2 in combinations(ys, 2):
        corr = [correlator(x, yy) for x in xs for yy in (y, y2)]
        total = sum(corr)
        if any(abs(total - 2 * c) > 2 for c in corr):
            return "contextual"
    return "noncontextual"


def fine_oracle(system: SystemSpec) -> str:
    """Independent 2x2-binary oracle: noncontextual iff all CHSH values <= 2.

    Raises SignalingSystemError on signaling input.
    """
    _require_nonsignaling(system)
    return "noncontextual" if chsh(system) <= 2 else "contextual"


# The 3322 scenario: three binary settings per side.  In Collins-Gisin
# coordinates a system is q = (pA(x), pB(y), pAB(x, y)), the chances of
# each setting's first outcome and of both first outcomes, x and y in
# (0, 1, 2); the form (k, alpha, beta, gamma) of an inequality stands for
# k + alpha . pA + beta . pB + gamma . pAB <= 0, a tuple of 16 ints.
# The seeds, in Collins & Gisin's table layout (arXiv:quant-ph/0306129):
# [k, beta row, then per x: alpha[x] followed by gamma[x][y]].
_SEEDS_3322 = {
    "positivity": [0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    "chsh": [0, -1, 0, 0, -1, 1, 1, 0, 0, 1, -1, 0, 0, 0, 0, 0],
    "i3322": [0, -1, 0, 0, -2, 1, 1, 1, -1, 1, 1, -1, 0, 1, -1, 0],
}


def _form(table) -> tuple[int, ...]:
    """The (k, alpha, beta, gamma) form of a seed in table layout."""
    k, beta, rows = table[0], table[1:4], [table[4 + 4 * x:8 + 4 * x] for x in range(3)]
    return (k, *(row[0] for row in rows), *beta, *(c for row in rows for c in row[1:]))


def _full_terms(form) -> tuple[int, dict]:
    """One expression of a form over full probabilities P(a, b|x, y),
    outcomes by index: pA(x) = P(0, 0|x, 0) + P(0, 1|x, 0), pB(y) =
    P(0, 0|0, y) + P(1, 0|0, y) and pAB(x, y) = P(0, 0|x, y).  On
    non-signaling systems every such expression agrees."""
    k, alpha, beta, gamma = form[0], form[1:4], form[4:7], form[7:]
    terms: Counter = Counter()
    for x in range(3):
        for b in (0, 1):
            terms[(x, 0, 0, b)] += alpha[x]
    for y in range(3):
        for a in (0, 1):
            terms[(0, y, a, 0)] += beta[y]
    for x in range(3):
        for y in range(3):
            terms[(x, y, 0, 0)] += gamma[3 * x + y]
    return k, terms


def _cg_form(k: int, terms: dict) -> tuple[int, ...]:
    """The form of k + sum of c P(a, b|x, y): with s_a = 1 at a = 0 and -1
    at a = 1, P(a, b|x, y) is s_a s_b pAB + s_a [b = 1] pA + s_b [a = 1] pB
    + [a = b = 1]."""
    form = [k] + [0] * 15
    for (x, y, a, b), c in terms.items():
        sa, sb = 1 - 2 * a, 1 - 2 * b
        form[7 + 3 * x + y] += sa * sb * c
        form[1 + x] += sa * b * c
        form[4 + y] += sb * a * c
        form[0] += a * b * c
    return tuple(form)


# Generators of the scenario's symmetries, on a full probability's labels
# (x, y, a, b): two permutations of each side's settings, relabeling the
# outcomes of each side's first setting, and swapping the parties.
_SYMMETRIES_3322 = [
    lambda x, y, a, b: ((1, 0, 2)[x], y, a, b),
    lambda x, y, a, b: ((1, 2, 0)[x], y, a, b),
    lambda x, y, a, b: (x, (1, 0, 2)[y], a, b),
    lambda x, y, a, b: (x, (1, 2, 0)[y], a, b),
    lambda x, y, a, b: (x, y, a ^ (x == 0), b),
    lambda x, y, a, b: (x, y, a, b ^ (y == 0)),
    lambda x, y, a, b: (y, x, b, a),
]


@cache
def facets_3322() -> Mapping[str, tuple[tuple[int, ...], ...]]:
    """Every facet of the 3322 local polytope, per orbit of its seed
    (`_SEEDS_3322`) under setting permutations, per-setting outcome
    relabelings and the party swap; sorted forms.  Collins & Gisin list 684:
    36 positivity, 72 CHSH and 576 I3322 facets."""
    orbits = {}
    for name, seed in _SEEDS_3322.items():
        orbit = {_form(seed)}
        todo = list(orbit)
        while todo:
            k, terms = _full_terms(todo.pop())
            for move in _SYMMETRIES_3322:
                image = _cg_form(k, {move(*label): c for label, c in terms.items()})
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        orbits[name] = tuple(sorted(orbit))
    return MappingProxyType(orbits)  # cached: shared by every caller


def deterministic_3322() -> list[tuple[int, ...]]:
    """The 64 deterministic points (1, pA, pB, pAB), f and g the outcome
    indices of each side's settings; a form's value is its dot product."""
    points = []
    for f in product((0, 1), repeat=3):
        for g in product((0, 1), repeat=3):
            p_a, p_b = [int(a == 0) for a in f], [int(b == 0) for b in g]
            points.append((1, *p_a, *p_b, *(pa * pb for pa in p_a for pb in p_b)))
    return points


def cg_point_3322(system: SystemSpec) -> tuple[Fraction, ...]:
    """(1, pA, pB, pAB) of a non-signaling 3322 system, read off its pmfs
    alone, outcomes by their place in the alphabet."""
    xs, ys = system.a_settings, system.b_settings
    alphabets = list(system.a_alphabet.values()) + list(system.b_alphabet.values())
    if (len(xs), len(ys), len(system.contexts)) != (3, 3, 9) or {len(al) for al in alphabets} != {2}:
        raise ValueError("the 3322 oracle needs three binary settings per side and every context")
    first_a = {x: system.a_alphabet[x][0] for x in xs}
    first_b = {y: system.b_alphabet[y][0] for y in ys}
    pmfs = system.pmfs
    p_a = [sum((p for (a, _), p in pmfs[(x, ys[0])].items() if a == first_a[x]), ZERO) for x in xs]
    p_b = [sum((p for (_, b), p in pmfs[(xs[0], y)].items() if b == first_b[y]), ZERO) for y in ys]
    p_ab = [pmfs[(x, y)].get((first_a[x], first_b[y]), ZERO) for x in xs for y in ys]
    return (ONE, *p_a, *p_b, *p_ab)


def violated_3322(point) -> list[tuple[str, tuple[int, ...]]]:
    """The (orbit, form) of every facet (`facets_3322`) that a point (1, pA,
    pB, pAB) violates, read over its entries' common denominator."""
    point = [Fraction(v) for v in point]
    scale = lcm(*(v.denominator for v in point))
    q = [v.numerator * (scale // v.denominator) for v in point]
    return [
        (name, form)
        for name, orbit in facets_3322().items()
        for form in orbit
        if sum(map(mul, form, q)) > 0
    ]


def local_3322_oracle(system: SystemSpec) -> str:
    """Verdict of a non-signaling 3322 system, with no LP and no call into
    the library: noncontextual iff it satisfies every facet of the local
    polytope (`facets_3322`).  Those facets are the whole description, so
    a system outside the polytope violates one of them."""
    return "contextual" if violated_3322(cg_point_3322(system)) else "noncontextual"


def system_3322(point, name: str = "3322") -> SystemSpec:
    """The 3322 system, settings "1".."3" and outcomes ("0", "1"), at a
    point (1, pA, pB, pAB) whose entries are rational: each P(a, b|x, y)
    from the Collins-Gisin expansion (`_cg_form`)."""
    p_a, p_b, p_ab = point[1:4], point[4:7], point[7:]
    pmfs = {}
    for x in range(3):
        for y in range(3):
            both = p_ab[3 * x + y]
            pmf = {
                ("0", "0"): both,
                ("0", "1"): p_a[x] - both,
                ("1", "0"): p_b[y] - both,
                ("1", "1"): 1 - p_a[x] - p_b[y] + both,
            }
            pmfs[(str(x + 1), str(y + 1))] = {pair: Fraction(p) for pair, p in pmf.items() if p}
    alph = {str(i): BIN for i in range(1, 4)}
    return make_system(name, alph, alph, pmfs)


def reproduces_by_fraction_sums(system: SystemSpec, decomposition) -> bool:
    """The definition of a decomposition reproducing a system, over
    Fractions: positive weights summing to 1, and one sum per (context,
    pair) of the alphabet product."""
    weights = [w for _, w in decomposition.components]
    if sum(weights, ZERO) != 1 or any(w <= 0 for w in weights):
        return False
    return all(
        sum((w for r, w in decomposition.components if r.values[ctx] == pair), ZERO)
        == system.pmfs[ctx].get(pair, ZERO)
        for ctx in system.contexts
        for pair in system.pairs(ctx)
    )


@cache
def _orthogonal(u, v) -> bool:
    return dot(u, v).is_zero()


def reference_orthogonal_triads(rays) -> list:
    """`peres.orthogonal_triads` as first defined: every pairwise
    orthogonal triple inside the set, then each orthogonal pair lying in
    none of them closed by the canonical ray of its cross product; rays
    ordered by their (a, b) coordinate pairs, triads by their rays'."""

    def key(ray):
        return tuple((c.a, c.b) for c in ray.coords)

    ordered = sorted(set(rays), key=key)
    orth = {(u, v) for u, v in combinations(ordered, 2) if _orthogonal(u, v)}
    triads, used = [], set()
    for u, v in orth:
        for w in ordered:
            # (u, w) and (v, w) in `orth` put w after v: each triple once
            if (u, w) in orth and (v, w) in orth:
                triads.append(Triad(rays=(u, v, w)))
                used |= {(u, v), (u, w), (v, w)}
    for u, v in orth - used:
        triads.append(Triad(rays=tuple(sorted((u, v, canonical_ray(cross(u, v))), key=key))))
    return sorted(triads, key=lambda t: tuple(map(key, t.rays)))


def collinear(u: Ray, v: Ray) -> bool:
    """Cross product zero, tested exactly in the ring."""
    return all(c.is_zero() for c in cross(u, v))


def coloring_from_ns_function(f: dict[str, str], triads: list[Triad]) -> dict[Ray, int]:
    """Read a per-triad pattern choice as a per-ray 0/1 valuation.

    Raises if two triads sharing a ray disagree, which is exactly what the
    Kochen-Specker obstruction forbids.
    """
    values: dict[Ray, int] = {}
    for i, t in enumerate(triads):
        pattern = f[str(i + 1)]
        for pos, r in enumerate(t.rays):
            v = int(pattern[pos])
            if values.setdefault(r, v) != v:
                raise ValueError(f"inconsistent valuation at ray {r}")
    return values


def full_membership_problem(system: SystemSpec, columns, supported):
    """The membership LP with a row for every supported (context, pair), the
    form the kept-row rule reduces: sparse rows, rhs and the row keys."""
    index = {key: i for i, key in enumerate(supported)}
    rows = [{} for _ in supported]
    for j, r in enumerate(columns):
        for key in r.values.items():
            rows[index[key]][j] = 1
    rows.append(dict.fromkeys(range(len(columns)), 1))
    return rows, [system.pmfs[ctx].get(pair, ZERO) for ctx, pair in supported] + [ONE], supported


@dataclass(frozen=True)
class FeasibilityProblem:
    """Find p >= 0 with matrix @ p == rhs (all entries Fraction), dense."""

    matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.matrix) != len(self.rhs):
            raise ValueError(
                f"{len(self.matrix)} rows but {len(self.rhs)} rhs entries"
            )
        widths = {len(row) for row in self.matrix}
        if len(widths) > 1:
            raise ValueError("ragged constraint matrix")

    @property
    def num_rows(self) -> int:
        return len(self.matrix)

    @property
    def num_cols(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0


def make_problem(matrix, rhs) -> FeasibilityProblem:
    """The dense problem with every entry exact."""
    return FeasibilityProblem(
        matrix=tuple(tuple(Fraction(v) for v in row) for row in matrix),
        rhs=tuple(Fraction(v) for v in rhs),
    )


def nonnegative_problem(matrix, rhs) -> FeasibilityProblem:
    """`make_problem`, with each row whose rhs is negative negated: the same
    solutions, and a right-hand side a tableau takes."""
    signs = [-1 if d < 0 else 1 for d in rhs]
    return make_problem(
        [[s * v for v in row] for s, row in zip(signs, matrix)],
        [s * d for s, d in zip(signs, rhs)],
    )


def sparse_rows(problem: FeasibilityProblem):
    """The arguments `rational_tableau` and `sparse_reference_solve` take
    for a dense problem."""
    rows = [{j: v for j, v in enumerate(row) if v} for row in problem.matrix]
    return rows, list(problem.rhs), problem.num_cols


def incidence_rows(columns, rhs, denominator):
    """The sparse rows, rhs and column count of `incidence_tableau`'s
    arguments: column j has a 1 in each row columns[j] lists and in a last
    normalization row, and the rhs is rhs, then 1, over `denominator`."""
    rows = [{} for _ in rhs] + [dict.fromkeys(range(len(columns)), 1)]
    for j, column in enumerate(columns):
        for i in column:
            rows[i][j] = 1
    return rows, [Fraction(d, denominator) for d in rhs] + [ONE], len(columns)


def dense_problem(rows, rhs, num_cols: int) -> FeasibilityProblem:
    """The dense problem of `rational_tableau`'s sparse arguments."""
    return make_problem([[row.get(j, 0) for j in range(num_cols)] for row in rows], rhs)


def verify(
    problem: FeasibilityProblem,
    outcome: FeasibleSolution | FarkasCertificate,
) -> bool:
    """Re-check the defining (in)equalities exactly, independent of the solver."""
    m, n = problem.num_rows, problem.num_cols
    if isinstance(outcome, FeasibleSolution):
        if len(outcome.p) != n or any(v < 0 for v in outcome.p):
            return False
        for row, d in zip(problem.matrix, problem.rhs):
            if sum(r * v for r, v in zip(row, outcome.p)) != d:
                return False
        return True
    if isinstance(outcome, FarkasCertificate):
        if len(outcome.y) != m:
            return False
        for j in range(n):
            if sum(outcome.y[i] * problem.matrix[i][j] for i in range(m)) > 0:
                return False
        return sum(y * d for y, d in zip(outcome.y, problem.rhs)) > 0
    return False


def dense_bland_solve(problem: FeasibilityProblem) -> FeasibleSolution | FarkasCertificate:
    """Reference phase-one simplex on a dense `Fraction` tableau.

    Bland's rule, which `solve_feasibility` falls back to, in the plainest
    form: with the fallback taken from the first pivot, tests require the
    two to return equal outcomes.
    """
    m, n = problem.num_rows, problem.num_cols
    flip = [(-1 if problem.rhs[i] < 0 else 1) for i in range(m)]
    # Tableau columns: n original variables, m artificials, then rhs.
    tab = [
        [flip[i] * v for v in problem.matrix[i]]
        + [ONE if j == i else ZERO for j in range(m)]
        + [flip[i] * problem.rhs[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]

    # Reduced costs of "minimize the sum of artificials" on the artificial basis.
    obj = [ZERO] * (n + m) + [ZERO]
    for j in range(n + m):
        cj = ZERO if j < n else ONE
        obj[j] = cj - sum(tab[i][j] for i in range(m))
    obj[n + m] = -sum(tab[i][n + m] for i in range(m))

    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][n + m] / tab[i][enter]
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:
            raise RuntimeError("phase-one simplex reported unbounded")
        pivot = tab[leave][enter]
        tab[leave] = [v / pivot for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        f = obj[enter]
        obj = [v - f * w for v, w in zip(obj, tab[leave])]
        basis[leave] = enter

    if obj[n + m] == 0:
        p = [ZERO] * n
        for i, b in enumerate(basis):
            if b < n:
                p[b] = tab[i][n + m]
        return FeasibleSolution(p=tuple(p))
    # y_j = c_j - obj[n + j] on the artificial columns, rows flipped back.
    return FarkasCertificate(y=tuple(flip[i] * (ONE - obj[n + i]) for i in range(m)))


def _dict_integer_row(entries) -> dict[int, int]:
    scale = lcm(*(v.denominator for _, v in entries))
    return _dict_reduce({j: v.numerator * (scale // v.denominator) for j, v in entries})


def _dict_reduce(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _dict_combine(row: dict[int, int], a: int, pivot_row: dict[int, int], p: int):
    g = gcd(p, a)
    p, a = p // g, a // g
    out = {j: p * v for j, v in row.items()} if p != 1 else dict(row)
    for j, w in pivot_row.items():
        v = out.get(j, 0) - a * w
        if v:
            out[j] = v
        else:
            del out[j]
    return _dict_reduce(out)


def _phase_one_rows(rows, rhs, num_cols: int):
    """The phase-one tableau of M p = d, p >= 0, from sparse rational rows,
    as dict rows {column: int} of its nonzero entries.

    Row i of M is rows[i], {column: int or Fraction} with columns in
    [0, num_cols); d is rhs, nonnegative.  With D the lcm of d's
    denominators, tableau row i is the rational row (M_i, e_i, D d_i) times
    the lcm of its denominators, which leaves its gcd 1.  The objective
    holds the phase-one reduced costs on the artificial basis, minus the
    sum of the rational rows and 0 on the artificials, times a positive
    denominator kept at SCALE.  Returns the rows, the objective and D.
    """
    if min(rhs, default=0) < 0:
        raise ValueError("the right-hand side must be nonnegative")
    m, n = len(rows), num_cols
    d_col = n + m
    rhs_scale = lcm(*(d.denominator for d in rhs))
    tab = []
    for i, (row, d) in enumerate(zip(rows, rhs)):
        entries = [(j, v) for j, v in row.items() if v] + [(n + i, ONE)]
        if d:
            entries.append((d_col, d * rhs_scale))
        tab.append(_dict_integer_row(entries))
    scale = lcm(*(row[n + i] for i, row in enumerate(tab)))
    obj = {SCALE: scale}
    for i, row in enumerate(tab):
        k = scale // row[n + i]
        for j, v in row.items():
            if j != n + i:
                obj[j] = obj.get(j, 0) - k * v
    return tab, _dict_reduce({j: v for j, v in obj.items() if v}), rhs_scale


def rational_tableau(rows, rhs, num_cols: int) -> Tableau:
    """The library's `Tableau` of `_phase_one_rows`' problem, for tests of
    `solve_feasibility` on rational and general-integer LPs: its integers
    are those `sparse_reference_solve` starts from."""
    tab, obj, rhs_scale = _phase_one_rows(rows, rhs, num_cols)
    width = num_cols + len(rows) + 2

    def listed(row):
        out = [0] * width
        for j, v in row.items():
            out[j] = v
        return out

    return Tableau([listed(row) for row in tab], listed(obj), num_cols, rhs_scale)


def sparse_reference_solve(rows, rhs, num_cols: int) -> FeasibleSolution | FarkasCertificate:
    """Reference for `solve_feasibility` over dict rows {column: int}.

    The same phase-one simplex, pricing rule and integer scaling, with each
    tableau row a dict of its nonzero entries: the integers it stores are
    those of the list rows, so tests require equal outcomes, pivot counts
    and degenerate-pivot counts.  Reads DEGENERATE_RUN at call time.
    """
    tab, obj, rhs_scale = _phase_one_rows(rows, rhs, num_cols)
    m, n = len(rows), num_cols
    d_col = n + m
    basis = [n + i for i in range(m)]

    pivots = degenerate = run = 0
    while True:
        negative = [j for j, v in obj.items() if v < 0 and j != d_col]
        if not negative:
            break
        if run < feasibility.DEGENERATE_RUN:
            enter = min(negative, key=lambda j: (obj[j], j))
        else:
            enter = min(negative)
        leave = None
        for i, row in enumerate(tab):
            e = row.get(enter, 0)
            if e > 0:
                d = row.get(d_col, 0)
                if leave is None:
                    leave, num, den = i, d, e
                    continue
                left, right = d * den, num * e
                if left < right or (left == right and basis[i] < basis[leave]):
                    leave, num, den = i, d, e
        if leave is None:
            raise RuntimeError("phase-one simplex reported unbounded")
        pivots += 1
        if num == 0:
            degenerate += 1
            run += 1
        else:
            run = 0
        pivot_row = tab[leave]
        p = pivot_row[enter]
        for i, row in enumerate(tab):
            a = row.get(enter)
            if a and i != leave:
                tab[i] = _dict_combine(row, a, pivot_row, p)
        obj = _dict_combine(obj, obj[enter], pivot_row, p)
        basis[leave] = enter

    if d_col not in obj:
        solution = [ZERO] * n
        for row, b in zip(tab, basis):
            if b < n and d_col in row:
                solution[b] = Fraction(row[d_col], row[b] * rhs_scale)
        return FeasibleSolution(p=tuple(solution), pivots=pivots, degenerate_pivots=degenerate)
    y = tuple(ONE - Fraction(obj.get(n + i, 0), obj[SCALE]) for i in range(m))
    return FarkasCertificate(y=y, pivots=pivots, degenerate_pivots=degenerate)
