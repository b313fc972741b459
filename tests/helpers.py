"""Shared random generators, dense and sparse reference LPs and a 2xn oracle
for tests.

Non-signaling 2x2 binary systems are drawn by fixing exact rational
marginals per setting and a joint mass inside the Frechet bounds, so
non-signaling holds by construction with no tolerance.
"""

from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from pathlib import Path

from contextuality import feasibility, make_system, mix
from contextuality.feasibility import ONE, ZERO, FarkasCertificate, FeasibleSolution
from contextuality.systems import SupportSpec, SystemSpec

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


def perfect_chained_box(settings: int, outcomes: int) -> SystemSpec:
    """Settings "1".."n" per side, and b = a in every context but (1, 2),
    where b = a + 1 mod `outcomes`: no (f, g) fits its support."""
    alph = {str(i): tuple(map(str, range(outcomes))) for i in range(1, settings + 1)}
    return chained_box(alph, alph, outcomes, {("1", "2"): 1})


def checker_accepts(system: SystemSpec, coefficients, bound) -> bool:
    """Whether `check_witness` of perfbench/checker.py, which imports nothing
    from the library, accepts a witness of the system by brute force; the
    coefficients are keyed (context, a, b) as in `BellWitness`."""
    path = Path(__file__).parents[1] / "perfbench" / "checker.py"
    spec = importlib.util.spec_from_file_location("perfbench_checker", path)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    pmfs = {tuple(ctx): dict(system.pmfs[ctx]) for ctx in system.contexts}
    terms = {(ctx.x, ctx.y, a, b): c for (ctx, a, b), c in coefficients.items()}
    problem = checker.check_witness(system.a_alphabet, system.b_alphabet, pmfs, terms, bound)
    return problem is None


def every_pair(system: SystemSpec) -> list:
    """Every (context, pair) of the system, contexts in sorted order."""
    return [(ctx, pair) for ctx in system.contexts for pair in system.pairs(ctx)]


def restrict(system: SystemSpec, contexts) -> SystemSpec:
    """The system on a subset of its contexts, alphabets unchanged."""
    return make_system(
        system.name, system.a_alphabet, system.b_alphabet,
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
    `analysis.fine_oracle`, which reads the correlators through
    `expectation_product` and checks its input with `_require_valid`.
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


def full_membership_problem(system: SystemSpec, columns, supported):
    """The membership LP with a row for every supported (context, pair), the
    form the kept-row rule reduces: sparse rows, rhs and the row keys."""
    index = {key: i for i, key in enumerate(supported)}
    rows = [{} for _ in supported]
    for j, r in enumerate(columns):
        for key in r.values.items():
            rows[index[key]][j] = 1
    rows.append(dict.fromkeys(range(len(columns)), 1))
    return rows, [system.prob(ctx, pair) for ctx, pair in supported] + [ONE], supported


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


def sparse_rows(problem: FeasibilityProblem):
    """The arguments `solve_feasibility` takes for a dense problem."""
    rows = [{j: v for j, v in enumerate(row) if v} for row in problem.matrix]
    return rows, list(problem.rhs), problem.num_cols


def dense_problem(rows, rhs, num_cols: int) -> FeasibilityProblem:
    """The dense problem of `solve_feasibility`'s sparse arguments."""
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


def sparse_reference_solve(rows, rhs, num_cols: int) -> FeasibleSolution | FarkasCertificate:
    """Reference for `solve_feasibility` over dict rows {column: int}.

    The same phase-one simplex, pricing rule and integer scaling, with each
    tableau row a dict of its nonzero entries: the integers it stores are
    those of the list rows, so tests require equal outcomes, pivot counts
    and degenerate-pivot counts.  Reads DEGENERATE_RUN at call time.
    """
    m, n = len(rows), num_cols
    d_col = n + m
    rhs_scale = lcm(*(d.denominator for d in rhs))
    rhs = [d.numerator * (rhs_scale // d.denominator) for d in rhs]
    flip = [(-1 if d < 0 else 1) for d in rhs]
    tab = []
    for i, (row, d) in enumerate(zip(rows, rhs)):
        entries = [(j, v) for j, v in row.items() if v]
        entries.append((n + i, flip[i]))
        if d:
            entries.append((d_col, d))
        int_row = _dict_integer_row(entries)
        tab.append(int_row if flip[i] > 0 else {j: -v for j, v in int_row.items()})
    basis = [n + i for i in range(m)]

    scale = lcm(*(row[n + i] for i, row in enumerate(tab)))
    obj = {-1: scale}  # -1 holds the objective row's denominator
    for i, row in enumerate(tab):
        k = scale // row[n + i]
        for j, v in row.items():
            if j != n + i:
                obj[j] = obj.get(j, 0) - k * v
    obj = _dict_reduce({j: v for j, v in obj.items() if v})

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
    y = tuple(flip[i] * (ONE - Fraction(obj.get(n + i, 0), obj[-1])) for i in range(m))
    return FarkasCertificate(y=y, pivots=pivots, degenerate_pivots=degenerate)
