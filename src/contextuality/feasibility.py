"""Exact rational linear feasibility with Farkas certificates.

Decides whether M p = d has a solution p >= 0, by an exact fraction-free
phase-one simplex.  The problem is first built into a `Tableau`, the one
value `solve_feasibility` takes.  Its builder, `incidence_tableau`, takes
a 0/1 M with a last row of all 1s (the membership LP's shape): for each
column the rows holding its 1s, and d as nonnegative integers over a known
denominator D.  It writes the 1s and the unit artificials straight into
the rows, with no rational work per entry.  Each tableau row is a list of
integers, a positive multiple of the rational row, with one slot per
column: the n originals, the m artificials, the right-hand side, and a
last slot that only the objective row fills (its scale).  A pivot on entry
p of row r at column e lists the nonzero entries of row r once, then sets
every other row with a nonzero at e to p*row - row[e]*row_r, after
dividing p and row[e] by their gcd (fraction-free elimination in the style
of Edmonds 1967 and Bareiss 1968), and divides out the row's gcd.  When p
comes out 1, as it mostly does on small membership LPs, row -
row[e]*row_r differs from row only where row r is nonzero, so just those
entries are updated, in place; otherwise the row is rebuilt whole.  On
that in-place path the row's scale (its entry in its basic column, or the
objective's SCALE slot) keeps its value, as the pivot row is 0 there; the
row's gcd divides it, so a scale of 1, as most rows have on membership
LPs, leaves a gcd of 1 and none is taken.  Zero entries change no gcd,
so every stored integer, and with it every pivot and result, is what a
tableau of sparse {column: int} rows would hold.  The ratio test
cross-multiplies.  Positive row scales change no sign or ratio the
pivoting rules read, so pivots and results are those of the rational
tableau.

The tableau's right-hand side is D d, so the 0/1 rows start out integer
with a unit artificial, and the solution is divided by D at the end.
Scaling d by a positive constant scales every rhs entry of every
tableau and nothing else: reduced costs do not read d, ratio-test ratios
all scale by D, so the same row wins with the same ties, and a step is
zero exactly when it was.  The pivots and the Farkas vector are thus those
of the unscaled problem, and its solution is the scaled one divided by D.

Pricing follows Dantzig's rule: the column with the most negative reduced
cost enters, ties to the lowest index.  After DEGENERATE_RUN degenerate
pivots in a row (pivots whose step is zero) it falls back to Bland's rule,
the lowest-index column with negative reduced cost, until the next
non-degenerate pivot.  The ratio test always breaks ties by the lowest
basic index.  This terminates: a non-degenerate pivot strictly lowers the
phase-one objective, so no basis recurs across one, and there are finitely
many bases; between two of them Dantzig's rule makes at most DEGENERATE_RUN
degenerate pivots, and the Bland stretch that follows cannot cycle (Bland
1977), so it ends in a non-degenerate pivot or at the optimum.  A tableau
that breaks either fact raises RuntimeError instead of cycling: each pivot
checks that the phase-one objective stays >= 0 and falls exactly when the
point moves, and that no basis recurs within a Bland stretch.

Infeasible problems yield a dual vector y with y^T M <= 0 and y^T d > 0,
extracted from the final tableau.  Callers check the outcomes they use:
`classify` checks its decomposition and witness against the input system.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

ZERO = Fraction(0)
SCALE = -1  # slot of the objective row that holds its denominator
# Degenerate pivots in a row after which pricing falls back from Dantzig's
# rule to Bland's, until the next pivot that moves the point.
DEGENERATE_RUN = 50


# The outcomes' equality and hash read only the vector: the pivot counts
# say how the solve went, not what it found.  An outcome equals only an
# outcome of its own type.
def _same_vector(self, other) -> bool:
    return type(other) is type(self) and self[0] == other[0]


def _other_vector(self, other) -> bool:
    return not _same_vector(self, other)


def _vector_hash(self) -> int:
    return hash(self[0])


class FeasibleSolution(NamedTuple):
    p: tuple[Fraction, ...]
    pivots: int = 0
    degenerate_pivots: int = 0

    __eq__, __ne__, __hash__ = _same_vector, _other_vector, _vector_hash


class FarkasCertificate(NamedTuple):
    y: tuple[Fraction, ...]
    pivots: int = 0
    degenerate_pivots: int = 0

    __eq__, __ne__, __hash__ = _same_vector, _other_vector, _vector_hash


def _reduce(row: list[int]) -> list[int]:
    g = gcd(*row)
    if g > 1:
        return [v // g for v in row]
    return row


def _combine(row: list[int], a: int, pivot_row: list[int], p: int, nonzeros, scale: int):
    """p*row - a*pivot_row over the smallest integers: p and a are divided
    by their gcd, and the row by its gcd.  `nonzeros` lists the (column,
    entry) pairs of pivot_row's nonzero entries; when p comes out 1, only
    those columns change, in place.

    `scale` is the slot of the row's positive scale: its basic column, or
    SCALE for the objective.  pivot_row is 0 there, so when p is 1 the entry
    keeps its value, and the new row's gcd divides it; if it is 1, so is the
    gcd, and the row is returned as it is."""
    g = gcd(p, a)
    p, a = p // g, a // g
    if p == 1:
        for j, w in nonzeros:
            row[j] -= a * w
        if row[scale] == 1:
            return row
    else:
        row = [p * v - a * w for v, w in zip(row, pivot_row)]
    return _reduce(row)


class Tableau(NamedTuple):
    """A phase-one tableau, ready to solve (module docstring).

    `rows` are the constraint rows and `objective` the objective row, each
    a list of integers of one width; artificial i is basic in row i, and
    row i's entry there is its positive scale.  `objective` holds the
    phase-one reduced costs times its positive SCALE slot.  The right-hand
    side is the problem's times `denominator`, and nonnegative.  Solving
    pivots the rows in place, so a tableau is solved once: solving it again
    raises ValueError.
    """

    rows: list[list[int]]
    objective: list[int]
    num_cols: int
    denominator: int


def incidence_tableau(columns: list[list[int]], rhs: list[int], denominator: int) -> Tableau:
    """The tableau of a 0/1 problem with a normalization row.

    Column j has a 1 in each row columns[j] lists, distinct indices in
    [0, len(rhs)), and in the normalization row, a last row of all 1s.
    The right-hand side is rhs, then 1 for the normalization row, all over
    `denominator`: integers, nonnegative.  Each row's artificial entry is
    1, and so is the objective's scale; original column j's reduced cost is
    minus its row count, normalization included.
    """
    if min(rhs, default=0) < 0 or denominator <= 0:
        raise ValueError("the right-hand side must be nonnegative over a positive denominator")
    m, n = len(rhs) + 1, len(columns)
    used = set().union(*columns)
    if used and not (0 <= min(used) and max(used) < m - 1):
        raise ValueError(f"a row index outside [0, {m - 1})")
    d_col = n + m
    width = d_col + 2
    tab = [[0] * width for _ in range(m)]
    for i, (row, d) in enumerate(zip(tab, (*rhs, denominator))):
        row[n + i], row[d_col] = 1, d
    normalization = tab[-1]
    obj = [0] * width
    obj[d_col], obj[SCALE] = -sum(rhs) - denominator, 1
    for j, column in enumerate(columns):
        for i in column:
            tab[i][j] = 1
        normalization[j] = 1
        obj[j] = -len(column) - 1
    return Tableau(tab, obj, n, denominator)


def solve_feasibility(problem: Tableau) -> FeasibleSolution | FarkasCertificate:
    """Phase-one simplex on a tableau (`incidence_tableau`); deterministic
    for a fixed problem.

    The tableau holds integer rows of one width.  Row i stands for the
    rational row tab[i] / tab[i][basis[i]], which has 1 in its basic column;
    the objective stands for obj / obj[SCALE].  Every stored row is a
    positive multiple of the rational one, and every reduced cost shares the
    scale obj[SCALE], so each sign, ratio and comparison the pricing reads,
    and thus the whole pivot sequence, is that of the rational tableau.  The
    outcome counts its pivots and the degenerate ones among them.
    """
    tab, objective, n, rhs_scale = problem
    if objective[SCALE] <= 0:
        raise ValueError("the tableau was solved already: a tableau is solved once")
    # The rows are pivoted in place, so the tableau is marked solved at once
    # by an objective scale no tableau has; the solve runs on a copy of it.
    obj = objective[:]
    objective[SCALE] = 0
    m = len(tab)
    d_col = n + m
    basis = [n + i for i in range(m)]

    pivots = degenerate = run = 0
    stretch: set[tuple[int, ...]] = set()  # the bases of this Bland stretch
    while True:
        costs = obj[:d_col]
        lowest = min(costs, default=0)
        if lowest >= 0:
            break
        if run < DEGENERATE_RUN:
            # Dantzig: the most negative reduced cost, ties to the lowest index.
            enter = costs.index(lowest)
        else:
            # Bland: the lowest-index column with negative reduced cost.
            enter = next(j for j, v in enumerate(costs) if v < 0)
            key = tuple(sorted(basis))
            if key in stretch:
                raise RuntimeError("a basis recurred under Bland's rule: corrupt tableau")
            stretch.add(key)
        # Ratio test by cross-multiplication; ties broken by lowest basic
        # variable index (Bland).
        leave = None
        for i, row in enumerate(tab):
            e = row[enter]
            if e > 0:
                d = row[d_col]
                if leave is None:
                    leave, num, den = i, d, e
                    continue
                left, right = d * den, num * e
                if left < right or (left == right and basis[i] < basis[leave]):
                    leave, num, den = i, d, e
        if leave is None:
            # Phase-one objective is bounded below by 0; unboundedness
            # cannot happen for well-formed input.
            raise RuntimeError("phase-one simplex reported unbounded")
        pivots += 1
        if num == 0:  # a zero step: the basis changes, the point does not
            degenerate += 1
            run += 1
        else:
            run = 0
            stretch.clear()
        pivot_row = tab[leave]
        p = pivot_row[enter]
        nonzeros = [(j, w) for j, w in enumerate(pivot_row) if w]
        for i, row in enumerate(tab):
            a = row[enter]
            if a and i != leave:
                tab[i] = _combine(row, a, pivot_row, p, nonzeros, basis[i])
        # The phase-one objective -obj[d_col] / obj[SCALE] stays >= 0 and
        # falls exactly when the point moves; `drop` has the sign of its fall.
        w_num, w_scale = obj[d_col], obj[SCALE]
        obj = _combine(obj, obj[enter], pivot_row, p, nonzeros, SCALE)
        basis[leave] = enter
        drop = obj[d_col] * w_scale - w_num * obj[SCALE]
        if obj[SCALE] <= 0 or obj[d_col] > 0 or drop < 0 or (drop > 0) != (num != 0):
            raise RuntimeError(f"pivot {pivots}: phase-one objective below 0 or off its step: corrupt tableau")

    if not obj[d_col]:
        solution = [ZERO] * n
        for row, b in zip(tab, basis):
            if b < n and row[d_col]:
                solution[b] = Fraction(row[d_col], row[b] * rhs_scale)
        return FeasibleSolution(
            p=tuple(solution), pivots=pivots, degenerate_pivots=degenerate
        )

    # Infeasible: the optimal dual of the phase-one LP is a Farkas vector.
    # Artificial column j of the final tableau holds B^{-1} e_j, so the
    # dual value is y_j = c_j - obj[n + j] = 1 - obj[n + j].
    scale = obj[SCALE]
    y = tuple(Fraction(scale - obj[n + i], scale) for i in range(m))
    return FarkasCertificate(y=y, pivots=pivots, degenerate_pivots=degenerate)
