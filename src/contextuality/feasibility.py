"""Exact rational linear feasibility with Farkas certificates.

Decides whether M p = d has a solution p >= 0, by an exact fraction-free
phase-one simplex.  M arrives as one sparse row {column: rational} per
constraint, and the tableau is assembled from those entries alone.  Each
tableau row is a list of integers, a positive multiple of the rational
row, with one slot per column: the n originals, the m artificials, the
right-hand side, and a last slot that only the objective row fills (its
scale).  A pivot on entry p of row r at column e lists the
nonzero entries of row r once, then sets every other row with a nonzero at
e to p*row - row[e]*row_r, after dividing p and row[e] by their gcd
(fraction-free elimination in the style of Edmonds 1967 and Bareiss 1968),
and divides out the row's gcd.  When p comes out 1, as it mostly does on
small membership LPs, row - row[e]*row_r differs from row only where row r
is nonzero, so just those entries are updated, in place; otherwise the row
is rebuilt whole.  Zero entries change no gcd, so every stored integer,
and with it every pivot and result, is what a tableau of sparse
{column: int} rows would hold.  The ratio test cross-multiplies.  Positive
row scales change no sign or ratio the pivoting rules read, so pivots and
results are those of the rational tableau.

The right-hand side d is first multiplied by D, the lcm of its
denominators, and the solution divided by D at the end.  Scaling d by a
positive constant scales every rhs entry of every tableau and nothing
else: reduced costs do not read d, ratio-test ratios all scale by D, so
the same row wins with the same ties, and a step is zero exactly when it
was.  The pivots and the Farkas vector are thus those of the unscaled
problem, and its solution is the scaled one divided by D.  Rows with
integer entries (the membership LP's 0/1 rows) then start out integer with
a unit artificial, instead of carrying the rhs denominator as a row scale
through every combine.

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
from math import gcd, lcm
from typing import NamedTuple

ZERO = Fraction(0)
ONE = Fraction(1)
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


def _combine(row: list[int], a: int, pivot_row: list[int], p: int, nonzeros):
    """p*row - a*pivot_row over the smallest integers: p and a are divided
    by their gcd, and the row by its gcd.  `nonzeros` lists the (column,
    entry) pairs of pivot_row's nonzero entries; when p comes out 1, only
    those columns change, in place."""
    g = gcd(p, a)
    p, a = p // g, a // g
    if p == 1:
        for j, w in nonzeros:
            row[j] -= a * w
    else:
        row = [p * v - a * w for v, w in zip(row, pivot_row)]
    return _reduce(row)


def solve_feasibility(
    rows: list[dict[int, int | Fraction]], rhs: list[int | Fraction], num_cols: int
) -> FeasibleSolution | FarkasCertificate:
    """Phase-one simplex; deterministic for a fixed problem.

    Row i of M is rows[i], {column: entry} with columns in [0, num_cols)
    and absent entries zero; d is rhs.  Entries may be int or Fraction.
    The tableau holds integer rows of one width.  Row i stands for the
    rational row tab[i] / tab[i][basis[i]], which has 1 in its basic column;
    the objective stands for obj / obj[SCALE].  Every stored row is a
    positive multiple of the rational one, and every reduced cost shares the
    scale obj[SCALE], so each sign, ratio and comparison the pricing reads,
    and thus the whole pivot sequence, is that of the rational tableau.  The
    outcome counts its pivots and the degenerate ones among them.
    """
    if len(rows) != len(rhs):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} rhs entries")
    if any(not 0 <= j < num_cols for row in rows for j in row):
        raise ValueError(f"a column index outside [0, {num_cols})")
    m, n = len(rows), num_cols
    d_col = n + m  # column index of the right-hand side
    width = d_col + 2  # and the objective's SCALE slot after it

    # Solve M p = D d, D the common denominator of d, so the rhs is integer;
    # the solution is divided by D at the end (module docstring).
    rhs_scale = lcm(*(d.denominator for d in rhs))
    rhs = [d.numerator * (rhs_scale // d.denominator) for d in rhs]
    # Flip rows so the rhs is nonnegative; remember flips to map the
    # certificate back to original coordinates.
    flip = [(-1 if d < 0 else 1) for d in rhs]
    # Row i is s * D * (row, e_i, d), D the lcm of the row's denominators
    # and s its flip.  Its gcd is 1, as its artificial entry is D and each
    # prime's highest power in D is some entry's whole denominator.
    tab = []
    for i, (row, d) in enumerate(zip(rows, rhs)):
        s, row_scale = flip[i], lcm(*(v.denominator for v in row.values()))
        int_row = [0] * width
        for j, v in row.items():
            int_row[j] = s * v.numerator * (row_scale // v.denominator)
        int_row[n + i], int_row[d_col] = row_scale, s * d * row_scale
        tab.append(int_row)
    basis = [n + i for i in range(m)]

    # Objective: minimize the sum of artificials.  Reduced costs start as
    # c - sum of constraint rows on the artificial basis, which is 0 on the
    # artificials.  The row holds them times obj[SCALE], a positive common
    # denominator, so pivoting updates it like any other row.
    scale = lcm(*(row[n + i] for i, row in enumerate(tab)))
    obj = [0] * width
    obj[SCALE] = scale
    for i, (row, int_row) in enumerate(zip(rows, tab)):
        k = scale // int_row[n + i]
        for j in (*row, d_col):
            obj[j] -= k * int_row[j]
    obj = _reduce(obj)

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
                tab[i] = _combine(row, a, pivot_row, p, nonzeros)
        # The phase-one objective -obj[d_col] / obj[SCALE] stays >= 0 and
        # falls exactly when the point moves; `drop` has the sign of its fall.
        w_num, w_scale = obj[d_col], obj[SCALE]
        obj = _combine(obj, obj[enter], pivot_row, p, nonzeros)
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
    # dual value is y_j = c_j - obj[n + j] = 1 - obj[n + j]; undo row flips.
    y = tuple(
        flip[i] * (ONE - Fraction(obj[n + i], obj[SCALE])) for i in range(m)
    )
    return FarkasCertificate(y=y, pivots=pivots, degenerate_pivots=degenerate)
