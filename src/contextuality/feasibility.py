"""Exact rational linear feasibility with Farkas certificates.

Decides whether M p = d has a solution p >= 0, by an exact sparse
fraction-free phase-one simplex.  M arrives as one sparse row
{column: rational} per constraint.  Each tableau row is a dict of nonzero
integers, a positive multiple of the rational row; a pivot on entry p of
row r at column e sets every other row to p*row - row[e]*row_r and divides
out its gcd (fraction-free elimination in the style of Edmonds 1967 and
Bareiss 1968), and the ratio test cross-multiplies.  Positive row scales
change no sign or ratio the pivoting rules read, so pivots and results are
those of the rational tableau.

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
1977), so it ends in a non-degenerate pivot or at the optimum.

Infeasible problems yield a dual vector y with y^T M <= 0 and y^T d > 0,
extracted from the final tableau.  Callers check the outcomes they use:
`classify` checks its decomposition and witness against the input system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)
SCALE = -1  # column of the objective row that holds its denominator
# Degenerate pivots in a row after which pricing falls back from Dantzig's
# rule to Bland's, until the next pivot that moves the point.
DEGENERATE_RUN = 50


@dataclass(frozen=True)
class FeasibleSolution:
    p: tuple[Fraction, ...]
    # How the solve went, not what it found: equality ignores them.
    pivots: int = field(default=0, compare=False)
    degenerate_pivots: int = field(default=0, compare=False)


@dataclass(frozen=True)
class FarkasCertificate:
    y: tuple[Fraction, ...]
    pivots: int = field(default=0, compare=False)
    degenerate_pivots: int = field(default=0, compare=False)


def _integer_row(entries) -> dict[int, int]:
    """The (column, rational) entries as a sparse row {column: int}, scaled
    by the positive factor that makes them coprime integers."""
    scale = lcm(*(v.denominator for _, v in entries))
    return _reduce({j: v.numerator * (scale // v.denominator) for j, v in entries})


def _reduce(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _combine(row: dict[int, int], a: int, pivot_row: dict[int, int], p: int):
    """p*row - a*pivot_row over the smallest integers: p and a are divided
    by their gcd, entries that cancel drop out, and the row by its gcd."""
    g = gcd(p, a)
    p, a = p // g, a // g
    out = {j: p * v for j, v in row.items()} if p != 1 else dict(row)
    for j, w in pivot_row.items():
        v = out.get(j, 0) - a * w
        if v:
            out[j] = v
        else:
            del out[j]
    return _reduce(out)


def solve_feasibility(
    rows: list[dict[int, int | Fraction]], rhs: list[int | Fraction], num_cols: int
) -> FeasibleSolution | FarkasCertificate:
    """Phase-one simplex; deterministic for a fixed problem.

    Row i of M is rows[i], {column: entry} with columns in [0, num_cols)
    and absent entries zero; d is rhs.  Entries may be int or Fraction.
    The tableau holds sparse integer rows.  Row i stands for the rational
    row tab[i] / tab[i][basis[i]], which has 1 in its basic column; the
    objective stands for obj / obj[SCALE].  Every stored row is a positive
    multiple of the rational one, and every reduced cost shares the scale
    obj[SCALE], so each sign, ratio and comparison the pricing reads, and
    thus the whole pivot sequence, is that of the rational tableau.  The
    outcome counts its pivots and the degenerate ones among them.
    """
    if len(rows) != len(rhs):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} rhs entries")
    if any(not 0 <= j < num_cols for row in rows for j in row):
        raise ValueError(f"a column index outside [0, {num_cols})")
    m, n = len(rows), num_cols
    d_col = n + m  # column index of the right-hand side

    # Solve M p = D d, D the common denominator of d, so the rhs is integer;
    # the solution is divided by D at the end (module docstring).
    rhs_scale = lcm(*(d.denominator for d in rhs))
    rhs = [d.numerator * (rhs_scale // d.denominator) for d in rhs]
    # Flip rows so the rhs is nonnegative; remember flips to map the
    # certificate back to original coordinates.
    flip = [(-1 if d < 0 else 1) for d in rhs]
    # Tableau columns: n original variables, m artificials, then rhs.
    tab = []
    for i, (row, d) in enumerate(zip(rows, rhs)):
        entries = [(j, v) for j, v in row.items() if v]
        entries.append((n + i, flip[i]))
        if d:
            entries.append((d_col, d))
        int_row = _integer_row(entries)
        tab.append(int_row if flip[i] > 0 else {j: -v for j, v in int_row.items()})
    basis = [n + i for i in range(m)]

    # Objective: minimize the sum of artificials.  Reduced costs start as
    # c - sum of constraint rows on the artificial basis, which is 0 on the
    # artificials.  The row holds them times obj[SCALE], a positive common
    # denominator, so pivoting updates it like any other row.
    scale = lcm(*(row[n + i] for i, row in enumerate(tab)))
    obj = {SCALE: scale}
    for i, row in enumerate(tab):
        k = scale // row[n + i]
        for j, v in row.items():
            if j != n + i:
                obj[j] = obj.get(j, 0) - k * v
    obj = _reduce({j: v for j, v in obj.items() if v})

    pivots = degenerate = run = 0
    while True:
        negative = [j for j, v in obj.items() if v < 0 and j != d_col]
        if not negative:
            break
        if run < DEGENERATE_RUN:
            # Dantzig: the most negative reduced cost, ties to the lowest index.
            enter = min(negative, key=lambda j: (obj[j], j))
        else:
            # Bland: the lowest-index column with negative reduced cost.
            enter = min(negative)
        # Ratio test by cross-multiplication; ties broken by lowest basic
        # variable index (Bland).
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
            # Phase-one objective is bounded below by 0; unboundedness
            # cannot happen for well-formed input.
            raise RuntimeError("phase-one simplex reported unbounded")
        pivots += 1
        if num == 0:  # a zero step: the basis changes, the point does not
            degenerate += 1
            run += 1
        else:
            run = 0
        pivot_row = tab[leave]
        p = pivot_row[enter]
        for i, row in enumerate(tab):
            a = row.get(enter)
            if a and i != leave:
                tab[i] = _combine(row, a, pivot_row, p)
        obj = _combine(obj, obj[enter], pivot_row, p)
        basis[leave] = enter

    if d_col not in obj:
        solution = [ZERO] * n
        for row, b in zip(tab, basis):
            if b < n and d_col in row:
                solution[b] = Fraction(row[d_col], row[b] * rhs_scale)
        return FeasibleSolution(
            p=tuple(solution), pivots=pivots, degenerate_pivots=degenerate
        )

    # Infeasible: the optimal dual of the phase-one LP is a Farkas vector.
    # Artificial column j of the final tableau holds B^{-1} e_j, so the
    # dual value is y_j = c_j - obj[n + j] = 1 - obj[n + j]; undo row flips.
    y = tuple(
        flip[i] * (ONE - Fraction(obj.get(n + i, 0), obj[SCALE])) for i in range(m)
    )
    return FarkasCertificate(y=y, pivots=pivots, degenerate_pivots=degenerate)
