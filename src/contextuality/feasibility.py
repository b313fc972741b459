"""Exact rational linear feasibility with Farkas certificates.

Decides whether M p = d has a solution p >= 0, by an exact sparse
fraction-free phase-one simplex with Bland's anti-cycling rule.  Each
tableau row is a dict of nonzero integers, a positive multiple of the
rational row; a pivot on entry p of row r at column e sets every other row
to p*row - row[e]*row_r and divides out its gcd (fraction-free elimination
in the style of Edmonds 1967 and Bareiss 1968), and the ratio test
cross-multiplies.  Positive row scales change no sign or ratio that Bland's
rule reads, so pivots and results are those of the rational tableau.
Infeasible problems yield a dual vector y with y^T M <= 0 and y^T d > 0,
extracted from the final tableau; both outcomes are checkable by `verify`
with no access to solver state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)
SCALE = -1  # column of the objective row that holds its denominator


@dataclass(frozen=True)
class FeasibilityProblem:
    """Find p >= 0 with matrix @ p == rhs (all entries Fraction)."""

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


@dataclass(frozen=True)
class FeasibleSolution:
    p: tuple[Fraction, ...]


@dataclass(frozen=True)
class FarkasCertificate:
    y: tuple[Fraction, ...]


def make_problem(matrix, rhs) -> FeasibilityProblem:
    """The problem with every entry exact; Fraction entries are kept as is."""
    return FeasibilityProblem(
        matrix=tuple(
            tuple(v if isinstance(v, Fraction) else Fraction(v) for v in row)
            for row in matrix
        ),
        rhs=tuple(v if isinstance(v, Fraction) else Fraction(v) for v in rhs),
    )


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
    problem: FeasibilityProblem,
) -> FeasibleSolution | FarkasCertificate:
    """Phase-one simplex; deterministic for a fixed problem (Bland's rule).

    The tableau holds sparse integer rows.  Row i stands for the rational
    row tab[i] / tab[i][basis[i]], which has 1 in its basic column; the
    objective stands for obj / obj[SCALE].  Every stored row is a positive
    multiple of the rational one, so each sign and ratio Bland's rule reads,
    and thus the whole pivot sequence, is that of the rational tableau.
    """
    m, n = problem.num_rows, problem.num_cols
    rhs = n + m  # column index of the right-hand side

    # Flip rows so the rhs is nonnegative; remember flips to map the
    # certificate back to original coordinates.
    flip = [(-1 if d < 0 else 1) for d in problem.rhs]
    # Tableau columns: n original variables, m artificials, then rhs.
    tab = []
    for i, (row, d) in enumerate(zip(problem.matrix, problem.rhs)):
        entries = [(j, v) for j, v in enumerate(row) if v]
        entries.append((n + i, flip[i]))
        if d:
            entries.append((rhs, d))
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

    while True:
        # Bland: lowest-index column with negative reduced cost.
        enter = min((j for j, v in obj.items() if v < 0 and j != rhs), default=None)
        if enter is None:
            break
        # Ratio test by cross-multiplication; ties broken by lowest basic
        # variable index (Bland).
        leave = None
        for i, row in enumerate(tab):
            e = row.get(enter, 0)
            if e > 0:
                d = row.get(rhs, 0)
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
        pivot_row = tab[leave]
        p = pivot_row[enter]
        for i, row in enumerate(tab):
            a = row.get(enter)
            if a and i != leave:
                tab[i] = _combine(row, a, pivot_row, p)
        obj = _combine(obj, obj[enter], pivot_row, p)
        basis[leave] = enter

    if rhs not in obj:
        solution = [ZERO] * n
        for row, b in zip(tab, basis):
            if b < n and rhs in row:
                solution[b] = Fraction(row[rhs], row[b])
        return FeasibleSolution(p=tuple(solution))

    # Infeasible: the optimal dual of the phase-one LP is a Farkas vector.
    # Artificial column j of the final tableau holds B^{-1} e_j, so the
    # dual value is y_j = c_j - obj[n + j] = 1 - obj[n + j]; undo row flips.
    y = tuple(
        flip[i] * (ONE - Fraction(obj.get(n + i, 0), obj[SCALE])) for i in range(m)
    )
    return FarkasCertificate(y=y)


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
