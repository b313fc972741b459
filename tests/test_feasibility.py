import random
from fractions import Fraction
from unittest import mock

import pytest

from contextuality import (
    Decomposition,
    FarkasCertificate,
    FeasibleSolution,
    analysis,
    decomposition_reproduces,
    enumerate_ns_realizations,
    feasibility,
    mix,
    solve_feasibility,
    support_of,
)

from helpers import (
    dense_bland_solve,
    dense_problem,
    every_pair,
    full_support,
    make_problem,
    noisy_mixture,
    random_deterministic_ns,
    sparse_reference_solve,
    sparse_rows,
    verify,
)


def _solve_as_sparse_reference(rows, rhs, num_cols):
    """The solver's outcome, required to equal the dict-row reference's, with
    the same pivot and degenerate-pivot counts.

    A pivot updates at most every other row and the objective, so a solve
    that makes more row updates than the reference's pivots allow has gone
    astray: it is stopped, since a wrong tableau can cycle for ever.
    """
    reference = sparse_reference_solve(rows, rhs, num_cols)
    combine, calls, cap = feasibility._combine, 0, reference.pivots * len(rows)

    def capped(*args):
        nonlocal calls
        calls += 1
        if calls > cap:
            raise RuntimeError(f"over {cap} row updates: more pivots than the reference")
        return combine(*args)

    with mock.patch.object(feasibility, "_combine", capped):
        outcome = solve_feasibility(rows, rhs, num_cols)
    assert outcome == reference
    assert (outcome.pivots, outcome.degenerate_pivots) == (
        reference.pivots, reference.degenerate_pivots
    )
    return outcome


def test_normalization_only_is_feasible():
    problem = make_problem([[1, 1]], [1])
    outcome = solve_feasibility(*sparse_rows(problem))
    assert isinstance(outcome, FeasibleSolution)
    assert outcome.p == (Fraction(1), Fraction(0))
    assert verify(problem, outcome)


def test_contradictory_rows_give_certificate():
    problem = make_problem([[1, 1], [1, 1]], [1, 2])
    outcome = solve_feasibility(*sparse_rows(problem))
    assert isinstance(outcome, FarkasCertificate)
    assert verify(problem, outcome)
    assert sum(y * d for y, d in zip(outcome.y, problem.rhs)) > 0


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_feasibility([{0: 1, 1: 1}], [1, 2], 2)
    with pytest.raises(ValueError):
        solve_feasibility([{0: 1, 1: 1}, {2: 1}], [1, 2], 2)
    with pytest.raises(ValueError):
        solve_feasibility([{-1: 1}], [1], 2)


def test_zero_columns_and_duplicate_columns_are_legal():
    def solve(matrix, rhs):
        return solve_feasibility(*sparse_rows(make_problem(matrix, rhs)))

    # a column of zeros
    assert isinstance(solve([[0, 1]], [1]), FeasibleSolution)
    # duplicate columns
    assert isinstance(solve([[2, 2], [1, 1]], [2, 1]), FeasibleSolution)
    # no columns at all: feasible iff rhs is zero
    assert isinstance(solve([[], []], [0, 0]), FeasibleSolution)
    assert isinstance(solve([[]], [1]), FarkasCertificate)


def test_negative_rhs_handled():
    problem = make_problem([[-1, 0], [0, 1]], [-2, 1])
    outcome = solve_feasibility(*sparse_rows(problem))
    assert isinstance(outcome, FeasibleSolution)
    assert outcome.p[0] == 2


def test_verify_rejects_forgeries():
    problem = make_problem([[1, 1], [1, -1]], [1, 0])
    outcome = solve_feasibility(*sparse_rows(problem))
    assert isinstance(outcome, FeasibleSolution)
    assert verify(problem, outcome)
    # negate one entry of the solution
    bad = FeasibleSolution(p=(-outcome.p[0],) + outcome.p[1:])
    assert not verify(problem, bad)
    # a certificate on a feasible problem cannot verify (Farkas exclusivity)
    assert not verify(problem, FarkasCertificate(y=(Fraction(0), Fraction(0))))

    infeasible = make_problem([[1, 1], [1, 1]], [1, 2])
    cert = solve_feasibility(*sparse_rows(infeasible))
    assert isinstance(cert, FarkasCertificate)
    # y with y.d = 0 must fail: strict inequality is required
    assert not verify(infeasible, FarkasCertificate(y=(Fraction(0), Fraction(0))))
    # a fake solution on an infeasible problem cannot verify
    assert not verify(infeasible, FeasibleSolution(p=(Fraction(1, 2), Fraction(1, 2))))


def _random_problem(rng):
    m, n = rng.randint(1, 5), rng.randint(0, 6)
    matrix = [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        for _ in range(m)
    ]
    if rng.random() < 0.5:
        # force feasibility: rhs is a nonnegative combination of columns
        p = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n)]
        rhs = [sum(row[j] * p[j] for j in range(n)) for row in matrix]
    else:
        rhs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
    return make_problem(matrix, rhs)


def test_soundness_on_random_problems():
    rng = random.Random(99)
    for _ in range(300):
        problem = _random_problem(rng)
        outcome = solve_feasibility(*sparse_rows(problem))
        assert verify(problem, outcome)


def test_determinism():
    rng = random.Random(5)
    for _ in range(50):
        problem = _random_problem(rng)
        args = sparse_rows(problem)
        assert solve_feasibility(*args) == solve_feasibility(*args)


def test_row_scaling_preserves_verdict_kind():
    rng = random.Random(17)
    for _ in range(100):
        problem = _random_problem(rng)
        kind = type(solve_feasibility(*sparse_rows(problem)))
        scales = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in problem.rhs]
        scaled = make_problem(
            [
                [s * v for v in row]
                for s, row in zip(scales, problem.matrix)
            ],
            [s * d for s, d in zip(scales, problem.rhs)],
        )
        assert type(solve_feasibility(*sparse_rows(scaled))) is kind


def test_mutual_exclusion():
    rng = random.Random(41)
    for _ in range(100):
        problem = _random_problem(rng)
        outcome = solve_feasibility(*sparse_rows(problem))
        if isinstance(outcome, FeasibleSolution):
            # no certificate can verify against a feasible problem
            forged = FarkasCertificate(
                y=tuple(Fraction(rng.randint(-3, 3)) for _ in problem.rhs)
            )
            if verify(problem, forged):
                # would contradict the Farkas lemma
                raise AssertionError("both outcomes verified")
        else:
            forged = FeasibleSolution(
                p=tuple(
                    Fraction(rng.randint(0, 3), rng.randint(1, 3))
                    for _ in range(problem.num_cols)
                )
            )
            assert not verify(problem, forged)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_equals_dense_reference_on_random_problems(seed):
    # Dantzig pricing may stop at another vertex than Bland's rule, so the
    # outcomes agree in kind, and each one holds on its own.
    # Against the dict-row reference they agree pivot for pivot.
    rng = random.Random(seed)
    for _ in range(500):
        problem = _random_problem(rng)
        outcome = _solve_as_sparse_reference(*sparse_rows(problem))
        reference = dense_bland_solve(problem)
        assert type(outcome) is type(reference)
        assert verify(problem, outcome) and verify(problem, reference)


def _assert_rhs_scaling_invariant(rows, rhs, num_cols):
    # The solver multiplies the rhs by its common denominator; scaling it by
    # c beforehand must change nothing but the solution, which scales by c.
    outcome = solve_feasibility(rows, rhs, num_cols)
    for c in (2, 60, 7919):
        scaled = solve_feasibility(rows, [c * d for d in rhs], num_cols)
        assert type(scaled) is type(outcome)
        assert (scaled.pivots, scaled.degenerate_pivots) == (
            outcome.pivots, outcome.degenerate_pivots
        )
        if isinstance(outcome, FeasibleSolution):
            assert scaled.p == tuple(c * v for v in outcome.p)
        else:
            assert scaled.y == outcome.y


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_rhs_scaling_keeps_pivots_on_random_problems(seed):
    # The problems of test_equals_dense_reference_on_random_problems.
    rng = random.Random(seed)
    for _ in range(500):
        _assert_rhs_scaling_invariant(*sparse_rows(_random_problem(rng)))


@pytest.mark.parametrize("columns_from", ["own", "other"], ids=["feasible", "infeasible"])
def test_rhs_scaling_keeps_pivots_on_4x4_membership(columns_from):
    # The LPs of test_equals_dense_reference_on_4x4_membership.
    rng = random.Random(3)
    alph = {str(i): ("0", "1") for i in range(1, 5)}
    parts = [random_deterministic_ns(rng, alph, alph) for _ in range(8)]
    system = mix([(p, Fraction(k + 1, 10)) for k, p in enumerate(parts[:4])])
    other = mix([(p, Fraction(1, 4)) for p in parts[4:]])
    support = support_of(system if columns_from == "own" else other)
    outcomes = analysis._ns_outcomes(support, analysis.DEFAULT_LIMIT)
    rows, rhs, _ = analysis._membership_problem(system, outcomes, every_pair(system))
    _assert_rhs_scaling_invariant(rows, rhs, len(outcomes))


def test_bland_fallback_is_the_dense_reference_pivot_for_pivot(monkeypatch):
    # With the fallback taken from the first pivot, every pivot is Bland's:
    # the outcome is the reference's vertex or certificate exactly.
    monkeypatch.setattr(feasibility, "DEGENERATE_RUN", 0)
    for seed in [1, 2, 3, 4]:
        rng = random.Random(seed)
        for _ in range(500):
            problem = _random_problem(rng)
            assert solve_feasibility(*sparse_rows(problem)) == dense_bland_solve(problem)


@pytest.mark.parametrize(
    "matrix, rhs",
    [
        ([[0, 1], [0, 0]], [1, 0]),  # a zero column, and a zero row
        ([[0, 0], [0, 0]], [0, 1]),  # only zero columns, infeasible
        ([[], []], [0, 0]),  # no columns, feasible
        ([[]], [1]),  # no columns, infeasible
        ([[-1, 0], [0, 1]], [-2, 1]),  # negative rhs
        ([[1, -3], [-2, 1]], [-1, -1]),  # every rhs negative
        (
            # large coprime denominators: the row scales and their gcds
            [
                [Fraction(1, 7919), Fraction(1, 7907), 1],
                [Fraction(1, 7907), Fraction(-1, 7919), Fraction(2, 7919)],
                [1, 1, 1],
            ],
            [Fraction(1, 7919 * 7907), Fraction(1, 7907), 1],
        ),
    ],
    ids=["zero-column", "zero-columns-only", "no-columns", "no-columns-infeasible",
         "negative-rhs", "all-rhs-negative", "coprime-denominators"],
)
def test_equals_dense_reference_on_edge_cases(matrix, rhs):
    problem = make_problem(matrix, rhs)
    outcome = _solve_as_sparse_reference(*sparse_rows(problem))
    assert outcome == dense_bland_solve(problem)
    assert verify(problem, outcome)


@pytest.mark.parametrize("columns_from", ["own", "other"], ids=["feasible", "infeasible"])
def test_equals_dense_reference_on_4x4_membership(columns_from):
    rng = random.Random(3)
    alph = {str(i): ("0", "1") for i in range(1, 5)}
    parts = [random_deterministic_ns(rng, alph, alph) for _ in range(8)]
    system = mix([(p, Fraction(k + 1, 10)) for k, p in enumerate(parts[:4])])
    other = mix([(p, Fraction(1, 4)) for p in parts[4:]])
    support = support_of(system if columns_from == "own" else other)
    columns = enumerate_ns_realizations(support)
    outcomes = analysis._ns_outcomes(support, analysis.DEFAULT_LIMIT)
    rows, rhs, _ = analysis._membership_problem(system, outcomes, every_pair(system))
    assert len(rows) == 25  # of 65: 16 contexts x 1 pair, 4 + 4 marginals, normalization
    problem = dense_problem(rows, rhs, len(columns))
    outcome = _solve_as_sparse_reference(rows, rhs, len(columns))
    reference = dense_bland_solve(problem)
    kind = FeasibleSolution if columns_from == "own" else FarkasCertificate
    assert isinstance(outcome, kind) and isinstance(reference, kind)
    assert verify(problem, outcome) and verify(problem, reference)
    if kind is FeasibleSolution:
        for solution in (outcome, reference):
            components = tuple((r, w) for r, w in zip(columns, solution.p) if w)
            assert decomposition_reproduces(system, Decomposition(components))


def _beale_problem():
    """Beale's 1955 cycling LP as a feasibility problem.

    Columns are Beale's x4..x7; the artificials of rows 1-3 play his
    slacks x1..x3.  Row 4 makes the phase-one reduced costs on the
    artificial basis -3/4, 20, -1/2, 6, his objective: the phase-one cost
    differs from his by the sum of the rows, so every basis prices alike.
    Its rhs is large enough that it never wins a ratio test.
    """
    matrix = [
        [Fraction(1, 4), -8, -1, 9],
        [Fraction(1, 2), -12, Fraction(-1, 2), 3],
        [0, 0, 1, 0],
        [0, 0, 1, -18],
    ]
    return make_problem(matrix, [0, 0, 1, 100])


def test_bland_fallback_ends_dantzig_cycling(monkeypatch):
    # Were the fallback broken, the solve would cycle for ever: count the
    # row updates and stop the test past 1,000, which both solves below stay
    # well within (171 and 323 with a working fallback).
    combine, calls = feasibility._combine, 0

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > 1000:
            raise RuntimeError("over 1,000 row updates: the simplex cycles")
        return combine(*args)

    monkeypatch.setattr(feasibility, "_combine", counted)
    problem = _beale_problem()
    outcome = solve_feasibility(*sparse_rows(problem))
    assert verify(problem, outcome)
    # Dantzig's rule runs out its 50 degenerate pivots; Bland's rule then
    # leaves within a few.
    run = feasibility.DEGENERATE_RUN
    assert run < outcome.degenerate_pivots <= run + 10
    # Given 100, Dantzig's rule spends them all: more degenerate pivots in a
    # row than the LP has bases (8 columns choose 4 = 70), so it cycles.
    monkeypatch.setattr(feasibility, "DEGENERATE_RUN", 100)
    assert solve_feasibility(*sparse_rows(problem)).degenerate_pivots >= 100


def _interior_point_lp():
    """The membership LP of a full-support 4x4 binary noisy mixture."""
    rng = random.Random(0)
    alph = {str(i): ("0", "1") for i in range(1, 5)}
    system = noisy_mixture(rng, alph, alph)
    outcomes = analysis._ns_outcomes(full_support(system), analysis.DEFAULT_LIMIT)
    rows, rhs, _ = analysis._membership_problem(system, outcomes, every_pair(system))
    return rows, rhs, len(outcomes)


def test_degenerate_pivots_stay_bounded_on_an_interior_point():
    # A full-support 4x4 binary noisy mixture, interior to a degenerate LP:
    # Bland's rule alone makes 461 pivots here, 353 of them degenerate.
    outcome = _solve_as_sparse_reference(*_interior_point_lp())
    assert isinstance(outcome, FeasibleSolution)
    assert 0 < outcome.degenerate_pivots <= 50
    assert outcome.pivots <= 100


def _corrupting(mutation: str):
    """A `_combine` that corrupts the tableau, for the solver's own checks to
    catch.  A solve that runs past 20,000 row updates fails the test: it
    cycles where it should have raised.

    - stale-nonzeros: every pivot updates rows by the first pivot row's
      nonzero entries, so the other entries keep stale values.
    - frozen-objective: from the fifth update on, the objective row is left
      as it was.
    - rising-objective: from the fifth update on, the objective's rhs slot
      loses one whole scale, so the sum of the artificials rises by 1.
    """
    combine, calls, first = feasibility._combine, 0, None

    def corrupt(row, a, pivot_row, p, nonzeros):
        nonlocal calls, first
        calls += 1
        if calls > 20_000:
            pytest.fail(f"{mutation}: over 20,000 row updates without an error")
        objective = row[feasibility.SCALE] != 0
        if mutation == "stale-nonzeros":
            first = first or nonzeros
            return combine(row, a, pivot_row, p, first)
        if mutation == "frozen-objective" and objective and calls >= 5:
            return list(row)
        row = combine(row, a, pivot_row, p, nonzeros)
        if mutation == "rising-objective" and objective and calls >= 5:
            row[-2] -= row[feasibility.SCALE]
        return row

    return corrupt


@pytest.mark.parametrize(
    "mutation, problem, check",
    [
        ("stale-nonzeros", "beale", "recurred"),
        ("stale-nonzeros", "interior-point", "objective"),
        ("frozen-objective", "beale", "recurred"),
        ("frozen-objective", "interior-point", "objective"),
        ("rising-objective", "beale", "objective"),
        ("rising-objective", "interior-point", "objective"),
    ],
)
def test_corrupt_tableau_raises(monkeypatch, mutation, problem, check):
    # The solver checks that no basis recurs within a Bland stretch, and
    # that the phase-one objective falls exactly on the pivots that move the
    # point.  Without them the first two mutations cycle for as long as the
    # solve is let run, and the third returns an outcome.  The checks raise
    # RuntimeError, not AssertionError, so they hold under `python -O` too.
    lp = sparse_rows(_beale_problem()) if problem == "beale" else _interior_point_lp()
    monkeypatch.setattr(feasibility, "_combine", _corrupting(mutation))
    with pytest.raises(RuntimeError, match=check):
        solve_feasibility(*lp)


def test_pivot_counts_do_not_change_equality():
    p = (Fraction(1),)
    assert FeasibleSolution(p=p, pivots=3, degenerate_pivots=1) == FeasibleSolution(p=p)
    assert FarkasCertificate(y=p, pivots=2) == FarkasCertificate(y=p, degenerate_pivots=2)
    assert FeasibleSolution(p=p, pivots=3) != FeasibleSolution(p=(Fraction(2),), pivots=3)
    assert hash(FeasibleSolution(p=p, pivots=3)) == hash(FeasibleSolution(p=p))
    assert not FeasibleSolution(p=p, pivots=3) != FeasibleSolution(p=p)
    # Only an outcome of the same type is equal, not one holding the same vector.
    assert FeasibleSolution(p=p) != FarkasCertificate(y=p)
    assert not FeasibleSolution(p=p) == FarkasCertificate(y=p)
    assert FeasibleSolution(p=p) != (p, 0, 0)
    with pytest.raises(AttributeError):
        FeasibleSolution(p=p).pivots = 1
