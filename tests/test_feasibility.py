import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest

from contextuality import (
    Decomposition,
    FarkasCertificate,
    FeasibleSolution,
    analysis,
    check_nonsignaling,
    classify,
    decomposition_reproduces,
    enumerate_ns_realizations,
    feasibility,
    incidence_tableau,
    mix,
    solve_feasibility,
    support_of,
)

from helpers import (
    benchmark_systems,
    dense_bland_solve,
    dense_problem,
    every_pair,
    full_support,
    incidence_rows,
    make_problem,
    noisy_mixture,
    nonnegative_problem,
    random_deterministic_ns,
    rational_tableau,
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
        outcome = solve_feasibility(rational_tableau(rows, rhs, num_cols))
    assert outcome == reference
    assert (outcome.pivots, outcome.degenerate_pivots) == (
        reference.pivots, reference.degenerate_pivots
    )
    return outcome


def test_normalization_only_is_feasible():
    problem = make_problem([[1, 1]], [1])
    outcome = solve_feasibility(rational_tableau(*sparse_rows(problem)))
    assert isinstance(outcome, FeasibleSolution)
    assert outcome.p == (Fraction(1), Fraction(0))
    assert verify(problem, outcome)


def test_contradictory_rows_give_certificate():
    problem = make_problem([[1, 1], [1, 1]], [1, 2])
    outcome = solve_feasibility(rational_tableau(*sparse_rows(problem)))
    assert isinstance(outcome, FarkasCertificate)
    assert verify(problem, outcome)
    assert sum(y * d for y, d in zip(outcome.y, problem.rhs)) > 0


def test_zero_columns_and_duplicate_columns_are_legal():
    def solve(matrix, rhs):
        return solve_feasibility(rational_tableau(*sparse_rows(make_problem(matrix, rhs))))

    # a column of zeros
    assert isinstance(solve([[0, 1]], [1]), FeasibleSolution)
    # duplicate columns
    assert isinstance(solve([[2, 2], [1, 1]], [2, 1]), FeasibleSolution)
    # no columns at all: feasible iff rhs is zero
    assert isinstance(solve([[], []], [0, 0]), FeasibleSolution)
    assert isinstance(solve([[]], [1]), FarkasCertificate)


def test_verify_rejects_forgeries():
    problem = make_problem([[1, 1], [1, -1]], [1, 0])
    outcome = solve_feasibility(rational_tableau(*sparse_rows(problem)))
    assert isinstance(outcome, FeasibleSolution)
    assert verify(problem, outcome)
    # negate one entry of the solution
    bad = FeasibleSolution(p=(-outcome.p[0],) + outcome.p[1:])
    assert not verify(problem, bad)
    # a certificate on a feasible problem cannot verify (Farkas exclusivity)
    assert not verify(problem, FarkasCertificate(y=(Fraction(0), Fraction(0))))

    infeasible = make_problem([[1, 1], [1, 1]], [1, 2])
    cert = solve_feasibility(rational_tableau(*sparse_rows(infeasible)))
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
    return nonnegative_problem(matrix, rhs)


def test_soundness_on_random_problems():
    rng = random.Random(99)
    for _ in range(300):
        problem = _random_problem(rng)
        outcome = solve_feasibility(rational_tableau(*sparse_rows(problem)))
        assert verify(problem, outcome)


def test_determinism():
    rng = random.Random(5)
    for _ in range(50):
        problem = _random_problem(rng)
        args = sparse_rows(problem)
        first, second = (solve_feasibility(rational_tableau(*args)) for _ in range(2))
        assert first == second


def test_row_scaling_preserves_verdict_kind():
    rng = random.Random(17)
    for _ in range(100):
        problem = _random_problem(rng)
        kind = type(solve_feasibility(rational_tableau(*sparse_rows(problem))))
        scales = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in problem.rhs]
        scaled = make_problem(
            [
                [s * v for v in row]
                for s, row in zip(scales, problem.matrix)
            ],
            [s * d for s, d in zip(scales, problem.rhs)],
        )
        assert type(solve_feasibility(rational_tableau(*sparse_rows(scaled)))) is kind


def test_mutual_exclusion():
    rng = random.Random(41)
    for _ in range(100):
        problem = _random_problem(rng)
        outcome = solve_feasibility(rational_tableau(*sparse_rows(problem)))
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
    outcome = solve_feasibility(rational_tableau(rows, rhs, num_cols))
    for c in (2, 60, 7919):
        scaled = solve_feasibility(rational_tableau(rows, [c * d for d in rhs], num_cols))
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


def _4x4_membership(columns_from: str):
    """A 4x4 binary mixture of four deterministic systems, and the support
    whose realizations are the columns: its own ("own", feasible) or that
    of four others ("other", infeasible)."""
    rng = random.Random(3)
    alph = {str(i): ("0", "1") for i in range(1, 5)}
    parts = [random_deterministic_ns(rng, alph, alph) for _ in range(8)]
    system = mix([(p, Fraction(k + 1, 10)) for k, p in enumerate(parts[:4])])
    other = mix([(p, Fraction(1, 4)) for p in parts[4:]])
    return system, support_of(system if columns_from == "own" else other)


def _4x4_membership_incidence(columns_from: str):
    system, support = _4x4_membership(columns_from)
    outcomes = analysis._ns_outcomes(support, analysis.DEFAULT_LIMIT)
    return analysis._membership_problem(system, outcomes, every_pair(system))[:3]


def _4x4_membership_lp(columns_from: str):
    return incidence_rows(*_4x4_membership_incidence(columns_from))


@pytest.mark.parametrize("columns_from", ["own", "other"], ids=["feasible", "infeasible"])
def test_rhs_scaling_keeps_pivots_on_4x4_membership(columns_from):
    # The LPs of test_equals_dense_reference_on_4x4_membership.
    _assert_rhs_scaling_invariant(*_4x4_membership_lp(columns_from))


@pytest.mark.parametrize("lps", ["random", "4x4-membership"])
def test_every_stored_row_has_gcd_1(monkeypatch, lps):
    # A row update whose scale is 1 takes no gcd (`_combine`): the row's gcd
    # divides its scale, so it is 1 already.  Every row `_combine` returns
    # must still be in lowest terms, here on the 2,000 random problems of
    # test_equals_dense_reference_on_random_problems and on both 4x4
    # membership LPs.
    if lps == "random":
        problems = [
            sparse_rows(_random_problem(rng))
            for rng in map(random.Random, [1, 2, 3, 4])
            for _ in range(500)
        ]
    else:
        problems = [_4x4_membership_lp(columns_from) for columns_from in ("own", "other")]
    combine, returned, unreduced = feasibility._combine, 0, []

    def checked(*args):
        nonlocal returned
        row = combine(*args)
        returned += 1
        if gcd(*row) != 1:
            unreduced.append(row)
        return row

    monkeypatch.setattr(feasibility, "_combine", checked)
    for problem in problems:
        solve_feasibility(rational_tableau(*problem))
    assert returned > 100
    assert unreduced == []


def test_bland_fallback_is_the_dense_reference_pivot_for_pivot(monkeypatch):
    # With the fallback taken from the first pivot, every pivot is Bland's:
    # the outcome is the reference's vertex or certificate exactly.
    monkeypatch.setattr(feasibility, "DEGENERATE_RUN", 0)
    for seed in [1, 2, 3, 4]:
        rng = random.Random(seed)
        for _ in range(500):
            problem = _random_problem(rng)
            assert solve_feasibility(rational_tableau(*sparse_rows(problem))) == dense_bland_solve(problem)


@pytest.mark.parametrize(
    "matrix, rhs",
    [
        ([[0, 1], [0, 0]], [1, 0]),  # a zero column, and a zero row
        ([[0, 0], [0, 0]], [0, 1]),  # only zero columns, infeasible
        ([[], []], [0, 0]),  # no columns, feasible
        ([[]], [1]),  # no columns, infeasible
        ([[1, 0], [0, 1]], [2, 1]),  # a negative rhs, its row negated
        ([[-1, 3], [2, -1]], [1, 1]),  # every rhs negative, every row negated
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
         "negated-rhs", "all-rows-negated", "coprime-denominators"],
)
def test_equals_dense_reference_on_edge_cases(matrix, rhs):
    problem = make_problem(matrix, rhs)
    outcome = _solve_as_sparse_reference(*sparse_rows(problem))
    assert outcome == dense_bland_solve(problem)
    assert verify(problem, outcome)


@pytest.mark.parametrize("columns_from", ["own", "other"], ids=["feasible", "infeasible"])
def test_equals_dense_reference_on_4x4_membership(columns_from):
    system, support = _4x4_membership(columns_from)
    columns = enumerate_ns_realizations(support)
    outcomes = analysis._ns_outcomes(support, analysis.DEFAULT_LIMIT)
    rows, rhs, _ = incidence_rows(
        *analysis._membership_problem(system, outcomes, every_pair(system))[:3]
    )
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
    # row updates and stop the test past 1,000.  A working fallback makes
    # 171 of them in the first solve below and 323 in the second.
    combine, calls = feasibility._combine, 0

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > 1000:
            raise RuntimeError("over 1,000 row updates: the simplex cycles")
        return combine(*args)

    monkeypatch.setattr(feasibility, "_combine", counted)
    problem = _beale_problem()
    outcome = solve_feasibility(rational_tableau(*sparse_rows(problem)))
    assert verify(problem, outcome)
    assert outcome == sparse_reference_solve(*sparse_rows(problem))
    # Dantzig's rule runs out its 50 degenerate pivots; Bland's rule then
    # leaves within a few.
    run = feasibility.DEGENERATE_RUN
    assert run < outcome.degenerate_pivots <= run + 10
    assert (outcome.pivots, outcome.degenerate_pivots, calls) == (54, 52, 171)
    # Given 100, Dantzig's rule spends them all: more degenerate pivots in a
    # row than the LP has bases (8 columns choose 4 = 70), so it cycles.
    monkeypatch.setattr(feasibility, "DEGENERATE_RUN", 100)
    calls = 0
    assert solve_feasibility(rational_tableau(*sparse_rows(problem))).degenerate_pivots >= 100
    assert calls == 323


def _classify_lps(monkeypatch, systems):
    """The `incidence_tableau` arguments of every LP `classify` solves on
    the non-signaling systems among `systems`."""
    lps, build = [], analysis.incidence_tableau

    def recorded(*args):
        lps.append(args)
        return build(*args)

    monkeypatch.setattr(analysis, "incidence_tableau", recorded)
    for system in systems:
        if check_nonsignaling(system) is None:
            classify(system)
    return lps


@pytest.mark.parametrize("lps", ["batch-2x2", "ladder", "4x4-membership"])
def test_incidence_tableau_pivots_as_sparse_rows(monkeypatch, lps):
    # The incidence tableau is the sparse rows' tableau with its rhs scaled
    # by a positive constant: the same pivots as the dict-row reference on
    # those rows, and the same outcome.  Here on the membership LPs of the
    # benchmark's batch-2x2 systems (seed 1) and ladder draws, and on both
    # 4x4 membership LPs.
    if lps == "4x4-membership":
        problems = [_4x4_membership_incidence(c) for c in ("own", "other")]
    else:
        problems = _classify_lps(monkeypatch, benchmark_systems(lps))
    kinds = set()
    for problem in problems:
        incidence = solve_feasibility(incidence_tableau(*problem))
        sparse = sparse_reference_solve(*incidence_rows(*problem))
        assert incidence == sparse
        assert (incidence.pivots, incidence.degenerate_pivots) == (
            sparse.pivots, sparse.degenerate_pivots
        )
        kinds.add(type(incidence))
    assert kinds == {FeasibleSolution, FarkasCertificate}


def test_a_tableau_is_solved_once():
    # Solving pivots the tableau's rows in place; a second solve would start
    # from the final tableau as if it were the first, so it raises instead.
    problem = incidence_tableau([[0], [1], [0, 1]], [1, 1], 3)
    assert solve_feasibility(problem).pivots > 0
    with pytest.raises(ValueError, match="solved once"):
        solve_feasibility(problem)


def test_incidence_tableau_checks_its_arguments():
    for columns, rhs, denominator in [
        ([[0], [1]], [1], 2),  # a row index past the kept rows
        ([[-1]], [1], 2),  # a negative row index
        ([[0]], [-1], 2),  # a negative rhs
        ([[0]], [1], 0),  # no positive denominator
    ]:
        with pytest.raises(ValueError):
            incidence_tableau(columns, rhs, denominator)


def _interior_point_lp():
    """The membership LP of a full-support 4x4 binary noisy mixture."""
    rng = random.Random(0)
    alph = {str(i): ("0", "1") for i in range(1, 5)}
    system = noisy_mixture(rng, alph, alph)
    outcomes = analysis._ns_outcomes(full_support(system), analysis.DEFAULT_LIMIT)
    return incidence_rows(*analysis._membership_problem(system, outcomes, every_pair(system))[:3])


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

    def corrupt(row, a, pivot_row, p, nonzeros, scale):
        nonlocal calls, first
        calls += 1
        if calls > 20_000:
            pytest.fail(f"{mutation}: over 20,000 row updates without an error")
        objective = row[feasibility.SCALE] != 0
        if mutation == "stale-nonzeros":
            first = first or nonzeros
            return combine(row, a, pivot_row, p, first, scale)
        if mutation == "frozen-objective" and objective and calls >= 5:
            return list(row)
        row = combine(row, a, pivot_row, p, nonzeros, scale)
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
        solve_feasibility(rational_tableau(*lp))


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
