"""Tests of the benchmark's independent checker, generators, tracer and clock.

    python3 -m pytest perfbench/test_checker.py
"""

import random
from fractions import Fraction

import pytest

import checker
import clock
import gen
from tracer import Tracer

AL = {"1": gen.BIN, "2": gen.BIN}


def pr_box_case():
    pmfs = gen.twisted_box(AL, AL)
    return gen.Case("pr", AL, AL, pmfs, "contextual")


def local_case():
    f1, g1 = {"1": "0", "2": "1"}, {"1": "1", "2": "1"}
    f2, g2 = {"1": "1", "2": "1"}, {"1": "0", "2": "1"}
    pmfs = gen.local_mixture(AL, AL, [(f1, g1), (f2, g2)], [1, 2])
    components = [
        (Fraction(1, 3), {(x, y): (f1[x], g1[y]) for x in AL for y in AL}),
        (Fraction(2, 3), {(x, y): (f2[x], g2[y]) for x in AL for y in AL}),
    ]
    return gen.Case("local", AL, AL, pmfs, "noncontextual"), components


def chsh_witness():
    """CHSH on the box's combination, as (x, y, a, b) coefficients: bound 2."""
    coefficients = {}
    for x in AL:
        for y in AL:
            sign = -1 if (x, y) == ("1", "2") else 1
            for a in gen.BIN:
                for b in gen.BIN:
                    coefficients[(x, y, a, b)] = Fraction(sign if a == b else -sign)
    return coefficients


def kinds(problems):
    return [p.kind for p in problems]


def test_valid_decomposition_passes():
    case, components = local_case()
    assert checker.check_classification(case, "noncontextual", components) == []


def test_tampered_decomposition_is_a_failure():
    case, components = local_case()
    (w1, v1), (w2, v2) = components
    moved = [(w1 + Fraction(1, 12), v1), (w2 - Fraction(1, 12), v2)]
    tally = checker.Tally()
    tally.record(checker.check_classification(case, "noncontextual", moved))
    assert tally.failed == 1 and tally.counts()["bad_decomposition"] == 1
    assert not tally.correct


def test_signaling_realization_is_a_bad_decomposition():
    case, components = local_case()
    (w1, v1), rest = components[0], components[1:]
    flipped = dict(v1)
    a, b = flipped[("1", "1")]
    flipped[("1", "1")] = ("1" if a == "0" else "0", b)
    problems = checker.check_classification(case, "noncontextual", [(w1, flipped), *rest])
    assert kinds(problems) == ["bad_decomposition"]


def test_valid_witness_passes():
    case = pr_box_case()
    assert checker.check_classification(case, "contextual", witness=(chsh_witness(), 2)) == []


def test_witness_with_bound_too_low_is_a_failure():
    case = pr_box_case()
    tally = checker.Tally()
    tally.record(checker.check_classification(case, "contextual", witness=(chsh_witness(), 1)))
    assert tally.failed == 1 and tally.counts()["bad_witness"] == 1


def test_witness_the_system_does_not_beat_is_a_failure():
    case = pr_box_case()
    problems = checker.check_classification(case, "contextual", witness=(chsh_witness(), 4))
    assert kinds(problems) == ["bad_witness"]


def zero_pair_case():
    """Half PR box, half the all-"0" strategy: contextual (chained sum 7/2),
    with zero-probability pairs, and that strategy inside the support."""
    zeros = {"1": "0", "2": "0"}
    pmfs = gen.mixture(AL, AL, [(gen.twisted_box(AL, AL), Fraction(1, 2)),
                                (gen.deterministic(AL, AL, zeros, zeros), Fraction(1, 2))])
    return gen.Case("half-pr", AL, AL, pmfs, "contextual")


def chained_witness():
    """``checker.chained_score`` as (x, y, a, b) coefficients: bound 3."""
    return {
        (x, y, a, b): Fraction(1)
        for x in AL for y in AL for a in gen.BIN for b in gen.BIN
        if (int(b) - int(a) - ((x, y) == ("1", "2"))) % 2 == 0
    }


def tally_of(problems):
    tally = checker.Tally()
    tally.record(problems)
    return tally


def test_chained_witness_passes():
    case = zero_pair_case()
    assert checker.check_classification(case, "contextual", witness=(chained_witness(), 3)) == []


def test_missing_witness_makes_the_run_incorrect():
    tally = tally_of(checker.check_classification(zero_pair_case(), "contextual"))
    assert tally.counts()["bad_witness"] == 1 and not tally.correct


def test_unbeaten_witness_makes_the_run_incorrect():
    tally = tally_of(checker.check_classification(
        zero_pair_case(), "contextual", witness=(chained_witness(), Fraction(7, 2))))
    assert tally.counts()["bad_witness"] == 1 and not tally.correct


def test_bound_beaten_inside_the_support_makes_the_run_incorrect():
    # The all-"0" strategy lies in the support and scores 3.
    tally = tally_of(checker.check_classification(
        zero_pair_case(), "contextual", witness=(chained_witness(), Fraction(5, 2))))
    assert tally.counts()["bad_witness"] == 1 and not tally.correct


def test_bound_beaten_only_outside_the_support_is_the_known_defect():
    # Weight on a zero-probability pair: only strategies outside the support
    # read it, as with a bound taken over the support-restricted realizations.
    coefficients = chained_witness()
    coefficients[("1", "1", "1", "0")] = Fraction(2)
    problems = checker.check_classification(
        zero_pair_case(), "contextual", witness=(coefficients, 3))
    assert [p.known_defect for p in problems] == [True]
    tally = tally_of(problems)
    assert tally.failed == 1 and tally.counts()["bad_witness"] == 1 and tally.correct


def test_known_defect_does_not_excuse_another_failure():
    problems = [checker.Problem("bad_witness", "a", known_defect=True),
                checker.Problem("wrong_verdict", "b")]
    assert not tally_of(problems).correct


def test_wrong_verdict_is_a_failure():
    case, components = local_case()
    tally = checker.Tally()
    tally.record(checker.check_classification(case, "contextual", witness=(chsh_witness(), 2)))
    assert tally.failed == 1
    assert tally.counts()["wrong_verdict"] == 1 and not tally.correct


def test_tally_counts_each_operation_once():
    tally = checker.Tally()
    tally.record([checker.Problem("wrong_verdict", "a"), checker.Problem("bad_witness", "b")])
    tally.record([])
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.counts()["bad_witness"] == 1


def test_tally_counts_repeats_of_an_input_once():
    tally = checker.Tally()
    for _ in range(3):
        tally.record([], ("batch-2x2", 0))
    tally.record([checker.Problem("bad_witness", "a")], ("batch-2x2", 1))
    tally.record([], ("batch-2x2", 1))
    other = checker.Tally()
    other.record([checker.Problem("wrong_verdict", "b")], ("batch-2x2", 1))
    tally.merge(other)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.counts()["bad_witness"] == tally.counts()["wrong_verdict"] == 1


def test_batch_mix_does_not_follow_the_seed():
    for seed in (1, 2):
        counts = {}
        for case in gen.batch_cases(seed, size=400):
            counts[case.expected] = counts.get(case.expected, 0) + 1
        assert counts == gen.batch_mix(400) == {
            "contextual": 16, "signaling": 4, "noncontextual": 380}


def test_batch_construction_matches_chsh_criterion():
    for case in gen.batch_cases(seed=7, size=400):
        assert checker.expected_2x2(case.a_alph, case.b_alph, case.pmfs) == case.expected
    expected = {c.expected for c in gen.batch_cases(seed=7, size=400)}
    assert expected == {"noncontextual", "contextual", "signaling"}


def test_ladder_contextual_instances_beat_the_chained_bound():
    for case in gen.ladder_passes(3, 1)[0]:
        k = len(case.a_alph["1"])
        score = checker.chained_score(case.pmfs, k)
        assert checker.nonsignaling(case.a_alph, case.b_alph, case.pmfs)
        if case.expected == "contextual":
            assert score > 3
        else:
            assert score <= 3


def test_chained_bound_holds_for_every_strategy():
    rng = random.Random(0)
    for k in (2, 3):
        al = gen.alphabet(2, k)
        for f, g in checker.strategies(al, al):
            assert checker.chained_score(gen.deterministic(al, al, f, g), k) <= 3
        f, g = gen.random_strategy(rng, al, al)
        assert checker.nonsignaling(al, al, gen.deterministic(al, al, f, g))


def test_same_seed_same_inputs():
    assert gen.batch_cases(5, 40) == gen.batch_cases(5, 40)
    assert gen.ladder_passes(5, 2) == gen.ladder_passes(5, 2)
    assert gen.batch_cases(5, 40) != gen.batch_cases(6, 40)


def test_counting_hooks_run_after_the_request_closes():
    tracer = Tracer()
    enumerate_ = tracer.wrap("analysis.enumerate_ns_realizations", lambda: [1, 2, 3])
    with tracer.span():
        enumerate_()
        assert tracer.counts["analysis.realizations"] == 0
    assert tracer.counts["analysis.realizations"] == 3
    enumerate_()  # outside any request: not counted
    assert tracer.counts["analysis.realizations"] == 3


def test_stopwatch_times_work_that_raises():
    watch = clock.Stopwatch()
    with pytest.raises(ValueError):
        with watch:
            raise ValueError
    assert watch.wall > 0 and watch.seconds > 0
