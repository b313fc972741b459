"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Everything is exact rational or exact-count; the only
tolerances are wall-clock budgets."""

import itertools
import random
import time
from fractions import Fraction

from contextuality import (
    analysis,
    build_ksp_support,
    check_nonsignaling,
    chsh,
    classify,
    conspiracy_system,
    count_assignments,
    decomposition_reproduces,
    dot,
    enumerate_ns_realizations,
    get,
    ks_support,
    marginal,
    orthogonal_triads,
    peres_rays,
    solve_feasibility,
    witness_score,
)
from contextuality.feasibility import FarkasCertificate, FeasibleSolution
from contextuality.systems import Context

from helpers import (
    collinear,
    fine_oracle,
    full_support,
    noisy_mixture,
    nonnegative_problem,
    perfect_chained_box,
    random_ns_2x2,
    random_ns_mixture,
    rational_tableau,
    realization_score,
    sparse_rows,
    verify,
)

HALF = Fraction(1, 2)


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_peres_geometry():
    start = time.monotonic()
    rays = peres_rays()
    triads = orthogonal_triads(rays)
    ok = len(rays) == 33
    ok &= all(
        not collinear(u, v) for u, v in itertools.combinations(rays, 2)
    )
    ok &= len(triads) == 40
    ok &= all(
        dot(u, v).is_zero()
        for t in triads
        for u, v in itertools.combinations(t.rays, 2)
    )
    ok &= time.monotonic() - start < 1.0
    report("Peres geometry: 33 canonical rays, 40 orthogonal triads", ok)


def test_kochen_specker_infeasibility():
    start = time.monotonic()
    rays = peres_rays()
    triads = orthogonal_triads(rays)
    ok = not enumerate_ns_realizations(ks_support(triads, "exactly-one-zero"))
    ok &= not enumerate_ns_realizations(ks_support(triads, "exactly-one-one"))
    ok &= len(enumerate_ns_realizations(build_ksp_support())) == 0
    ok &= time.monotonic() - start < 10.0
    report("Kochen-Specker infeasibility: both rules, and no ns realizations", ok)


def test_eprb_counts():
    shape = get("eprb_shape").system
    count = count_assignments(shape)
    ok = count.value == 256 and str(count) == "4^4"
    ok &= len(enumerate_ns_realizations(shape)) == 16
    report("EPRB counts: 256 assignments, 16 non-signaling realizations", ok)


def test_conspiracy_golden_numbers():
    s = conspiracy_system()
    ok = all(
        marginal(s, ctx, side) == {"0": HALF, "1": HALF}
        for ctx in s.contexts
        for side in ("A", "B")
    )
    expected = {
        ("1", "1"): HALF,
        ("2", "1"): HALF,
        ("2", "2"): HALF,
        ("1", "2"): Fraction(0),
    }
    # E[ab] under 0/1 coding is P(a=1, b=1).
    ok &= all(
        s.pmfs[Context(*c)].get(("1", "1"), 0) == v for c, v in expected.items()
    )
    ok &= check_nonsignaling(s) is None
    verdict = classify(s)
    ok &= verdict.kind == "contextual"
    w = verdict.witness
    ok &= witness_score(w, s) > w.bound
    ok &= all(
        realization_score(w, r) <= w.bound
        for r in enumerate_ns_realizations(full_support(s))
    )
    ok &= chsh(s) == 4
    report("Conspiracy/PR-box golden numbers: marginals, correlations, CHSH=4", ok)


def test_mixture_closure_property():
    start = time.monotonic()
    rng = random.Random(20260826)
    ok = True
    for _ in range(1000):
        m = random_ns_mixture(rng)
        v = classify(m)
        if v.kind != "noncontextual" or not decomposition_reproduces(
            m, v.decomposition
        ):
            ok = False
            break
    ok &= time.monotonic() - start < 60.0
    report(
        "Mixture closure: 1000 random ns mixtures classify noncontextual "
        "with exact reproduction",
        ok,
    )


def test_fine_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(424242)
    ok = True
    contextual_seen = 0
    for _ in range(1000):
        s = random_ns_2x2(rng)
        kind = classify(s).kind
        if kind != fine_oracle(s):
            ok = False
            break
        contextual_seen += kind == "contextual"
    ok &= contextual_seen > 0
    ok &= time.monotonic() - start < 60.0
    report(
        f"Fine-oracle equivalence: 1000 systems, 0 disagreements "
        f"({contextual_seen} contextual)",
        ok,
    )


def test_full_support_5x5_binary_within_budget(monkeypatch):
    # The slow regime: a noisy mixture is interior to a degenerate LP, here
    # 36 kept rows over all 1,024 realizations.  ROADMAP item 2's budget
    # for 5x5 binary interior systems is 5 s.
    alph = {str(i): ("0", "1") for i in range(1, 6)}
    s = noisy_mixture(random.Random(7), alph, alph)
    outcomes = []

    def recorded(*args):
        outcomes.append(solve_feasibility(*args))
        return outcomes[-1]

    monkeypatch.setattr(analysis, "solve_feasibility", recorded)
    start = time.monotonic()
    v = classify(s)
    elapsed = time.monotonic() - start
    ok = v.kind == "noncontextual" and v.realization_count == 1024
    ok &= [(o.pivots, o.degenerate_pivots) for o in outcomes] == [(124, 19)]
    ok &= elapsed < 5.0
    report(f"Full-support 5x5 binary: noncontextual in {elapsed:.2f} s, 124 pivots", ok)


def test_perfect_chained_boxes_within_budget(monkeypatch):
    # No (f, g) fits the support of a perfect chained box, so the support
    # decides it: no LP, and a second of budget per shape.
    def no_solver(*args):
        raise AssertionError("the support decides these systems")

    monkeypatch.setattr(analysis, "solve_feasibility", no_solver)
    ok = True
    timings = []
    for settings, outcomes in ((7, 2), (4, 3), (10, 2)):
        s = perfect_chained_box(settings, outcomes)
        start = time.monotonic()
        v = classify(s)
        elapsed = time.monotonic() - start
        timings.append(f"{settings}x{settings}/{outcomes}: {elapsed:.3f} s")
        ok &= v.kind == "contextual" and v.witness.bound == len(s.contexts) - 1
        ok &= elapsed < 1.0
    report(f"Perfect chained boxes contextual from the support ({', '.join(timings)})", ok)


def test_perfect_chained_box_16x16_binary_within_budget():
    # The support witness's bound is the best of 2^16 f's; the local-bound
    # oracle's branch and bound cuts nearly all of them.
    s = perfect_chained_box(16, 2)
    start = time.monotonic()
    v = classify(s)
    elapsed = time.monotonic() - start
    ok = v.kind == "contextual" and v.realization_count == 0
    ok &= v.witness.bound == len(s.contexts) - 1 == 255
    ok &= elapsed < 1.0
    report(f"Perfect chained box 16x16 binary: contextual in {elapsed:.3f} s", ok)


def test_signaling_detection():
    w = check_nonsignaling(get("d_prime_eprb").system)
    ok = w is not None and (w.side, w.setting) == ("A", "1")
    ok &= w.marginal1 == {"0": Fraction(0), "1": Fraction(1)}
    ok &= w.marginal2 == {"0": Fraction(1), "1": Fraction(0)}
    ok &= check_nonsignaling(get("d_eprb").system) is None
    rng = random.Random(99)
    for _ in range(100):
        ok &= check_nonsignaling(random_ns_mixture(rng)) is None
    report("Signaling detection: d_prime witness, ns mixtures all pass", ok)


def test_certificate_soundness():
    rng = random.Random(1701)
    ok = True
    contextual_seen = 0
    for _ in range(200):
        s = random_ns_2x2(rng)
        v = classify(s)
        if v.kind == "contextual":
            contextual_seen += 1
            w = v.witness
            if not witness_score(w, s) > w.bound:
                ok = False
            base = enumerate_ns_realizations(full_support(s))
            if not all(realization_score(w, r) <= w.bound for r in base):
                ok = False
        elif v.kind == "noncontextual":
            if not decomposition_reproduces(s, v.decomposition):
                ok = False
    ok &= contextual_seen > 0
    # feasibility outcomes self-verify; forgeries fail
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(0, 5)
        matrix = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)
        ]
        rhs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        problem = nonnegative_problem(matrix, rhs)
        outcome = solve_feasibility(rational_tableau(*sparse_rows(problem)))
        ok &= verify(problem, outcome)
        if isinstance(outcome, FeasibleSolution) and n:
            forged = FeasibleSolution(
                p=(outcome.p[0] - 1,) + outcome.p[1:]
            )
            ok &= not (forged.p[0] >= 0 and verify(problem, forged)) or forged == outcome
        if isinstance(outcome, FarkasCertificate):
            ok &= not verify(problem, FarkasCertificate(y=tuple(Fraction(0) for _ in rhs)))
    report("Certificate soundness: witnesses and Farkas outcomes all verify", ok)
