import collections
import gc
import itertools
import math
import operator
import random
from fractions import Fraction
from itertools import product

import pytest

from contextuality import (
    CertificateError,
    InvalidSystemError,
    RealizationLimitExceeded,
    SignalingSystemError,
    chsh,
    classify,
    conspiracy_system,
    decomposition_reproduces,
    enumerate_ns_realizations,
    get,
    make_support,
    make_system,
    support_of,
    witness_score,
)
from contextuality import analysis
from contextuality.analysis import BellWitness, Decomposition
from contextuality.catalog import catalog_ids
from contextuality.feasibility import (
    FarkasCertificate,
    FeasibleSolution,
    incidence_tableau,
    solve_feasibility,
)
from contextuality.peres import Ray, Triad, Z0, Zr2, ks_support
from contextuality.systems import ZERO, Context, marginal, mix_context_dependent

from helpers import (
    cg_point_3322,
    chained_box,
    checker_accepts,
    chsh_2xn_oracle,
    coloring_from_ns_function,
    deterministic_3322,
    facets_3322,
    fine_oracle,
    local_3322_oracle,
    dense_problem,
    every_pair,
    full_support,
    full_membership_problem,
    mix,
    noisy_mixture,
    perfect_chained_box,
    random_deterministic_ns,
    random_ns_2x2,
    random_ns_mixture,
    random_shape,
    realization_score,
    rational_tableau,
    reproduces_by_fraction_sums,
    restrict,
    system_3322,
    violated_3322,
    uniform_system,
    verify,
)

HALF = Fraction(1, 2)
BIN = {"1": ("0", "1"), "2": ("0", "1")}


class TestEnumerate:
    def test_eprb_16(self):
        ns = enumerate_ns_realizations(get("eprb_shape").system)
        assert len(ns) == 16
        # canonical order, no duplicates
        keys = [tuple(sorted(r.values.items())) for r in ns]
        assert len(set(keys)) == 16

    def test_values_follow_setting_functions(self):
        rng = random.Random(11)
        for trial in range(100):
            a_alph, b_alph = random_shape(rng)
            contexts = [Context(x, y) for x in a_alph for y in b_alph]
            if trial % 2:
                # a setting in no context is left unconstrained
                contexts = rng.sample(contexts, rng.randint(1, len(contexts)))
            supp = make_support(
                "rand",
                a_alph,
                b_alph,
                {c: rng.sample(
                    [(a, b) for a in a_alph[c.x] for b in b_alph[c.y]],
                    rng.randint(1, len(a_alph[c.x]) * len(b_alph[c.y])),
                ) for c in contexts},
            )
            ns = enumerate_ns_realizations(supp)
            for r in ns:
                assert r.values == {c: (r.f[c.x], r.g[c.y]) for c in contexts}
            # exactly the (f, g) compatible with every support, in canonical
            # order: f over the A-settings, then g over the B-settings
            fs = [dict(zip(a_alph, v)) for v in itertools.product(*a_alph.values())]
            gs = [dict(zip(b_alph, v)) for v in itertools.product(*b_alph.values())]
            brute = [
                (f, g)
                for f in fs
                for g in gs
                if all((f[c.x], g[c.y]) in supp.supports[c] for c in contexts)
            ]
            brute.sort(key=lambda fg: (
                [fg[0][x] for x in supp.a_settings],
                [fg[1][y] for y in supp.b_settings],
            ))
            assert [(r.f, r.g) for r in ns] == brute

    def test_deterministic_tables(self):
        # each non-signaling table factors into exactly one (f, g), the
        # functions the catalog builds it from (outcomes on settings 1 and
        # 2); the signaling one into none
        named = {"d_eprb": ("10", "01"), "d1": ("11", "11"), "d2": ("00", "00"),
                 "d3": ("01", "01"), "d4": ("10", "00")}
        for id, (f, g) in named.items():
            d = get(id).system
            (r,) = enumerate_ns_realizations(support_of(d))
            assert all(d.pmfs[c].get(r.values[c], ZERO) == 1 for c in d.contexts)
            assert (dict(r.f), dict(r.g)) == (dict(zip("12", f)), dict(zip("12", g)))
        assert enumerate_ns_realizations(support_of(get("d_prime_eprb").system)) == ()

    def test_ksp_empty(self):
        assert len(enumerate_ns_realizations(get("ksp_support").system)) == 0

    def test_system_enumerates_as_its_support(self):
        # A system is searched through its own `supports`: the same
        # realizations, in the same order, as its `support_of`.
        rng = random.Random(16)
        systems = [random_ns_mixture(rng) for _ in range(100)]
        systems += [get(id).system for id in ("d_prime_eprb", "conspiracy", "eprb_shape")]
        for s in systems:
            assert enumerate_ns_realizations(s) == enumerate_ns_realizations(support_of(s))

    def test_single_context_full_support(self):
        supp = make_support(
            "one",
            {"1": ("0", "1")},
            {"1": ("0", "1")},
            {("1", "1"): [(a, b) for a in "01" for b in "01"]},
        )
        assert len(enumerate_ns_realizations(supp)) == 4

    def test_limit_exceeded_is_loud(self):
        # the limit is the most realizations returned; eprb_shape has 16
        eprb = get("eprb_shape").system
        assert len(enumerate_ns_realizations(eprb, limit=16)) == 16
        for limit in (7, 15):
            with pytest.raises(RealizationLimitExceeded):
                enumerate_ns_realizations(eprb, limit=limit)


def _brute_ns_outcomes(spec):
    """Every (f, g) over the full alphabets, A-settings first, kept where
    each context's pair is in its support: the search's answer, listed out."""
    a_alphabets = [spec.a_alphabet[x] for x in spec.a_settings]
    b_alphabets = [spec.b_alphabet[y] for y in spec.b_settings]
    a_position = {x: i for i, x in enumerate(spec.a_settings)}
    b_position = {y: i for i, y in enumerate(spec.b_settings)}
    constraints = [
        (a_position[ctx.x], b_position[ctx.y], spec.supports[ctx]) for ctx in spec.contexts
    ]
    return sorted(
        f + g
        for f in itertools.product(*a_alphabets)
        for g in itertools.product(*b_alphabets)
        if all((f[i], g[j]) in pairs for i, j, pairs in constraints)
    )


def _random_support(rng: random.Random, a_alph, b_alph, full: bool):
    """A support on a random set of contexts: every pair, or the pairs of
    up to three random (f, g) and each other pair with probability 1/5 (a
    context left empty gets one random pair)."""
    contexts = [(x, y) for x in a_alph for y in b_alph]
    if rng.random() < 0.3:
        # settings in no context are left unconstrained
        contexts = rng.sample(contexts, rng.randint(1, len(contexts)))
    strategies = [
        ({x: rng.choice(a_alph[x]) for x in a_alph}, {y: rng.choice(b_alph[y]) for y in b_alph})
        for _ in range(rng.randint(0, 3))
    ]
    supports = {}
    for x, y in contexts:
        pairs = [(a, b) for a in a_alph[x] for b in b_alph[y]]
        if not full:
            kept = {(f[x], g[y]) for f, g in strategies}
            sparse = [pair for pair in pairs if pair in kept or rng.random() < 0.2]
            pairs = sparse or [rng.choice(pairs)]
        supports[(x, y)] = pairs
    return make_support("rand", a_alph, b_alph, supports)


def _search_cases():
    rng = random.Random(17)
    specs = []
    for trial in range(300):
        a_alph, b_alph = random_shape(rng)
        specs.append(_random_support(rng, a_alph, b_alph, full=trial % 4 == 0))
    six = {str(i): ("0", "1") for i in range(1, 7)}
    two = {"1": ("0", "1"), "2": ("0", "1")}
    for trial in range(40):
        specs.append(_random_support(rng, six, two, full=trial % 4 == 0))
        specs.append(_random_support(rng, two, six, full=trial % 4 == 0))
    # ksp_support's 3^40 * 2^33 pairs (f, g) are past listing; its emptiness
    # is test_ksp_empty's.
    specs += [get(id).system for id in catalog_ids() if id != "ksp_support"]
    return specs


class TestSearch:
    """`_ns_outcomes` branches on the A-settings and takes a product over
    the B-settings; it must return exactly the brute-force list."""

    def test_equals_brute_force(self):
        counts = []
        for spec in _search_cases():
            expected = _brute_ns_outcomes(spec)
            assert analysis._ns_outcomes(spec, analysis.DEFAULT_LIMIT) == expected
            count = len(expected)
            counts.append(count)
            # The limit is the most realizations returned.
            assert analysis._ns_outcomes(spec, count) == expected
            if count:
                with pytest.raises(RealizationLimitExceeded):
                    analysis._ns_outcomes(spec, count - 1)
        # Empty, single and many-realization supports all come up.
        assert counts.count(0) >= 20 and counts.count(1) >= 20
        assert sum(count > 100 for count in counts) >= 20

    def test_limit_raises_before_building_a_product(self, monkeypatch):
        # Full support at 6x6 binary: 4,096 realizations, 64 for each f.
        # The first f's product already passes the limit, so none is built.
        rng = random.Random(6)
        alph = {str(i): ("0", "1") for i in range(1, 7)}
        system = noisy_mixture(rng, alph, alph)
        assert len(analysis._ns_outcomes(system, analysis.DEFAULT_LIMIT)) == 4096
        monkeypatch.setattr(analysis, "product", None)  # any product call fails
        with pytest.raises(RealizationLimitExceeded):
            analysis._ns_outcomes(system, 10)


class TestClassify:
    def test_conspiracy_contextual(self):
        v = classify(conspiracy_system())
        assert v.kind == "contextual"
        assert v.witness is not None

    def test_verdict_is_immutable(self):
        v = classify(get("d_eprb").system)
        for field in ("kind", "decomposition", "witness", "realization_count"):
            with pytest.raises(AttributeError):
                setattr(v, field, None)
        with pytest.raises(AttributeError):
            v.decomposition.components = ()
        assert v.kind == "noncontextual"

    def test_quarter_mix_noncontextual(self):
        m = mix([(get(f"d{i}").system, Fraction(1, 4)) for i in range(1, 5)])
        v = classify(m)
        assert v.kind == "noncontextual"
        assert decomposition_reproduces(m, v.decomposition)

    def test_deterministic_singleton_decomposition(self):
        v = classify(get("d_eprb").system)
        assert v.kind == "noncontextual"
        assert [w for _, w in v.decomposition.components] == [Fraction(1)]

    def test_random_mixture_round_trip(self):
        rng = random.Random(2024)
        for _ in range(100):
            m = random_ns_mixture(rng)
            v = classify(m)
            assert v.kind == "noncontextual"
            assert decomposition_reproduces(m, v.decomposition)

    def test_signaling_input_refused(self):
        with pytest.raises(SignalingSystemError):
            classify(get("d_prime_eprb").system)

    def test_ksp_possibilistic_empty(self):
        v = classify(get("ksp_support").system)
        assert v == analysis.Verdict("no_ns_realizations")

    def test_possibilistic_with_realizations_rejected(self):
        with pytest.raises(ValueError) as exc:
            classify(get("eprb_shape").system)
        assert str(exc.value) == (
            "eprb_shape: 16 non-signaling realizations exist; "
            "probabilities are required to decide contextuality"
        )

    def test_invalid_pmfs_refused(self):
        def one_context(pmf):
            return make_system("bad", {"1": ("0", "1")}, {"1": ("0", "1")}, {("1", "1"): pmf})

        with pytest.raises(InvalidSystemError) as exc:
            one_context({("0", "0"): HALF})
        assert exc.value.violations == ["context ('1', '1'): sum 1/2 != 1"]
        with pytest.raises(InvalidSystemError) as exc:
            one_context({("0", "0"): Fraction(3, 2), ("1", "1"): -HALF})
        assert exc.value.violations == [
            "context ('1', '1'): negative probability -1/2 at ('1', '1')"
        ]

    # The entry points check no spec themselves: no invalid one can be built.
    @pytest.mark.parametrize(
        "build, args, violations",
        [
            (
                make_support,
                ("out", BIN, BIN, {("1", "1"): [("7", "0")]}),
                ["context ('1', '1'): pair ('7', '0') outside alphabet product"],
            ),
            (
                make_support,
                ("unknown", BIN, BIN, {("9", "1"): [("0", "0")]}),
                ["context ('9', '1'): unknown A-setting '9'"],
            ),
            (
                make_system,
                (
                    "empty",
                    {"1": ("0", "1"), "2": ()},
                    BIN,
                    {("1", "1"): {("0", "0"): Fraction(1)}},
                ),
                ["A-setting '2': alphabet must be non-empty and duplicate-free"],
            ),
            (
                make_system,
                (
                    "half",
                    BIN,
                    BIN,
                    {(x, y): {("0", "0"): HALF} for x in BIN for y in BIN},
                ),
                [f"context ('{x}', '{y}'): sum 1/2 != 1" for x in BIN for y in BIN],
            ),
        ],
        ids=[
            "support-outside-alphabet",
            "support-unknown-setting",
            "empty-alphabet",
            "oracle-half-sum",
        ],
    )
    def test_every_entry_point_validates(self, build, args, violations):
        with pytest.raises(InvalidSystemError) as exc:
            build(*args)
        assert exc.value.violations == violations


def test_classify_leaves_no_reference_cycles():
    # Reference counting alone frees what `classify` builds, its search
    # tables included: with the cyclic collector off, a collection after
    # classifying finds nothing.  A decomposition, a Farkas witness and a
    # support witness.
    systems = [
        mix([(get("d1").system, HALF), (get("d2").system, HALF)]),
        mix([(conspiracy_system(), Fraction(3, 4)), (uniform_system(BIN, BIN), Fraction(1, 4))]),
        conspiracy_system(),
    ]
    gc.collect()
    gc.disable()
    try:
        kinds = [classify(system).kind for system in systems]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert kinds == ["noncontextual", "contextual", "contextual"]


class TestCertificateChecks:
    """A wrong solver outcome must be refused, also under `python -O`."""

    @pytest.mark.parametrize(
        "system, wrong",
        [
            (get("d_eprb").system, lambda problem: FeasibleSolution(p=(Fraction(2),) * problem.num_cols)),
            (
                # contextual, and its full support admits all 16 realizations
                mix([(conspiracy_system(), Fraction(3, 4)), (uniform_system(BIN, BIN), Fraction(1, 4))]),
                lambda problem: FarkasCertificate(y=(Fraction(0),) * len(problem.rows)),
            ),
        ],
        ids=["feasible", "farkas"],
    )
    def test_wrong_outcome_raises(self, monkeypatch, system, wrong):
        monkeypatch.setattr(analysis, "solve_feasibility", wrong)
        with pytest.raises(CertificateError):
            classify(system)

    def test_lp_of_another_system_raises(self, monkeypatch):
        # The solver answers its LP correctly, but the LP holds d1's
        # probabilities: only a check of the decomposition against the input
        # itself can see that.
        build = analysis._membership_problem
        d1 = get("d1").system
        monkeypatch.setattr(
            analysis,
            "_membership_problem",
            lambda system, columns, supported: build(d1, columns, supported),
        )
        with pytest.raises(CertificateError):
            classify(mix([(d1, HALF), (get("d2").system, HALF)]))

    def test_missing_column_raises(self, monkeypatch):
        # Without one of its realizations the noncontextual half mix gets a
        # Farkas certificate whose witness the dropped realization beats.
        enumerate_all = analysis._ns_outcomes
        monkeypatch.setattr(
            analysis,
            "_ns_outcomes",
            lambda support, limit: enumerate_all(support, limit)[1:],
        )
        with pytest.raises(CertificateError):
            classify(mix([(get("d1").system, HALF), (get("d2").system, HALF)]))


def _no_solver(problem):
    raise AssertionError("the support decides this system; no LP is needed")


class TestSupportWitness:
    """With no realization fitting the support, the support is the witness."""

    def test_conspiracy_within_small_limit(self, monkeypatch):
        # Nothing is enumerated beyond the support's realizations, of which
        # the PR box has none, so a limit of 3 is never reached.
        monkeypatch.setattr(analysis, "solve_feasibility", _no_solver)
        s = conspiracy_system()
        v = classify(s, limit=3)
        assert v.kind == "contextual" and v.realization_count == 0
        assert v.witness.bound == 3
        assert v.witness.coefficients == {
            (ctx, a, b): 1 for ctx in s.contexts for a, b in s.pmfs[ctx]
        }

    @pytest.mark.parametrize(
        "settings, outcomes, bound",
        [(4, 3, 15), (7, 2, 48)],
        ids=["4x4-ternary", "7x7-binary"],
    )
    def test_perfect_chained_box_passes_checker(self, monkeypatch, settings, outcomes, bound):
        monkeypatch.setattr(analysis, "solve_feasibility", _no_solver)
        s = perfect_chained_box(settings, outcomes)
        v = classify(s)
        assert v.kind == "contextual"
        # N contexts, each scoring 1 on the system; the best (f, g) misses one.
        assert v.witness.bound == bound == len(s.contexts) - 1
        assert checker_accepts(s, v.witness.coefficients, v.witness.bound)

    def test_forged_bound_raises(self, monkeypatch):
        # An oracle that lets some (f, g) score N, as much as the system.
        monkeypatch.setattr(
            analysis,
            "_local_bound",
            lambda coefficients, system: Fraction(len(system.contexts)),
        )
        with pytest.raises(CertificateError):
            classify(conspiracy_system())

    def test_realization_beating_bound_raises(self):
        # The PR box scores 4 on its support witness and the best (f, g) 3:
        # a bound of 5/2 still lies below the system, but not above every
        # realization.
        s = conspiracy_system()
        coefficients = dict(classify(s).witness.coefficients)
        assert analysis._checked_witness(coefficients, s).bound == 3
        with pytest.raises(CertificateError, match="a realization beats the witness bound"):
            analysis._checked_witness(coefficients, s, Fraction(5, 2))


def _kept_rows_case(rng: random.Random):
    """A random non-signaling system up to 3x3 settings and ternary outcomes
    on a random subset of its contexts: a mixture of deterministic systems,
    or a chained box mod k mixed with deterministic noise, which keeps the
    four contexts of its chain in most draws."""
    if rng.random() < 0.3:
        system = random_ns_mixture(rng)
        chain = []
    else:
        k = rng.randint(2, 3)
        alph = lambda n: {str(i): tuple(map(str, range(k))) for i in range(1, n + 1)}
        a_alph, b_alph = alph(rng.randint(2, 3)), alph(rng.randint(2, 3))
        noise = [random_deterministic_ns(rng, a_alph, b_alph) for _ in range(rng.randint(1, 3))]
        weights = [rng.randint(1, 3) for _ in noise]
        box = rng.randint(1, 4 * sum(weights))
        total = box + sum(weights)
        system = mix(
            [(chained_box(a_alph, b_alph, k, {("1", "1"): 1}), Fraction(box, total))]
            + [(n, Fraction(w, total)) for n, w in zip(noise, weights)]
        )
        chain = [ctx for ctx in system.contexts if {ctx.x, ctx.y} <= {"1", "2"}]
        if rng.random() < 0.2:
            chain = []
    others = [ctx for ctx in system.contexts if ctx not in chain]
    contexts = chain + rng.sample(others, rng.randint(0 if chain else 1, len(others)))
    return restrict(system, contexts)


class TestKeptRows:
    """The rows the membership LP drops follow from the rows it keeps."""

    def test_reduced_lp_decides_as_the_full_lp(self):
        rng = random.Random(1004)
        kinds = set()
        contextual = 0
        for _ in range(400):
            system = _kept_rows_case(rng)
            support = support_of(system)
            columns_from = support
            pairs_of = lambda ctx: sorted(support.supports[ctx])
            if not enumerate_ns_realizations(support):
                columns_from = full_support(system)
                pairs_of = system.pairs
            # The same columns, as realizations and as their outcome tuples.
            columns = enumerate_ns_realizations(columns_from)
            outcomes = analysis._ns_outcomes(columns_from, analysis.DEFAULT_LIMIT)
            supported = [(ctx, pair) for ctx in system.contexts for pair in pairs_of(ctx)]
            incidence = analysis._membership_problem(system, outcomes, supported)
            keys = incidence[-1]
            full_rows, full_rhs, _ = full_membership_problem(system, columns, supported)
            assert len(keys) + 1 <= len(full_rows)  # the kept rows and normalization
            reduced = solve_feasibility(incidence_tableau(*incidence[:3]))
            full = solve_feasibility(rational_tableau(full_rows, full_rhs, len(columns)))
            assert type(reduced) is type(full)
            kinds.add(type(reduced))
            if isinstance(reduced, FeasibleSolution):
                components = tuple((r, w) for r, w in zip(columns, reduced.p) if w)
                assert decomposition_reproduces(system, Decomposition(components))
            else:
                contextual += 1
                # The kept rows' y, zero on the dropped rows, certifies the full LP.
                y = dict(zip(keys, reduced.y))
                padded = tuple(y.get(key, 0) for key in supported) + reduced.y[-1:]
                problem = dense_problem(full_rows, full_rhs, len(columns))
                assert verify(problem, FarkasCertificate(y=padded))
        assert kinds == {FeasibleSolution, FarkasCertificate}
        assert contextual >= 100

    @pytest.mark.parametrize(
        "settings, outcomes, rows",
        [(4, 2, 25), (3, 3, 49), (5, 2, 36), (2, 2, 9)],
        ids=["4x4-binary", "3x3-ternary", "5x5-binary", "2x2-binary"],
    )
    def test_full_support_row_counts(self, settings, outcomes, rows):
        # Collins-Gisin: (k-1)^2 per context, (k-1) per setting, and one.
        alph = {str(i): tuple(map(str, range(outcomes))) for i in range(1, settings + 1)}
        system = uniform_system(alph, alph)
        keys = analysis._membership_problem(system, (), every_pair(system))[-1]
        assert len(keys) + 1 == rows


def _column_cases():
    """Random systems up to 3x3 ternary (those of TestKeptRows) and 2x3 and
    2x4 binary, contextual and not."""
    rng = random.Random(1414)
    for _ in range(150):
        yield _kept_rows_case(rng)
    for n in (3, 4):
        for _ in range(40):
            yield _two_by_n_case(rng, n)


class TestColumnsAsOutcomes:
    """`classify` solves over outcome tuples and builds a `Realization` only
    for each component of the decomposition it returns."""

    def test_components_are_enumerated_realizations(self):
        kinds = set()
        for system in _column_cases():
            ns = enumerate_ns_realizations(support_of(system))
            v = classify(system)
            kinds.add(v.kind)
            assert v.realization_count == len(ns)
            if v.decomposition is not None:
                assert all(r in ns for r, _ in v.decomposition.components)
        assert kinds == {"contextual", "noncontextual"}

    def test_builds_one_realization_per_component(self, monkeypatch):
        built, realization = 0, analysis.Realization

        def counted(*args, **kwargs):
            nonlocal built
            built += 1
            return realization(*args, **kwargs)

        monkeypatch.setattr(analysis, "Realization", counted)
        zero_weight_columns = 0
        for system in _column_cases():
            built = 0
            v = classify(system)
            components = len(v.decomposition.components) if v.decomposition else 0
            assert built == components
            if v.decomposition is not None:
                zero_weight_columns += v.realization_count - components
        assert zero_weight_columns > 0

    def test_witness_score_is_the_fraction_sum(self):
        # Coefficients on every pair of every context: pairs missing from the
        # pmf dict, pairs held at probability 0, and pairs of the support.
        rng = random.Random(99)
        held_zero = missing = 0
        for _ in range(200):
            system = random_ns_mixture(rng)
            pmfs = {ctx: dict(pmf) for ctx, pmf in system.pmfs.items()}
            for ctx in system.contexts:
                for pair in system.pairs(ctx):
                    if pair not in pmfs[ctx] and rng.random() < 0.5:
                        pmfs[ctx][pair] = Fraction(0)
            system = make_system(system.name, system.a_alphabet, system.b_alphabet, pmfs)
            coefficients = {
                (ctx, a, b): Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                for ctx in system.contexts
                for a, b in system.pairs(ctx)
            }
            reference = sum(
                (c * pmfs[ctx].get((a, b), 0) for (ctx, a, b), c in coefficients.items()),
                Fraction(0),
            )
            score = witness_score(BellWitness(coefficients, Fraction(0)), system)
            assert type(score) is Fraction and score == reference
            held_zero += sum(p == 0 for pmf in pmfs.values() for p in pmf.values())
            missing += sum(
                pair not in pmfs[ctx] for ctx in system.contexts for pair in system.pairs(ctx)
            )
        assert held_zero > 0 and missing > 0


class TestDecompositionReproduces:
    def test_classify_output(self):
        m = mix([(get("d1").system, HALF), (get("d2").system, HALF)])
        v = classify(m)
        assert decomposition_reproduces(m, v.decomposition)

    def test_perturbed_weight_fails(self):
        m = mix([(get("d1").system, HALF), (get("d2").system, HALF)])
        v = classify(m)
        comps = list(v.decomposition.components)
        assert len(comps) >= 2
        eps = Fraction(1, 100)
        bad = Decomposition(
            components=tuple(
                [(comps[0][0], comps[0][1] + eps), (comps[1][0], comps[1][1] - eps)]
                + comps[2:]
            )
        )
        assert not decomposition_reproduces(m, bad)

    def test_matches_fraction_sums_on_mutated_decompositions(self):
        rng = random.Random(29)
        mutated = reproduced = 0
        for _ in range(150):
            m = random_ns_mixture(rng)
            comps = list(classify(m).decomposition.components)
            i, j = rng.sample(range(len(comps)), 2) if len(comps) > 1 else (0, 0)
            (ri, wi), (rj, wj) = comps[i], comps[j]
            moved = wi * Fraction(rng.randint(1, 3), 4)
            variants = [
                comps,
                comps[:i] + [(ri, Fraction(0))] + comps[i + 1:],
                comps[:i] + [(ri, -wi)] + comps[i + 1:],
            ]
            if i != j:
                shifted = list(comps)
                shifted[i], shifted[j] = (ri, wi - moved), (rj, wj + moved)
                variants.append(shifted)
                # Every pair the rest hits can still match: only the weight
                # sum tells that a component is missing.
                variants.append(comps[:i] + comps[i + 1:])
            for components in variants:
                d = Decomposition(components=tuple(components))
                expected = reproduces_by_fraction_sums(m, d)
                assert decomposition_reproduces(m, d) == expected
                mutated += components is not comps
                reproduced += expected
        assert mutated > 450 and reproduced >= 150  # 520 and 150 here

    def test_hand_built(self):
        m = mix([(get("d1").system, HALF), (get("d2").system, HALF)])
        ns = enumerate_ns_realizations(support_of(m))
        by_pair = {r.values[Context("1", "1")]: r for r in ns}
        hand = Decomposition(
            components=((by_pair[("1", "1")], HALF), (by_pair[("0", "0")], HALF))
        )
        assert decomposition_reproduces(m, hand)

    def test_component_missing_a_context_fails(self):
        # The decomposition of a one-context system has realizations over
        # that context only; a system with one more context that agrees on
        # the first is not reproduced by it, and the check says so.
        one = make_system("one", {"1": ("0",)}, {"1": ("0",)}, {("1", "1"): {("0", "0"): 1}})
        two = make_system(
            "two",
            {"1": ("0",)},
            {"1": ("0",), "2": ("0",)},
            {("1", "1"): {("0", "0"): 1}, ("1", "2"): {("0", "0"): 1}},
        )
        decomposition = classify(one).decomposition
        assert decomposition_reproduces(one, decomposition)
        assert not decomposition_reproduces(two, decomposition)


class TestChsh:
    def test_conspiracy_is_4(self):
        assert chsh(conspiracy_system()) == 4

    def test_independent_uniform_is_0(self):
        q = Fraction(1, 4)
        pmfs = {
            (x, y): {(a, b): q for a in "01" for b in "01"}
            for x in ("1", "2")
            for y in ("1", "2")
        }
        from contextuality import make_system

        s = make_system("uniform", BIN, BIN, pmfs)
        assert chsh(s) == 0

    def test_d1_d2_mix_is_2(self):
        m = mix([(get("d1").system, HALF), (get("d2").system, HALF)])
        assert chsh(m) == 2

    def test_each_setting_coded_by_its_own_alphabet(self):
        # The conspiracy box with A-setting 2's labels listed the other way
        # round: its two correlators change sign, and the max does not.
        box = conspiracy_system()
        a_alphabet = {**box.a_alphabet, "2": ("1", "0")}
        relabelled = make_system("relabelled", a_alphabet, box.b_alphabet, box.pmfs)
        assert chsh(relabelled) == 4
        assert fine_oracle(relabelled) == "contextual" == classify(relabelled).kind

    def test_wrong_shape(self):
        from contextuality import make_system

        s = make_system(
            "mono",
            {"1": ("0", "1")},
            {"1": ("0", "1")},
            {("1", "1"): {("0", "0"): Fraction(1)}},
        )
        with pytest.raises(ValueError):
            chsh(s)


class TestFineOracle:
    def test_conspiracy(self):
        assert fine_oracle(conspiracy_system()) == "contextual"

    def test_mixtures_of_d1_to_d4(self):
        rng = random.Random(31)
        for _ in range(20):
            ws = [rng.randint(0, 9) for _ in range(4)]
            if sum(ws) == 0:
                ws[0] = 1
            total = sum(ws)
            m = mix(
                [
                    (get(f"d{i}").system, Fraction(w, total))
                    for i, w in zip(range(1, 5), ws)
                ]
            )
            assert fine_oracle(m) == "noncontextual"

    def test_agreement_with_classify(self):
        rng = random.Random(555)
        kinds = set()
        for _ in range(200):
            s = random_ns_2x2(rng)
            v = classify(s)
            assert v.kind == fine_oracle(s)
            kinds.add(v.kind)
        assert kinds == {"noncontextual", "contextual"}


def _two_by_n_case(rng: random.Random, n: int):
    """A random 2xn binary system: deterministic parts and PR boxes."""
    a_alph = {"1": ("0", "1"), "2": ("0", "1")}
    b_alph = {str(j): ("0", "1") for j in range(1, n + 1)}
    parts = [random_deterministic_ns(rng, a_alph, b_alph) for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(0, 2)):
        # a PR box on B-settings y, y2: b = a, except b = a + 1 in one
        # of their contexts; every other context copies a or flips it
        y, y2 = rng.sample(sorted(b_alph), 2)
        shifts = {(x, yy): rng.randint(0, 1) for x in a_alph for yy in b_alph}
        shifts.update({(x, yy): 0 for x in a_alph for yy in (y, y2)})
        shifts[(rng.choice("12"), rng.choice((y, y2)))] = 1
        parts.append(chained_box(a_alph, b_alph, 2, shifts))
    weights = [rng.randint(1, 6) for _ in parts]
    return mix([(p, Fraction(w, sum(weights))) for p, w in zip(parts, weights)])


class TestTwoByNOracle:
    """`classify` against the CHSH criterion on 1,000 binary systems at each
    of 2x3 through 2x6."""

    def test_agrees_with_classify(self):
        rng = random.Random(2718)
        kinds = []
        for n in (3, 4, 5, 6):
            for _ in range(1000):
                system = _two_by_n_case(rng, n)
                kind = classify(system).kind
                assert kind == chsh_2xn_oracle(system)
                kinds.append(kind)
        assert kinds.count("contextual") >= 1000 and kinds.count("noncontextual") >= 1000


def _dot(form, point):
    return sum(map(operator.mul, form, point))


def _rank(rows) -> int:
    """The rank of integer rows, by fraction-free elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                row = [p[col] * a - rows[i][col] * b for a, b in zip(rows[i], p)]
                g = math.gcd(*row)
                rows[i] = [v // g for v in row] if g > 1 else row
        rank += 1
    return rank


_DRAWS_3322 = ("local", "on a facet", "past a CHSH facet", "past an I3322 facet", "PR box and noise")


def _3322_draws(rng: random.Random, count: int):
    """`count` 3322 systems, each with how it was drawn, the five ways in
    turn (`_DRAWS_3322`), so each has a fixed share:
    - a mixture of one to four deterministic points: noncontextual;
    - the point inside a random facet that weighs each of its tight
      deterministic points by 1 to 5: on the boundary, noncontextual;
    - that point for a CHSH or an I3322 facet, pushed out along the facet's
      normal by a random share of the way to the nearest other facet: it
      violates that facet alone, and is contextual;
    - a PR box on a random 2x2 sub-box (uniform elsewhere), mixed with a
      mixture of deterministic points at a random weight: either verdict.
    The facets are those of `facets_3322`, checked by `test_facets`."""
    facets = facets_3322()
    every = [form for orbit in facets.values() for form in orbit]
    points = deterministic_3322()

    def local_point():
        chosen = rng.sample(points, rng.randint(1, 4))
        weights = [rng.randint(1, 5) for _ in chosen]
        return [Fraction(sum(w * p[i] for w, p in zip(weights, chosen)), sum(weights))
                for i in range(16)]

    for k in range(count):
        how = _DRAWS_3322[k % len(_DRAWS_3322)]
        if how == "local":
            point = local_point()
        elif how == "PR box and noise":
            # b = a on the sub-box's contexts but an odd number of them,
            # where b != a: pAB is 1/2 or 0 there, and 1/4 elsewhere.
            box = list(product(rng.sample(range(3), 2), rng.sample(range(3), 2)))
            odd = rng.choice([1, 3])
            anti = set(rng.sample(box, odd))
            pr = [1] + [Fraction(1, 2)] * 6 + [
                Fraction(0 if ctx in anti else 2, 4) if ctx in box else Fraction(1, 4)
                for ctx in product(range(3), range(3))
            ]
            weight = Fraction(rng.randint(1, 9), 10)
            point = [weight * a + (1 - weight) * b for a, b in zip(pr, local_point())]
        else:
            orbit = {"on a facet": every, "past a CHSH facet": facets["chsh"],
                     "past an I3322 facet": facets["i3322"]}[how]
            facet = rng.choice(orbit)
            tight = [p for p in points if _dot(facet, p) == 0]
            weights = [rng.randint(1, 5) for _ in tight]
            inside = [sum(w * p[i] for w, p in zip(weights, tight)) for i in range(16)]
            step = Fraction(0)
            if how != "on a facet":
                normal = (0, *facet[1:])
                # The nearest other facet along the normal, at -slack / rate.
                slack, rate = None, None
                for other in every:
                    r = _dot(other, normal)
                    if r > 0 and other != facet:
                        v = -_dot(other, inside)
                        if slack is None or v * rate < slack * r:
                            slack, rate = v, r
                step = Fraction(slack, rate) * Fraction(rng.randint(1, 9), 10)
                inside = [v + step * n for v, n in zip(inside, normal)]
            point = [Fraction(v, sum(weights)) for v in inside]
        yield system_3322(point, name=how), how


class TestOracle3322:
    """`classify` against the complete facet list of the 3322 local polytope
    (three binary settings per side) on 1,000 systems: no LP on the
    oracle's side."""

    def test_facets(self):
        facets = facets_3322()
        assert {name: len(orbit) for name, orbit in facets.items()} == {
            "positivity": 36, "chsh": 72, "i3322": 576,
        }
        points = deterministic_3322()
        for orbit in facets.values():
            for form in orbit:
                values = [_dot(form, p) for p in points]
                # Valid on every deterministic point, and tight on enough of
                # them to span a hyperplane of the 15-dimensional polytope.
                assert max(values) == 0
                assert _rank([p for p, v in zip(points, values) if v == 0]) == 15

    def test_agrees_with_classify(self):
        rng = random.Random(3322)
        tally = collections.Counter()
        for system, how in _3322_draws(rng, 1000):
            v = classify(system)
            assert v.kind == local_3322_oracle(system), how
            if how.startswith("past"):
                violated = violated_3322(cg_point_3322(system))
                assert [name for name, _ in violated] == [how.split()[2].lower()]
            if v.kind == "contextual":
                assert checker_accepts(system, v.witness.coefficients, v.witness.bound)
            else:
                assert decomposition_reproduces(system, v.decomposition)
                assert reproduces_by_fraction_sums(system, v.decomposition)
            tally[how, v.kind] += 1
        share = 1000 // len(_DRAWS_3322)
        assert tally["local", "noncontextual"] == tally["on a facet", "noncontextual"] == share
        assert tally["past a CHSH facet", "contextual"] == share
        assert tally["past an I3322 facet", "contextual"] == share
        assert min(tally["PR box and noise", kind] for kind in ("contextual", "noncontextual")) >= 40


class TestWitness:
    def test_witness_separates(self):
        s = conspiracy_system()
        v = classify(s)
        w = v.witness
        assert witness_score(w, s) > w.bound
        for r in enumerate_ns_realizations(full_support(s)):
            assert realization_score(w, r) <= w.bound

    def test_all_zero_witness_invalid(self):
        from contextuality.analysis import BellWitness

        s = conspiracy_system()
        w = BellWitness(coefficients={}, bound=Fraction(-1))
        # scores 0 > -1 on everything: fails the realization-side invariant
        bad = any(
            realization_score(w, r) > w.bound
            for r in enumerate_ns_realizations(full_support(s))
        )
        assert bad

    def test_random_contextual_witnesses_sound(self):
        rng = random.Random(777)
        checked = 0
        while checked < 10:
            s = random_ns_2x2(rng)
            v = classify(s)
            if v.kind != "contextual":
                continue
            checked += 1
            assert witness_score(v.witness, s) > v.witness.bound
            # the bound holds for every realization over the full alphabets,
            # not only those classify used as columns
            for r in enumerate_ns_realizations(full_support(s)):
                assert realization_score(v.witness, r) <= v.witness.bound

    def test_local_bound_is_best_realization_score(self):
        rng = random.Random(4242)
        for _ in range(60):
            s = random_ns_mixture(rng)
            keys = [(ctx, a, b) for ctx in s.contexts for a, b in s.pairs(ctx)]
            w = BellWitness(
                coefficients={
                    key: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                    for key in rng.sample(keys, rng.randint(0, len(keys)))
                },
                bound=Fraction(0),
            )
            best = max(
                realization_score(w, r)
                for r in enumerate_ns_realizations(full_support(s))
            )
            assert analysis._local_bound(w.coefficients, s) == best

        # Context subsets, so some settings are in no context, and mixed
        # alphabet sizes, each against every (f, g) listed outright; half
        # with small integer coefficients, whose near ties a cut one unit
        # too early gets wrong.
        a_alph = {"1": ("0", "1"), "2": ("0", "1", "2"), "3": ("0", "1", "2", "3")}
        b_alph = {"1": ("0", "1", "2"), "2": ("0", "1"), "3": ("0", "1")}
        mixed = _mixture_of(rng, a_alph, b_alph)
        # A-setting 3 and B-setting 3 in no context
        cases = [(mixed, list(mixed.contexts)), (mixed, [c for c in mixed.contexts if "3" not in c])]
        cases += [
            (mixed, rng.sample(list(mixed.contexts), rng.randint(1, len(mixed.contexts))))
            for _ in range(12)
        ]
        # Random shapes up to 3x3 ternary, either side the larger.
        for _ in range(600):
            m = _mixture_of(rng, *random_shape(rng))
            cases.append((m, rng.sample(list(m.contexts), rng.randint(1, len(m.contexts)))))
        for i, (m, contexts) in enumerate(cases):
            s = restrict(m, contexts)
            keys = [(ctx, a, b) for ctx in s.contexts for a, b in s.pairs(ctx)]
            coefficients = {
                key: Fraction(rng.randint(-2, 2)) if i % 2
                else Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                for key in rng.sample(keys, rng.randint(0, len(keys)))
            }
            assert analysis._local_bound(coefficients, s) == _brute_local_bound(
                coefficients, s
            )
        assert analysis._local_bound({}, conspiracy_system()) == 0

    def test_farkas_bound_is_best_supported_score(self):
        # On every LP witness the bound, read off the LP's columns, is the
        # best score of an (f, g) whose pairs are all supported.
        rng = random.Random(2323)
        farkas = charged = 0
        while farkas < 200:
            s = _contextual_draw(rng)
            v = classify(s)
            if v.kind != "contextual" or v.realization_count == 0:
                continue
            farkas += 1
            supported = {(ctx, pair) for ctx in s.contexts for pair in s.supports[ctx]}
            charged += any((ctx, (a, b)) not in supported for ctx, a, b in v.witness.coefficients)
            assert v.witness.bound == _brute_local_bound(v.witness.coefficients, s, supported)
        assert charged > 0


def _contextual_draw(rng):
    """A chained box with one shifted context, up to 3x3 ternary, mixed with
    deterministic systems and, at times when binary, the uniform one: often
    contextual, and with realizations, since each deterministic part is
    one."""
    k = rng.randint(2, 3)
    alph = tuple(map(str, range(k)))
    a_alph = {str(i): alph for i in range(1, rng.randint(2, 3) + 1)}
    b_alph = {str(j): alph for j in range(1, rng.randint(2, 3) + 1)}
    shift = (rng.choice(list(a_alph)), rng.choice(list(b_alph)))
    others = [random_deterministic_ns(rng, a_alph, b_alph) for _ in range(rng.randint(1, 3))]
    if k == 2 and rng.random() < 0.3:  # full support, no unsupported pair to charge
        others.append(uniform_system(a_alph, b_alph))
    # Weights in eighths keep the LP's integers small.
    box = rng.randint(4, 8 - len(others))
    cuts = sorted(rng.sample(range(1, 8 - box), len(others) - 1))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [8 - box])]
    parts = [(chained_box(a_alph, b_alph, k, {shift: rng.randint(1, k - 1)}), box)]
    parts += zip(others, weights)
    return mix([(p, Fraction(w, 8)) for p, w in parts])


def _mixture_of(rng, a_alph, b_alph):
    parts = [random_deterministic_ns(rng, a_alph, b_alph) for _ in range(4)]
    return mix([(p, Fraction(1, 4)) for p in parts])


def _assignments(alphabets):
    settings = sorted(alphabets)
    for outcomes in itertools.product(*(alphabets[s] for s in settings)):
        yield dict(zip(settings, outcomes))


def _allows(s, f, g, allowed) -> bool:
    return allowed is None or all((ctx, (f[ctx.x], g[ctx.y])) in allowed for ctx in s.contexts)


def _brute_local_bound(coefficients, s, allowed=None):
    """Best score of the coefficients over every (f, g) on the full
    alphabets whose pairs are allowed, listed outright; None if none is."""
    scores = [
        sum(coefficients.get((ctx, f[ctx.x], g[ctx.y]), 0) for ctx in s.contexts)
        for f in _assignments(s.a_alphabet)
        for g in _assignments(s.b_alphabet)
        if _allows(s, f, g, allowed)
    ]
    return max(scores, default=None)


class TestHiddenVariableModel:
    def test_model_reproduces_pmfs(self):
        rng = random.Random(808)
        for _ in range(20):
            m = random_ns_mixture(rng)
            v = classify(m)
            model = v.decomposition.components
            assert sum(w for _, w in model) == 1
            for ctx in m.contexts:
                for pair in m.pairs(ctx):
                    p = sum(
                        w
                        for r, w in model
                        if (r.f[ctx.x], r.g[ctx.y]) == pair
                    )
                    assert p == m.pmfs[ctx].get(pair, ZERO)


def _disagreeing_triads():
    """Two triads sharing their first ray, whose patterns give it 0 and 1."""
    shared = Ray((Zr2(1, 0), Zr2(0, 1), Zr2(-1, 2)))
    others = [Ray((Zr2(i, 0), Z0, Z0)) for i in range(1, 5)]
    triads = [Triad((shared, *others[:2])), Triad((shared, *others[2:]))]
    return {"1": "011", "2": "101"}, triads


def _one_context(name):
    return make_system(name, {"1": ("0", "1")}, {"1": ("0", "1")},
                       {("1", "1"): {("0", "0"): 1}})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: chsh(make_system("three", BIN, BIN, {
            ctx: {("0", "0"): 1} for ctx in [("1", "1"), ("1", "2"), ("2", "1")]
        })), ValueError, "CHSH needs all four contexts"),
        (lambda: marginal(get("d1").system, Context("1", "1"), "C"), ValueError,
         "side must be 'A' or 'B', got 'C'"),
        (lambda: mix([]), ValueError, "empty mixture"),
        (lambda: mix_context_dependent({}), ValueError, "empty rule"),
        (lambda: mix([(get("d1").system, Fraction(3, 2)), (get("d2").system, -HALF)]),
         ValueError, "negative weight -1/2 at context ('1', '1')"),
        (lambda: mix([(get("d1").system, HALF), (_one_context("one"), HALF)]),
         ValueError, "shape mismatch between 'd1' and 'one'"),
        (lambda: ks_support([], rule="exactly-two-ones"), ValueError,
         "unknown rule 'exactly-two-ones'"),
        (lambda: coloring_from_ns_function(*_disagreeing_triads()), ValueError,
         "inconsistent valuation at ray (1, √2, -1+2√2)"),
    ],
    ids=[
        "chsh-three-contexts", "marginal-side", "mix-empty",
        "mix-context-dependent-empty", "mix-negative-weight", "mix-two-shapes",
        "ks-search-rule", "coloring-disagrees",
    ],
)
def test_error_paths(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
