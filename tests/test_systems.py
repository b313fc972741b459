import random
from fractions import Fraction

import pytest

from contextuality import (
    Context,
    InvalidSystemError,
    Realization,
    SignalingWitness,
    SupportSpec,
    SystemSpec,
    check_nonsignaling,
    classify,
    count_assignments,
    expectation_product,
    get,
    make_system,
    marginal,
    mix,
    mix_context_dependent,
    support_of,
    validate,
)
from contextuality import systems
from contextuality.systems import context_key, realization_system

from helpers import random_deterministic_ns, random_ns_mixture, random_shape

BIN = {"1": ("0", "1"), "2": ("0", "1")}


def binary_system(name, pmfs):
    return make_system(name, BIN, BIN, pmfs)


class TestValidate:
    def test_d_eprb_ok(self):
        assert validate(get("d_eprb").system) == []

    def test_bad_sum_reported(self):
        s = binary_system(
            "bad",
            {
                ("1", "1"): {("0", "0"): Fraction(1, 2), ("1", "1"): Fraction(1, 3)},
            },
        )
        problems = validate(s)
        assert any("5/6" in p for p in problems)

    def test_empty_context_list(self):
        s = make_system("empty", BIN, BIN, {})
        assert "no contexts" in validate(s)

    def test_negative_probability(self):
        s = binary_system(
            "neg",
            {("1", "1"): {("0", "0"): Fraction(3, 2), ("1", "1"): Fraction(-1, 2)}},
        )
        assert any("negative" in p for p in validate(s))

    def test_messages_on_coprime_denominators(self):
        # validate sums integer counts over one common denominator, here
        # 2 * 7919 * 7907; its messages must be those of Fraction sums.
        p, q = Fraction(1, 7919), Fraction(1, 7907)
        s = binary_system(
            "coprime",
            {
                ("1", "1"): {("0", "0"): p, ("1", "1"): q},
                ("1", "2"): {("0", "0"): 1 - p, ("0", "1"): p},
                ("2", "1"): {("0", "0"): p, ("0", "1"): q, ("1", "0"): 1 - p},
                ("2", "2"): {("0", "0"): -q, ("1", "1"): Fraction(1, 2) + q,
                             ("1", "0"): Fraction(1, 2)},
            },
        )
        expected = []
        for ctx in s.contexts:
            pmf = s.pmfs[ctx]
            expected += [
                f"context {tuple(ctx)}: negative probability {v} at {pair}"
                for pair, v in pmf.items()
                if v < 0
            ]
            total = sum(pmf.values(), Fraction(0))
            if total != 1:
                expected.append(f"context {tuple(ctx)}: sum {total} != 1")
        assert len(expected) == 3
        assert validate(s) == expected


    def test_inexact_probability_reported(self):
        # Built directly, a spec keeps what it is given; a float has no
        # exact counts, so validate must report it, not crash reading them.
        ctx = Context("1", "1")
        s = SystemSpec(
            name="float",
            a_alphabet={"1": ("0", "1")},
            b_alphabet={"1": ("0", "1")},
            pmfs={ctx: {("0", "0"): 0.5, ("1", "1"): Fraction(1, 2)}},
        )
        violations = ["context ('1', '1'): probability 0.5 at ('0', '0') is not an int or Fraction"]
        assert validate(s) == violations
        with pytest.raises(InvalidSystemError) as exc:
            classify(s)
        assert exc.value.violations == violations


class TestMarginal:
    def test_conspiracy_uniform(self):
        from contextuality import conspiracy_system

        s = conspiracy_system()
        for ctx in s.contexts:
            for side in ("A", "B"):
                assert marginal(s, ctx, side) == {
                    "0": Fraction(1, 2),
                    "1": Fraction(1, 2),
                }

    def test_deterministic_context(self):
        s = binary_system("det", {("1", "1"): {("1", "0"): Fraction(1)}})
        assert marginal(s, Context("1", "1"), "B") == {"0": Fraction(1), "1": Fraction(0)}

    def test_product_pmf_matches_direct_summation(self):
        pa = {"0": Fraction(1, 3), "1": Fraction(2, 3)}
        pb = {"0": Fraction(1, 4), "1": Fraction(3, 4)}
        pmf = {(a, b): pa[a] * pb[b] for a in pa for b in pb}
        s = binary_system("prod", {("1", "1"): pmf})
        # independent oracle: plain row sums of the table
        oracle = {a: sum(pmf[(a, b)] for b in pb) for a in pa}
        assert marginal(s, Context("1", "1"), "A") == oracle == pa

    def test_unknown_context(self):
        s = binary_system("one", {("1", "1"): {("0", "0"): Fraction(1)}})
        with pytest.raises(KeyError):
            marginal(s, Context("2", "2"), "A")

    def test_marginals_sum_to_one(self):
        rng = random.Random(7)
        for _ in range(50):
            s = random_ns_mixture(rng)
            for ctx in s.contexts:
                for side in ("A", "B"):
                    assert sum(marginal(s, ctx, side).values()) == 1


class TestNonsignaling:
    def test_d_eprb_ok(self):
        assert check_nonsignaling(get("d_eprb").system) is None

    def test_d_prime_witness(self):
        w = check_nonsignaling(get("d_prime_eprb").system)
        assert w is not None
        assert (w.side, w.setting) == ("A", "1")
        assert w.marginal1 == {"0": Fraction(0), "1": Fraction(1)}
        assert w.marginal2 == {"0": Fraction(1), "1": Fraction(0)}

    def test_single_context_vacuous(self):
        s = binary_system("one", {("1", "1"): {("0", "1"): Fraction(1)}})
        assert check_nonsignaling(s) is None

    @pytest.mark.parametrize(
        "pmfs, message",
        [
            (
                {("1", "1"): {("0", "2"): 1}},
                "x: context ('1', '1'): pair ('0', '2') outside alphabet product",
            ),
            (
                {("2", "1"): {("0", "0"): 1}},
                "x: context ('2', '1'): unknown A-setting '2'",
            ),
        ],
        ids=["outcome-outside-alphabet", "undeclared-setting"],
    )
    def test_invalid_system_raises_value_error(self, pmfs, message):
        # A spec validate rejects gets validate's message, not a bare KeyError.
        s = make_system("x", {"1": ("0", "1")}, {"1": ("0", "1")}, pmfs)
        with pytest.raises(ValueError) as exc:
            check_nonsignaling(s)
        assert str(exc.value) == message

    @staticmethod
    def reference_witness(system):
        """The first witness in canonical order, from Fraction marginals."""
        contexts = system.contexts
        for side, settings in (("A", system.a_settings), ("B", system.b_settings)):
            for s in settings:
                sharing = [c for c in contexts if (c.x if side == "A" else c.y) == s]
                for other in sharing[1:]:
                    ref = marginal(system, sharing[0], side)
                    m = marginal(system, other, side)
                    if m != ref:
                        return SignalingWitness(side, s, sharing[0], other, ref, m)
        return None

    @pytest.mark.parametrize("zeros", ["omitted", "explicit"])
    def test_matches_fraction_marginals_on_perturbed_mixtures(self, zeros):
        # Random mixtures up to 3x3 ternary, most of them made signaling by
        # moving mass between two pairs of one context.  Each is also built
        # directly with its contexts shuffled, and must be scanned canonically.
        rng = random.Random(23)
        shuffler = random.Random(5)
        signaling = 0
        for _ in range(300):
            base = random_ns_mixture(rng)
            pmfs = {ctx: dict(base.pmfs[ctx]) for ctx in base.contexts}
            if rng.random() < 0.8:
                ctx = rng.choice(base.contexts)
                pmf = pmfs[ctx]
                source = rng.choice(sorted(pmf))
                target = rng.choice(base.pairs(ctx))
                share = pmf[source] * Fraction(rng.randint(1, 3), 4)
                pmf[source] -= share
                pmf[target] = pmf.get(target, Fraction(0)) + share
            if zeros == "explicit":
                for ctx, pmf in pmfs.items():
                    for pair in base.pairs(ctx):
                        pmf.setdefault(pair, Fraction(0))
            else:
                pmfs = {c: {k: v for k, v in pmf.items() if v} for c, pmf in pmfs.items()}
            s = make_system("perturbed", base.a_alphabet, base.b_alphabet, pmfs)
            expected = self.reference_witness(s)
            assert check_nonsignaling(s) == expected
            contexts = list(pmfs)
            shuffler.shuffle(contexts)
            shuffled = {ctx: pmfs[ctx] for ctx in contexts}
            direct = SystemSpec("perturbed", base.a_alphabet, base.b_alphabet, shuffled)
            assert check_nonsignaling(direct) == expected
            signaling += expected is not None
        assert 100 < signaling < 250  # 148 of 300


def test_direct_spec_stores_contexts_in_canonical_order():
    # Labels "10" and "9" sort differently as numbers and as strings.
    alphabet = {"9": ("0", "1"), "10": ("0", "1")}
    pmfs = {
        (x, y): {("0", "0"): Fraction(1, 2), ("1", "1"): Fraction(1, 2)}
        for x in ("9", "10")
        for y in ("9", "10")
    }
    built = make_system("s", alphabet, alphabet, pmfs)
    direct = SystemSpec("s", alphabet, alphabet, dict(reversed(pmfs.items())))
    assert direct.contexts == tuple(sorted(direct.contexts, key=context_key))
    assert direct.contexts[0] == ("9", "9")
    assert all(type(ctx) is Context for ctx in direct.contexts)
    assert direct == built
    assert hash(direct) == hash(built)
    keyword = SystemSpec(name="s", a_alphabet=alphabet, b_alphabet=alphabet, pmfs=pmfs)
    assert keyword == direct
    assert hash(keyword) == hash(direct)


def test_spec_is_immutable_and_compares_within_its_type():
    s = binary_system("one", {("1", "1"): {("0", "1"): Fraction(1)}})
    for field in ("name", "a_alphabet", "contexts", "pmfs", "_counts"):
        with pytest.raises(AttributeError):
            setattr(s, field, None)
        with pytest.raises(AttributeError):
            delattr(s, field)
    assert s.name == "one" and s.contexts == (("1", "1"),)
    support = support_of(s)
    with pytest.raises(AttributeError):
        support.supports = {}
    # Equal fields of another spec type do not make an equal spec.
    twin = SupportSpec(s.name, s.a_alphabet, s.b_alphabet, s.pmfs)
    assert twin != s and not twin == s
    assert repr(s) == (
        "SystemSpec(name='one', a_alphabet=mappingproxy({'1': ('0', '1'), '2': ('0', '1')}), "
        "b_alphabet=mappingproxy({'1': ('0', '1'), '2': ('0', '1')}), "
        "contexts=(Context(x='1', y='1'),), "
        "pmfs=mappingproxy({('1', '1'): mappingproxy({('0', '1'): Fraction(1, 1)})}))"
    )


def test_counts_built_once_per_system(monkeypatch):
    # validate, check_nonsignaling and decomposition_reproduces all read
    # the integer counts; one lcm call means they are built only once.
    calls = []
    real_lcm = systems.lcm

    def counting_lcm(*args):
        calls.append(args)
        return real_lcm(*args)

    monkeypatch.setattr(systems, "lcm", counting_lcm)
    s = mix([(get(f"d{i}").system, Fraction(1, 4)) for i in range(1, 5)])
    assert validate(s) == []
    assert classify(s).kind == "noncontextual"
    assert len(calls) == 1


class TestSupport:
    def test_deterministic_singletons(self):
        for id in ("d_eprb", "d1", "d2", "d3", "d4"):
            supp = support_of(get(id).system)
            assert all(len(v) == 1 for v in supp.supports.values())

    def test_uniform_full(self):
        q = Fraction(1, 4)
        s = binary_system(
            "uni", {("1", "1"): {(a, b): q for a in "01" for b in "01"}}
        )
        assert support_of(s).supports[Context("1", "1")] == frozenset(
            (a, b) for a in "01" for b in "01"
        )

    def test_half_half_pair(self):
        s = binary_system(
            "pair",
            {
                ("1", "1"): {
                    ("1", "1"): Fraction(1, 2),
                    ("1", "0"): Fraction(1, 2),
                    ("0", "1"): Fraction(0),
                    ("0", "0"): Fraction(0),
                }
            },
        )
        assert support_of(s).supports[Context("1", "1")] == frozenset(
            [("1", "1"), ("1", "0")]
        )


class TestCounts:
    def test_eprb_256(self):
        c = count_assignments(get("eprb_shape").system)
        assert (c.value, c.base, c.exponent) == (256, 4, 4)
        assert str(c) == "4^4"

    def test_ksp_factored(self):
        c = count_assignments(get("ksp_support").system)
        assert (c.base, c.exponent) == (6, 1320)
        assert c.value == 6**1320


class TestMix:
    def test_quarter_mix_is_nonsignaling(self):
        comps = [(get(f"d{i}").system, Fraction(1, 4)) for i in range(1, 5)]
        assert check_nonsignaling(mix(comps)) is None

    def test_identity(self):
        s = get("d3").system
        assert mix([(s, Fraction(1))]).pmfs == s.pmfs

    def test_d1_d2_hand_expansion(self):
        half = Fraction(1, 2)
        m = mix([(get("d1").system, half), (get("d2").system, half)])
        for ctx in m.contexts:
            assert m.pmfs[ctx] == {("1", "1"): half, ("0", "0"): half}

    def test_bad_weight_sum(self):
        s = get("d1").system
        with pytest.raises(ValueError):
            mix([(s, Fraction(1, 2)), (s, Fraction(1, 3))])

    def test_ns_closure_random(self):
        rng = random.Random(19)
        for _ in range(50):
            assert check_nonsignaling(random_ns_mixture(rng)) is None


class TestMixContextDependent:
    def test_constant_rule_reduces_to_mix(self):
        half = Fraction(1, 2)
        comps = [(get("d3").system, half), (get("d4").system, half)]
        rule = {Context(x, y): comps for x in ("1", "2") for y in ("1", "2")}
        assert mix_context_dependent(rule).pmfs == mix(comps).pmfs

    def test_conspiracy_rule_gives_pr_box(self):
        from contextuality import conspiracy_system

        s = conspiracy_system()
        assert check_nonsignaling(s) is None
        half = Fraction(1, 2)
        assert s.pmfs[Context("1", "2")] == {("0", "1"): half, ("1", "0"): half}

    def test_selector_rule_signals(self):
        one = Fraction(1)
        d1, d2 = get("d1").system, get("d2").system
        rule = {
            Context(x, y): [(d1 if (x, y) == ("1", "1") else d2, one)]
            for x in ("1", "2")
            for y in ("1", "2")
        }
        s = mix_context_dependent(rule)
        assert marginal(s, Context("1", "1"), "A") == {"0": Fraction(0), "1": one}
        assert marginal(s, Context("1", "2"), "A") == {"0": one, "1": Fraction(0)}
        assert check_nonsignaling(s) is not None

    def test_bad_per_context_weights(self):
        d1 = get("d1").system
        rule = {Context("1", "1"): [(d1, Fraction(1, 2))]}
        with pytest.raises(ValueError):
            mix_context_dependent(rule)


class TestExpectationProduct:
    def test_conspiracy_values(self):
        from contextuality import conspiracy_system

        s = conspiracy_system()
        assert expectation_product(s, Context("1", "1")) == Fraction(1, 2)
        assert expectation_product(s, Context("1", "2")) == Fraction(0)

    def test_deterministic_one(self):
        s = binary_system("det", {("1", "1"): {("1", "1"): Fraction(1)}})
        assert expectation_product(s, Context("1", "1")) == 1

    def test_missing_code(self):
        s = binary_system("det", {("1", "1"): {("1", "1"): Fraction(1)}})
        with pytest.raises(KeyError):
            expectation_product(s, Context("1", "1"), coding={"0": Fraction(0)})


def test_realization_system_round_trip():
    rng = random.Random(23)
    a_alph, b_alph = random_shape(rng)
    det = random_deterministic_ns(rng, a_alph, b_alph)
    values = {ctx: next(iter(det.pmfs[ctx])) for ctx in det.contexts}
    f = {ctx.x: a for ctx, (a, _) in values.items()}
    g = {ctx.y: b for ctx, (_, b) in values.items()}
    again = realization_system(Realization(f=f, g=g, values=values), det)
    assert again.pmfs == det.pmfs
