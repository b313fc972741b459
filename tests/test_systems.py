import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from contextuality import (
    Context,
    InvalidSystemError,
    Realization,
    SignalingSystemError,
    SignalingWitness,
    SupportSpec,
    SystemSpec,
    check_nonsignaling,
    classify,
    count_assignments,
    enumerate_ns_realizations,
    expectation_product,
    get,
    make_support,
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
    """A constructor runs validate and refuses a spec it rejects, with every
    violation on the error."""

    def test_d_eprb_ok(self):
        assert validate(get("d_eprb").system) == []

    def test_bad_sum_reported(self):
        with pytest.raises(InvalidSystemError) as exc:
            binary_system(
                "bad",
                {
                    ("1", "1"): {("0", "0"): Fraction(1, 2), ("1", "1"): Fraction(1, 3)},
                },
            )
        assert exc.value.violations == ["context ('1', '1'): sum 5/6 != 1"]

    def test_empty_context_list(self):
        with pytest.raises(InvalidSystemError) as exc:
            make_system("empty", BIN, BIN, {})
        assert exc.value.violations == ["no contexts"]

    def test_negative_probability(self):
        with pytest.raises(InvalidSystemError) as exc:
            binary_system(
                "neg",
                {("1", "1"): {("0", "0"): Fraction(3, 2), ("1", "1"): Fraction(-1, 2)}},
            )
        assert exc.value.violations == [
            "context ('1', '1'): negative probability -1/2 at ('1', '1')"
        ]

    def test_messages_on_coprime_denominators(self):
        # validate sums integer counts over one common denominator, here
        # 2 * 7919 * 7907; its messages must be those of Fraction sums.
        p, q = Fraction(1, 7919), Fraction(1, 7907)
        pmfs = {
            ("1", "1"): {("0", "0"): p, ("1", "1"): q},
            ("1", "2"): {("0", "0"): 1 - p, ("0", "1"): p},
            ("2", "1"): {("0", "0"): p, ("0", "1"): q, ("1", "0"): 1 - p},
            ("2", "2"): {("0", "0"): -q, ("1", "1"): Fraction(1, 2) + q,
                         ("1", "0"): Fraction(1, 2)},
        }
        expected = []
        for ctx, pmf in pmfs.items():  # listed in canonical order
            expected += [
                f"context {ctx}: negative probability {v} at {pair}"
                for pair, v in pmf.items()
                if v < 0
            ]
            total = sum(pmf.values(), Fraction(0))
            if total != 1:
                expected.append(f"context {ctx}: sum {total} != 1")
        assert len(expected) == 3
        with pytest.raises(InvalidSystemError) as exc:
            binary_system("coprime", pmfs)
        assert exc.value.violations == expected
        assert str(exc.value) == "coprime: " + "; ".join(expected)

    def test_inexact_probability_reported(self):
        # A float has no exact counts, so validate must report it, not
        # crash reading them.
        ctx = Context("1", "1")
        with pytest.raises(InvalidSystemError) as exc:
            SystemSpec(
                name="float",
                a_alphabet={"1": ("0", "1")},
                b_alphabet={"1": ("0", "1")},
                pmfs={ctx: {("0", "0"): 0.5, ("1", "1"): Fraction(1, 2)}},
            )
        assert exc.value.violations == [
            "context ('1', '1'): probability 0.5 at ('0', '0') is not an int or Fraction"
        ]


@pytest.mark.parametrize(
    "pmfs, message",
    [
        ({("1", "2"): {("0", "0"): 1}}, "context ('1', '2'): unknown B-setting '2'"),
        ({("1", "1"): {("0", "2"): 1}}, "context ('1', '1'): pair ('0', '2') outside alphabet product"),
        ({("1", "1"): {("2", "0"): 1}}, "context ('1', '1'): pair ('2', '0') outside alphabet product"),
        # A key that is not a 2-tuple is reported like any pair, not raised.
        (
            {("1", "1"): {("0", "0", "0"): 1}},
            "context ('1', '1'): pair ('0', '0', '0') outside alphabet product",
        ),
        ({("1", "1"): {("0",): 1}}, "context ('1', '1'): pair ('0',) outside alphabet product"),
        ({("1", "1"): {"00": 1}}, "context ('1', '1'): pair 00 outside alphabet product"),
        ({("1", "1"): {("0", "0"): Fraction(1, 2)}}, "context ('1', '1'): sum 1/2 != 1"),
        (
            {("1", "1"): {("0", "0"): Fraction(3, 2), ("1", "1"): Fraction(-1, 2)}},
            "context ('1', '1'): negative probability -1/2 at ('1', '1')",
        ),
    ],
    ids=[
        "undeclared-b-setting", "pair-outside-alphabet", "a-outcome-outside-alphabet",
        "three-outcome-key", "one-outcome-key", "string-key", "sum-one-half",
        "negative-probability",
    ],
)
def test_probe_specs_refused_at_construction(pmfs, message):
    # enumerate_ns_realizations, count_assignments and check_nonsignaling
    # check nothing themselves: given these specs they would raise a bare
    # KeyError or answer, so the constructor must refuse them.
    with pytest.raises(InvalidSystemError) as exc:
        make_system("probe", BIN, {"1": ("0", "1")}, pmfs)
    assert exc.value.violations == [message]
    assert str(exc.value) == f"probe: {message}"


GOLDEN_SYSTEM = Path(__file__).parent / "golden" / "system.json"


def _mutate(rng, a_alphabet, b_alphabet, tables, support):
    """One random edit of plain spec data, in place; most edits break it."""
    ctx = rng.choice(sorted(tables))
    table = tables[ctx]
    alphabets = rng.choice([a_alphabet, b_alphabet])
    setting = rng.choice(sorted(alphabets))
    edit = rng.randrange(8)
    if edit == 0:  # drop a setting
        del alphabets[setting]
    elif edit == 1:  # rename a setting
        alphabets[setting + "'"] = alphabets.pop(setting)
    elif edit == 2:  # a stray outcome in one context
        pair = (rng.choice("012"), "2")
        if support:
            table.add(pair)
        else:
            table[pair] = rng.choice([Fraction(0), Fraction(1, 6)])
    elif edit == 3:  # empty a support or pmf
        table.clear()
    elif edit == 4:  # drop a context
        del tables[ctx]
    elif edit == 5:  # one more outcome in an alphabet
        alphabets[setting] = alphabets[setting] + ["2"]
    elif support:  # drop a pair from a support
        table.discard(rng.choice(sorted(table or [None])))
    elif edit == 6:  # rescale or negate one probability
        pair = rng.choice(sorted(table or [("0", "0")]))
        table[pair] = table.get(pair, Fraction(1, 2)) * rng.choice([-1, 0, Fraction(1, 2), 2])
    else:  # move mass between two pairs, keeping the sum: often signaling
        pairs = [(a, b) for a in "01" for b in "01"]
        source, target = rng.choice(pairs), rng.choice(pairs)
        share = table.get(source, Fraction(0)) * Fraction(rng.randint(1, 3), 4)
        table[source] = table.get(source, Fraction(0)) - share
        table[target] = table.get(target, Fraction(0)) + share


def test_mutated_specs_are_refused_or_safe():
    # Seeded mutations of the example file's plain data, built by the public
    # constructors.  A build refuses with every violation, or gives a spec on
    # which the public functions raise nothing unexpected: signaling input
    # is refused by classify, and a support with realizations is undecided.
    doc = json.loads(GOLDEN_SYSTEM.read_text())
    base_pmfs = {
        (c["x"], c["y"]): {(r["a"], r["b"]): Fraction(r["p"]) for r in c["pmf"]}
        for c in doc["contexts"]
    }
    rng = random.Random(16)
    outcomes = {"refused": 0, "decided": 0, "signaling": 0, "undecided": 0}
    start = time.perf_counter()
    for trial in range(1000):
        support = trial % 4 == 3
        a_alphabet = {x: list(al) for x, al in doc["a_alphabet"].items()}
        b_alphabet = {y: list(al) for y, al in doc["b_alphabet"].items()}
        if support:
            tables = {ctx: set(pmf) for ctx, pmf in base_pmfs.items()}
        else:
            tables = {ctx: dict(pmf) for ctx, pmf in base_pmfs.items()}
        for _ in range(rng.randint(1, 2)):
            if tables:
                _mutate(rng, a_alphabet, b_alphabet, tables, support)
        build = make_support if support else make_system
        try:
            spec = build("fuzz", a_alphabet, b_alphabet, tables)
        except InvalidSystemError as exc:
            assert exc.violations
            outcomes["refused"] += 1
            continue
        assert validate(spec) == []
        count_assignments(spec)
        enumerate_ns_realizations(spec)
        if not support:
            check_nonsignaling(spec)
        try:
            classify(spec)
        except SignalingSystemError:
            outcomes["signaling"] += 1
        except ValueError as exc:
            assert support and "probabilities are required" in str(exc)
            outcomes["undecided"] += 1
        else:
            outcomes["decided"] += 1
    assert time.perf_counter() - start < 2
    assert min(outcomes.values()) >= 20, outcomes  # every path is taken


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
        # A spec validate rejects is never built, so check_nonsignaling
        # cannot meet it; the constructor gives validate's message.
        with pytest.raises(InvalidSystemError) as exc:
            make_system("x", {"1": ("0", "1")}, {"1": ("0", "1")}, pmfs)
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
    # Labels "10" and "9" sort differently as numbers and as strings; "b"
    # and "a" are not numbers, so they follow every numeric label.
    labels = ("b", "a", "10", "9")
    alphabet = {label: ("0", "1") for label in labels}
    pmfs = {
        (x, y): {("0", "0"): Fraction(1, 2), ("1", "1"): Fraction(1, 2)}
        for x in labels
        for y in labels
    }
    built = make_system("s", alphabet, alphabet, pmfs)
    direct = SystemSpec("s", alphabet, alphabet, dict(reversed(pmfs.items())))
    assert direct.contexts == tuple(sorted(direct.contexts, key=context_key))
    assert direct.a_settings == direct.b_settings == ("9", "10", "a", "b")
    assert direct.contexts[:5] == (
        ("9", "9"), ("9", "10"), ("9", "a"), ("9", "b"), ("10", "9")
    )
    assert direct.contexts[-1] == ("b", "b")
    assert all(type(ctx) is Context for ctx in direct.contexts)
    assert direct == built
    assert hash(direct) == hash(built)
    keyword = SystemSpec(name="s", a_alphabet=alphabet, b_alphabet=alphabet, pmfs=pmfs)
    assert keyword == direct
    assert hash(keyword) == hash(direct)


def test_spec_is_immutable_and_compares_within_its_type():
    s = binary_system("one", {("1", "1"): {("0", "1"): Fraction(1)}})
    assert s.supports == {("1", "1"): frozenset({("0", "1")})}
    for field in ("name", "a_alphabet", "contexts", "pmfs", "_counts", "supports"):
        with pytest.raises(AttributeError):
            setattr(s, field, None)
        with pytest.raises(AttributeError):
            delattr(s, field)
    with pytest.raises(TypeError):
        s.supports[Context("1", "1")] = frozenset()
    with pytest.raises(TypeError):
        del s.supports[Context("1", "1")]
    assert s.name == "one" and s.contexts == (("1", "1"),)
    assert s.supports == {("1", "1"): frozenset({("0", "1")})}
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
        "pmfs=mappingproxy({Context(x='1', y='1'): mappingproxy({('0', '1'): Fraction(1, 1)})}))"
    )


@pytest.mark.parametrize("support", [False, True], ids=["system", "support"])
def test_spec_from_plain_data_is_frozen(support):
    # Lists, sets and ints go in, in no canonical order; the spec keeps its
    # own frozen copy, keyed by `Context`s in canonical order.
    a_alphabet = {"2": ["0", "1"], "1": ["0", "1"]}
    b_alphabet = {"1": ["0", "1"]}
    if support:
        table = {("2", "1"): [("0", "0"), ("1", "1")], ("1", "1"): {("0", "1")}}
    else:
        table = {("2", "1"): {("0", "0"): Fraction(1, 2), ("1", "1"): Fraction(1, 2)},
                 ("1", "1"): {("0", "1"): 1}}
    spec = (make_support if support else make_system)("plain", a_alphabet, b_alphabet, table)
    stored = spec.supports if support else spec.pmfs
    for keyed in (stored, spec.supports):
        assert list(keyed) == list(spec.contexts) == [("1", "1"), ("2", "1")]
        assert all(type(ctx) is Context for ctx in keyed)
    assert all(type(pairs) is frozenset for pairs in spec.supports.values())
    ctx = Context("1", "1")
    if not support:
        assert type(spec.pmfs[ctx][("0", "1")]) is Fraction
        with pytest.raises(TypeError):
            spec.pmfs[ctx][("0", "1")] = Fraction(1, 2)
    with pytest.raises(AttributeError):
        spec.a_alphabet["1"].append("2")
    with pytest.raises(TypeError):
        spec.b_alphabet["2"] = ("0", "1")
    with pytest.raises(TypeError):
        stored[ctx] = stored[ctx]
    before = repr(spec)
    a_alphabet["1"].append("2")
    table.clear()
    assert repr(spec) == before


@pytest.mark.parametrize("p", [0.5, "1/2"], ids=["float", "string"])
def test_make_system_is_the_constructor(p):
    # One builder per kind: a float or string probability is refused by
    # either name, with the violation the file parser would also give.
    assert make_system is SystemSpec and make_support is SupportSpec
    pmfs = {("1", "1"): {("0", "0"): p, ("1", "1"): Fraction(1, 2)}}
    for build in (make_system, SystemSpec):
        with pytest.raises(InvalidSystemError) as exc:
            build("inexact", BIN, BIN, pmfs)
        assert exc.value.violations == [
            f"context ('1', '1'): probability {p!r} at ('0', '0') is not an int or Fraction"
        ]


@pytest.mark.parametrize(
    "pairs",
    [
        lambda: [("0", "0"), ["0", "1"]],
        lambda: [("0", "0"), (["0"], "1")],
        lambda: (pair for pair in [["0", "1"], ("0", "0")]),
    ],
    ids=["list-pair", "list-outcome", "generator"],
)
def test_unhashable_support_pair_is_a_violation(pairs):
    for build in (make_support, SupportSpec):
        with pytest.raises(InvalidSystemError) as exc:
            build("unhashable", BIN, BIN, {("1", "1"): pairs()})
        bad = next(pair for pair in pairs() if pair != ("0", "0"))
        assert exc.value.violations == [f"context ('1', '1'): pair {bad} outside alphabet product"]


def test_counts_built_once_per_system(monkeypatch):
    # validate, check_nonsignaling and decomposition_reproduces all read
    # the integer counts; one lcm call means they are built only once.
    # The components are loaded first, so their own counts, built when
    # `get` parses them, are not counted whatever ran before this test.
    components = [(get(f"d{i}").system, Fraction(1, 4)) for i in range(1, 5)]
    calls = []
    real_lcm = systems.lcm

    def counting_lcm(*args):
        calls.append(args)
        return real_lcm(*args)

    monkeypatch.setattr(systems, "lcm", counting_lcm)
    s = mix(components)
    assert validate(s) == []
    assert classify(s).kind == "noncontextual"
    assert len(calls) == 1


def test_classify_builds_no_support_spec(monkeypatch):
    # classify searches the system's own `supports`; it copies the system
    # into no second spec.
    built = []
    real_init = SupportSpec.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args or kwargs)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(SupportSpec, "__init__", counting_init)
    mixture = mix([(get(f"d{i}").system, Fraction(1, 4)) for i in range(1, 5)])
    assert classify(mixture).kind == "noncontextual"
    assert classify(get("conspiracy").system).kind == "contextual"
    assert built == []
    support_of(mixture)  # the counter does see a SupportSpec being built
    assert len(built) == 1


class TestSupport:
    def test_system_supports_match_support_of(self):
        # Half the draws list every pair of the alphabet product, those of
        # probability zero included; `supports` must leave those out.
        rng = random.Random(15)
        for trial in range(200):
            s = random_ns_mixture(rng)
            if trial % 2:
                s = make_system(s.name, s.a_alphabet, s.b_alphabet, {
                    ctx: {pair: s.prob(ctx, pair) for pair in s.pairs(ctx)}
                    for ctx in s.contexts
                })
            assert s.supports == support_of(s).supports
            assert tuple(s.supports) == s.contexts
            for ctx in s.contexts:
                assert s.supports[ctx] == {
                    pair for pair in s.pairs(ctx) if s.prob(ctx, pair) > 0
                }

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
        assert (c.value, c.factors) == (256, ((4, 4),))
        assert str(c) == "4^4"

    def test_ksp_factored(self):
        c = count_assignments(get("ksp_support").system)
        assert c.factors == ((6, 1320),)
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
