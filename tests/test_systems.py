import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from contextuality import (
    Context,
    InvalidSystemError,
    RealizationLimitExceeded,
    SignalingSystemError,
    SignalingWitness,
    SupportSpec,
    SystemSpec,
    check_nonsignaling,
    classify,
    count_assignments,
    enumerate_ns_realizations,
    get,
    make_support,
    make_system,
    marginal,
    mix_context_dependent,
    support_of,
    validate,
)
from contextuality import systems
from contextuality.systems import ZERO, context_key

from helpers import mix, random_ns_mixture

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

    def test_first_witness_is_canonical_when_a_later_one_is_met_first(self):
        # Settings "2" and "10" order differently as numbers and as strings.
        # A signals at "10" only and B at both settings.  The one scan of
        # the contexts, in canonical order, meets B's mismatch at ("10", "2")
        # before A's at ("10", "10"); the witness is still A's, the first in
        # canonical order, with "2" before "10".
        alph = {"2": ("0", "1"), "10": ("0", "1")}
        pairs = {("2", "2"): ("0", "0"), ("2", "10"): ("0", "0"),
                 ("10", "2"): ("0", "1"), ("10", "10"): ("1", "1")}
        s = make_system("both-sides", alph, alph, {ctx: {pair: 1} for ctx, pair in pairs.items()})
        one, zero = Fraction(1), Fraction(0)
        expected = SignalingWitness(
            "A", "10", Context("10", "2"), Context("10", "10"),
            {"0": one, "1": zero}, {"0": zero, "1": one},
        )
        assert check_nonsignaling(s) == expected == self.reference_witness(s)
        # With A's signal removed, B's first witness is at "2", not "10".
        pairs[("10", "10")] = ("0", "1")
        s = make_system("b-only", alph, alph, {ctx: {pair: 1} for ctx, pair in pairs.items()})
        expected = SignalingWitness(
            "B", "2", Context("2", "2"), Context("10", "2"),
            {"0": one, "1": zero}, {"0": zero, "1": one},
        )
        assert check_nonsignaling(s) == expected == self.reference_witness(s)
        # B alone signals, at both its settings.  Scanned in context order,
        # B's first mismatch is at setting "2", ("1", "2") against ("2", "2");
        # the canonical witness is at setting "1", ("1", "1") against ("3", "1").
        a_alph = {x: ("0", "1") for x in ("1", "2", "3")}
        b_alph = {y: ("0", "1") for y in ("1", "2")}
        b_of = {("1", "1"): "0", ("2", "1"): "0", ("1", "2"): "0",
                ("3", "1"): "1", ("2", "2"): "1", ("3", "2"): "1"}
        s = make_system("b-at-both", a_alph, b_alph,
                        {ctx: {("0", b): 1} for ctx, b in b_of.items()})
        expected = SignalingWitness(
            "B", "1", Context("1", "1"), Context("3", "1"),
            {"0": one, "1": zero}, {"0": zero, "1": one},
        )
        assert check_nonsignaling(s) == expected == self.reference_witness(s)

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

    def test_b_witness_is_canonical_on_labels_in_three_orders(self):
        # Settings and outcomes are "b", "2" and "10": in canonical order
        # "2", "10", "b"; as strings "10", "2", "b"; and given in a random
        # order, with the contexts shuffled too.  Each system is a mixture
        # of deterministic non-signaling systems, then up to two of its
        # contexts move mass between two pairs with the same `a`.  That keeps
        # A's marginals, so side B decides: its witness is the least
        # B-setting's first mismatch, whichever setting the scan meets first.
        labels = ["b", "2", "10"]
        rng = random.Random(24)
        witnesses = {None: 0, "2": 0, "10": 0, "b": 0}
        start = time.perf_counter()
        for _ in range(1000):
            xs = rng.sample(labels, rng.randint(2, 3))
            ys = rng.sample(labels, rng.randint(2, 3))
            a_alph = {x: tuple(rng.sample(labels, rng.randint(1, 2))) for x in xs}
            b_alph = {y: tuple(rng.sample(labels, 2)) for y in ys}
            parts = [
                ({x: rng.choice(a_alph[x]) for x in xs}, {y: rng.choice(b_alph[y]) for y in ys},
                 rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))
            ]
            total = sum(w for _, _, w in parts)
            contexts = [(x, y) for x in xs for y in ys]
            rng.shuffle(contexts)
            pmfs = {ctx: {} for ctx in contexts}
            for (x, y), pmf in pmfs.items():
                for f, g, w in parts:
                    pmf[(f[x], g[y])] = pmf.get((f[x], g[y]), 0) + Fraction(w, total)
            for x, y in rng.sample(contexts, rng.randint(0, 2)):
                pmf = pmfs[(x, y)]
                a, b = rng.choice(sorted(pmf))
                other = next(o for o in b_alph[y] if o != b)
                share = pmf[(a, b)] * Fraction(rng.randint(1, 4), 4)
                pmf[(a, b)] -= share
                pmf[(a, other)] = pmf.get((a, other), 0) + share
            s = SystemSpec("three-orders", a_alph, b_alph, pmfs)
            expected = self.reference_witness(s)
            assert check_nonsignaling(s) == expected
            assert expected is None or expected.side == "B"
            witnesses[expected and expected.setting] += 1
        assert time.perf_counter() - start < 2
        assert witnesses == {None: 327, "2": 297, "10": 226, "b": 150}


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


ONE_SETTING = {"1": ("0", "1")}


@pytest.mark.parametrize(
    "table, violation",
    [
        (
            {"11": {("0", "0"): 1}},
            "table key '11' is not an (A-setting, B-setting) pair",
        ),
        (
            {("1", "1", "1"): {("0", "0"): 1}},
            "table key ('1', '1', '1') is not an (A-setting, B-setting) pair",
        ),
        (
            {("1", "1"): [(("0", "0"), 1)]},
            "context ('1', '1'): pmf [(('0', '0'), 1)] is not a mapping from pairs to probabilities",
        ),
    ],
    ids=["string-key", "3-tuple-key", "list-pmf"],
)
def test_malformed_table_is_a_violation(table, violation):
    # Plain data that names no context, or a pmf that is no mapping, is
    # reported like any other violation, not raised as KeyError, TypeError
    # or AttributeError.
    with pytest.raises(InvalidSystemError) as exc:
        make_system("malformed", ONE_SETTING, ONE_SETTING, table)
    assert exc.value.violations[0] == violation


def test_unhashable_alphabet_outcome_is_a_violation():
    # An outcome that cannot sit in a pair is reported; the rest of the
    # alphabet is still checked, so ("1", "0") is inside the product.
    with pytest.raises(InvalidSystemError) as exc:
        make_system("a", {"1": [["0"], "1"]}, ONE_SETTING, {("1", "1"): {("1", "0"): 1}})
    assert exc.value.violations == ["A-setting '1': alphabet has an unhashable outcome"]
    with pytest.raises(InvalidSystemError) as exc:
        make_support("a", {"1": ["0", "0", {}]}, ONE_SETTING, {("1", "1"): [("0", "0")]})
    assert exc.value.violations == [
        "A-setting '1': alphabet has an unhashable outcome",
        "A-setting '1': alphabet must be non-empty and duplicate-free",
    ]


def test_support_that_is_no_collection_is_a_violation():
    with pytest.raises(InvalidSystemError) as exc:
        make_support("s", ONE_SETTING, ONE_SETTING, {("1", "1"): 5})
    assert exc.value.violations == ["context ('1', '1'): support 5 is not a collection of pairs"]


@pytest.mark.parametrize(
    "build, name, a_alphabet, table, violation",
    [
        (
            make_system, "malformed", ONE_SETTING, {(None, "1"): {("0", "0"): 1}},
            "table key (None, '1') has a setting that is not a string, "
            "which the canonical order cannot place",
        ),
        (
            make_system, "malformed", ONE_SETTING,
            {(1, "1"): {("0", "0"): 1}, ("1", "1"): {("0", "0"): 1}},
            "table key (1, '1') has a setting that is not a string, "
            "which the canonical order cannot place",
        ),
        (
            make_system, "malformed", ONE_SETTING, [("1", "1")],
            "table [('1', '1')] is not a mapping from contexts to pmfs",
        ),
        (
            make_support, "malformed", ONE_SETTING, [("1", "1")],
            "table [('1', '1')] is not a mapping from contexts to supports",
        ),
        (
            make_system, "malformed", ["1"], {("1", "1"): {("0", "0"): 1}},
            "A-alphabet ['1'] is not a mapping from settings to outcomes",
        ),
        (
            make_support, "malformed", {"1": 5}, {("1", "1"): [("0", "0")]},
            "A-setting '1': alphabet 5 is not a collection of outcomes",
        ),
        (
            make_system, "malformed", {1: ("0", "1"), "1": ("0", "1")},
            {("1", "1"): {("0", "0"): 1}},
            "A-settings [1, '1'] cannot be put in canonical order",
        ),
        (
            make_system, ["x"], ONE_SETTING, {("1", "1"): {("0", "0"): 1}},
            "name ['x'] is not a string",
        ),
        (
            make_support, ("x",), ONE_SETTING, [("1", "1")],
            "name ('x',) is not a string",
        ),
        (
            # Every piece that cannot be stored, the whole list in order.
            # The order check sorts all the given settings, not only the
            # one that could be stored.
            make_system, ["n"], {1: {"a"}, "1": 5, "2": ("0",)}, [("1", "1")],
            [
                "name ['n'] is not a string",
                "A-setting 1: alphabet is a set, which has no outcome order",
                "A-setting '1': alphabet 5 is not a collection of outcomes",
                "A-settings [1, '1', '2'] cannot be put in canonical order",
                "B-alphabet ['1'] is not a mapping from settings to outcomes",
                "table [('1', '1')] is not a mapping from contexts to pmfs",
            ],
        ),
    ],
    ids=["none-setting", "int-and-string-settings", "list-table", "list-support-table",
         "list-alphabet", "int-outcomes", "int-and-string-alphabet-settings", "list-name",
         "tuple-name-and-list-table", "everything-unstorable"],
)
def test_malformed_plain_data_is_a_violation(build, name, a_alphabet, table, violation):
    # Each of these once raised TypeError or AttributeError while the spec
    # was stored, before `validate` could run, but three: the int and
    # string alphabet settings built a spec that `classify` raised TypeError
    # on, and a name that is no string built a spec, whose hash raised
    # TypeError when the name was a list.  A list of violations pins the
    # whole list, its B-alphabet being no mapping.
    if isinstance(violation, list):
        with pytest.raises(InvalidSystemError) as exc:
            build(name, a_alphabet, ["1"], table)
        assert exc.value.violations == violation
        return
    with pytest.raises(InvalidSystemError) as exc:
        build(name, a_alphabet, ONE_SETTING, table)
    assert exc.value.violations[0] == violation


@pytest.mark.parametrize("unordered", [set, frozenset])
@pytest.mark.parametrize("build", [make_system, make_support], ids=["system", "support"])
def test_alphabet_given_as_a_set_is_a_violation(build, unordered):
    # The order of an alphabet carries meaning: the LP drops each setting's
    # last outcome, and `chsh` codes the first as -1.  A set's order changes
    # with the string-hash seed, so it is refused, not stored in one of its
    # orders; CI runs this module under two seeds.
    table = {("1", "1"): {("a", "0"): 1}} if build is make_system else {("1", "1"): [("a", "0")]}
    with pytest.raises(InvalidSystemError) as exc:
        build("x", {"1": unordered("abc")}, {"1": unordered("0")}, table)
    assert exc.value.violations == [
        "A-setting '1': alphabet is a set, which has no outcome order",
        "B-setting '1': alphabet is a set, which has no outcome order",
    ]
    # Beside an alphabet that cannot be stored at all, it is still reported.
    with pytest.raises(InvalidSystemError) as exc:
        build("x", ["1"], {"1": unordered("0")}, table)
    assert exc.value.violations == [
        "A-alphabet ['1'] is not a mapping from settings to outcomes",
        "B-setting '1': alphabet is a set, which has no outcome order",
    ]
    # Ordered collections keep their order: a dict's keys, a list, a tuple.
    for ordered in (dict.fromkeys("cab"), list("cab"), tuple("cab")):
        spec = build("x", {"1": ordered}, {"1": ("0",)}, table)
        assert spec.a_alphabet["1"] == ("c", "a", "b")


@pytest.mark.parametrize("build", [make_system, make_support], ids=["system", "support"])
def test_outcomes_that_cannot_be_ordered_are_a_violation(build):
    # `classify` sorts a context's pairs and the search its realizations,
    # so a string and an int outcome of one setting once built a spec that
    # `classify` raised TypeError on.  Outcomes of different settings are
    # never compared, and may differ in type.
    mixed = {"1": ("0", 1), "2": ("0", 1)}
    pairs = [("0", "0"), (1, 1)]
    contexts = [(x, y) for x in BIN for y in BIN]
    if build is make_system:
        table = {ctx: dict.fromkeys(pairs, Fraction(1, 2)) for ctx in contexts}
    else:
        table = {ctx: pairs for ctx in contexts}
    with pytest.raises(InvalidSystemError) as exc:
        build("m", mixed, mixed, table)
    assert exc.value.violations == [
        f"{side}-setting '{s}': outcomes ('0', 1) cannot be put in order"
        for side in "AB"
        for s in "12"
    ]
    # Each setting's outcomes of one type, string or int: the spec builds
    # and is decided.
    a_alphabet = {"1": ("0", "1"), "2": (0, 1)}
    table = {(x, y): [(a_alphabet[x][0], "0")] for x, y in contexts}
    if build is make_system:
        table = {ctx: dict.fromkeys(support, 1) for ctx, support in table.items()}
        assert classify(build("m", a_alphabet, BIN, table)).kind == "noncontextual"
    else:
        assert len(enumerate_ns_realizations(build("m", a_alphabet, BIN, table))) == 1


def test_refused_sets_are_quoted_in_one_order():
    # A message quotes refused plain data as `repr` does, but lists each
    # set's members sorted by their own text: a set's order changes with
    # the string-hash seed, and CI runs this module under two seeds.
    table = {("1", "1"): {("0", "0"): 1}}
    with pytest.raises(InvalidSystemError) as exc:
        make_system("x", set("hgfedcba"), ONE_SETTING, table)
    assert exc.value.violations == [
        "A-alphabet {'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'} is not a mapping "
        "from settings to outcomes"
    ]
    key = frozenset({"y", "10", "x", "1", "b", "2"})
    with pytest.raises(InvalidSystemError) as exc:
        make_support("x", ONE_SETTING, ONE_SETTING, {key: [("0", "0")], ("1", "1"): [("0", "0")]})
    assert exc.value.violations == [
        "table key frozenset({'1', '10', '2', 'b', 'x', 'y'}) is not an "
        "(A-setting, B-setting) pair"
    ]
    # Inside a tuple, a dict or another set, and as the name.
    name = frozenset({("q", frozenset({"d", "c"})), "p"})
    with pytest.raises(InvalidSystemError) as exc:
        make_system(name, ONE_SETTING, ONE_SETTING, {(key, "1"): {("0", "0"): 1}, **table})
    assert str(exc.value) == (
        "frozenset({'p', ('q', frozenset({'c', 'd'}))}): "
        "name frozenset({'p', ('q', frozenset({'c', 'd'}))}) is not a string; "
        "table key (frozenset({'1', '10', '2', 'b', 'x', 'y'}), '1') has a setting that "
        "is not a string, which the canonical order cannot place"
    )


@pytest.mark.parametrize(
    "value",
    [None, 2.5, "x", Fraction(1, 3), (), ("a",), [1, ("b", [])], {"a": [None], 1: ()},
     set(), frozenset(), {1}, frozenset({2}), Context("1", "2")],
)
def test_renderer_is_repr_but_for_set_order(value):
    assert systems._render(value) == repr(value)
    looped = [value]
    looped.append(looped)
    assert systems._render(looped) == repr(looped)
    assert systems._render({"k": looped}) == repr({"k": looped})


def test_support_pairs_outside_the_alphabet_are_listed_in_one_order():
    # A support is a frozenset, whose order changes with the string-hash
    # seed; the message must not.  CI runs this module under two seeds.
    pairs = [("0", "x"), ("y", "0"), ("z", "q"), ("0", "w")]
    with pytest.raises(InvalidSystemError) as exc:
        make_support("bad", ONE_SETTING, ONE_SETTING, {("1", "1"): pairs})
    assert exc.value.violations == [
        f"context ('1', '1'): pair {pair} outside alphabet product"
        for pair in [("0", "w"), ("0", "x"), ("y", "0"), ("z", "q")]
    ]


_ATOMS = [None, 0, 1, -1, 2.5, "", "0", "1", "x"]


def _junk(rng, depth):
    """None, an int, a float or a string, or, `depth` levels down, a list,
    tuple, dict, set or frozenset of up to two such values."""
    kind = rng.randrange(6) if depth else 0
    if kind == 0:
        return rng.choice(_ATOMS)
    items = [_junk(rng, depth - 1) for _ in range(rng.randint(0, 2))]
    hashable = [v for v in items if systems._hashable(v)]
    return [list(items), tuple(items), dict(zip(hashable, items)), set(hashable),
            frozenset(hashable)][kind - 1]


def _slots(value, path=(), in_key=False):
    """(path, in_key) for every slot of nested plain data: the value, and
    each key, value and item inside its dicts, lists and tuples."""
    yield path, in_key
    if isinstance(value, dict):
        for i, (k, v) in enumerate(value.items()):
            yield from _slots(k, path + (("key", i),), True)
            yield from _slots(v, path + (("value", i),), in_key)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _slots(v, path + (("item", i),), in_key)


def _replace(value, path, new):
    """A copy of `value` with the slot at `path` holding `new`."""
    if not path:
        return new
    (step, i), rest = path[0], path[1:]
    if isinstance(value, dict):
        items = list(value.items())
        k, v = items[i]
        items[i] = (_replace(k, rest, new), v) if step == "key" else (k, _replace(v, rest, new))
        return dict(items)
    items = list(value)
    items[i] = _replace(items[i], rest, new)
    return type(value)(items)


def _relabel(args, side, setting, old, new):
    """A copy of plain spec data with outcome `old` of one setting named
    `new`, in its alphabet and in the pairs of every context holding it."""
    name, a_alphabet, b_alphabet, table = args
    i = "AB".index(side)
    alphabets = [dict(a_alphabet), dict(b_alphabet)]
    alphabets[i][setting] = tuple(new if o == old else o for o in alphabets[i][setting])

    def pair(p):
        return tuple(new if j == i and o == old else o for j, o in enumerate(p))

    table = {
        ctx: ({pair(p): v for p, v in pairs.items()} if isinstance(pairs, dict)
              else [pair(p) for p in pairs]) if ctx[i] == setting else pairs
        for ctx, pairs in table.items()
    }
    return [name, *alphabets, table]


def test_constructors_build_or_refuse_fuzzed_plain_data():
    # Seeded junk in every slot of both constructors' plain data: the
    # name, the alphabets, their settings and outcomes, the table, its keys
    # and settings, the pmfs, their pairs, outcomes and probabilities, and
    # the supports' pairs.  A call builds a valid spec or raises
    # InvalidSystemError, and nothing else.  Junk in one outcome slot
    # leaves the pairs outside their alphabet product, so outcomes are also
    # relabelled with junk wherever they occur.  Every spec that builds,
    # either way, is then decided or refused with a documented error: a
    # system by `classify`, a support by the realization search.
    half = Fraction(1, 2)
    pmf = {("0", "0"): half, ("1", "1"): half}
    contexts = [(x, y) for x in BIN for y in BIN]
    plain = {
        make_system: ["fuzz", dict(BIN), dict(BIN), {ctx: dict(pmf) for ctx in contexts}],
        make_support: ["fuzz", dict(BIN), dict(BIN), {ctx: list(pmf) for ctx in contexts}],
    }
    rng = random.Random(21)
    outcomes = {"built": 0, "refused": 0, "junk name": 0}
    built = []
    start = time.perf_counter()
    for _ in range(3000):
        build = rng.choice([make_system, make_support])
        args = plain[build]
        for _ in range(rng.randint(1, 2)):
            path, in_key = rng.choice(list(_slots(args))[1:])
            new = _junk(rng, rng.randint(1, 2))
            while in_key and not systems._hashable(new):
                new = _junk(rng, rng.randint(1, 2))
            args = _replace(args, path, new)
        if rng.random() < 0.1:  # the name slot, drawn more often than the rest
            args = [_junk(rng, rng.randint(0, 2))] + args[1:]
        outcomes["junk name"] += not isinstance(args[0], str)
        try:
            spec = build(*args)
        except InvalidSystemError as exc:
            assert exc.violations
            outcomes["refused"] += 1
        else:
            assert validate(spec) == []
            assert type(spec.name) is str and hash(spec) == hash(build(*args))
            outcomes["built"] += 1
            built.append(spec)
    assert time.perf_counter() - start < 2
    assert min(outcomes.values()) >= 20, outcomes
    relabelled = {"built": 0, "refused": 0}
    for _ in range(300):
        build = rng.choice([make_system, make_support])
        args = plain[build]
        for _ in range(rng.randint(1, 2)):
            side, setting, old = rng.choice("AB"), rng.choice("12"), rng.choice("01")
            args = _relabel(args, side, setting, old, rng.choice(_ATOMS))
        try:
            built.append(build(*args))
        except InvalidSystemError:
            relabelled["refused"] += 1
        else:
            relabelled["built"] += 1
    assert min(relabelled.values()) >= 20, relabelled
    for spec in built:
        try:
            if isinstance(spec, SupportSpec):
                enumerate_ns_realizations(spec)
            else:
                classify(spec)
        except (SignalingSystemError, ValueError, RealizationLimitExceeded):
            pass


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
                    ctx: {pair: s.pmfs[ctx].get(pair, ZERO) for pair in s.pairs(ctx)}
                    for ctx in s.contexts
                })
            assert s.supports == support_of(s).supports
            assert tuple(s.supports) == s.contexts
            for ctx in s.contexts:
                assert s.supports[ctx] == {
                    pair for pair in s.pairs(ctx) if s.pmfs[ctx].get(pair, ZERO) > 0
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

    def test_context_with_no_components(self):
        # The shape comes from the first context that has components, and
        # a rule with none anywhere is empty.  Otherwise a context with
        # none, first or not, has weights summing to 0.
        d1 = get("d1").system
        with pytest.raises(ValueError, match="^empty rule$"):
            mix_context_dependent({Context("1", "1"): []})
        with pytest.raises(ValueError, match="^empty rule$"):
            mix_context_dependent({Context("1", "1"): [], Context("1", "2"): []})
        rule = {Context("1", "1"): [], Context("1", "2"): [(d1, Fraction(1))]}
        with pytest.raises(ValueError, match=r"context \('1', '1'\): weights sum to 0, not 1"):
            mix_context_dependent(rule)
