import random
from fractions import Fraction

import pytest

from contextuality import (
    Context,
    SupportSpec,
    check_nonsignaling,
    conspiracy_system,
    get,
    marginal,
    pair_as_mixture,
)
from contextuality.catalog import UnknownSystemError, catalog_ids, provenance
from contextuality.serialize import dumps_system, loads_system

ONE = Fraction(1)
HALF = Fraction(1, 2)


def deterministic_values(system):
    out = {}
    for ctx, pmf in system.pmfs.items():
        ((pair, p),) = list(pmf.items())
        assert p == 1
        out[tuple(ctx)] = pair
    return out


class TestGet:
    def test_d_eprb_table(self):
        # context rows (1,1),(1,2),(2,1),(2,2): A-values 1,1,0,0; B-values 0,1,0,1
        vals = deterministic_values(get("d_eprb").system)
        assert vals == {
            ("1", "1"): ("1", "0"),
            ("1", "2"): ("1", "1"),
            ("2", "1"): ("0", "0"),
            ("2", "2"): ("0", "1"),
        }

    def test_d_prime_table_signals(self):
        vals = deterministic_values(get("d_prime_eprb").system)
        assert vals == {
            ("1", "1"): ("1", "0"),
            ("1", "2"): ("0", "1"),
            ("2", "1"): ("0", "1"),
            ("2", "2"): ("0", "1"),
        }
        assert check_nonsignaling(get("d_prime_eprb").system) is not None

    def test_d1_all_ones(self):
        vals = deterministic_values(get("d1").system)
        assert all(pair == ("1", "1") for pair in vals.values())

    def test_d3_d4_tables(self):
        assert deterministic_values(get("d3").system) == {
            ("1", "1"): ("0", "0"),
            ("1", "2"): ("0", "1"),
            ("2", "1"): ("1", "0"),
            ("2", "2"): ("1", "1"),
        }
        assert deterministic_values(get("d4").system) == {
            ("1", "1"): ("1", "0"),
            ("1", "2"): ("1", "0"),
            ("2", "1"): ("0", "0"),
            ("2", "2"): ("0", "0"),
        }

    def test_unknown_id(self):
        with pytest.raises(UnknownSystemError):
            get("nope")
        with pytest.raises(UnknownSystemError):
            provenance("nope")
        # Still a KeyError, whose str() is the message itself, unquoted.
        with pytest.raises(KeyError) as info:
            get("nope")
        assert str(info.value).startswith("unknown system id 'nope'; known: d_eprb,")

    def test_ids_stable(self):
        assert set(catalog_ids()) == {
            "d_eprb",
            "d_prime_eprb",
            "d1",
            "d2",
            "d3",
            "d4",
            "eprb_shape",
            "conspiracy",
            "ksp_support",
        }
        for id in catalog_ids():
            named = get(id)
            assert named.id == id and named.provenance == provenance(id)

    def test_ksp_is_support_spec(self):
        assert isinstance(get("ksp_support").system, SupportSpec)

    def test_shared_systems_read_only(self):
        d1 = get("d1").system
        ctx = Context("1", "1")
        before = deterministic_values(d1)
        with pytest.raises(TypeError):
            d1.pmfs[ctx][("1", "1")] = Fraction(5)
        with pytest.raises(TypeError):
            d1.pmfs[ctx] = {}
        with pytest.raises(TypeError):
            d1.a_alphabet["3"] = ("0", "1")
        with pytest.raises(TypeError):
            get("ksp_support").system.supports[Context("1", "1")] = frozenset()
        assert deterministic_values(get("d1").system) == before
        assert get("d1").system.a_settings == ("1", "2")

    def test_specs_hashable(self):
        systems = {get(i).system for i in catalog_ids()}
        assert len(systems) == 9
        for s in systems:
            assert hash(s) == hash(loads_system(dumps_system(s)))


class TestConspiracy:
    def test_marginals_all_half(self):
        s = conspiracy_system()
        for ctx in s.contexts:
            for side in ("A", "B"):
                assert marginal(s, ctx, side) == {"0": HALF, "1": HALF}

    def test_product_expectations(self):
        # E[ab] under 0/1 coding is P(a=1, b=1).
        s = conspiracy_system()
        expected = {("1", "1"): HALF, ("2", "1"): HALF, ("2", "2"): HALF, ("1", "2"): 0}
        for ctx, value in expected.items():
            assert s.pmfs[Context(*ctx)].get(("1", "1"), 0) == value

    def test_nonsignaling(self):
        assert check_nonsignaling(conspiracy_system()) is None


class TestPairAsMixture:
    def test_deterministic_split(self):
        pm = pair_as_mixture(HALF, HALF, ONE)
        assert pm.q == HALF
        assert pm.x_pmf == {("1", "1"): ONE}
        assert pm.y_pmf == {("1", "0"): ONE}

    def test_q_one_degenerate(self):
        pm = pair_as_mixture(Fraction(1, 3), ONE, Fraction(1, 3))
        assert pm.mixed_probability() == Fraction(1, 3)
        with pytest.raises(ValueError):
            pair_as_mixture(Fraction(1, 3), ONE, Fraction(1, 2))

    def test_p2_out_of_range(self):
        with pytest.raises(ValueError):
            pair_as_mixture(Fraction(9, 10), HALF, Fraction(0))

    def test_random_feasible_triples(self):
        rng = random.Random(61)
        done = 0
        while done < 300:
            p = Fraction(rng.randint(0, 12), 12)
            q = Fraction(rng.randint(0, 11), 12)
            p1 = Fraction(rng.randint(0, 12), 12)
            p2_num = p - q * p1
            if q == 1 or not 0 <= p2_num / (1 - q) <= 1:
                continue
            pm = pair_as_mixture(p, q, p1)
            done += 1
            # the mixture constraint holds exactly and the reconstructed
            # pmf is {(1,1): p, (1,0): 1-p}
            assert pm.mixed_probability() == p
            mixed = {}
            for pmf, w in ((pm.x_pmf, pm.q), (pm.y_pmf, 1 - pm.q)):
                for k, v in pmf.items():
                    mixed[k] = mixed.get(k, Fraction(0)) + w * v
            expect = {}
            if p > 0:
                expect[("1", "1")] = p
            if p < 1:
                expect[("1", "0")] = 1 - p
            assert {k: v for k, v in mixed.items() if v != 0} == expect
