from fractions import Fraction

import pytest

from contextuality import (
    Context,
    SupportSpec,
    check_nonsignaling,
    conspiracy_system,
    get,
    marginal,
)
from contextuality.catalog import UnknownSystemError, catalog_ids, provenance
from contextuality.serialize import dumps_system, loads_system

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
