import json
from fractions import Fraction

import pytest

from contextuality import SupportSpec, SystemSpec, get
from contextuality.serialize import (
    SystemFileError,
    dumps_system,
    format_rational,
    loads_system,
    parse_rational,
)


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("1/2") == Fraction(1, 2)
        assert parse_rational("3") == Fraction(3)
        assert parse_rational("2/4") == Fraction(1, 2)

    def test_floats_rejected(self):
        # "1/2\n" would pass a `$` anchor; "١/2" would pass `\d` (Arabic-Indic one).
        for bad in ("0.5", "5e-1", 0.5, 1, None, "1/0", "1/2\n", "\u0661/2"):
            with pytest.raises(SystemFileError):
                parse_rational(bad)

    def test_format_lowest_terms(self):
        assert format_rational(Fraction(2, 4)) == "1/2"
        assert format_rational(Fraction(3)) == "3"


class TestRoundTrip:
    def test_emit_parse_identity_on_canonical(self):
        for id in ("d_eprb", "d_prime_eprb", "conspiracy", "eprb_shape"):
            system = get(id).system
            text = dumps_system(system)
            again = loads_system(text)
            assert dumps_system(again) == text
            if isinstance(system, SystemSpec):
                assert again.pmfs == system.pmfs
            else:
                assert again.supports == system.supports

    def test_parse_canonicalizes_rational_strings(self):
        doc = {
            "name": "half",
            "a_settings": ["1"],
            "b_settings": ["1"],
            "a_alphabet": {"1": ["0", "1"]},
            "b_alphabet": {"1": ["0", "1"]},
            "contexts": [
                {
                    "x": "1",
                    "y": "1",
                    "pmf": [
                        {"a": "0", "b": "0", "p": "2/4"},
                        {"a": "1", "b": "1", "p": "4/8"},
                    ],
                }
            ],
        }
        system = loads_system(json.dumps(doc))
        out = json.loads(dumps_system(system))
        assert [e["p"] for e in out["contexts"][0]["pmf"]] == ["1/2", "1/2"]

    def test_deterministic_emission(self):
        s = get("conspiracy").system
        assert dumps_system(s) == dumps_system(s)


class TestErrors:
    def base_doc(self):
        return {
            "name": "t",
            "a_settings": ["1"],
            "b_settings": ["1"],
            "a_alphabet": {"1": ["0", "1"]},
            "b_alphabet": {"1": ["0", "1"]},
            "contexts": [
                {"x": "1", "y": "1", "pmf": [{"a": "0", "b": "0", "p": "1"}]}
            ],
        }

    def test_bad_json(self):
        with pytest.raises(SystemFileError):
            loads_system("{nope")

    def test_bad_sum(self):
        doc = self.base_doc()
        doc["contexts"][0]["pmf"][0]["p"] = "1/2"
        with pytest.raises(SystemFileError):
            loads_system(json.dumps(doc))

    def test_float_probability(self):
        doc = self.base_doc()
        doc["contexts"][0]["pmf"][0]["p"] = 1.0
        with pytest.raises(SystemFileError):
            loads_system(json.dumps(doc))

    def test_unknown_setting_in_context(self):
        doc = self.base_doc()
        doc["contexts"][0]["x"] = "9"
        with pytest.raises(SystemFileError):
            loads_system(json.dumps(doc))

    def test_duplicate_context(self):
        doc = self.base_doc()
        doc["contexts"].append(doc["contexts"][0])
        with pytest.raises(SystemFileError):
            loads_system(json.dumps(doc))

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_duplicate_setting(self, side):
        doc = self.base_doc()
        doc[f"{side}_settings"] = ["1", "1"]
        with pytest.raises(SystemFileError, match=f"{side}_settings"):
            loads_system(json.dumps(doc))

    def test_mixed_pmf_and_support(self):
        doc = self.base_doc()
        doc["contexts"].append({"x": "1", "y": "1", "support": [["0", "0"]]})
        with pytest.raises(SystemFileError):
            loads_system(json.dumps(doc))

    def test_support_outside_alphabet(self):
        doc = self.base_doc()
        doc["contexts"] = [{"x": "1", "y": "1", "support": [["7", "0"]]}]
        with pytest.raises(SystemFileError):
            loads_system(json.dumps(doc))

    def test_empty_support(self):
        doc = self.base_doc()
        doc["contexts"] = [{"x": "1", "y": "1", "support": []}]
        with pytest.raises(SystemFileError):
            loads_system(json.dumps(doc))


def test_support_spec_parses():
    system = loads_system(dumps_system(get("eprb_shape").system))
    assert isinstance(system, SupportSpec)
    assert all(len(s) == 4 for s in system.supports.values())
