import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import contextuality
from contextuality import catalog, get, witness_score
from contextuality.analysis import BellWitness, Decomposition
from contextuality.cli import main
from contextuality.serialize import dumps_system, loads_system
from contextuality.systems import Context

from helpers import mix, uniform_system


def pmf_file(p: str) -> bytes:
    """A one-context system file whose single pmf entry has probability p."""
    alphabet = {"1": ["0"]}
    context = {"x": "1", "y": "1", "pmf": [{"a": "0", "b": "0", "p": p}]}
    doc = {
        "name": "x",
        "a_settings": ["1"],
        "b_settings": ["1"],
        "a_alphabet": alphabet,
        "b_alphabet": alphabet,
        "contexts": [context],
    }
    return json.dumps(doc).encode()


CONTEXT = {"x": "1", "y": "1"}
PMF = [{"a": "0", "b": "0", "p": "1"}]


def doc_file(**fields) -> bytes:
    """`pmf_file("1")` with some top-level fields replaced."""
    doc = json.loads(pmf_file("1"))
    doc.update(fields)
    return json.dumps(doc).encode()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestAnalyze:
    def test_conspiracy_contextual(self, capsys):
        report = run_json(capsys, "analyze", "--builtin", "conspiracy")
        assert report["verdict"] == "contextual"
        assert report["nonsignaling"] is True
        assert "witness" in report

    def test_ksp_no_ns_realizations(self, capsys):
        report = run_json(capsys, "analyze", "--builtin", "ksp_support")
        assert report["verdict"] == "no_ns_realizations"

    def test_unknown_builtin_exit_2_with_plain_message(self, capsys):
        # The message is printed as it is, not as the repr a KeyError gives.
        code, out, err = run(capsys, "analyze", "--builtin", "nope")
        assert (code, out) == (2, "")
        assert err == (
            "error: unknown system id 'nope'; known: d_eprb, d_prime_eprb, d1, "
            "d2, d3, d4, eprb_shape, conspiracy, ksp_support\n"
        )

    def test_missing_file_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "missing.json")
        assert code == 2
        assert err

    def test_no_input_usage_error(self, capsys):
        code, out, err = run(capsys, "analyze")
        assert code == 1

    def test_path_and_builtin_usage_error(self, capsys):
        system_file = str(Path(__file__).parent / "golden" / "system.json")
        code, out, err = run(capsys, "analyze", system_file, "--builtin", "d1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_witness_reverifies_from_report_alone(self, capsys):
        report = run_json(capsys, "analyze", "--builtin", "conspiracy")
        system = get("conspiracy").system
        coeffs = {
            (Context(t["x"], t["y"]), t["a"], t["b"]): Fraction(t["coefficient"])
            for t in report["witness"]["terms"]
        }
        witness = BellWitness(
            coefficients=coeffs, bound=Fraction(report["witness"]["bound"])
        )
        assert witness_score(witness, system) > witness.bound

    def test_decomposition_reverifies_from_report_alone(self, capsys, tmp_path):
        from contextuality import Realization, decomposition_reproduces

        half = Fraction(1, 2)
        m = mix([(get("d1").system, half), (get("d3").system, half)], name="m")
        path = tmp_path / "m.json"
        path.write_text(dumps_system(m))
        report = run_json(capsys, "analyze", str(path))
        assert report["verdict"] == "noncontextual"
        comps = []
        for entry in report["decomposition"]:
            values = {
                Context(v["x"], v["y"]): (v["a"], v["b"]) for v in entry["values"]
            }
            f = {ctx.x: a for ctx, (a, _) in values.items()}
            g = {ctx.y: b for ctx, (_, b) in values.items()}
            assert all(values[c] == (f[c.x], g[c.y]) for c in values)
            comps.append(
                (Realization(f=f, g=g, values=values), Fraction(entry["weight"]))
            )
        again = loads_system(path.read_text())
        assert decomposition_reproduces(again, Decomposition(components=tuple(comps)))

    def test_invalid_system_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "content",
        [
            b'{"name": "\xff"}',
            b"[" * 100_000 + b"]" * 100_000,
            b'{"name": "x", "a_settings": [[1]], "b_settings": [], "a_alphabet": {}}',
            pmf_file("1" * 5000),
            pmf_file("1/1" + "0" * 4999),
            b'{"name": ' + b"1" * 5000 + b"}",
            pmf_file("1").replace(b'"a_settings": ["1"]', b'"a_settings": ["1", "1"]'),
            doc_file(name=1),
            doc_file(a_alphabet={"1": [0]}),
            b"[" + pmf_file("1") + b"]",
            doc_file(contexts=[1]),
            doc_file(contexts=[{**CONTEXT, "pmf": PMF, "support": [["0", "0"]]}]),
            doc_file(contexts=[{**CONTEXT, "pmf": PMF * 2}]),
            doc_file(contexts=[{**CONTEXT, "support": [["0"]]}]),
            doc_file(contexts=[CONTEXT]),
            doc_file(
                a_settings=["1", "2"],
                a_alphabet={"1": ["0"], "2": ["0"]},
                contexts=[
                    {**CONTEXT, "pmf": PMF},
                    {"x": "2", "y": "1", "support": [["0", "0"]]},
                ],
            ),
            doc_file(contexts=[{**CONTEXT, "pmf": [["0", "0", "1"]]}]),
            doc_file(contexts=[{"x": "1", "y": "2", "pmf": PMF}]),
        ],
        ids=[
            "not-utf8",
            "nested-100000-deep",
            "unhashable-setting",
            "p-5000-digits",
            "denominator-5000-digits",
            "json-number-5000-digits",
            "duplicate-a-setting",
            "name-not-a-string",
            "alphabet-not-strings",
            "top-level-array",
            "context-not-an-object",
            "pmf-and-support",
            "duplicate-pmf-entry",
            "support-entry-not-a-pair",
            "neither-pmf-nor-support",
            "pmf-and-support-contexts",
            "pmf-entry-not-an-object",
            "unknown-b-setting",
        ],
    )
    def test_malformed_file_exit_2(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_signaling_input_reported(self, capsys):
        report = run_json(capsys, "analyze", "--builtin", "d_prime_eprb")
        assert report["verdict"] == "signaling"
        assert report["nonsignaling"]["side"] == "A"

    def test_negative_limit_usage_error(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--builtin", "ksp_support", "--limit", "-1"
        )
        assert code == 1
        assert out == ""

    def test_support_with_realizations_exit_2(self, capsys):
        # Without probabilities, a support with realizations is undecided.
        code, out, err = run(capsys, "analyze", "--builtin", "eprb_shape")
        assert code == 2
        assert out == ""
        assert err == (
            "error: eprb_shape: 16 non-signaling realizations exist; "
            "probabilities are required to decide contextuality\n"
        )

    def test_limit_exceeded_exit_2(self, capsys):
        # the example system has 5 support realizations
        system = str(Path(__file__).parent / "golden" / "system.json")
        code, out, err = run(capsys, "analyze", system, "--limit", "3")
        assert code == 2
        assert "3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["chsh", "--builtin", "conspiracy", "--limit", "5"],
        ["nonsignaling", "--builtin", "d_eprb", "--limit", "0"],
    ],
)
def test_limit_only_where_realizations_are_enumerated(capsys, argv):
    # --limit belongs to analyze and realizations; elsewhere it is a usage error.
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("command", ["nonsignaling", "chsh"])
def test_support_input_refused(capsys, command):
    code, out, err = run(capsys, command, "--builtin", "ksp_support")
    assert code == 2
    assert out == ""
    assert err == f"error: {command} needs probabilistic input\n"


class TestNonsignaling:
    def test_d_prime_witness(self, capsys):
        report = run_json(capsys, "nonsignaling", "--builtin", "d_prime_eprb")
        w = report["nonsignaling"]
        assert (w["side"], w["setting"]) == ("A", "1")
        assert w["marginal1"] == {"0": "0", "1": "1"}
        assert w["marginal2"] == {"0": "1", "1": "0"}

    def test_d_eprb_ok(self, capsys):
        report = run_json(capsys, "nonsignaling", "--builtin", "d_eprb")
        assert report["nonsignaling"] is True

    def test_single_context_file(self, capsys, tmp_path):
        doc = {
            "name": "one",
            "a_settings": ["1"],
            "b_settings": ["1"],
            "a_alphabet": {"1": ["0", "1"]},
            "b_alphabet": {"1": ["0", "1"]},
            "contexts": [
                {"x": "1", "y": "1", "pmf": [{"a": "0", "b": "1", "p": "1"}]}
            ],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        report = run_json(capsys, "nonsignaling", str(path))
        assert report["nonsignaling"] is True


class TestRealizations:
    def test_eprb_all_count(self, capsys):
        report = run_json(
            capsys, "realizations", "--builtin", "eprb_shape", "--mode", "all", "--count-only"
        )
        assert report["count"] == "4^4"
        assert report["value"] == "256"

    def test_eprb_ns_count(self, capsys):
        report = run_json(
            capsys, "realizations", "--builtin", "eprb_shape", "--mode", "ns", "--count-only"
        )
        assert report["count"] == "16"

    def test_ksp_all_count(self, capsys):
        report = run_json(
            capsys, "realizations", "--builtin", "ksp_support", "--mode", "all", "--count-only"
        )
        assert report["count"] == "6^1320"

    @pytest.mark.parametrize(
        "settings, count, value",
        [(2, "576", "576"), (80, "4^3200 * 6^3200", None)],
        ids=["2x2", "80x80"],
    )
    def test_all_count_of_mixed_context_sizes(self, capsys, tmp_path, settings, count, value):
        # B-alphabets alternate binary and ternary, so contexts have 4 or 6
        # pairs.  At 80x80 the count has over 4,300 digits, more than the
        # interpreter prints: it is given factored, with no value.
        labels = [str(i) for i in range(1, settings + 1)]
        doc = {
            "name": "mixed",
            "a_settings": labels,
            "b_settings": labels,
            "a_alphabet": {x: ["0", "1"] for x in labels},
            "b_alphabet": {y: ["0", "1", "2"][: 2 + int(y) % 2] for y in labels},
            "contexts": [{"x": x, "y": y, "support": [["0", "0"]]} for x in labels for y in labels],
        }
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "realizations", str(path), "--mode", "all", "--count-only")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["count"], report["value"]) == (count, value)

    def test_ns_listing(self, capsys):
        report = run_json(capsys, "realizations", "--builtin", "eprb_shape")
        assert len(report["realizations"]) == 16

    @pytest.mark.parametrize("source", [["--builtin", "eprb_shape"], ["missing.json"]])
    def test_all_listing_usage_error(self, capsys, source):
        # a flag combination is refused before any system is loaded, so a
        # missing file makes no input error
        code, out, err = run(capsys, "realizations", *source, "--mode", "all")
        assert code == 1
        assert out == ""
        assert "--count-only" in err


class TestPeres:
    def test_rays_33_lines(self, capsys):
        code, out, err = run(capsys, "peres", "--emit", "rays")
        assert code == 0
        assert len(out.strip().splitlines()) == 33

    def test_triads_40_lines(self, capsys):
        code, out, err = run(capsys, "peres", "--emit", "triads")
        assert code == 0
        assert len(out.strip().splitlines()) == 40

    def test_search_infeasible(self, capsys):
        code, out, err = run(capsys, "peres", "--emit", "search")
        assert code == 0
        assert out == "INFEASIBLE\n"


BIN = {"1": ("0", "1"), "2": ("0", "1")}
TERNARY = {"1": ("0", "1", "2"), "2": ("0", "1", "2")}


class TestChsh:
    def test_conspiracy_4(self, capsys):
        code, out, err = run(capsys, "chsh", "--builtin", "conspiracy")
        assert code == 0
        assert out.strip() == "4"

    def test_independent_uniform_0(self, capsys, tmp_path):
        q = "1/4"
        doc = {
            "name": "uniform",
            "a_settings": ["1", "2"],
            "b_settings": ["1", "2"],
            "a_alphabet": {"1": ["0", "1"], "2": ["0", "1"]},
            "b_alphabet": {"1": ["0", "1"], "2": ["0", "1"]},
            "contexts": [
                {
                    "x": x,
                    "y": y,
                    "pmf": [
                        {"a": a, "b": b, "p": q} for a in "01" for b in "01"
                    ],
                }
                for x in ("1", "2")
                for y in ("1", "2")
            ],
        }
        path = tmp_path / "u.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "chsh", str(path))
        assert code == 0
        assert out.strip() == "0"

    def test_d1_d2_mix_2(self, capsys, tmp_path):
        half = Fraction(1, 2)
        m = mix([(get("d1").system, half), (get("d2").system, half)], name="m")
        path = tmp_path / "m.json"
        path.write_text(dumps_system(m))
        code, out, err = run(capsys, "chsh", str(path))
        assert code == 0
        assert out.strip() == "2"

    def test_each_setting_coded_by_its_own_alphabet(self, capsys, tmp_path):
        # A-setting 2 lists its labels as ("1", "0"), unlike the others.
        box = catalog.get("conspiracy").system
        doc = json.loads(dumps_system(box))
        doc["a_alphabet"]["2"] = ["1", "0"]
        path = tmp_path / "relabelled.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "chsh", str(path)) == (0, "4\n", "")

    @pytest.mark.parametrize(
        "a_alphabet, b_alphabet, message",
        [
            (BIN, {**BIN, "3": ("0", "1")}, "CHSH needs exactly 2 settings per side"),
            (TERNARY, TERNARY, "CHSH needs binary A-alphabets"),
            (BIN, TERNARY, "CHSH needs binary B-alphabets"),
        ],
        ids=["2x3", "ternary", "ternary-b"],
    )
    def test_not_2x2_binary_exit_2(self, capsys, tmp_path, a_alphabet, b_alphabet, message):
        path = tmp_path / "s.json"
        path.write_text(dumps_system(uniform_system(a_alphabet, b_alphabet)))
        code, out, err = run(capsys, "chsh", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestCatalogCmd:
    def test_lists_all_ids(self, capsys):
        code, out, err = run(capsys, "catalog")
        assert code == 0
        for id in ("d_eprb", "conspiracy", "ksp_support"):
            assert id in out

    def test_builds_no_system(self, capsys, monkeypatch):
        # Listing provenance needs no system: with every built-in unbuildable
        # and the catalog's cache empty, the command still prints the golden
        # lines.
        def unbuildable(id):
            raise RuntimeError(f"catalog built {id}")

        for id, (description, _) in list(catalog._BUILTINS.items()):
            monkeypatch.setitem(catalog._BUILTINS, id, (description, unbuildable))
        catalog._build.cache_clear()
        code, out, err = run(capsys, "catalog")
        assert code == 0
        golden = Path(__file__).parent / "golden" / "catalog.out"
        assert out.encode("utf-8") == golden.read_bytes()
        assert len(out.splitlines()) == 9


def test_byte_identical_reruns(capsys):
    _, out1, _ = run(capsys, "analyze", "--builtin", "conspiracy")
    _, out2, _ = run(capsys, "analyze", "--builtin", "conspiracy")
    assert out1 == out2


def child_env() -> dict[str, str]:
    """The environment, with this package importable by a child interpreter."""
    paths = [str(Path(contextuality.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_runtime_imports_only_stdlib():
    # Every top-level module that importing the package and its CLI loads,
    # beyond what the interpreter loaded at start-up, is stdlib or our own.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contextuality, contextuality.cli\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'contextuality'}))\n"
        # Records are NamedTuples and plain classes: start-up skips the
        # dataclasses module and the class builds it runs.
        "print('dataclasses' in sys.modules)\n"
    )
    env = child_env()
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\nFalse\n"
    # The catalog reads its JSON by path, without `importlib.resources` and
    # its imports.  Under -S, since `site` may load that module itself
    # through a `.pth` file.
    script = (
        "import sys\n"
        "import contextuality, contextuality.cli\n"
        "contextuality.get('d_eprb')\n"
        "print('importlib.resources' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["catalog"], ["analyze", "--builtin", "d_eprb"], ["peres", "--emit", "triads"]],
    ids=["catalog", "analyze", "peres"],
)
def test_closed_stdout_exits_1_without_traceback(argv, unbuffered):
    # As under `contextuality peres --emit triads | head -1`, but with the
    # reader gone before the child starts, so every write fails.
    env = {**child_env(), "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "contextuality.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")
