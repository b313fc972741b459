"""Byte-for-byte CLI output of the README commands and a few more, the
README's Python blocks, run as they stand, the package's exports, each
used by its code or named in README, and one digest of every verdict the
benchmark's batch-2x2 and ladder systems get.

`golden/commands.json` lists each command with its expected exit code; its
stdout is stored in `golden/<name>.out`.  Arguments ending in `.json` name
fixture files in `golden/` (`system.json` stands in for the README's
`path/to/system.json`).
"""

import ast
import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import contextuality
from contextuality import SignalingSystemError, classify, conspiracy_system
from contextuality.cli import main
from contextuality.systems import Context

from helpers import benchmark_systems, checker_accepts

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text(encoding="utf-8"))
README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
SOURCES = sorted((Path(__file__).parent.parent / "src" / "contextuality").glob("*.py"))
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)


@pytest.mark.parametrize("command", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_readme_command_bytes(command, capsys):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in command["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == command["exit"]
    assert out.encode("utf-8") == (GOLDEN / f"{command['name']}.out").read_bytes()


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=["library-sketch", "support-of"])
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


def test_every_export_is_used_by_the_package_or_named_in_readme():
    # A public name that no module of the package uses and README does not
    # name has only tests for callers: it belongs with them, in helpers.py.
    # A use is a name or attribute read, or an import, in a module other
    # than `__init__.py`; its own `def`, `class` or assignment is none.
    used = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    # README names code in backticks and in its fenced blocks.
    code = " ".join(re.findall(r"^```.*?^```$|`[^`\n]+`", README, re.DOTALL | re.MULTILINE))
    named = set(re.findall(r"[A-Za-z_]\w*", code))
    assert len(SOURCES) > 1
    assert [name for name in contextuality.__all__ if not hasattr(contextuality, name)] == []
    assert sorted(set(contextuality.__all__) - used - named) == []


def test_benchmark_checker_accepts_old_and_new_conspiracy_witness():
    # The pinned conspiracy witness was 16 terms with bound -1, then 6 terms
    # with bound 0 from the kept-row LP; its support, which no realization
    # fits, now gives it outright: coefficient 1 on each of the 8 supported
    # pairs, bound 3.  All three hold to the contract.
    system = conspiracy_system()
    old = {
        (ctx, a, b): Fraction(1 if (a == b) != (tuple(ctx) == ("1", "2")) else -4)
        for ctx in system.contexts
        for a in "01"
        for b in "01"
    }
    kept_rows = {
        (Context(x, y), a, b): Fraction(c)
        for x, y, a, b, c in [
            ("1", "1", "0", "0", -1),
            ("1", "1", "1", "0", -2),
            ("1", "2", "0", "0", -1),
            ("2", "1", "0", "0", 1),
            ("2", "1", "0", "1", -1),
            ("2", "2", "0", "0", 1),
        ]
    }
    report = json.loads((GOLDEN / "analyze-conspiracy.out").read_text(encoding="utf-8"))
    new = {
        (Context(t["x"], t["y"]), t["a"], t["b"]): Fraction(t["coefficient"])
        for t in report["witness"]["terms"]
    }
    assert len(new) == 8 and set(new.values()) == {1}
    for coefficients, bound in (
        (old, Fraction(-1)),
        (kept_rows, Fraction(0)),
        (new, Fraction(report["witness"]["bound"])),
    ):
        assert checker_accepts(system, coefficients, bound)


def _verdict_text(system) -> str:
    """Canonical text of what `classify` gives the system: the verdict kind,
    realization count, each component's f, g and weight, and the witness's
    terms and bound; or, for a signaling system, its witness and marginals."""
    lines = [system.name]
    try:
        v = classify(system)
    except SignalingSystemError as exc:
        w = exc.witness
        lines += ["signaling", w.describe(), str(sorted(w.marginal1.items())),
                  str(sorted(w.marginal2.items()))]
        return "\n".join(lines)
    lines += [v.kind, str(v.realization_count)]
    if v.decomposition is not None:
        lines += [
            f"{sorted(r.f.items())} {sorted(r.g.items())} {w}"
            for r, w in v.decomposition.components
        ]
    if v.witness is not None:
        lines += [
            f"{tuple(ctx)} {a} {b} {c}"
            for (ctx, a, b), c in sorted(v.witness.coefficients.items())
        ]
        lines.append(f"bound {v.witness.bound}")
    return "\n".join(lines)


# The digest of every verdict and certificate `classify` gives the
# benchmark's batch-2x2 and ladder systems at seed 1.  A change that is only
# meant to make `classify` faster must leave it as it is.
BENCHMARK_VERDICTS = "727bf2ec563ca6d4c121e5f076266edcf8b83157678800282b2161ed88e56cfa"


def test_benchmark_verdicts_are_unchanged():
    digest = hashlib.sha256()
    for workload in ("batch-2x2", "ladder"):
        for system in benchmark_systems(workload, seed=1):
            digest.update(_verdict_text(system).encode("utf-8") + b"\n\n")
    assert digest.hexdigest() == BENCHMARK_VERDICTS
