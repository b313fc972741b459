"""Byte-for-byte CLI output of the README commands and a few more.

`golden/commands.json` lists each command with its expected exit code; its
stdout is stored in `golden/<name>.out`.  Arguments ending in `.json` name
fixture files in `golden/` (`system.json` stands in for the README's
`path/to/system.json`).
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from contextuality import conspiracy_system
from contextuality.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_readme_command_bytes(command, capsys):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in command["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == command["exit"]
    assert out.encode("utf-8") == (GOLDEN / f"{command['name']}.out").read_bytes()


def _benchmark_checker():
    """perfbench/checker.py, which imports nothing from the library."""
    path = Path(__file__).parents[1] / "perfbench" / "checker.py"
    spec = importlib.util.spec_from_file_location("perfbench_checker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_checker_accepts_old_and_new_conspiracy_witness():
    # The kept-row LP changed the pinned conspiracy witness from 16 terms
    # with bound -1 to 6 terms with bound 0; both hold to the contract.
    system = conspiracy_system()
    pmfs = {tuple(ctx): dict(system.pmfs[ctx]) for ctx in system.contexts}
    old = {
        (x, y, a, b): Fraction(1 if (a == b) != ((x, y) == ("1", "2")) else -4)
        for x, y in pmfs
        for a in "01"
        for b in "01"
    }
    report = json.loads((GOLDEN / "analyze-conspiracy.out").read_text(encoding="utf-8"))
    new = {
        (t["x"], t["y"], t["a"], t["b"]): Fraction(t["coefficient"])
        for t in report["witness"]["terms"]
    }
    checker = _benchmark_checker()
    for coefficients, bound in ((old, Fraction(-1)), (new, Fraction(report["witness"]["bound"]))):
        assert checker.check_witness(
            system.a_alphabet, system.b_alphabet, pmfs, coefficients, bound
        ) is None
