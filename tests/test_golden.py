"""Byte-for-byte CLI output of the README commands and a few more, and
the README's Python blocks, run as they stand.

`golden/commands.json` lists each command with its expected exit code; its
stdout is stored in `golden/<name>.out`.  Arguments ending in `.json` name
fixture files in `golden/` (`system.json` stands in for the README's
`path/to/system.json`).
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from contextuality import conspiracy_system
from contextuality.cli import main
from contextuality.systems import Context

from helpers import checker_accepts

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text(encoding="utf-8"))
README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
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
