"""Byte-for-byte CLI output of the README commands and a few more.

`golden/commands.json` lists each command with its expected exit code; its
stdout is stored in `golden/<name>.out`.  Arguments ending in `.json` name
fixture files in `golden/` (`system.json` stands in for the README's
`path/to/system.json`).
"""

import json
from pathlib import Path

import pytest

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
