"""Run the mutants listed in `mutants.json`, each against the tests it names.

Each entry names the check it breaks (`check`).  A mutant replaces one
line of the package's source, found by its exact text (indentation aside,
which the replacement keeps), in a temporary copy of the repository; only
the mutant's named tests then run there, under a time limit.  A mutant is
killed when they fail or run out of time, and survives when they pass;
the named tests must first pass on the unmutated copy, so a kill is the
mutant's doing.  A listed line that is missing, or not unique without an
`occurrence`, is an error, as is a named test that pytest cannot find.
An entry marked `equivalent` holds the argument that no test can kill
it, and is not run.  The exit status is 0 only when every run mutant is
killed.

    python tests/mutate.py

A mutant's tests may run for `TIMEOUT` seconds, the unmutated run for
twice that.  It needs pytest, and nothing outside the standard library
besides.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
IGNORED = (".git", "__pycache__", ".pytest_cache", ".perfbench-out", ".benchmarks", "build")
KILLED = {"failed": "killed", "timeout": "killed (timeout)"}
TIMEOUT = 120.0


def mutate(source: str, line: str, replacement: str, occurrence: int | None = None) -> str:
    """`source` with the line whose text, indentation aside, is `line`
    replaced by `replacement` at the same indentation.  Without
    `occurrence` the line must be unique; with it, the occurrence-th (from
    1) of its copies is replaced."""
    lines = source.splitlines(keepends=True)
    hits = [i for i, text in enumerate(lines) if text.strip() == line]
    if occurrence is None and len(hits) != 1:
        raise ValueError(f"{len(hits)} lines read {line!r}; one was expected")
    if occurrence is not None and not 1 <= occurrence <= len(hits):
        raise ValueError(f"{len(hits)} lines read {line!r}; occurrence {occurrence} is not one")
    i = hits[(occurrence or 1) - 1]
    text = lines[i]
    indent = text[: len(text) - len(text.lstrip())]
    lines[i] = indent + replacement + "\n"
    return "".join(lines)


def run_tests(copy: Path, tests: list[str], timeout: float) -> str:
    """'passed', 'failed', 'timeout', or 'error' with pytest's exit code."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(command, cwd=copy, env=env, timeout=timeout,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        return "timeout"
    if result.returncode in (0, 1):
        return ("passed", "failed")[result.returncode]
    return f"error (pytest exit {result.returncode}):\n{result.stdout}"


def main() -> int:
    entries = json.loads(MUTANTS.read_text())
    for entry in entries:
        if "equivalent" in entry:
            print(f"equivalent  {entry['id']}: {entry['equivalent']}")
    runnable = [e for e in entries if "equivalent" not in e]
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*IGNORED))
        named = sorted({test for entry in runnable for test in entry["tests"]})
        baseline = run_tests(copy, named, 2 * TIMEOUT)
        if baseline != "passed":
            print(f"the named tests do not pass unmutated: {baseline}")
            return 1
        killed = 0
        for entry in runnable:
            path = copy / entry["file"]
            original = path.read_text()
            start = time.perf_counter()
            try:
                path.write_text(mutate(original, entry["line"], entry["replacement"],
                                       entry.get("occurrence")))
                status = run_tests(copy, entry["tests"], TIMEOUT)
            except ValueError as exc:
                status = f"error: {exc}"
            finally:
                path.write_text(original)
            killed += status in KILLED
            shown = KILLED.get(status, "SURVIVED" if status == "passed" else status)
            print(f"{shown:<16}  {entry['id']}  ({time.perf_counter() - start:.1f} s)")
    print(f"{killed} of {len(runnable)} mutants killed")
    return 0 if killed == len(runnable) else 1


if __name__ == "__main__":
    sys.exit(main())
