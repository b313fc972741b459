"""The three workloads: seeded inputs, the timed request loop, and checks.

Every workload is a closed loop with one caller: the next request starts
after the previous one has returned and been checked.  A request is one
system for ``batch-2x2``, one pass over every instance for ``ladder`` and
one process for ``cli``.  The parts of a request are what gets a verdict:
the system, each ladder instance, each command.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checker
import gen
from clock import Stopwatch
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


@dataclass
class Samples:
    """Latencies of one measured loop."""

    requests: list = field(default_factory=list)  # seconds per request
    parts: dict = field(default_factory=dict)  # part id -> [seconds]
    # Seconds are at the reference speed (see ``clock``), checks excluded.
    kinds: dict = field(default_factory=dict)  # part id -> expected verdict
    wall: float = 0.0  # seconds the loop ran, checks included

    def add(self, part, kind, seconds) -> None:
        self.parts.setdefault(part, []).append(seconds)
        self.kinds[part] = kind


def tail(values: list, percentile: int) -> tuple[str, float]:
    """The highest percentile, up to ``percentile``, with at least ten
    samples beyond it (nearest rank), and its label."""
    ordered = sorted(values)
    for q in sorted({percentile, 95, 90, 75, 50}, reverse=True):
        rank = math.ceil(q / 100 * len(ordered))
        if q <= percentile and len(ordered) - rank >= 10:
            return f"p{q}", ordered[rank - 1]
    return "p50", statistics.median(ordered)


def per_part(samples: Samples) -> dict:
    return {part: statistics.median(times) for part, times in samples.parts.items()}


def summary(samples: Samples, latencies: list, percentile: int) -> dict:
    """The end-to-end timings of a run.

    Each part's latency is its median over the run's repetitions.  The
    median and tail are taken over ``latencies``; the throughput over a
    round of every part, and the time per verdict kind as the mean over that
    kind's parts, since the seed sets how many there are.
    """
    typical = per_part(samples)
    by_kind = {}
    for kind in ("noncontextual", "contextual"):
        times = [s for part, s in typical.items() if samples.kinds[part] == kind]
        by_kind[kind] = statistics.fmean(times)
        by_kind[f"n_{kind}"] = len(times)
    return {
        "n": len(latencies),
        "p50": statistics.median(latencies),
        "tail": tail(latencies, percentile),
        "throughput": len(typical) / sum(typical.values()),
        **by_kind,
    }


# ------------------------------------------------------- library adapters

def to_system(lib, case: gen.Case):
    return lib.systems.make_system(case.name, case.a_alph, case.b_alph, case.pmfs)


def to_plain(system, expected: str) -> gen.Case:
    """A library system as plain data, for checking a CLI report on it."""
    pmfs = {(ctx.x, ctx.y): dict(system.pmfs[ctx]) for ctx in system.contexts}
    return gen.Case(system.name, dict(system.a_alphabet), dict(system.b_alphabet),
                    pmfs, expected)


def decide(lib, system):
    """What a library user runs per system: validate, then classify."""
    problems = lib.systems.validate(system)
    if problems:
        raise ValueError("; ".join(problems))
    try:
        return lib.analysis.classify(system)
    except lib.analysis.SignalingSystemError:
        return None


def check_verdict(lib, case: gen.Case, verdict) -> list:
    """Read the verdict as plain data and check it against the case."""
    if verdict is None:
        return checker.check_classification(case, "signaling")
    components = witness = None
    if verdict.decomposition is not None:
        try:
            components = [
                (w, {(ctx.x, ctx.y): tuple(pair) for ctx, pair in r.assignment.values.items()})
                for r, w in verdict.decomposition.components
            ]
        except (AttributeError, TypeError, ValueError) as exc:
            return [checker.Problem("bad_decomposition", f"{case.name}: unreadable: {exc}")]
    if verdict.witness is not None:
        witness = (
            {(ctx[0], ctx[1], a, b): c
             for (ctx, a, b), c in verdict.witness.coefficients.items()},
            verdict.witness.bound,
        )
    return checker.check_classification(case, verdict.kind, components, witness)


def timed_decide(lib, key, case, system, tally, tracer):
    """Decide one system, input ``key`` of the tally; returns seconds spent
    in the library."""
    watch = Stopwatch()
    try:
        with watch:
            if tracer is None:
                verdict = decide(lib, system)
            else:
                with tracer.span():
                    verdict = decide(lib, system)
    except Exception as exc:  # any library error is a failed operation
        tally.record([checker.Problem("unexpected_error", f"{case.name}: {exc!r}")], key)
        return watch.seconds
    tally.record(check_verdict(lib, case, verdict), key)
    return watch.seconds


# ---------------------------------------------------------------- batch-2x2

class Batch:
    name = "batch-2x2"
    setup_repeats = 5

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.cases = gen.batch_cases(seed)
        self.systems = [to_system(lib, c) for c in self.cases]
        for system in self.systems[:20]:
            decide(lib, system)

    def check_inputs(self) -> None:
        """The verdict known by construction is the CHSH criterion's."""
        for case in self.cases:
            if checker.expected_2x2(case.a_alph, case.b_alph, case.pmfs) != case.expected:
                raise RuntimeError(f"generator and CHSH criterion disagree on {case.name}")

    def latency(self, samples: Samples) -> dict:
        """Median and p99 over the systems."""
        return summary(samples, list(per_part(samples).values()), 99)

    def run(self, seconds: float, tally, tracer: Tracer | None = None) -> Samples:
        """Cycle through the batch until ``seconds`` pass, at least once."""
        samples = Samples()
        start = time.perf_counter()
        i = 0
        while i < len(self.cases) or time.perf_counter() - start < seconds:
            k = i % len(self.cases)
            case = self.cases[k]
            t = timed_decide(self.lib, (self.name, k), case, self.systems[k], tally, tracer)
            samples.requests.append(t)
            samples.add(k, case.expected, t)
            i += 1
        samples.wall = time.perf_counter() - start
        return samples


# ------------------------------------------------------------------- ladder

class Ladder:
    """Passes over the rungs, cycling through a few weight draws.

    The strategies behind each rung are fixed, so its LP shape is too; the
    seed draws the weights.  Several draws average out how the simplex path
    depends on them, and cycling repeats each instance across the run.
    """

    name = "ladder"
    setup_repeats = 15  # each takes about 0.05 s
    draws = 8

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.passes = [
            [(case, to_system(lib, case)) for case in cases]
            for cases in gen.ladder_passes(seed, self.draws)
        ]
        decide(lib, self.passes[0][2][1])  # the smallest rung

    def check_inputs(self) -> None:
        """Contextual instances, and only those, beat the chained bound."""
        for cases in self.passes:
            for case, _ in cases:
                if not checker.nonsignaling(case.a_alph, case.b_alph, case.pmfs):
                    raise RuntimeError(f"{case.name} is signaling")
                score = checker.chained_score(case.pmfs, len(case.a_alph["1"]))
                if (score > 3) != (case.expected == "contextual"):
                    raise RuntimeError(f"{case.name} scores {score} on the chained sum")

    def shapes(self) -> dict:
        """LP rows x columns of each rung and kind."""
        out = {}
        for case, system in self.passes[0]:
            rows = sum(len(p) for p in case.pmfs.values()) + 1
            out[case.name] = (rows, decide(self.lib, system).realization_count)
        return out

    def latency(self, samples: Samples) -> dict:
        """Means over the draws of a pass, each instance at its median: the
        pass as p50, the slowest instance as the tail."""
        typical = per_part(samples)
        draws = len({draw for draw, _ in typical})
        per_instance = {}
        by_kind = {"noncontextual": 0.0, "contextual": 0.0}
        for (draw, name), seconds in typical.items():
            per_instance[name] = per_instance.get(name, 0.0) + seconds / draws
            by_kind[samples.kinds[(draw, name)]] += seconds / draws
        slowest = max(per_instance, key=per_instance.get)
        return {
            "n": draws,
            "p50": sum(typical.values()) / draws,
            "tail": (f"slowest instance {slowest}", per_instance[slowest]),
            "throughput": len(typical) / sum(typical.values()),
            **by_kind,
            "n_noncontextual": draws,
            "n_contextual": draws,
        }

    def run(self, seconds: float, tally, tracer: Tracer | None = None) -> Samples:
        """Whole passes, cycling through the draws, while the next pass is
        expected to end in time; every draw runs at least once."""
        samples = Samples()
        start = time.perf_counter()
        index = 0
        while True:
            before = time.perf_counter()
            total = 0.0
            draw = index % self.draws
            for case, system in self.passes[draw]:
                t = timed_decide(self.lib, (self.name, draw, case.name), case, system,
                                 tally, tracer)
                samples.add((draw, case.name), case.expected, t)
                total += t
            samples.requests.append(total)
            index += 1
            after = time.perf_counter()
            if index >= self.draws and after + (after - before) - start > seconds:
                break
        samples.wall = time.perf_counter() - start
        return samples


# ---------------------------------------------------------------------- cli

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def _fact(ok: bool, reason: str) -> list:
    return [] if ok else [checker.Problem("bad_exit_or_stdout", reason)]


def lines(n: int):
    return lambda out: _fact(len(out.splitlines()) == n,
                             f"{len(out.splitlines())} lines, not {n}")


def first_line(text: str):
    return lambda out: _fact(out.splitlines()[:1] == [text], f"first line is not {text!r}")


def exactly(text: str):
    return lambda out: _fact(out == text, f"stdout {out[:80]!r}, not {text!r}")


def json_doc(check):
    """Parse stdout as JSON, then ``check(doc)``."""
    def run(out):
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return _fact(False, f"stdout is not JSON: {exc}")
        try:
            return check(doc)
        except (KeyError, TypeError, ValueError) as exc:
            return _fact(False, f"report lacks {exc!r}")
    return run


def report(case: gen.Case):
    """An ``analyze`` report: its verdict and certificate, checked as data."""
    def check(doc):
        components = witness = None
        if "decomposition" in doc:
            components = [
                (Fraction(c["weight"]),
                 {(v["x"], v["y"]): (v["a"], v["b"]) for v in c["values"]})
                for c in doc["decomposition"]
            ]
        if "witness" in doc:
            witness = (
                {(t["x"], t["y"], t["a"], t["b"]): Fraction(t["coefficient"])
                 for t in doc["witness"]["terms"]},
                Fraction(doc["witness"]["bound"]),
            )
        return checker.check_classification(case, doc["verdict"], components, witness)
    return json_doc(check)


class Cli:
    """README commands, one fresh interpreter each, with their known facts."""

    name = "cli"
    setup_repeats = 3

    def __init__(self, lib, seed: int):
        OUT.mkdir(exist_ok=True)
        file_case = gen.cli_file_case(seed)
        system_path = OUT / f"cli-system-{seed}.json"
        invalid_path = OUT / f"cli-invalid-{seed}.json"
        system_path.write_text(gen.system_json(file_case), encoding="utf-8")
        invalid_path.write_text(gen.invalid_json(seed), encoding="utf-8")
        conspiracy = to_plain(lib.catalog.get("conspiracy").system, "contextual")
        # name -> (arguments, exit code, verdict known by construction, check)
        self.commands = {
            "catalog": (["catalog"], 0, None, lines(9)),
            "analyze-conspiracy": (["analyze", "--builtin", "conspiracy"], 0,
                                   "contextual", report(conspiracy)),
            "analyze-file": (["analyze", str(system_path.relative_to(ROOT))], 0,
                             "noncontextual", report(file_case)),
            "analyze-ksp_support": (
                ["analyze", "--builtin", "ksp_support"], 0, "contextual",
                json_doc(lambda doc: _fact(
                    doc["verdict"] == "no_ns_realizations"
                    and doc["stats"]["ns_realizations"] == 0,
                    f"verdict {doc['verdict']!r}"))),
            "nonsignaling-d_prime_eprb": (
                ["nonsignaling", "--builtin", "d_prime_eprb"], 0, None,
                json_doc(lambda doc: _fact(isinstance(doc["nonsignaling"], dict),
                                           "signaling not detected"))),
            "realizations-ns-eprb_shape": (
                ["realizations", "--builtin", "eprb_shape", "--mode", "ns"], 0, None,
                json_doc(lambda doc: _fact(
                    doc["count"] == "16" and len(doc["realizations"]) == 16,
                    f"count {doc['count']!r}, not 16"))),
            "realizations-all-ksp_support": (
                ["realizations", "--builtin", "ksp_support", "--mode", "all",
                 "--count-only"], 0, None,
                json_doc(lambda doc: _fact(doc["count"] == "6^1320",
                                           f"count {doc['count']!r}"))),
            "chsh-conspiracy": (["chsh", "--builtin", "conspiracy"], 0, None, exactly("4\n")),
            "peres-rays": (["peres", "--emit", "rays"], 0, None, lines(33)),
            "peres-triads": (["peres", "--emit", "triads"], 0, None, lines(40)),
            "peres-search": (["peres", "--emit", "search", "--rule", "exactly-one-zero"],
                             0, None, first_line("INFEASIBLE")),
            "invalid-input": (["analyze", str(invalid_path.relative_to(ROOT))], 2, None,
                              exactly("")),
        }
        self.env = cli_env()
        # Untimed pass: compiles the package's pycache and records each
        # command's stdout, which every later run must reproduce byte for byte.
        self.reference: dict[str, bytes] = {}
        for name in self.commands:
            self.reference[name] = self.launch(name, checker.Tally())[1]

    def check_inputs(self) -> None:
        pass

    def latency(self, samples: Samples) -> dict:
        """Median and p90 over every command run."""
        return summary(samples, samples.requests, 90)

    def argv(self, name, trace_file=None) -> list:
        args = self.commands[name][0]
        if trace_file is None:
            return [sys.executable, "-m", "contextuality.cli", *args]
        launcher = str(Path(__file__).resolve().parent / "launcher.py")
        return [sys.executable, launcher, str(trace_file), *args]

    def launch(self, name, tally, trace_file=None):
        """Run one command and check it; returns (seconds, stdout bytes)."""
        watch = Stopwatch()
        try:
            with watch:
                proc = subprocess.run(self.argv(name, trace_file), cwd=ROOT, env=self.env,
                                      capture_output=True, timeout=120)
        except subprocess.TimeoutExpired:
            tally.record([checker.Problem("unexpected_error", f"{name}: timed out")],
                         (self.name, name))
            return watch.seconds, b""
        tally.record([p._replace(reason=f"{name}: {p.reason}") for p in self.check(name, proc)],
                     (self.name, name))
        return watch.seconds, proc.stdout

    def check(self, name, proc) -> list:
        _, code, _, check = self.commands[name]
        if proc.returncode != code:
            stderr = proc.stderr.decode(errors="replace")[-200:]
            return _fact(False, f"exit {proc.returncode}, not {code}: {stderr}")
        problems = _fact(self.reference.get(name, proc.stdout) == proc.stdout,
                         "stdout differs from the first run")
        return problems + check(proc.stdout.decode("utf-8", errors="replace"))

    def run(self, seconds: float, tally, trace_dir: Path | None = None) -> Samples:
        """Rounds of every command in turn until ``seconds`` pass, at least one."""
        samples = Samples()
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < seconds:
            for name, (_, _, verdict, _) in self.commands.items():
                trace_file = None
                if trace_dir is not None:
                    trace_file = trace_dir / f"{name}-{rounds}.json"
                t, _ = self.launch(name, tally, trace_file)
                samples.requests.append(t)
                samples.add(name, verdict, t)
            rounds += 1
        samples.wall = time.perf_counter() - start
        return samples

    def interpreter_floor(self) -> list:
        """Seconds to start and stop a bare interpreter, five times."""
        out = []
        for _ in range(5):
            with Stopwatch() as watch:
                subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=self.env,
                               capture_output=True, timeout=60, check=True)
            out.append(watch.seconds)
        return out


WORKLOADS = {w.name: w for w in (Batch, Ladder, Cli)}
