"""Benchmark of the contextuality decider; see BENCHMARK.json and README.md.

    python3 perfbench/run.py --workload batch-2x2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics of one workload; ``--trace 1`` runs every workload untraced and
then traced and reports the per-layer metrics; ``--workload all`` prints
every end-to-end metric of every workload.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
from pathlib import Path

import checker
import clock
from tracer import REQUEST, Tracer
from workloads import OUT, SRC, WORKLOADS, Samples

def load_library():
    """Import the package from this checkout's ``src``, afresh each call."""
    if not (SRC / "contextuality" / "__init__.py").is_file():
        raise SystemExit(f"error: no contextuality package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".")[0] == "contextuality"]:
        del sys.modules[name]
    lib = importlib.import_module("contextuality")
    importlib.import_module("contextuality.cli")
    if Path(lib.__file__).resolve().parent != (SRC / "contextuality").resolve():
        raise SystemExit(f"error: imported contextuality from {lib.__file__}")
    return lib


def set_up(workload_cls, seed: int, repeats: int):
    """Set the workload up ``repeats`` times; the last one is kept."""
    times = []
    for _ in range(repeats):
        with clock.Stopwatch() as watch:
            lib = load_library()
            workload = workload_cls(lib, seed)
        times.append(watch.seconds)
    workload.check_inputs()
    # Keep set-up objects out of the collector's way while measuring.
    gc.collect()
    gc.freeze()
    return workload, times


# ------------------------------------------------------------- statistics

def end_to_end(workload, samples: Samples, setup_times: list) -> dict:
    found = workload.latency(samples)
    n, parts = found["n"], len(samples.parts)
    label, tail_value = found["tail"]
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "p50_ms": (found["p50"] * 1e3, "ms", n),
        "tail_ms": (tail_value * 1e3, "ms", n, label),
        "throughput_per_s": (found["throughput"], "1/s", parts),
        "noncontextual_s": (found["noncontextual"], "s", found.get("n_noncontextual", parts)),
        "contextual_s": (found["contextual"], "s", found.get("n_contextual", parts)),
    }


# Names the issue tracker uses for each workload's end-to-end numbers.
ALIASES = {
    "batch-2x2": {"throughput_per_s": "batch.systems_per_s", "p50_ms": "batch.p50_ms",
                  "tail_ms": "batch.p99_ms"},
    "ladder": {"p50_ms": "ladder.wall_s, in ms", "noncontextual_s": "ladder.noncontextual_s",
               "contextual_s": "ladder.contextual_s"},
    "cli": {"p50_ms": "cli.p50_ms", "tail_ms": "cli.p90_ms"},
}


def print_end_to_end(name: str, metrics: dict, tally) -> None:
    for metric, (value, unit, n, *label) in metrics.items():
        alias = ALIASES[name].get(metric, "")
        note = f" [{label[0]}]" if label else ""
        print(f"  {metric:<18} {value:14.6f} {unit:<4} n={n}{note}"
              f"{'  = ' + alias if alias else ''}")
    print_failures(tally)


def print_failures(tally) -> None:
    share = tally.failed / tally.attempted if tally.attempted else 0.0
    kinds = ", ".join(f"{k} {v}" for k, v in tally.counts().items())
    print(f"  fail_share         {share:14.6f}      {tally.failed}/{tally.attempted} ({kinds})")
    if tally.failed:
        print("    a bad_witness the witness-scope defect (ROADMAP item 1) explains "
              f"leaves correct true; {tally.unexplained} problem(s) over all repetitions "
              "it does not explain")
    for example in tally.examples:
        print(f"    e.g. {example}")


# --------------------------------------------------------------- tracing

def traced_layers(tracer: Tracer, per: float) -> tuple[dict, dict]:
    """Self seconds and call counts per span name, divided by ``per``."""
    self_time, calls = tracer.layer_times()
    return ({k: v / per for k, v in self_time.items()},
            {k: v / per for k, v in calls.items()})


def layer_metrics(prefix: str, times: dict, calls: dict, counts, per: float) -> dict:
    """The per-layer metrics shared by ``batch-2x2`` and ``ladder``."""
    used, enumerated = counts["analysis.columns_used"], counts["analysis.columns_enumerated"]
    out = {
        "systems.validate_s": times.get("systems.validate", 0.0),
        "systems.check_nonsignaling_s": times.get("systems.check_nonsignaling", 0.0),
        "systems.support_of_s": times.get("systems.support_of", 0.0),
        "analysis.classify_self_s": times.get("analysis.classify", 0.0),
        "analysis.enumerate_s": times.get("analysis.enumerate_ns_realizations", 0.0),
        "analysis.witness_score_s": times.get("analysis.witness_score", 0.0),
        "analysis.witness_score_calls": calls.get("analysis.witness_score", 0.0),
        "analysis.realizations": counts["analysis.realizations"] / per,
        "analysis.columns_used_ratio": used / enumerated if enumerated else 0.0,
        "feasibility.make_problem_s": times.get("feasibility.make_problem", 0.0),
        "feasibility.solve_s": times.get("feasibility.solve_feasibility", 0.0),
        "feasibility.verify_s": times.get("feasibility.verify", 0.0),
        "feasibility.rows": counts["feasibility.rows"] / per,
        "feasibility.cols": counts["feasibility.cols"] / per,
        "feasibility.nnz": counts["feasibility.nnz"] / per,
        "feasibility.cert_max_bits": counts["feasibility.cert_max_bits"],
    }
    return {f"{prefix}.{k}": v for k, v in out.items()}


def overhead(plain: Samples, traced: Samples, request_of=lambda part: part) -> float:
    """Traced minus untraced seconds per request, over the parts both ran,
    each at its median, as in the end-to-end metrics."""
    common = plain.parts.keys() & traced.parts.keys()
    extra = sum(statistics.median(traced.parts[p]) - statistics.median(plain.parts[p])
                for p in common)
    return extra / len({request_of(p) for p in common})


def trace_in_process(name, seed, seconds, tally) -> tuple[Tracer, Samples, Samples]:
    """Run untraced, then traced, on the same inputs."""
    workload, _ = set_up(WORKLOADS[name], seed, 1)
    plain = workload.run(seconds / 2, tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.run(seconds / 2, tally, tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{name}-{seed}.json")
    return tracer, plain, traced


def trace_batch(seed, seconds, tally) -> dict:
    """Per system."""
    tracer, plain, traced = trace_in_process("batch-2x2", seed, seconds, tally)
    per = len(traced.requests)
    times, calls = traced_layers(tracer, per)
    out = layer_metrics("batch", times, calls, tracer.counts, per)
    out["batch.trace.overhead_s"] = overhead(plain, traced)
    return out


def trace_ladder(seed, seconds, tally) -> dict:
    """Per pass."""
    tracer, plain, traced = trace_in_process("ladder", seed, seconds, tally)
    per = len(traced.requests)
    times, calls = traced_layers(tracer, per)
    out = layer_metrics("ladder", times, calls, tracer.counts, per)
    # Span times are wall times, so the share is over the requests' spans.
    request_s = sum(end - start for name, start, end, parent in tracer.spans
                    if parent < 0 and name == REQUEST)
    out["ladder.feasibility.solve_share"] = (
        times.get("feasibility.solve_feasibility", 0.0) * per / request_s
    )
    out["ladder.trace.overhead_s"] = overhead(plain, traced, lambda part: part[0])
    return out


CLI_LAYERS = {
    "cli.systems.validate_s": "systems.validate",
    "cli.serialize.loads_s": "serialize.loads_system",
    "cli.catalog.get_s": "catalog.get",
    "cli.peres.orthogonal_triads_s": "peres.orthogonal_triads",
    "cli.peres.ks_search_s": "peres.ks_search",
    "cli.peres.build_ksp_support_s": "peres.build_ksp_support",
    "cli.analysis.enumerate_s": "analysis.enumerate_ns_realizations",
}


def trace_cli(seed, seconds, tally) -> dict:
    """Per round of every command; the ``_ms`` values are medians."""
    workload, _ = set_up(WORKLOADS["cli"], seed, 1)
    plain = workload.run(seconds / 2, tally)
    trace_dir = OUT / f"cli-trace-{seed}"
    trace_dir.mkdir(exist_ok=True)
    for stale in trace_dir.glob("*.json"):
        stale.unlink()
    traced = workload.run(seconds / 2, tally, trace_dir)
    rounds = len(traced.requests) / len(workload.commands)
    merged = Tracer()
    imports, mains = [], []
    for path in sorted(trace_dir.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        offset = len(merged.spans)
        for name, start, end, parent in doc["spans"]:
            merged.spans.append((name, start, end, parent + offset if parent >= 0 else -1))
            if name == "cli.main":
                mains.append(end - start)
        merged.counts.update(doc["counts"])
        imports.append(doc["import_s"])
    times, _ = traced_layers(merged, rounds)
    out = {metric: times.get(span, 0.0) for metric, span in CLI_LAYERS.items()}
    out["cli.peres.ks_nodes"] = merged.counts["peres.ks_nodes"] / rounds
    out["cli.analysis.realizations"] = merged.counts["analysis.realizations"] / rounds
    out["cli.interpreter_ms"] = statistics.median(workload.interpreter_floor()) * 1e3
    out["cli.import_ms"] = statistics.median(imports) * 1e3
    out["cli.main_ms"] = statistics.median(mains) * 1e3
    for name, times_ in plain.parts.items():
        out[f"cli.cmd.{name}_ms"] = statistics.median(times_) * 1e3
    out["cli.trace.overhead_s"] = overhead(plain, traced)
    return out


# ------------------------------------------------------------------ main

def result_line(tally, metrics: dict) -> str:
    return json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    })


def run_end_to_end(names, seed, seconds) -> tuple[checker.Tally, dict]:
    tally = checker.Tally()
    metrics = {}
    for name in names:
        cls = WORKLOADS[name]
        workload, setup_times = set_up(cls, seed, cls.setup_repeats)
        own = checker.Tally()
        samples = workload.run(seconds, own)
        found = end_to_end(workload, samples, setup_times)
        print(f"{name}: seed {seed}, closed loop, 1 caller, "
              f"{len(samples.requests)} requests in {samples.wall:.1f} s")
        if name == "ladder":
            for instance, (rows, cols) in workload.shapes().items():
                print(f"  LP {instance:<18} {rows} x {cols}")
        print_end_to_end(name, found, own)
        tally.merge(own)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({
            prefix + metric: {"value": v[0], "unit": v[1]} for metric, v in found.items()
        })
    return tally, metrics


def run_traced(seed, seconds) -> tuple[checker.Tally, dict]:
    tally = checker.Tally()
    share = seconds / 3
    found = {}
    found.update(trace_batch(seed, share, tally))
    found.update(trace_ladder(seed, share, tally))
    found.update(trace_cli(seed, share, tally))
    print(f"traced run: seed {seed}, every workload, untraced then traced")
    for metric, value in found.items():
        print(f"  {metric:<44} {value:.6g}")
    print_failures(tally)
    units = {"_s": "s", "_ms": "ms", "_ratio": "ratio", "_share": "ratio"}
    metrics = {}
    for metric, value in found.items():
        unit = next((u for suffix, u in units.items() if metric.endswith(suffix)), "count")
        metrics[metric] = {"value": value, "unit": unit}
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    clock.pin()
    if args.trace:
        tally, metrics = run_traced(args.seed, args.seconds)
    else:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        tally, metrics = run_end_to_end(names, args.seed, args.seconds)
    print(f"host: reference loop at {clock.host_slowdown():.2f}x its reference time "
          f"({clock.REFERENCE_S * 1e6:.0f} us); every time above is scaled to it")
    print(result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
