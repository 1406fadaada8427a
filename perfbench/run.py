"""pairpulse benchmark: four closed-loop, single-client workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is taken from
``src`` and need not be installed.  The seed makes the workload's input
list; the run repeats whole passes over that list for about S seconds and
checks every op's output.  The second-to-last line of standard output is a
JSON report (environment, input hash, sample counts, failures); the last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones, from passes that alternate untraced and traced.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".perfbench"

WORKLOADS = ("cli_cold", "closed_form", "ode_reflect", "onematrix_dense")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_SAMPLES = 3
# Host-speed probe: a fixed piece of pure-Python work (build, sort and sum a
# list), timed before every op and around every set-up.  The host's speed
# drifts by 15-50% over seconds to minutes, for the probe and the program
# alike, so a time multiplied by PROBE_REF_S / (probe time) is the time at a
# reference host speed, one at which the probe takes PROBE_REF_S (about its
# typical time on the 2-core host the bounds were set on).
PROBE_SIZE = 4000
PROBE_REF_S = 3.2e-4
SETUP_PROBES = 100
IMPORT_SAMPLES = 3
# Import floors, each timed in a fresh interpreter; None times `python -c pass` from outside.
IMPORT_PROBES = {
    "import.interpreter_s": None,
    "import.numpy_s": "numpy",
    "import.pairpulse_cli_s": "pairpulse.cli",
}
# Printed in the report next to the gated metrics, but not gated: the raw
# timings that the gated ones scale to the reference host speed, the probe
# time, the median (short ops land in the host's fast or slow mode, and the
# median flips between them from one run to the next) and the failure ratio
# (0 at a healthy commit; a failed op makes the result incorrect instead).
REPORT_ONLY = {"latency_p50_s": "s", "failed_ratio": "1", "throughput_ops_s": "1/s",
               "latency_tail_s": "s", "setup_raw_s": "s", "probe_s": "s"}
# Thread pools pinned to one thread, so no run uses more than one core for compute.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The sweep process pool, and bytecode suppression that would make every cold start compile.
REMOVED = ("PAIRPULSE_WORKERS", "PYTHONDONTWRITEBYTECODE")


def control_environment() -> None:
    """Set this process's environment, which its children inherit."""
    for key in REMOVED:
        os.environ.pop(key, None)
    os.environ.update(PINNED)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))


def probe() -> float:
    """Seconds the host takes for the probe's fixed work.

    The work runs twice and only the second run is timed, so that what the
    previous op left in the caches and the allocator does not count.
    """
    for _ in range(2):
        start = time.perf_counter()
        values = [float(i) for i in range(PROBE_SIZE)]
        values.sort(reverse=True)
        sum(values)
    return time.perf_counter() - start


def make_workload(name: str):
    import workloads

    if name == "cli_cold":
        return workloads.CliCold()
    return {"closed_form": workloads.ClosedForm, "ode_reflect": workloads.OdeReflect,
            "onematrix_dense": workloads.OneMatrixDense}[name]()


def set_up(name: str, seed: int):
    """Imports, inputs, the workload's own set-up and one untimed warm-up op.

    Returns the workload, its input list, the prepared ops and a pair: the
    set-up time and the mean probe time just before and after it.
    """
    from spans import NullTracer

    probes = [probe() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    workload = make_workload(name)
    inputs = workload.generate(seed)
    ops = workload.setup(inputs)
    workload.api = workload.bind(NullTracer())
    warm = workload.run(ops[0])
    elapsed = time.perf_counter() - start
    probes += [probe() for _ in range(SETUP_PROBES)]
    workload.check(ops[0], warm)
    return workload, inputs, ops, (elapsed, statistics.fmean(probes))


def run_pass(workload, ops, tracer, op_ids):
    """One pass over the op list: per completed op its latency and the probe
    time just before it; per-op counts and failure messages."""
    from workloads import CheckFailed

    workload.api = workload.bind(tracer)
    latencies, probes, counts, failures = [], [], [], []
    for op, op_id in zip(ops, op_ids):
        host = probe()
        tracer.op_id = op_id
        start = time.perf_counter()
        try:
            out = tracer.call("bench.op", workload.run, op)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - start)
        probes.append(host)
        try:
            counts.append(workload.check(op, out))
        except CheckFailed as exc:
            failures.append(str(exc))
    return latencies, probes, counts, failures


def measure(workload, ops, seconds: float, trace: bool) -> dict:
    """Repeat whole passes while the next round still fits in ``seconds``.

    A round is one pass, or with tracing an untraced and a traced pass.
    """
    from spans import NullTracer, Tracer, self_times

    tracers = (NullTracer(), Tracer()) if trace else (NullTracer(),)
    runs = {"untraced": [], "traced": []}
    failures, next_op = [], 0
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for tracer in tracers:
            ids = range(next_op, next_op + len(ops))
            next_op += len(ops)
            latencies, probes, counts, failed = run_pass(workload, ops, tracer, ids)
            failures += failed
            record = {"latencies": latencies, "probes": probes, "counts": workload.pass_counts(counts)}
            if isinstance(tracer, Tracer):
                spans = tracer.take()
                record["self"] = self_times(spans)
                if not runs["traced"]:
                    record["spans"] = spans
                runs["traced"].append(record)
            else:
                runs["untraced"].append(record)
        now = time.perf_counter()
        if now - begin + (now - round_start) > seconds:
            break
    runs["failures"] = failures
    runs["attempted"] = next_op
    return runs


def percentile(ordered: list, level: float) -> float:
    """Linearly interpolated percentile of sorted values (level 50 is the median)."""
    pos = (len(ordered) - 1) * level / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(latencies: list, preferred: float) -> tuple[float, float]:
    """Percentile at ``preferred``, or at the next lower ladder step that
    still has at least ten samples beyond it."""
    ordered = sorted(latencies)
    for level in (p for p in TAIL_LADDER if p <= preferred):
        value = percentile(ordered, level)
        if sum(x > value for x in ordered) >= 10 or level == TAIL_LADDER[-1]:
            return level, value
    raise ValueError("empty tail ladder")


def peak_rss_mib(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def setup_samples(workload_name: str, seed: int, first: tuple) -> list:
    """(set-up time, probe time) pairs: ``first`` plus fresh interpreters that only set up.

    In-process imports cannot be repeated, so each further sample is a child
    process that sets up once and reports its own set-up and probe times.
    """
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload_name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        sample = json.loads(proc.stdout.splitlines()[-1])
        samples.append((sample["setup_s"], sample["probe_s"]))
    return samples


def import_floors() -> dict:
    out = {}
    for name, module in IMPORT_PROBES.items():
        times = []
        for _ in range(IMPORT_SAMPLES):
            if module is None:
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
                times.append(time.perf_counter() - start)
            else:
                code = (f"import time; t = time.perf_counter(); import {module}; "
                        "print(time.perf_counter() - t)")
                proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                      text=True, check=True, timeout=60)
                times.append(float(proc.stdout))
        out[name] = statistics.median(times)
    return out


def end_to_end(runs: dict, workload, setup: list) -> tuple[dict, dict]:
    """End-to-end values and, for the report, their sample counts.

    ``setup`` holds (set-up time, probe time) pairs.  The gated timings are
    at the reference host speed: throughput scaled by the run's mean probe
    time, each op's latency by the probe timed just before it, each set-up
    by the probes around it.  The raw values are reported beside them.
    """
    untraced = runs["untraced"]
    latencies = [x for r in untraced for x in r["latencies"]]
    probes = [x for r in untraced for x in r["probes"]]
    scaled = [x * PROBE_REF_S / p for r in untraced for x, p in zip(r["latencies"], r["probes"])]
    level, tail_s = tail(latencies, workload.tail_percentile)
    _, tail_ref_s = tail(scaled, level)
    raw_throughput = len(latencies) / sum(latencies)
    values = {
        "setup_s": statistics.median(t * PROBE_REF_S / p for t, p in setup),
        "setup_raw_s": statistics.median(t for t, _ in setup),
        "throughput_ref_ops_s": raw_throughput * statistics.fmean(probes) / PROBE_REF_S,
        "throughput_ops_s": raw_throughput,
        "latency_tail_ref_s": tail_ref_s,
        "latency_tail_s": tail_s,
        "latency_p50_s": statistics.median(latencies),
        "probe_s": statistics.fmean(probes),
        "peak_rss_mb": peak_rss_mib(children=not workload.in_process),
    }
    samples = {name: len(latencies) for name in values}
    samples.update(setup_s=len(setup), setup_raw_s=len(setup), probe_s=len(probes), peak_rss_mb=1)
    return values, {"samples": samples, "tail_percentile": level}


def per_layer(runs: dict, workload, ops) -> tuple[dict, dict]:
    """Per-layer values, each per pass of the op list, from the traced passes."""
    traced = runs["traced"]
    values = {}
    for record in traced:
        for name, (calls, self_s) in record["self"].items():
            if name.startswith("cli."):  # a cold subprocess span: cli.<cmd>.cold
                keys = {f"{name}_s": self_s}
            else:
                keys = {f"{name}.calls": calls, f"{name}.self_s": self_s}
            for key, v in keys.items():
                values[key] = values.get(key, 0.0) + v / len(traced)
    values.update(traced[0]["counts"])
    pass_s = statistics.fmean(sum(r["latencies"]) for r in traced)
    untraced_s = statistics.fmean(sum(r["latencies"]) for r in runs["untraced"])
    values["trace.pass_s"] = pass_s
    values["trace.untraced_pass_s"] = untraced_s
    values["trace.overhead_s"] = pass_s - untraced_s
    values.update(import_floors())
    if not workload.in_process:
        from workloads import CheckFailed

        try:
            values.update(workload.warm_times(ops))
        except CheckFailed as exc:
            runs["failures"].append(str(exc))
    self_sum = sum(v for k, v in values.items() if k.endswith(".self_s") or k.endswith(".cold_s"))
    counts_repeat = all(r["counts"] == traced[0]["counts"] for r in traced + runs["untraced"])
    return values, {"passes_traced": len(traced), "self_sum_s": self_sum,
                    "counts_repeat_exactly": counts_repeat}


def write_spans(path: Path, spans: list) -> None:
    origin = spans[0][1] if spans else 0.0
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps([
        {"name": n, "start": s - origin, "end": e - origin, "parent": p, "op": op}
        for n, s, e, p, op in spans
    ]) + "\n")


def environment(seed: int) -> dict:
    sources = sorted((SRC / "pairpulse").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "pinned": PINNED,
        "removed": list(REMOVED),
    }


def select(section: str, values: dict) -> dict:
    """The metrics BENCHMARK.json lists for ``section``, with their units.

    A per-layer metric the workload does not exercise reads 0; a measured
    metric missing from BENCHMARK.json is an error, so the two stay in step.
    """
    spec = json.loads(SPEC.read_text())[section]
    names = {m["name"] for m in spec}
    extra = sorted(set(values) - names - set(REPORT_ONLY))
    if extra:
        raise KeyError(f"measured but not in BENCHMARK.json {section}: {extra}")
    if section == "end_to_end":
        missing = [m["name"] for m in spec if m["name"] not in values]
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="makes the input list; any seed not used in development is unseen")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pairpulse" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no pairpulse sources under {SRC} or no {SPEC.name}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    control_environment()

    workload, inputs, ops, first_setup = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": first_setup[0], "probe_s": first_setup[1]}))
        return 0
    setup = [first_setup]
    if not workload.in_process:  # nothing is imported in-process: set up again here
        for _ in range(SETUP_SAMPLES - 1):
            workload, inputs, ops, sample = set_up(args.workload, args.seed)
            setup.append(sample)

    runs = measure(workload, ops, args.seconds, bool(args.trace))
    failures = runs["failures"]
    if args.trace:
        values, detail = per_layer(runs, workload, ops)
        section = "per_layer"
        write_spans(TRACE_DIR / f"{args.workload}-seed{args.seed}.json", runs["traced"][0]["spans"])
    else:
        if workload.in_process:
            setup = setup_samples(args.workload, args.seed, first_setup)
        values, detail = end_to_end(runs, workload, setup)
        section = "end_to_end"

    attempted, failed = runs["attempted"], len(failures)
    if not args.trace:
        values["failed_ratio"] = failed / attempted
        detail["samples"]["failed_ratio"] = attempted
        units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())["end_to_end"]}
        units.update(REPORT_ONLY)
        detail["end_to_end"] = {name: {"value": v, "unit": units[name], "samples": detail["samples"][name]}
                                for name, v in values.items()}
        del detail["samples"]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "input_sha256": hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest(),
        "ops_per_pass": len(ops),
        "passes": len(runs["untraced"]) + len(runs["traced"]),
        "failures": failures[:5],
        **detail,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": select(section, values)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
