#!/usr/bin/env python3
"""Layered benchmark of the qpii command line.

    python3 perfbench/run.py --workload derive --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --compare DIR_A DIR_B

Jobs go through ``qpii.cli.main(argv)`` in this process, one at a time in a
closed loop (one client, no threads), each with ``--output`` into the run's
own temporary directory; every report is checked after its job, outside
the timed region.  With ``--trace 0`` the run prints the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` it runs the same jobs untraced and
then traced, followed by the per-layer sweep, and prints the per-layer
metrics.  The last line of standard output is one JSON object; a result
file with the environment, samples and failures goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
LAYER_MAP_PATH = BENCH / "layer_map.json"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
SPAN_LAYERS = ("ncalg", "laxderive", "quasidet", "darboux", "reportio")

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import jobs  # noqa: E402
from speed import SpeedProbe  # noqa: E402


@dataclass
class Measurement:
    """What a closed loop over whole passes saw; ``ref_`` lists are scaled
    to the reference host speed, the others are raw."""

    pass_seconds: list = field(default_factory=list)
    ref_pass_seconds: list = field(default_factory=list)
    pass_jobs: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    ref_latencies: list = field(default_factory=list)
    report_bytes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0

    def extend(self, other: "Measurement") -> "Measurement":
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)
        return self


def call_cli(main, argv: list) -> object:
    """Exit code of one CLI call; an escaping exception is recorded as a failure."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed job, not a failed benchmark
        return f"{type(exc).__name__}: {exc}"


def run_passes(passes, seconds: float, work: Path, tracer=None, count: int | None = None) -> Measurement:
    """Whole passes, as many as come nearest to ``seconds`` of raw job time
    (at least one), or exactly ``count`` passes."""
    from qpii.cli import main

    m = Measurement()
    probe = SpeedProbe()
    while True:
        index = len(m.pass_seconds)
        intervals = []
        for k, job in enumerate(passes[index % len(passes)]):
            out = work / f"out-{k}.json"
            argv = ["--output", str(out), *job.argv]
            probe.sample_if_due()
            if tracer is None:
                t0 = time.perf_counter()
                rc = call_cli(main, argv)
                t1 = time.perf_counter()
            else:
                tracer.job = f"pass{index}.job{k}"
                t0 = time.perf_counter()
                with tracer.span("cli.main"):
                    rc = call_cli(main, argv)
                t1 = time.perf_counter()
            intervals.append((t0, t1))
            m.attempted += 1
            problems = [] if rc == 0 else [f"exit {rc}"]
            try:
                text = out.read_text(encoding="utf-8")
                out.unlink()
                m.report_bytes.append(len(text.encode()))
                problems += checks.check(job, json.loads(text))
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable report: {exc}")
            if problems:
                m.failures.append({"job": job.label, "argv": job.argv, "problems": problems[:5]})
        probe.sample()
        raw = [t1 - t0 for t0, t1 in intervals]
        ref = [(t1 - t0) * probe.scale(t0, t1) for t0, t1 in intervals]
        m.latencies += raw
        m.ref_latencies += ref
        m.pass_seconds.append(sum(raw))
        m.ref_pass_seconds.append(sum(ref))
        m.pass_jobs.append(len(intervals))
        done = len(m.pass_seconds)
        if count is not None:
            if done >= count:
                return m
        elif sum(m.pass_seconds) * (done + 0.5) / done >= seconds:
            return m


def measure_setup(repeats: int = SETUP_REPEATS) -> dict:
    """Wall time of a fresh interpreter importing qpii.cli, and the import
    alone as timed inside it; one untimed warm-up call first."""
    code = "import time; t = time.perf_counter(); import qpii.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = {"wall": [], "import": []}
    for k in range(repeats + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=120,
        )
        if k:
            out["wall"].append(time.perf_counter() - t0)
            out["import"].append(float(proc.stdout))
    return out


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> object:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {key: deps[key] for key in ("blas", "lapack") if key in deps}
    except (TypeError, KeyError):
        return "unavailable"


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": sys.version,
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "numpy_blas": _blas(),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _value(name: str, value: float, samples: int, spec_units: dict) -> dict:
    return {"value": value, "unit": spec_units[name], "samples": samples}


def end_to_end_metrics(m: Measurement, setup: dict, units: dict) -> dict:
    """Job times at the reference host speed (see speed.py).  Set-up time
    stays raw: interpreter start-up does not track the probe, and scaling
    it widened its spread."""
    rates = [n / t for n, t in zip(m.pass_jobs, m.ref_pass_seconds)]
    return {
        "jobs_per_s": _value("jobs_per_s", statistics.median(rates), len(rates), units),
        "job_p50_s": _value("job_p50_s", statistics.median(m.ref_latencies), len(m.ref_latencies), units),
        "setup_s": _value("setup_s", statistics.median(setup["wall"]), len(setup["wall"]), units),
        "peak_rss_mb": _value(
            "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1, units
        ),
    }


def raw_summary(m: Measurement, setup: dict) -> dict:
    """The job medians from unscaled times, for the result file."""
    return {
        "jobs_per_s": statistics.median(n / t for n, t in zip(m.pass_jobs, m.pass_seconds)),
        "job_p50_s": statistics.median(m.latencies),
    }


def per_layer_metrics(passes, seed: int, seconds: float, work: Path, setup: dict,
                      units: dict, spans_path: Path) -> tuple[dict, Measurement]:
    """Untraced passes, the same number traced, then the layer sweep."""
    import layers
    from spans import Tracer, self_times, totals

    untraced = run_passes(passes, seconds / 2, work)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(passes, 0, work, tracer, count=len(untraced.pass_seconds))
        n_pass = len(traced.pass_seconds)
        selfs = self_times(tracer.spans)
        dumps_calls, dumps_s = totals(tracer.spans, "reportio.dumps")
        _jobs, job_s = totals(tracer.spans, "cli.main")
        out = {f"{layer}.self_s": selfs.get(layer, 0.0) / n_pass for layer in SPAN_LAYERS}
        out["cli.self_s"] = selfs.get("cli", 0.0) / n_pass
        out["trace.uncovered_ratio"] = selfs.get("cli", 0.0) / job_s
        out["trace.overhead_ratio"] = (
            statistics.median(traced.ref_pass_seconds)
            / statistics.median(untraced.ref_pass_seconds) - 1
        )
        out["reportio.dumps_s"] = dumps_s / dumps_calls
        out["reportio.report_bytes"] = statistics.mean(traced.report_bytes)
        out["cli.import_s"] = statistics.median(setup["import"])
        out.update(layers.sweep(tracer, seed, work / "layer-inputs"))
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    return {name: _value(name, value, 1, units) for name, value in out.items()}, untraced.extend(traced)


def run_workload(args, spec: dict) -> dict:
    metric_list = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_list}
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT / "tmp"))
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    spans_path = OUT / "spans" / f"{stamp}.jsonl.gz"
    try:
        passes = jobs.make_passes(args.workload, args.seed, work / "inputs")
        setup = measure_setup()
        if args.trace:
            metrics, m = per_layer_metrics(passes, args.seed, args.seconds, work, setup,
                                           units, spans_path)
        else:
            m = run_passes(passes, args.seconds, work)
            metrics = end_to_end_metrics(m, setup, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    result = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "layer_map": json.loads(LAYER_MAP_PATH.read_text()),
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "fail_ratio": len(m.failures) / m.attempted,
        "metrics": metrics,
        "raw": raw_summary(m, setup),
        "pass_seconds": m.pass_seconds,
        "ref_pass_seconds": m.ref_pass_seconds,
        "job_latencies_s": m.latencies,
        "ref_job_latencies_s": m.ref_latencies,
        "setup": setup,
        "failures": m.failures[:50],
        "spans_file": str(spans_path.relative_to(ROOT)) if args.trace else None,
    }
    results_dir = Path(args.results) if args.results else OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{stamp}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_result(result: dict, spec: dict) -> None:
    names = [m["name"] for m in (spec["per_layer"] if result["trace"] else spec["end_to_end"])]
    for name in names:
        metric = result["metrics"][name]
        print(f"{result['workload']} {name}: {metric['value']:.6g} {metric['unit']} "
              f"(samples={metric['samples']})")
    print(f"{result['workload']} fail_ratio: {result['fail_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']} jobs)")
    for failure in result["failures"][:5]:
        print(f"  FAILED {failure['job']}: {'; '.join(failure['problems'])}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n]["value"], "unit": result["metrics"][n]["unit"]}
                    for n in names},
    }
    print(json.dumps(line), flush=True)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in jobs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.results:
            cmd += ["--results", args.results]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*jobs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="job time measured per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="directory for result files (default: .perfbench/results)")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two directories of result files and exit")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"cannot read {SPEC_PATH.name}: {exc}\n")
        return 2
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], spec)
    if not (SRC / "qpii" / "cli.py").is_file():
        sys.stderr.write(f"the qpii sources are missing under {SRC}; nothing to measure\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args, spec)
    print_result(result, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
