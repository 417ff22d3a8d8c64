"""Tests of the benchmark itself: tiny runs, seeded inputs, output checks.

Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def tiny_passes(workload, tmp_path, seed=3):
    return jobs.make_passes(workload, seed, tmp_path / "inputs", tiny=True)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_tiny_run_of_every_workload_passes_its_checks(workload, tmp_path):
    passes = tiny_passes(workload, tmp_path)
    m = run.run_passes(passes, 0, tmp_path)
    assert m.attempted == len(passes[0]) > 0
    assert m.failures == []
    assert len(m.latencies) == m.attempted and all(t > 0 for t in m.latencies)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload, tmp_path):
    first = jobs.make_passes(workload, 5, tmp_path / "a")
    second = jobs.make_passes(workload, 5, tmp_path / "b")
    other = jobs.make_passes(workload, 6, tmp_path / "c")
    assert [[j.doc for j in p] for p in first] == [[j.doc for j in p] for p in second]
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
    if workload == "derive":
        assert sorted(j.doc for j in first[0]) == sorted(j.doc for j in other[0])
    else:
        assert [j.doc for j in first[0]] != [j.doc for j in other[0]]


def test_generated_exact_matrices_have_no_singular_minor(tmp_path):
    import random

    rng = random.Random(0)
    for n in (2, 3, 4):
        doc = jobs.exact_matrix(rng, n)
        rows = [[checks.parse_gauss(e) for e in row] for row in doc]
        assert not any(
            jobs.exact_det_is_zero(jobs._minor(rows, i, j)) for i in range(n) for j in range(n)
        )
    assert jobs.exact_det_is_zero([[(Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))],
                                   [(Fraction(2), Fraction(0)), (Fraction(4), Fraction(0))]])


def _valid_report(job, tmp_path):
    from qpii.cli import main

    out = tmp_path / "report.json"
    assert run.call_cli(main, ["--output", str(out), *job.argv]) == 0
    report = json.loads(out.read_text())
    assert checks.check(job, report) == []
    return report


def _bump_gauss(text):
    re_, im = checks.parse_gauss(text)
    re_ += Fraction(1, 1000)
    return f"{re_}{'+' if im >= 0 else '-'}{abs(im)}i"


def _bump_block(report):
    report["positions"]["1,0"][0][0][0] += 1e-6


def _set_level(report, key, value):
    report["levels"][-1][key] = value


CORRUPTIONS = {
    ("derive", "qpii"): [
        lambda r: r.update(ode=r["ode"].replace("(2+0i) * z f2", "(3+0i) * z f2")),
        lambda r: r.update(constraint="(0-1/2i) h^1 * f2 + (1+0i) * z f2 + (-1+0i) * f2 z"),
        lambda r: r.update(ode=r["ode"] + " + (1+0i) h^1 * f2"),
    ],
    ("derive", "riccati"): [
        lambda r: r.update(expression=r["expression"].replace("(0-4i) l^1", "(0-4i)")),
    ],
    ("derive", "symmetric"): [lambda r: r.update(value="(-4+0i) h^1 l^1")],
    ("exact_quasidet", None): [
        lambda r: r["positions"].update({"1,0": _bump_gauss(r["positions"]["1,0"])}),
        lambda r: r["commutative_reduction"].update({"0,1": False}),
        lambda r: r["positions"].pop("0,0"),
    ],
    ("block_quasidet", None): [_bump_block],
    ("dressing", None): [
        lambda r: _set_level(r, "within_tolerance", False),
        lambda r: r["levels"][0].update(max_norm_u=r["levels"][0]["max_norm_u"] * (1 + 1e-4)),
        lambda r: r["riccati_residual"][0].update(max=2e-6),
        lambda r: r.update(error={"type": "DarbouxError", "message": "x"}),
    ],
}


@pytest.mark.parametrize(
    "workload,target,index",
    [(w, t, i) for (w, t), fns in CORRUPTIONS.items() for i in range(len(fns))],
)
def test_each_check_rejects_a_corrupted_report(workload, target, index, tmp_path):
    passes = tiny_passes(workload, tmp_path)
    job = next(j for j in passes[0] if target is None or j.doc == target)
    report = _valid_report(job, tmp_path)
    CORRUPTIONS[(workload, target)][index](report)
    assert checks.check(job, report) != []


def test_classical_limit_of_the_ode_is_criterion_two():
    got = checks.classical_limit(checks.parse_terms(checks.ODE))
    assert got == checks.parse_terms(checks.CLASSICAL_ODE)


def test_traced_pass_records_spans_that_cover_each_job(tmp_path):
    import qpii.cli
    import qpii.quasidet

    originals = (qpii.quasidet.all_quasideterminants, qpii.cli.dumps)
    passes = tiny_passes("exact_quasidet", tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        m = run.run_passes(passes, 0, tmp_path, tracer, count=1)
    finally:
        tracer.uninstall()
    assert (qpii.quasidet.all_quasideterminants, qpii.cli.dumps) == originals
    assert m.failures == []
    roots = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in roots] == ["cli.main"] * m.attempted
    assert len({s[4] for s in roots}) == m.attempted
    selfs = self_times(tracer.spans)
    assert selfs["quasidet"] > 0 and selfs["reportio"] > 0
    assert sum(selfs.values()) == pytest.approx(sum(s[2] - s[1] for s in roots) / 1e9)
    path = tmp_path / "spans.jsonl.gz"
    tracer.write(path)
    with gzip.open(path, "rt") as fh:
        first = json.loads(fh.readline())
    assert set(first) == {"id", "name", "start", "end", "parent", "job"}


@pytest.mark.parametrize(
    "a,b,better,expected",
    [
        ([1.0, 1.01, 0.99, 1.0, 1.02], [1.01, 1.0, 1.02, 0.99, 1.0], "lower", "agree"),
        ([1.0, 1.01, 0.99, 1.0, 1.02], [1.3, 1.31, 1.29, 1.3, 1.32], "lower", "B worse"),
        ([1.0, 1.01, 0.99, 1.0, 1.02], [1.3, 1.31, 1.29, 1.3, 1.32], "higher", "B better"),
        ([1.0, 1.5, 0.6, 1.0, 1.4], [1.0, 1.0, 1.0, 1.0, 1.0], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, 0.1, better)[0] == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "derive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
