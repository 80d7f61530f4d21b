"""The benchmark's checks catch wrong outputs.

Each test produces real op outputs, corrupts one of them the way a broken
program could, and asserts that the loop counts it as a failed op while
the untouched output passes.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from lexplain.evaluation import GroundednessResult

BENCH = Path(__file__).resolve().parent


@pytest.fixture
def work_dir():
    path = BENCH / "_work" / f"test-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _loop(cls, work_dir):
    work_dir.mkdir(parents=True)
    workload = cls(7, work_dir)
    workload.setup()
    return workload, run.Loop(workload)


def _judge(loop, i, inp, out):
    before = loop.failed
    loop.record(loop.workload.check(i, inp, out))
    return loop.failed - before


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def test_paper_checks(work_dir):
    workload, loop = _loop(workloads.Paper, work_dir)

    def op(i, corrupt=None):
        argv = workload.next_input(i)
        code = workload.run(argv)
        if corrupt is not None:
            corrupt(Path(argv[-1]))
        return _judge(loop, i, argv, code)

    def trace_byte(out):
        def edit(run_json):
            step = run_json["steps"][0]
            step["prompt"] = step["prompt"].replace("mario, polish", "mario, polisj", 1)
        _edit_json(out / "run_003.json", edit)

    def verdict(out):
        def edit(report):
            report["form"]["pass"] = False
        _edit_json(out / "run_002.directive_2010_64_pl.report.json", edit)

    def fourth_completion(out):
        def edit(run_json):
            run_json["steps"].append(dict(run_json["steps"][2]))
        _edit_json(out / "run_005.json", edit)

    assert op(0) == 0
    assert op(1, trace_byte) == 1
    assert op(2, verdict) == 1
    assert op(3, fourth_completion) == 1
    assert loop.failed == 3
    assert workload.finish() == (0, [])


def _drop_auxiliaries(out):
    return [
        (source, [dataclasses.replace(b, auxiliaries=()) for b in bundles], docs)
        for source, bundles, docs in out
    ]


def test_cohort_checks(work_dir):
    workload, loop = _loop(workloads.Cohort, work_dir)
    mario = workload.persons.index("mario")
    out = workload.run("mario")
    assert _judge(loop, mario, "mario", out) == 0

    # One byte changed in mario's EU trace, consistently in the rendered
    # and the parsed document, so only the golden comparison can see it.
    source, bundles, docs = out[0]
    doc, parsed = docs[0]
    text = doc.raw_text.replace("polish", "polisj", 1)
    docs = [(dataclasses.replace(doc, raw_text=text),
             dataclasses.replace(parsed, raw_text=text))]
    assert _judge(loop, mario, "mario", [(source, bundles, docs)] + out[1:]) == 1

    # A person whose later op loses an attachment fails at once.
    person = next(
        p for p in workload.persons[1:]
        if any(bundles for _, bundles, _ in workload.run(p))
    )
    i = workload.persons.index(person)
    out = workload.run(person)
    assert _judge(loop, i, person, out) == 0
    assert _judge(loop, i, person, _drop_auxiliaries(out)) == 1

    # A person whose only op lost an attachment fails against the oracle.
    other = next(
        p for p in workload.persons[1:]
        if p != person and any(bundles for _, bundles, _ in workload.run(p))
    )
    dropped = _drop_auxiliaries(workload.run(other))
    assert _judge(loop, workload.persons.index(other), other, dropped) == 0
    failed, problems = workload.finish()
    assert failed == 1 and other in problems[0]


def test_deep_checks(work_dir):
    workload, loop = _loop(workloads.Deep, work_dir)

    def op(i, corrupt=None):
        case = workload.next_input(i)
        out = workload.run(case)
        if corrupt is not None:
            out = corrupt(*out)
        return _judge(loop, i, case, out)

    def trace_byte(docs, parsed, prompts, reports):
        doc = docs[0]
        text = doc.raw_text.replace("[FACT]", "[FACt]", 1)
        return [dataclasses.replace(doc, raw_text=text)], parsed, prompts, reports

    def verdict(docs, parsed, prompts, reports):
        report = dataclasses.replace(
            reports[0], groundedness=GroundednessResult(("edge(a, b)",))
        )
        return docs, parsed, prompts, [report]

    def prompt(docs, parsed, prompts, reports):
        return docs, parsed, [prompts[0] + "\n"], reports

    assert op(0) == 0
    assert op(1, trace_byte) == 1
    assert op(2, verdict) == 1
    assert op(3, prompt) == 1
    assert workload.finish() == (0, [])


def test_refuses_to_run_without_the_program(work_dir):
    bare = work_dir / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_*"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper", "--seconds", "1"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
