"""End-to-end CLI runs against the packaged fixtures, offline throughout."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lexplain import cli as cli_module
from lexplain import fixtures
from lexplain import trace as trace_module
from lexplain.cli import (
    EXIT_DATA,
    EXIT_GATEWAY,
    EXIT_NO_RESULT,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from lexplain.dsl import parse_facts, parse_rules
from lexplain.engine import DepthLimitError, NafNonGroundError, derive_rights, solve
from lexplain.kb import Term, Variable
from lexplain.trace import MissingTitleError, render_trace

from conftest import LONG_DSL_VALUES, LONG_KB_VALUES


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "eu.rules").write_text(fixtures.eu_rules_text(), encoding="utf-8")
    (tmp_path / "pl.rules").write_text(fixtures.pl_rules_text(), encoding="utf-8")
    (tmp_path / "mario.facts").write_text(
        fixtures.mario_facts_text(), encoding="utf-8"
    )
    mock = tmp_path / "mock"
    mock.mkdir()
    for index, text in enumerate(
        [
            fixtures.translation_output_eu(),
            fixtures.translation_output_pl(),
            fixtures.comparison_output(),
        ],
        start=1,
    ):
        (mock / f"{index:03d}.txt").write_text(text, encoding="utf-8")
    return tmp_path


def _common(workdir, *kbs):
    args = []
    for kb in kbs:
        args += ["--kb", str(workdir / kb)]
    return args + ["--facts", str(workdir / "mario.facts"), "--person", "mario"]


SOURCES = ["directive_2010_64", "directive_2010_64_pl"]


def test_solve_writes_golden_trace(workdir, capsys):
    out = workdir / "out"
    status = main(
        ["solve", *_common(workdir, "eu.rules"),
         "--source", "directive_2010_64", "--out", str(out)]
    )
    assert status == EXIT_OK
    trace = out / "directive_2010_64-art3_1.trace"
    assert trace.read_text(encoding="utf-8") == fixtures.listing1_trace()
    assert str(trace) in capsys.readouterr().out


def test_solve_polish_golden(workdir):
    out = workdir / "out"
    status = main(
        ["solve", *_common(workdir, "pl.rules"),
         "--source", "directive_2010_64_pl", "--out", str(out)]
    )
    assert status == EXIT_OK
    trace = out / "directive_2010_64_pl-article204_2.trace"
    assert trace.read_text(encoding="utf-8") == fixtures.listing2_trace()


def test_solve_defaults_to_all_sources(workdir):
    out = workdir / "out"
    status = main(
        ["solve", *_common(workdir, "eu.rules", "pl.rules"), "--out", str(out)]
    )
    assert status == EXIT_OK
    assert len(list(out.glob("*.trace"))) == 2


def test_solve_without_supporting_facts_is_status_3(workdir):
    (workdir / "thin.facts").write_text(
        "proceeding_language(mario, polish).\n", encoding="utf-8"
    )
    out = workdir / "out"
    status = main(
        ["solve", "--kb", str(workdir / "eu.rules"),
         "--facts", str(workdir / "thin.facts"),
         "--person", "mario", "--source", "directive_2010_64",
         "--out", str(out)]
    )
    assert status == EXIT_NO_RESULT
    assert not list(out.glob("*.trace"))


def test_solve_disambiguates_same_article_bundles(workdir):
    # two options grounding under one article must not overwrite each other
    (workdir / "multi.rules").write_text(
        "%% source: multi\n"
        "%% article: a1\n"
        "%% title: Article 1\n"
        "has_right(r, x, a1, P, opt_one) :- has_right(a1, P, r, opt_one).\n"
        "has_right(a1, P, r, opt_one) :- person_document(P, charge).\n"
        "has_right(r, x, a1, P, opt_two) :- has_right(a1, P, r, opt_two).\n"
        "has_right(a1, P, r, opt_two) :- person_document(P, charge).\n",
        encoding="utf-8",
    )
    out = workdir / "out"
    status = main(
        ["solve", "--kb", str(workdir / "multi.rules"),
         "--facts", str(workdir / "mario.facts"),
         "--person", "mario", "--out", str(out)]
    )
    assert status == EXIT_OK
    names = sorted(p.name for p in out.glob("*.trace"))
    assert names == ["multi-a1-2.trace", "multi-a1.trace"]
    assert "Option: opt_one" in (out / "multi-a1.trace").read_text()
    assert "Option: opt_two" in (out / "multi-a1-2.trace").read_text()


def test_explain_and_compare_refuse_several_bundles(workdir, capsys):
    # the chain takes one trace per source; it must not pick one silently
    (workdir / "two.rules").write_text(
        "%% source: two\n"
        "%% article: a1\n"
        "%% title: Article 1\n"
        "has_right(r1, x, a1, P, opt) :- person_document(P, charge).\n"
        "%% article: a2\n"
        "%% title: Article 2\n"
        "has_right(r2, x, a2, P, opt) :- person_document(P, charge).\n",
        encoding="utf-8",
    )
    out = workdir / "out"
    mock = ["--mock-dir", str(workdir / "mock"), "--out", str(out)]
    explain = ["explain", *_common(workdir, "two.rules"), "--source", "two"]
    compare = [
        "compare", *_common(workdir, "eu.rules", "two.rules"),
        "--source", "directive_2010_64", "--source", "two",
    ]
    for argv in (explain, compare):
        assert main(argv + mock) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "mario has 2 rights under two" in err
        assert "primary articles: a1, a2" in err
    assert not out.exists()
    solve = ["solve", *_common(workdir, "two.rules"), "--out", str(out)]
    assert main(solve) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "two-a1.trace", "two-a2.trace"
    ]


def test_solve_parse_error_is_status_2(workdir, capsys):
    (workdir / "broken.rules").write_text("p(X :- q.\n", encoding="utf-8")
    status = main(
        ["solve", "--kb", str(workdir / "broken.rules"),
         "--facts", str(workdir / "mario.facts"), "--person", "mario"]
    )
    assert status == EXIT_DATA
    assert "error" in capsys.readouterr().err


def test_explain_with_polish_mock(workdir):
    mock = workdir / "mock_pl"
    mock.mkdir()
    (mock / "001.txt").write_text(
        fixtures.translation_output_pl(), encoding="utf-8"
    )
    out = workdir / "out"
    status = main(
        ["explain", *_common(workdir, "pl.rules"),
         "--source", "directive_2010_64_pl",
         "--mock-dir", str(mock), "--out", str(out)]
    )
    assert status == EXIT_OK
    report = json.loads(
        (out / "explanation.report.json").read_text(encoding="utf-8")
    )
    assert report["completeness"]["coverage"] == 1.0
    assert report["form"]["pass"] is True


def test_explain_with_eu_mock_reports_missing_inference(workdir):
    out = workdir / "out"
    status = main(
        ["explain", *_common(workdir, "eu.rules"),
         "--source", "directive_2010_64",
         "--mock-dir", str(workdir / "mock"), "--out", str(out)]
    )
    assert status == EXIT_OK
    report = json.loads(
        (out / "explanation.report.json").read_text(encoding="utf-8")
    )
    assert (
        "essential_document(art3_2, mario, documents)"
        in report["completeness"]["missing"]
    )


def test_explain_over_the_shipped_mock_dir_writes_its_first_response(workdir):
    out = workdir / "out"
    status = main(
        ["explain", *_common(workdir, "eu.rules"), "--source", "directive_2010_64",
         "--mock-dir", str(fixtures.mock_chain_dir()), "--out", str(out)]
    )
    assert status == EXIT_OK
    first = (fixtures.mock_chain_dir() / "001.txt").read_text(encoding="utf-8")
    assert (out / "explanation.txt").read_text(encoding="utf-8") == first


def test_explain_over_an_empty_mock_dir_is_status_4(workdir, capsys):
    (workdir / "empty").mkdir()
    status = main(
        ["explain", *_common(workdir, "eu.rules"), "--source", "directive_2010_64",
         "--mock-dir", str(workdir / "empty"), "--out", str(workdir / "out")]
    )
    assert status == EXIT_GATEWAY
    assert "mock queue exhausted after 0 responses" in capsys.readouterr().err


def test_explain_live_without_api_key_is_status_4(workdir, monkeypatch, capsys):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    status = main(
        ["explain", *_common(workdir, "eu.rules"),
         "--source", "directive_2010_64", "--out", str(workdir / "out")]
    )
    assert status == EXIT_GATEWAY
    assert "LLM_API_KEY" in capsys.readouterr().err


def test_compare_single_run_reproduces_comparison(workdir):
    out = workdir / "out"
    status = main(
        ["compare", *_common(workdir, "eu.rules", "pl.rules"),
         "--source", "directive_2010_64", "--source", "directive_2010_64_pl",
         "--mock-dir", str(workdir / "mock"), "--out", str(out)]
    )
    assert status == EXIT_OK
    run = json.loads((out / "run_000.json").read_text(encoding="utf-8"))
    assert len(run["steps"]) == 3
    assert run["steps"][2]["output"] == fixtures.comparison_output()
    reports = sorted(p.name for p in out.glob("run_000.*.report.json"))
    assert reports == [
        "run_000.directive_2010_64.report.json",
        "run_000.directive_2010_64_pl.report.json",
    ]


def test_compare_repetitions_stability_summary(workdir):
    out = workdir / "out"
    status = main(
        ["compare", *_common(workdir, "eu.rules", "pl.rules"),
         "--source", "directive_2010_64", "--source", "directive_2010_64_pl",
         "--mock-dir", str(workdir / "mock"),
         "--repetitions", "10", "--out", str(out)]
    )
    assert status == EXIT_OK
    summary = json.loads((out / "stability.json").read_text(encoding="utf-8"))
    assert summary["runs_total"] == 10
    assert summary["runs_completed"] == 10
    for source_id in ("directive_2010_64", "directive_2010_64_pl"):
        stats = summary["stability"][source_id]
        assert stats["form_pass_rate"] == 1.0
        assert stats["coverage_max"] == stats["coverage_min"]


def test_compare_without_a_right_under_one_source_is_status_3(workdir, capsys):
    (workdir / "t.rules").write_text(
        "%% source: t\n%% article: a1\n%% title: Article 1\n"
        "has_right(r, t, a1, P, o) :- person_document(P, passport).\n",
        encoding="utf-8",
    )
    out = workdir / "out"
    status = main(
        ["compare", *_common(workdir, "eu.rules", "t.rules"),
         "--source", "directive_2010_64", "--source", "t",
         "--mock-dir", str(workdir / "mock"), "--out", str(out)]
    )
    assert status == EXIT_NO_RESULT
    assert capsys.readouterr().err == "no rights derivable for mario under t\n"
    assert not out.exists()


def _compare_over(workdir, mock, repetitions: int) -> int:
    return main(
        ["compare", *_common(workdir, "eu.rules", "pl.rules"),
         "--source", SOURCES[0], "--source", SOURCES[1],
         "--mock-dir", str(mock), "--repetitions", str(repetitions),
         "--out", str(workdir / "out")]
    )


def test_compare_records_a_failed_run_and_goes_on(workdir):
    # six files, cycled: run 1 reads the empty sixth file at its last step
    mock = workdir / "mock"
    for index in (1, 2, 3):
        text = (mock / f"{index:03d}.txt").read_text(encoding="utf-8")
        (mock / f"{index + 3:03d}.txt").write_text(text, encoding="utf-8")
    (mock / "006.txt").write_text("", encoding="utf-8")
    assert _compare_over(workdir, mock, 3) == EXIT_OK
    summary = json.loads(
        (workdir / "out" / "stability.json").read_text(encoding="utf-8")
    )
    assert (summary["runs_total"], summary["runs_completed"]) == (3, 2)
    assert summary["failures"] == [
        {"run_index": 1, "error": "chain step 2 failed: mock response file is empty"}
    ]
    assert sorted(p.name for p in (workdir / "out").glob("run_???.json")) == [
        "run_000.json", "run_002.json"
    ]


def test_compare_whose_every_run_fails_is_status_4(workdir, capsys):
    (workdir / "mock" / "001.txt").write_text("", encoding="utf-8")
    assert _compare_over(workdir, workdir / "mock", 1) == EXIT_GATEWAY
    assert capsys.readouterr().err == "all runs failed\n"


def test_compare_requires_two_sources(workdir, capsys):
    status = main(
        ["compare", *_common(workdir, "eu.rules"),
         "--source", "directive_2010_64",
         "--mock-dir", str(workdir / "mock")]
    )
    assert status == EXIT_USAGE
    assert "two --source" in capsys.readouterr().err


def test_solve_rejects_a_repeated_source(workdir, capsys):
    # one source named twice wrote its trace twice, the second with "-2"
    out = workdir / "out"
    status = main(
        ["solve", *_common(workdir, "eu.rules"),
         "--source", "directive_2010_64", "--source", "directive_2010_64",
         "--out", str(out)]
    )
    assert status == EXIT_USAGE
    assert "source directive_2010_64 is named twice" in capsys.readouterr().err
    assert not list(out.glob("*.trace"))


def test_compare_rejects_a_repeated_source(workdir, capsys):
    # each run's second report overwrote its first, and stability counted both
    out = workdir / "out"
    status = main(
        ["compare", *_common(workdir, "eu.rules"),
         "--source", "directive_2010_64", "--source", "directive_2010_64",
         "--mock-dir", str(workdir / "mock"),
         "--repetitions", "2", "--out", str(out)]
    )
    assert status == EXIT_USAGE
    assert "source directive_2010_64 is named twice" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_rejects_a_repeated_source(workdir, capsys):
    config_path = workdir / "run.json"
    config_path.write_text(
        json.dumps({"sources": ["directive_2010_64_pl", "directive_2010_64_pl"]}),
        encoding="utf-8",
    )
    status = main(
        ["solve", *_common(workdir, "pl.rules"), "--config", str(config_path),
         "--out", str(workdir / "out")]
    )
    assert status == EXIT_USAGE
    assert "named twice" in capsys.readouterr().err


def test_explain_requires_exactly_one_source(workdir, capsys):
    status = main(
        ["explain", *_common(workdir, "eu.rules", "pl.rules"),
         "--source", "directive_2010_64", "--source", "directive_2010_64_pl",
         "--mock-dir", str(workdir / "mock")]
    )
    assert status == EXIT_USAGE
    assert "one --source" in capsys.readouterr().err


def test_evaluate_with_comparison_sections(workdir, capsys):
    out_file = workdir / "comparison.txt"
    out_file.write_text(fixtures.comparison_output(), encoding="utf-8")
    trace_file = workdir / "listing1.trace"
    trace_file.write_text(fixtures.listing1_trace(), encoding="utf-8")
    status = main(
        ["evaluate", str(out_file), str(trace_file),
         "--sections", "1. Comparison of differences",
         "2. Potential consequences"]
    )
    assert status == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["form"]["pass"] is True
    assert report["groundedness"]["hallucinated"] == []


def test_evaluate_prints_and_writes_report(workdir, capsys):
    out_file = workdir / "pl_output.txt"
    out_file.write_text(fixtures.translation_output_pl(), encoding="utf-8")
    trace_file = workdir / "listing2.trace"
    trace_file.write_text(fixtures.listing2_trace(), encoding="utf-8")
    report_path = workdir / "report.json"
    status = main(
        ["evaluate", str(out_file), str(trace_file), "--out", str(report_path)]
    )
    assert status == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert printed["completeness"]["coverage"] == 1.0
    assert json.loads(report_path.read_text(encoding="utf-8")) == printed


def test_evaluate_trace_against_itself(workdir, capsys):
    trace_file = workdir / "listing1.trace"
    trace_file.write_text(fixtures.listing1_trace(), encoding="utf-8")
    status = main(["evaluate", str(trace_file), str(trace_file)])
    assert status == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["completeness"]["coverage"] == 1.0
    assert report["form"]["pass"] is False


def test_evaluate_missing_file_is_status_2(workdir, capsys):
    status = main(
        ["evaluate", str(workdir / "nope.txt"), str(workdir / "nope.trace")]
    )
    assert status == EXIT_DATA


@pytest.mark.parametrize(
    "sections, message",
    [(["Summary", "Summary"], "'Summary' repeats an earlier one"),
     (["Summary", "1. summary:"], "'1. summary:' repeats an earlier one"),
     (["Summary", " : "], "' : ' has no header text")],
)
def test_evaluate_rejects_a_duplicate_or_empty_section(
    workdir, capsys, sections, message
):
    out_file = workdir / "output.txt"
    out_file.write_text("Summary: x\n(see below)\n", encoding="utf-8")
    trace_file = workdir / "listing1.trace"
    trace_file.write_text(fixtures.listing1_trace(), encoding="utf-8")
    report_path = workdir / "report.json"
    status = main(
        ["evaluate", str(out_file), str(trace_file), "--sections", *sections,
         "--out", str(report_path)]
    )
    assert status == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not report_path.exists()


# SHA-256 of the stdout of `lexplain evaluate` on each reference output,
# as printed when the report went through json.dumps(indent=2).
EVALUATE_STDOUT_DIGESTS = {
    "pl": "40449956f54c6da23eba24f3ddb32b797bfa0767217468e89e42291976a6b41b",
    "eu": "61ff579e23145d7e92ebec5b82db71c6bd5a9e601d3c261b562bb8c232bced43",
    "comparison":
        "071e017232a9303f75ad1e9e6e48b36e467534b8606680f9d3a0d169a99dbb87",
}


@pytest.mark.parametrize("name", list(EVALUATE_STDOUT_DIGESTS))
def test_evaluate_prints_pinned_bytes(workdir, capsys, name):
    output, trace, extra = {
        "pl": (fixtures.translation_output_pl(), fixtures.listing2_trace(), []),
        "eu": (fixtures.translation_output_eu(), fixtures.listing1_trace(), []),
        "comparison": (
            fixtures.comparison_output(),
            fixtures.listing1_trace(),
            ["--sections", "1. Comparison of differences",
             "2. Potential consequences"],
        ),
    }[name]
    (workdir / "output.txt").write_text(output, encoding="utf-8")
    (workdir / "source.trace").write_text(trace, encoding="utf-8")
    status = main(
        ["evaluate", str(workdir / "output.txt"), str(workdir / "source.trace"),
         *extra]
    )
    assert status == EXIT_OK
    printed = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(printed).hexdigest() == EVALUATE_STDOUT_DIGESTS[name]


def test_main_builds_its_parser_once(workdir, monkeypatch, capsys):
    calls = []
    build_parser = cli_module.build_parser

    def counting():
        calls.append(1)
        return build_parser()

    monkeypatch.setattr(cli_module, "build_parser", counting)
    cli_module._parser.cache_clear()
    trace_file = workdir / "listing1.trace"
    trace_file.write_text(fixtures.listing1_trace(), encoding="utf-8")
    for _ in range(3):
        assert main(["evaluate", str(trace_file), str(trace_file)]) == EXIT_OK
    assert main(["evaluate"]) == EXIT_USAGE
    assert len(calls) == 1


def test_parser_calls_share_no_state():
    parser = cli_module._parser()
    first = parser.parse_args(
        ["compare", "--kb", "a", "--kb", "b", "--source", "x", "--source", "y",
         "--repetitions", "3", "--temperature", "0.5"]
    )
    second = parser.parse_args(["compare", "--kb", "c", "--source", "z"])
    assert (first.kb, first.sources) == (["a", "b"], ["x", "y"])
    assert (second.kb, second.sources) == (["c"], ["z"])
    assert second.repetitions is None and second.temperature is None
    third = parser.parse_args(["compare"])
    assert third.kb is None and third.sources is None
    assert first.kb == ["a", "b"]


def test_usage_error_does_not_break_the_next_call(workdir, capsys):
    out = workdir / "out"
    one_source = ["solve", *_common(workdir, "eu.rules"),
                  "--source", "directive_2010_64", "--out", str(out)]
    every_source = ["solve", *_common(workdir, "eu.rules"), "--out", str(out)]
    assert main(["solve", "--repetitions", "2"]) == EXIT_USAGE
    assert main(["solve", "--source"]) == EXIT_USAGE
    assert main(one_source) == EXIT_OK
    assert main(every_source) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(out / "directive_2010_64-art3_1.trace")] * 2


DEEP = "f(" * 3000 + "a" + ")" * 3000
DEEP_TRACE = (
    "s - a1\n\nArticle 1\nOption: opt\n\nExplanation:\n\n" + DEEP + "\n"
)


def _evaluate(workdir, output: str, trace: str) -> int:
    out_file = workdir / "output.txt"
    out_file.write_text(output, encoding="utf-8")
    trace_file = workdir / "deep.trace"
    trace_file.write_text(trace, encoding="utf-8")
    return main(["evaluate", str(out_file), str(trace_file)])


def test_evaluate_deeply_nested_output(workdir, capsys):
    unclosed = "f(" * 3000 + "a"
    assert _evaluate(workdir, unclosed, fixtures.listing1_trace()) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["groundedness"]["hallucinated"] == []


def test_evaluate_deeply_nested_trace(workdir, capsys):
    # trace terms are function-free, so a nested term is malformed
    assert _evaluate(workdir, "no terms", DEEP_TRACE) == EXIT_DATA
    err = capsys.readouterr().err
    assert "error: line 8: malformed term: 'f(f(" in err
    assert len(err) < 200  # an excerpt of the 9,001-character term


def test_evaluate_long_spaced_term_gives_a_short_message(workdir, capsys):
    spaced = "f(" + " ,".join(["a"] * 100_000) + ")"  # 300 KB, flat
    trace = DEEP_TRACE.replace(DEEP, spaced)
    assert _evaluate(workdir, "no terms", trace) == EXIT_DATA
    err = capsys.readouterr().err
    assert "error: line 8: non-canonical term text: 'f(a ,a" in err
    assert len(err) < 200


def test_evaluate_unclosed_deeply_nested_trace_is_status_2(workdir, capsys):
    unclosed = DEEP_TRACE.replace(")\n", "\n")
    assert _evaluate(workdir, "no terms", unclosed) == EXIT_DATA
    assert "malformed term" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_config_file_supplies_defaults_and_flags_win(workdir):
    config = {
        "kb": [str(workdir / "pl.rules")],
        "facts": str(workdir / "mario.facts"),
        "person": "mario",
        "sources": ["directive_2010_64_pl"],
        "out": str(workdir / "from_config"),
    }
    config_path = workdir / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    status = main(["solve", "--config", str(config_path)])
    assert status == EXIT_OK
    assert (workdir / "from_config" / "directive_2010_64_pl-article204_2.trace").exists()

    override = workdir / "flag_out"
    status = main(
        ["solve", "--config", str(config_path), "--out", str(override)]
    )
    assert status == EXIT_OK
    assert (override / "directive_2010_64_pl-article204_2.trace").exists()


FLAGS = {"kb": "--kb", "facts": "--facts", "sources": "--source",
         "person": "--person", "out": "--out", "mock_dir": "--mock-dir",
         "model": "--model", "temperature": "--temperature",
         "repetitions": "--repetitions"}
# Each run works in its own directory below workdir, so inputs are "../".
SOLVE_SETTINGS = {"kb": ["../eu.rules", "../pl.rules"],
                  "facts": "../mario.facts", "person": "mario"}
COMPARE_SETTINGS = {**SOLVE_SETTINGS, "sources": SOURCES, "mock_dir": "../mock"}


@pytest.mark.parametrize(
    "command, key, value, other",
    [
        ("solve", "kb", ["../eu.rules"], ["../pl.rules"]),
        ("solve", "facts", "../mario.facts", "../nobody.facts"),
        ("solve", "sources", SOURCES[:1], SOURCES[1:]),
        ("solve", "person", "mario", "nobody"),
        ("solve", "out", "o1", "o2"),
        ("compare", "mock_dir", "../mock", "../nope"),
        ("compare", "model", "model-a", "model-b"),
        ("compare", "temperature", 0.5, 0.25),
        ("compare", "temperature", 1, 0.5),
        ("compare", "repetitions", 1, 2),
    ],
)
def test_config_file_fills_each_absent_flag_and_a_given_flag_wins(
    workdir, monkeypatch, command, key, value, other
):
    (workdir / "nobody.facts").write_text("person(mario).\n", encoding="utf-8")
    full = SOLVE_SETTINGS if command == "solve" else COMPARE_SETTINGS
    base = {k: v for k, v in full.items() if k != key}
    runs = iter(range(4))

    def outcome(flags: dict, from_file: dict):
        run_dir = workdir / f"run{next(runs)}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        argv = [command]
        for flag_key, flag_value in {**base, **flags}.items():
            for item in flag_value if isinstance(flag_value, list) else [flag_value]:
                argv += [FLAGS[flag_key], str(item)]
        if from_file:
            Path("c.json").write_text(json.dumps(from_file), encoding="utf-8")
            argv += ["--config", "c.json"]
        status = main(argv)
        files = {
            str(path.relative_to(run_dir)): re.sub(
                r',\n  "created_at": "[^"]*"', "", path.read_text(encoding="utf-8")
            )
            for path in run_dir.rglob("*")
            if path.is_file() and path.name != "c.json"
        }
        return status, files

    with_flag = outcome({key: value}, {})
    with_other_flag = outcome({key: other}, {})
    assert with_flag != with_other_flag
    assert outcome({}, {key: value}) == with_flag
    assert outcome({key: other}, {key: value}) == with_other_flag


def test_config_file_timeout_is_written_as_a_float(workdir):
    (workdir / "c.json").write_text(json.dumps({"timeout": 30}), encoding="utf-8")
    out = workdir / "out"
    argv = ["compare", *_common(workdir, "eu.rules", "pl.rules"),
            "--source", SOURCES[0], "--source", SOURCES[1],
            "--mock-dir", str(workdir / "mock"),
            "--config", str(workdir / "c.json"), "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert '"timeout": 30.0' in (out / "run_000.json").read_text(encoding="utf-8")


def test_config_file_names_its_first_unknown_key(workdir, capsys):
    (workdir / "c.json").write_text(
        json.dumps({"out": "o", "colour": "red", "size": 2}), encoding="utf-8"
    )
    argv = ["solve", *_common(workdir, "eu.rules"),
            "--config", str(workdir / "c.json")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config file has an unknown field 'colour'" in err


def test_config_file_names_a_mistyped_field_and_its_type(workdir, capsys):
    (workdir / "c.json").write_text(
        json.dumps({"temperature": "hot"}), encoding="utf-8"
    )
    argv = ["explain", *_common(workdir, "eu.rules"),
            "--source", "directive_2010_64", "--mock-dir", str(workdir / "mock"),
            "--config", str(workdir / "c.json")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config file field 'temperature' is of type str" in err


@pytest.mark.parametrize("key", ["temperature", "timeout"])
def test_config_file_number_too_large_for_a_float_is_a_usage_error(
    workdir, capsys, key
):
    (workdir / "c.json").write_text(
        f'{{"{key}": 1{"0" * 400}}}', encoding="utf-8"
    )
    argv = ["solve", *_common(workdir, "eu.rules"),
            "--config", str(workdir / "c.json")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"usage error: config file field '{key}' is too large\n"


@pytest.mark.parametrize(
    "text",
    ["{not json", "[" * 200_000, '{"repetitions": ' + "9" * 5000 + "}"],
    ids=["not_json", "nested_too_deeply", "integer_too_long"],
)
def test_config_file_that_does_not_parse_is_status_2(workdir, capsys, text):
    (workdir / "c.json").write_text(text, encoding="utf-8")
    argv = ["compare", *_common(workdir, "eu.rules", "pl.rules"),
            "--source", SOURCES[0], "--source", SOURCES[1],
            "--mock-dir", str(fixtures.mock_chain_dir()),
            "--config", str(workdir / "c.json"), "--out", str(workdir / "out")]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: ")
    assert not (workdir / "out").exists()


def test_config_file_that_is_not_an_object_is_a_usage_error(workdir, capsys):
    (workdir / "c.json").write_text('["--person", "mario"]', encoding="utf-8")
    argv = ["solve", *_common(workdir, "eu.rules"),
            "--config", str(workdir / "c.json")]
    assert main(argv) == EXIT_USAGE
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["--kb", "--facts", "--person"])
def test_solve_without_a_required_input_is_a_usage_error(
    workdir, capsys, missing
):
    argv = ["solve", *_common(workdir, "eu.rules"), "--out", str(workdir / "out")]
    at = argv.index(missing)
    del argv[at : at + 2]
    assert main(argv) == EXIT_USAGE
    assert missing in capsys.readouterr().err
    assert not (workdir / "out").exists()


# A NUL, and a lone surrogate that no file system encoding can write.
UNUSABLE_PATHS = {"nul": "a\0b", "surrogate": "\ud800"}
PATH_SETTINGS = {"kb": "--kb", "facts": "--facts", "mock_dir": "--mock-dir",
                 "out": "--out"}


@pytest.mark.parametrize("name", UNUSABLE_PATHS.values(), ids=UNUSABLE_PATHS)
@pytest.mark.parametrize("key", PATH_SETTINGS)
def test_config_file_path_no_file_can_have_is_a_usage_error(
    workdir, capsys, key, name
):
    config = {"kb": [str(workdir / "eu.rules")], "facts": str(workdir / "mario.facts"),
              "person": "mario", "out": str(workdir / "out")}
    config[key] = [name] if key == "kb" else name
    (workdir / "c.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["solve", "--config", str(workdir / "c.json")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"usage error: {key} is not a usable path")
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("name", UNUSABLE_PATHS.values(), ids=UNUSABLE_PATHS)
@pytest.mark.parametrize("key, flag", PATH_SETTINGS.items())
def test_path_flag_no_file_can_have_is_a_usage_error(workdir, capsys, key, flag, name):
    argv = ["explain", *_common(workdir, "eu.rules"), "--source", "directive_2010_64",
            "--mock-dir", str(workdir / "mock"), "--out", str(workdir / "out")]
    assert main([*argv, flag, name]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"usage error: {key} is not a usable path")
    assert not (workdir / "out").exists()


def test_mock_dir_and_base_url_mutually_exclusive(workdir, capsys):
    config_path = workdir / "live.json"
    config_path.write_text(
        json.dumps({"base_url": "http://example.invalid/v1"}), encoding="utf-8"
    )
    status = main(
        ["explain", *_common(workdir, "eu.rules"),
         "--source", "directive_2010_64",
         "--mock-dir", str(workdir / "mock"),
         "--config", str(config_path)]
    )
    assert status == EXIT_USAGE
    assert "mutually exclusive" in capsys.readouterr().err


def test_compare_pins_persisted_json_key_order(workdir):
    # existing tests compare parsed dicts, which ignore key order
    out = workdir / "out"
    status = main(
        ["compare", *_common(workdir, "eu.rules", "pl.rules"),
         "--source", "directive_2010_64", "--source", "directive_2010_64_pl",
         "--mock-dir", str(workdir / "mock"),
         "--repetitions", "2", "--out", str(out)]
    )
    assert status == EXIT_OK
    for path in sorted(out.glob("run_???.json")):
        run = json.loads(path.read_text(encoding="utf-8"))
        assert list(run) == ["run_index", "config", "steps", "created_at"]
        assert list(run["config"]) == [
            "model_id", "temperature", "max_tokens", "base_url", "timeout",
        ]
        assert [list(step) for step in run["steps"]] == [
            ["prompt", "output", "latency"]
        ] * 3
    summary = json.loads((out / "stability.json").read_text(encoding="utf-8"))
    assert list(summary) == ["runs_total", "runs_completed", "failures", "stability"]
    assert list(summary["stability"]) == [
        "directive_2010_64", "directive_2010_64_pl",
    ]
    for block in summary["stability"].values():
        assert list(block) == [
            "runs", "form_pass_rate", "coverage_min", "coverage_mean",
            "coverage_max", "hallucinated_runs",
        ]


# SHA-256 of every file one 10-repetition compare writes over the shipped
# mock chain, run_NNN.json without its created_at line.
COMPARE_DIGESTS = {
    "run_000.directive_2010_64.report.json":
        "61ff579e23145d7e92ebec5b82db71c6bd5a9e601d3c261b562bb8c232bced43",
    "run_000.directive_2010_64_pl.report.json":
        "40449956f54c6da23eba24f3ddb32b797bfa0767217468e89e42291976a6b41b",
    "run_000.json":
        "3454b973dc76d73a9030e59602963001ef865eddc9db514555b95ae2b38265a5",
    "run_001.directive_2010_64.report.json":
        "4ed149cc462d78c27e3bf7823ed5a1346df84bfae673d47a54bdae4f63c06cde",
    "run_001.directive_2010_64_pl.report.json":
        "908ebb7c785082f7b11e64426db07c88df4b22b6c14ffda7c2b81c5c9829e053",
    "run_001.json":
        "d0b8af29ca541f5326219dc449cf44e2c1441604de65ed07bbf9d99b8431f221",
    "run_002.directive_2010_64.report.json":
        "55adcca305375cde907813d6509a4950a3a786e04c98cb227ab23611e5be4342",
    "run_002.directive_2010_64_pl.report.json":
        "b6c93e912321a881517914d299a593017b66f50fe173a0bc1c4d8298d0fb1e17",
    "run_002.json":
        "e7040fcf265609aa5b35cfe879ff7d53e9b7f9a82213a739f239506cb9e6e5b3",
    "run_003.directive_2010_64.report.json":
        "6d09e736526e6534e5ba5270856416a801b06f875216610d552dfa50b8e5418d",
    "run_003.directive_2010_64_pl.report.json":
        "f8147da604c3acbff582ef4ea935bfa7f69b9c7704395a5a91a3028c4dbea1f9",
    "run_003.json":
        "79ab3280137f01579f2863f2a315e79b42423bc7799f91c8e64cc6c7691d3a69",
    "run_004.directive_2010_64.report.json":
        "c878c4a501ef7aec497a2b7ad2e2453bff4aa4faedf8c52d59cd013cc610e206",
    "run_004.directive_2010_64_pl.report.json":
        "34888eaed60b57a76cb457a2732d018b9a61d5ee4aa61005b43a949edb5f4d65",
    "run_004.json":
        "29de43e6ddd20e6023e7852a2297ae8dfc4778a7b18398e1d0260136f54507aa",
    "run_005.directive_2010_64.report.json":
        "f2a59954563e6cb0f15989b0345d0f1802633cf9aad4d1d6901fd21be223f888",
    "run_005.directive_2010_64_pl.report.json":
        "da92e62b9a30cd476dbfeeacddd131e0ba60b7636aa2065b7acb74f403477881",
    "run_005.json":
        "b98746390904e2acaa3744b2ad53a6bcd326124aed8e50407156983b1ab63509",
    "run_006.directive_2010_64.report.json":
        "5f9145a6fe7e6dd5cedd16d2364561def1d7ef4d2c13e0af8a095c77b3f963b1",
    "run_006.directive_2010_64_pl.report.json":
        "f2b771794f27963ab1a00c6001b54fd1ccd592cf76c6c9177019c584f5372c2c",
    "run_006.json":
        "a7fa00383f730e6c9a77b38837bee94bad4e7094f06d97c83adf5825a6e6f5a1",
    "run_007.directive_2010_64.report.json":
        "a9ab0904b72ca71d865ccb7c19bbc1af3d6abdcfb18f1a7093223c9de6648be1",
    "run_007.directive_2010_64_pl.report.json":
        "9a203c74f29d480c96f9e93231f156aa73e60942339718eab6f9c54d505f4d99",
    "run_007.json":
        "ede237d3473a773c9cf50d8226c3711374611876d267d90fc41b690b5d598ff2",
    "run_008.directive_2010_64.report.json":
        "9a03a979567ab09d633fef44211211fc7550038b12c1fba5ff4eb2cc7d580bdc",
    "run_008.directive_2010_64_pl.report.json":
        "436479a6a8e57a11d05ade445cccda9af84d443373f6e6a661f6595eaa069411",
    "run_008.json":
        "061dc97a6f4ead65f9344f15d8e194c03e6dffbeef8afbb41e7f6597aa76b3ef",
    "run_009.directive_2010_64.report.json":
        "ccc7efb42340031601266b47a467219a2b464c49b914bf27452cd9f7a9e0b6ac",
    "run_009.directive_2010_64_pl.report.json":
        "5476ab7773b658121421a806021d2899327bd37216758979b6de204d70bbf4fd",
    "run_009.json":
        "37b65d2a44dc588e8ddaa4dfc67f021168646c0f98e0be219163b20473d8bb17",
    "stability.json":
        "6fca86c6de84e33dd46fc4fbdee8747a8e77159fb8f2e73b1861945e00c6ca80",
}


def test_compare_writes_pinned_bytes(workdir):
    out = workdir / "out"
    status = main(
        ["compare", *_common(workdir, "eu.rules", "pl.rules"),
         "--source", "directive_2010_64", "--source", "directive_2010_64_pl",
         "--mock-dir", str(fixtures.mock_chain_dir()),
         "--repetitions", "10", "--out", str(out)]
    )
    assert status == EXIT_OK
    digests = {}
    for path in out.iterdir():
        data = path.read_bytes()
        if re.fullmatch(r"run_\d{3}\.json", path.name):
            data = re.sub(rb',\n  "created_at": "[^"]*"', b"", data, count=1)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    assert digests == COMPARE_DIGESTS


def test_compare_reads_each_trace_terms_once(workdir, monkeypatch):
    # 10 repetitions evaluate 20 outputs; each trace's terms are read once
    calls = []
    extract_terms = trace_module.extract_terms

    def counting(doc):
        calls.append(doc)
        return extract_terms(doc)

    monkeypatch.setattr(trace_module, "extract_terms", counting)
    status = main(
        ["compare", *_common(workdir, "eu.rules", "pl.rules"),
         "--source", "directive_2010_64", "--source", "directive_2010_64_pl",
         "--mock-dir", str(workdir / "mock"),
         "--repetitions", "10", "--out", str(workdir / "out")]
    )
    assert status == EXIT_OK
    assert len(calls) == 2
    assert calls[0].bundle.source_id == "directive_2010_64"
    assert calls[1].bundle.source_id == "directive_2010_64_pl"


def test_offline_runs_never_import_requests(workdir):
    # only building the HTTP client imports requests; nothing imports the
    # statistics module, which pulls fractions and decimal in with it
    argv = ["compare", *_common(workdir, "eu.rules", "pl.rules"),
            "--source", "directive_2010_64", "--source", "directive_2010_64_pl",
            "--mock-dir", str(workdir / "mock"), "--out", str(workdir / "out")]
    script = (
        "import sys\n"
        "import lexplain, lexplain.cli\n"
        "assert 'statistics' not in sys.modules\n"
        "print('requests' in sys.modules)\n"
        f"print(lexplain.cli.main({argv!r}))\n"
        "print('requests' in sys.modules)\n"
    )
    src = Path(fixtures.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    # after the import; then main's output path, its status, and after it
    assert [lines[0], *lines[-2:]] == ["False", str(EXIT_OK), "False"]


UNDECODABLE = b"p(\xff).\n"
EXPLAIN_EU = ["explain", "--kb", "eu.rules", "--facts", "mario.facts",
              "--person", "mario", "--source", "directive_2010_64"]


@pytest.mark.parametrize(
    "files, argv, expected",
    [
        ({"bad.rules": UNDECODABLE},
         ["solve", "--kb", "bad.rules", "--facts", "mario.facts",
          "--person", "mario"], EXIT_DATA),
        ({"bad.facts": UNDECODABLE},
         ["solve", "--kb", "eu.rules", "--facts", "bad.facts",
          "--person", "mario"], EXIT_DATA),
        ({"bad.facts": b"person_document(mario, charge"},
         ["solve", "--kb", "eu.rules", "--facts", "bad.facts",
          "--person", "mario"], EXIT_DATA),
        ({"bad.trace": UNDECODABLE},
         ["evaluate", "mario.facts", "bad.trace"], EXIT_DATA),
        ({"badmock/001.txt": UNDECODABLE},
         [*EXPLAIN_EU, "--mock-dir", "badmock"], EXIT_GATEWAY),
        ({"c.json": b'{"repetitions": "many"}'},
         ["compare", "--config", "c.json"], EXIT_USAGE),
        ({"c.json": b'{"temperature": "hot"}'},
         [*EXPLAIN_EU, "--mock-dir", "mock", "--config", "c.json"],
         EXIT_USAGE),
        ({"c.json": b'{"kb": 5}'},
         ["solve", "--facts", "mario.facts", "--person", "mario",
          "--config", "c.json"], EXIT_USAGE),
    ],
    ids=["kb-utf8", "facts-utf8", "facts-truncated", "trace-utf8",
         "mock-utf8", "config-repetitions", "config-temperature",
         "config-kb"],
)
def test_bad_input_maps_to_documented_exit_code(
    workdir, monkeypatch, capsys, files, argv, expected
):
    monkeypatch.chdir(workdir)
    for name, data in files.items():
        (workdir / name).parent.mkdir(exist_ok=True)
        (workdir / name).write_bytes(data)
    assert main(argv) == expected
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", LONG_DSL_VALUES.values(), ids=LONG_DSL_VALUES)
def test_solve_prints_a_short_diagnostic_for_a_long_value(workdir, capsys, text):
    (workdir / "long.rules").write_text(text, encoding="utf-8")
    argv = ["solve", *_common(workdir, "long.rules")]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: line ") and len(err) < 200


@pytest.mark.parametrize(
    "rules, facts", LONG_KB_VALUES.values(), ids=LONG_KB_VALUES
)
def test_solve_prints_a_short_fact_or_kb_diagnostic(workdir, capsys, rules, facts):
    argv = ["solve", "--facts", str(workdir / "long.facts"), "--person", "mario"]
    (workdir / "long.facts").write_text(facts, encoding="utf-8")
    for index, text in enumerate(rules):
        (workdir / f"long{index}.rules").write_text(text, encoding="utf-8")
        argv += ["--kb", str(workdir / f"long{index}.rules")]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 200


LONG = "a" * 5000
ONE_ARTICLE = "%% source: s\n%% article: a\n%% title: T\n"
TWO_RIGHTS = (
    ONE_ARTICLE + "has_right(r, t, a, P, o) :- person(P).\n"
    "%% article: b\n%% title: U\nhas_right(r, t, b, P, o) :- person(P).\n"
)
SOLVE_EU = ["solve", "--kb", "eu.rules", "--facts", "mario.facts"]


def _empty_case(rules: str) -> tuple:
    return parse_rules(ONE_ARTICLE + rules), parse_facts("")


def _render_with_a_missing_title() -> None:
    rules = (f"%% source: s\n%% article: {LONG}\n%% title: T\n"
             f"has_right(r, t, {LONG}, P, o) :- person(P).\n")
    facts = parse_facts("person(mario).\n")
    (bundle,) = derive_rights("mario", "s", parse_rules(rules), facts)
    render_trace(bundle, fixtures.eu_kb())


# Each case repeats a 5,000-character value in its diagnostic: a library
# call with the error it raises, or a command line with its exit code.
LONG_VALUE_DIAGNOSTICS = {
    "naf-not-ground": ({}, lambda: solve(
        Term("p", (LONG, Variable("G"))),
        *_empty_case("p(X, Y) :- not(r(X, Y)).\n"),
    ), NafNonGroundError),
    "depth-limit": ({}, lambda: solve(
        Term("p", (LONG, Variable("G"))), *_empty_case("p(X, Y) :- p(X, Y).\n")
    ), DepthLimitError),
    "missing-title": ({}, _render_with_a_missing_title, MissingTitleError),
    "solve-depth-limit": (
        {"deep.rules": ONE_ARTICLE + f"has_right(r, t, a, P, o) :- p(P, {LONG}).\n"
         "p(X, Y) :- p(X, Y).\n"},
        ["solve", "--kb", "deep.rules", "--facts", "mario.facts",
         "--person", "mario"], EXIT_DATA),
    "person-not-an-atom": ({}, [*SOLVE_EU, "--person", "M" + LONG], EXIT_DATA),
    "unknown-source": (
        {}, [*SOLVE_EU, "--person", "mario", "--source", LONG], EXIT_DATA),
    "source-twice": (
        {}, [*SOLVE_EU, "--person", "mario", "--source", LONG, "--source", LONG],
        EXIT_USAGE),
    "section-twice": (
        {}, ["evaluate", "out.txt", "t.trace", "--sections", LONG, LONG],
        EXIT_USAGE),
    "section-without-header": (
        {}, ["evaluate", "out.txt", "t.trace", "--sections", ":" * 5000],
        EXIT_USAGE),
    "explain-no-rights": (
        {}, ["explain", "--kb", "eu.rules", "--facts", "mario.facts",
             "--person", LONG, "--source", "directive_2010_64",
             "--mock-dir", "mock"], EXIT_NO_RESULT),
    "compare-no-rights": (
        {}, ["compare", "--kb", "eu.rules", "--kb", "pl.rules", "--facts",
             "mario.facts", "--person", LONG, "--source", "directive_2010_64",
             "--source", "directive_2010_64_pl", "--mock-dir", "mock"],
        EXIT_NO_RESULT),
    "several-rights": (
        {"two.rules": TWO_RIGHTS, "long.facts": f"person({LONG}).\n"},
        ["explain", "--kb", "two.rules", "--facts", "long.facts",
         "--person", LONG, "--source", "s", "--mock-dir", "mock"], EXIT_USAGE),
    "config-unknown-key": (
        {"c.json": json.dumps({LONG: 1})}, ["solve", "--config", "c.json"],
        EXIT_USAGE),
}


@pytest.mark.parametrize(
    "files, run, expected",
    LONG_VALUE_DIAGNOSTICS.values(),
    ids=LONG_VALUE_DIAGNOSTICS,
)
def test_a_long_value_gets_a_short_diagnostic(
    workdir, monkeypatch, capsys, files, run, expected
):
    monkeypatch.chdir(workdir)
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    if callable(run):
        with pytest.raises(expected) as err:
            run()
        message = str(err.value)
    else:
        assert main(run) == expected
        message = capsys.readouterr().err
    assert message and len(message) < 300


def test_solve_rejects_a_tab_in_a_title(tmp_path, capsys):
    (tmp_path / "tab.rules").write_text(
        "%% source: s\n%% article: a1\n%% title: Article\t3\n"
        "has_right(r, t, a1, P, o) :- person(P).\n",
        encoding="utf-8",
    )
    (tmp_path / "case.facts").write_text("person(mario).\n", encoding="utf-8")
    out = tmp_path / "out"
    status = main(
        ["solve", "--kb", str(tmp_path / "tab.rules"),
         "--facts", str(tmp_path / "case.facts"), "--person", "mario",
         "--out", str(out)]
    )
    assert status == EXIT_DATA
    assert "invalid display title" in capsys.readouterr().err
    assert not list(out.glob("*.trace"))


# --- arbitrary input files ------------------------------------------------------


def _near(text: str) -> st.SearchStrategy[str]:
    """The text itself (half the time), the text with a span replaced, or
    any text. Repeating a branch of st.one_of weights it."""
    spliced = st.tuples(
        st.integers(0, len(text)), st.integers(0, 40), st.text(max_size=8)
    ).map(lambda t: text[: t[0]] + t[2] + text[t[0] + t[1]:])
    return st.one_of(st.just(text), st.just(text), spliced, st.text())


# Path-valued keys name files inside the run's directory only.
CONFIG_VALUES = {
    "kb": st.lists(st.sampled_from(["eu.rules", "pl.rules", "nope"]), max_size=2),
    "facts": st.sampled_from(["case.facts", "nope"]),
    "sources": st.lists(st.sampled_from([*SOURCES, "x"]), max_size=3),
    "person": st.sampled_from(["mario", "anna", "Mario"]),
    "mock_dir": st.sampled_from(["mock", "nope"]),
    "repetitions": st.integers(-1, 3),
    "out": st.sampled_from(["out", "o2"]),
    "model": st.text(max_size=4),
    "temperature": st.floats(-1, 3),
    "max_tokens": st.integers(-1, 4096),
    "timeout": st.floats(-1, 60),
}
CONFIG_TEXT = st.one_of(
    st.none(),
    st.none(),
    st.fixed_dictionaries({}, optional=CONFIG_VALUES).map(json.dumps),
    st.dictionaries(
        st.sampled_from([*CONFIG_VALUES, "base_url", "unknown"]),
        st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3)),
        max_size=2,
    ).map(json.dumps),
    st.text(),
)
MOCK_TEXT = st.one_of(
    _near(fixtures.translation_output_eu()),
    _near(fixtures.translation_output_pl()),
    _near(fixtures.comparison_output()),
)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["solve", "explain", "compare", "evaluate"]),
    rules=_near(fixtures.eu_rules_text()),
    facts=_near(fixtures.mario_facts_text()),
    config=CONFIG_TEXT,
    mocks=st.lists(MOCK_TEXT, max_size=4),
    trace=_near(fixtures.listing1_trace()),
    repetitions=st.integers(-2, 3),
    sources=st.one_of(
        st.just(SOURCES[:1]),
        st.just(SOURCES),
        st.lists(st.sampled_from([*SOURCES, "x"]), max_size=3),
    ),
)
def test_cli_returns_a_documented_code_on_any_input(
    monkeypatch, command, rules, facts, config, mocks, trace, repetitions,
    sources,
):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "eu.rules").write_text(rules, encoding="utf-8")
        (work / "pl.rules").write_text(fixtures.pl_rules_text(), encoding="utf-8")
        (work / "case.facts").write_text(facts, encoding="utf-8")
        (work / "mock").mkdir()
        for index, text in enumerate(mocks, start=1):
            (work / "mock" / f"{index:03d}.txt").write_text(
                text, encoding="utf-8"
            )
        output = mocks[0] if mocks else ""
        (work / "out.txt").write_text(output, encoding="utf-8")
        (work / "t.trace").write_text(trace, encoding="utf-8")
        if command == "evaluate":
            argv = ["evaluate", "out.txt", "t.trace", "--out", "report.json"]
        else:
            argv = [command, "--kb", "eu.rules", "--kb", "pl.rules",
                    "--facts", "case.facts", "--person", "mario"]
            for source in sources:
                argv += ["--source", source]
        if command in ("explain", "compare"):
            argv += ["--mock-dir", "mock"]
        if command == "compare":
            argv += ["--repetitions", str(repetitions)]
        if config is not None and command != "evaluate":
            (work / "c.json").write_text(config, encoding="utf-8")
            argv += ["--config", "c.json"]
        entries = sorted(os.listdir(work))
        cwd = os.getcwd()
        os.chdir(work)
        try:
            status = main(argv)
        finally:
            os.chdir(cwd)
        if status == EXIT_USAGE:
            # settings are resolved before anything is written
            assert sorted(os.listdir(work)) == entries
    assert status in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NO_RESULT,
                      EXIT_GATEWAY)


def _evaluate_paths(workdir) -> dict[str, str]:
    (workdir / "explanation.txt").write_text(
        fixtures.translation_output_eu(), encoding="utf-8"
    )
    (workdir / "t.trace").write_text(fixtures.listing1_trace(), encoding="utf-8")
    return {"output_file": str(workdir / "explanation.txt"),
            "trace_file": str(workdir / "t.trace"),
            "out": str(workdir / "report.json")}


@pytest.mark.parametrize("name", UNUSABLE_PATHS.values(), ids=UNUSABLE_PATHS)
def test_config_flag_no_file_can_have_is_a_usage_error(workdir, capsys, name):
    argv = ["solve", *_common(workdir, "eu.rules"), "--out", str(workdir / "out")]
    assert main([*argv, "--config", name]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: config is not a usable path")
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("name", UNUSABLE_PATHS.values(), ids=UNUSABLE_PATHS)
@pytest.mark.parametrize("key", ["output_file", "trace_file", "out"])
def test_evaluate_path_no_file_can_have_is_a_usage_error(workdir, capsys, key, name):
    paths = _evaluate_paths(workdir)
    paths[key] = name
    argv = ["evaluate", paths["output_file"], paths["trace_file"], "--out", paths["out"]]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: {key} is not a usable path")
    assert captured.out == ""
    assert not (workdir / "report.json").exists()


# Words the parser knows, and a few inputs a run can reach, among arbitrary
# short tokens; a NUL, a lone surrogate and "." (a directory) are paths no
# command can read.
ARGV_TOKENS = st.one_of(
    st.sampled_from(["solve", "explain", "compare", "evaluate", "--kb", "--facts",
                     "--source", "--person", "--out", "--config", "--mock-dir",
                     "--model", "--temperature", "--repetitions", "--sections",
                     "-h", "mario", "directive_2010_64", ".", "a\0b", "\ud800"]),
    st.text(max_size=6),
)


@settings(max_examples=300, deadline=2000)
@given(argv=st.lists(ARGV_TOKENS, max_size=8))
def test_main_returns_a_documented_code_for_any_argv(argv):
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                status = main(argv)
        finally:
            os.chdir(cwd)
    assert status in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NO_RESULT,
                      EXIT_GATEWAY)


def test_explain_without_rights_is_status_3(workdir, capsys):
    (workdir / "anna.facts").write_text(
        "person_understands(anna, polish).\n", encoding="utf-8"
    )
    out = workdir / "out"
    status = main(
        ["explain", "--kb", str(workdir / "eu.rules"),
         "--facts", str(workdir / "anna.facts"), "--person", "anna",
         "--source", "directive_2010_64",
         "--mock-dir", str(workdir / "mock"), "--out", str(out)]
    )
    assert status == EXIT_NO_RESULT
    assert capsys.readouterr().err == "no rights derivable for anna\n"
    assert not out.exists()
