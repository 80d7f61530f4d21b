"""End-to-end CLI runs against the packaged fixtures, offline throughout."""

from __future__ import annotations

import hashlib
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
    assert (first.kb, first.source) == (["a", "b"], ["x", "y"])
    assert (second.kb, second.source) == (["c"], ["z"])
    assert second.repetitions is None and second.temperature is None
    third = parser.parse_args(["compare"])
    assert third.kb is None and third.source is None
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
    assert _evaluate(workdir, "no terms", DEEP_TRACE) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["completeness"]["missing"] == [DEEP]


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
    # only building the HTTP client imports requests
    argv = ["compare", *_common(workdir, "eu.rules", "pl.rules"),
            "--source", "directive_2010_64", "--source", "directive_2010_64_pl",
            "--mock-dir", str(workdir / "mock"), "--out", str(workdir / "out")]
    script = (
        "import sys\n"
        "import lexplain, lexplain.cli\n"
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


SOURCES = ["directive_2010_64", "directive_2010_64_pl"]
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
        cwd = os.getcwd()
        os.chdir(work)
        try:
            status = main(argv)
        finally:
            os.chdir(cwd)
    assert status in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NO_RESULT,
                      EXIT_GATEWAY)
