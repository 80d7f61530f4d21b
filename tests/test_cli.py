"""End-to-end CLI runs against the packaged fixtures, offline throughout."""

from __future__ import annotations

import json

import pytest

from lexplain import fixtures
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
