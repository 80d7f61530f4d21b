"""The package surface: every public name resolves as before, and a run
loads only the modules it uses. Each check runs in a fresh interpreter, so
no module another test imported hides what an import or a command loads."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexplain
from lexplain import fixtures

SRC = Path(lexplain.__file__).resolve().parents[1]
ROOT = SRC.parent
RULES = [str(fixtures.resource_path(name))
         for name in ("directive_2010_64.rules", "directive_2010_64_pl.rules")]
FACTS = str(fixtures.resource_path("mario.facts"))

# Every name the package exported when it imported all its modules eagerly.
EXPORTS = {
    "chain": ("ChainRun", "ChainRunRecord", "ChainStep", "ChainStepError",
              "build_comparison_prompt", "build_translation_prompt",
              "comparison_template", "run_chain", "run_repeated",
              "translation_template"),
    "dsl": ("DslError", "parse_facts", "parse_rules", "serialize_facts",
            "serialize_rules"),
    "engine": ("FACT", "NAF", "RULE", "DepthLimitError", "EngineError",
               "GoalLimitError", "NafNonGroundError", "ProofTree",
               "RightsBundle", "UnknownSourceError", "derive_rights",
               "ground_oracle", "solve"),
    "evaluation": ("COMPARISON_SECTIONS", "TRANSLATION_SECTIONS",
                   "CompletenessResult", "EvaluationReport", "FormResult",
                   "GroundednessResult", "StabilityResult", "check_completeness",
                   "check_form", "check_groundedness", "evaluate", "stability"),
    "gateway": ("AuthenticationError", "GatewayError", "HttpCompletionClient",
                "LlmConfig", "LlmResponse", "MockCompletionClient",
                "mock_from_dir"),
    "kb": ("CaseFacts", "Clause", "KbError", "KnowledgeBase", "LegalSource",
           "Literal", "SafetyError", "StratificationError", "Term", "Variable"),
    "trace": ("CONCLUSION", "FACT_LEAF", "INTERMEDIATE", "NAF_LEAF",
              "TraceBundle", "TraceDocument", "TraceError", "TraceNode",
              "TraceParseError", "TraceSection", "extract_terms", "parse_trace",
              "render_document", "render_trace"),
}
# What only the LLM side and the evaluation harness need.
DEFERRED = ("lexplain.chain", "lexplain.evaluation", "hashlib", "datetime")


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """sys.executable run on args with only this checkout's src importable."""
    result = subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result


def _loaded_after(code: str) -> list[str]:
    """The DEFERRED modules in sys.modules after code runs in a fresh
    interpreter, which must print nothing."""
    script = (
        f"import json, sys\n{code}\n"
        f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))"
    )
    return json.loads(_fresh("-c", script).stdout)


def _main(argv: list[str]) -> str:
    return (
        "import contextlib, io, lexplain.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert lexplain.cli.main({argv!r}) == 0\n"
    )


def test_public_names_resolve_to_their_defining_objects():
    script = (
        "import importlib, lexplain\n"
        f"for module, names in {EXPORTS!r}.items():\n"
        "    defining = importlib.import_module('lexplain.' + module)\n"
        "    for name in names:\n"
        "        namespace = {}\n"
        "        exec(f'from lexplain import {name}', namespace)\n"
        "        assert namespace[name] is getattr(defining, name), name\n"
        "        assert getattr(lexplain, name) is getattr(defining, name), name\n"
        "        assert name in dir(lexplain) and name in lexplain.__all__, name\n"
    )
    _fresh("-c", script)


def test_lazy_names_resolve_on_first_attribute_access():
    script = (
        "import lexplain, sys\n"
        "assert 'lexplain.chain' not in sys.modules\n"
        "assert lexplain.run_chain is sys.modules['lexplain.chain'].run_chain\n"
        "assert lexplain.evaluation is sys.modules['lexplain.evaluation']\n"
    )
    _fresh("-c", script)


def test_submodules_import_by_name():
    script = (
        "import sys\n"
        "from lexplain import chain, cli, dsl, engine, evaluation, kb, trace\n"
        "for module in (chain, cli, dsl, engine, evaluation, kb, trace):\n"
        "    assert sys.modules[module.__name__] is module\n"
    )
    _fresh("-c", script)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lexplain.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from lexplain import no_such_name", {})
    assert not hasattr(lexplain, "no_such_name")


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import lexplain, lexplain.cli", []),
        (_main(["solve", "--kb", RULES[0], "--kb", RULES[1], "--facts", FACTS,
                "--person", "mario", "--out", "{out}"]), []),
        ("from lexplain import evaluate", ["lexplain.evaluation"]),
        ("from lexplain import run_chain", ["lexplain.chain"]),
        (_main(["compare", "--kb", RULES[0], "--kb", RULES[1], "--facts", FACTS,
                "--person", "mario", "--source", "directive_2010_64",
                "--source", "directive_2010_64_pl", "--mock-dir",
                str(fixtures.resource_path("mock_chain")), "--out", "{out}"]),
         list(DEFERRED)),
        (_main(["evaluate", str(fixtures.resource_path("outputs/translation_eu.txt")),
                str(fixtures.resource_path("listing1.trace"))]),
         ["lexplain.chain", "lexplain.evaluation"]),
    ],
    ids=["import", "solve", "evaluate", "run_chain", "compare", "evaluate-command"],
)
def test_a_run_loads_only_what_it_uses(tmp_path, code, loaded):
    assert _loaded_after(code.replace("{out}", str(tmp_path / "out"))) == loaded


def test_the_readme_quickstart_runs():
    # the first python block under the heading, run as a reader would
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    result = _fresh("-c", code + "print(report.completeness.coverage)\n")
    assert round(float(result.stdout), 3) == 0.909


def test_setup_probe_runs_on_the_shipped_inputs():
    # the benchmark's set-up probe, unchanged, as the benchmark starts it
    result = _fresh(str(ROOT / "bench" / "setup_probe.py"), *RULES, FACTS)
    timings = json.loads(result.stdout.splitlines()[-1])
    assert timings["import_s"] > 0 and timings["load_s"] > 0


# What a frozen dataclass costs at import: dataclasses and the modules it
# brings in. The records are plain classes, so only a lookup of their
# __dataclass_fields__ loads it, never an import or a command.
DATACLASS_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


@pytest.mark.parametrize(
    "code",
    [
        "import lexplain, lexplain.cli",
        "from lexplain import run_chain, evaluate",
        _main(["solve", "--kb", RULES[0], "--kb", RULES[1], "--facts", FACTS,
               "--person", "mario", "--out", "{out}"]),
        _main(["explain", "--kb", RULES[0], "--facts", FACTS, "--person", "mario",
               "--source", "directive_2010_64", "--mock-dir",
               str(fixtures.resource_path("mock_chain")), "--out", "{out}"]),
        _main(["compare", "--kb", RULES[0], "--kb", RULES[1], "--facts", FACTS,
               "--person", "mario", "--source", "directive_2010_64",
               "--source", "directive_2010_64_pl", "--mock-dir",
               str(fixtures.resource_path("mock_chain")), "--out", "{out}"]),
        _main(["evaluate", str(fixtures.resource_path("outputs/translation_eu.txt")),
               str(fixtures.resource_path("listing1.trace"))]),
    ],
    ids=["import", "run_chain-evaluate", "solve", "explain", "compare",
         "evaluate-command"],
)
def test_only_the_lazy_modules_load_dataclasses(tmp_path, code):
    # against the modules loaded before, which site may have added to
    script = (
        "import json, sys\nbefore = set(sys.modules)\n"
        f"{code.replace('{out}', str(tmp_path / 'out'))}\n"
        "print(json.dumps([m for m in sys.modules if m not in before]))"
    )
    new = json.loads(_fresh("-c", script).stdout)
    assert not set(DATACLASS_MODULES) & set(new)


def test_resources_are_the_files_next_to_the_package():
    resources = Path(lexplain.__file__).parent / "resources"
    names = sorted(
        p.relative_to(resources).as_posix()
        for p in resources.rglob("*") if p.is_file()
    )
    assert names == [
        "comparison_prompt.txt", "directive_2010_64.rules",
        "directive_2010_64_pl.rules", "listing1.trace", "listing2.trace",
        "mario.facts", "mock_chain/001.txt", "mock_chain/002.txt",
        "mock_chain/003.txt", "outputs/comparison.txt",
        "outputs/translation_eu.txt", "outputs/translation_pl.txt",
        "prompt_hashes.json", "translation_prompt.txt",
    ]
    for name in names:
        assert fixtures.resource_path(name) == resources / name
        assert fixtures.resource_text(name) == (resources / name).read_text(
            encoding="utf-8"
        )
