"""Mutated shipped inputs fail only with the typed errors and exit codes the
README documents, never with a traceback.

Each example takes one shipped input and applies a few byte-level
mutations: a flipped bit, a truncation, an inserted ``(``, ``)``, ``%%``,
``not(`` or non-UTF-8 byte, a leading byte-order mark, or a term nested
thousands deep. A config file is first edited as JSON: a value of the
wrong type, a huge number, or a value nested deep in arrays. The inputs
are the rules, ``mario.facts``, a golden trace and a model output (read by
``evaluate``), the ``--config`` file (read by ``solve``, so that a huge
``repetitions`` starts no endless ``compare``) and the mock response files
(read by ``compare``). Mutated rules are checked at parse level only: a
program the parser accepts may still recurse into the engine's depth limit,
which bounds the depth of a search and not its work.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lexplain import fixtures
from lexplain.cli import main
from lexplain.dsl import DslError, parse_facts, parse_rules
from lexplain.kb import KbError

RULES_FILES = ("directive_2010_64.rules", "directive_2010_64_pl.rules")
_BOM = "\ufeff".encode("utf-8")
_INSERTS = (b"(", b")", b"%%", b"not(", _BOM, b"\xff", b"\xc3", b"\x80")
# far above the well under a second that solve takes on the shipped rules
_SECONDS_PER_EXAMPLE = 10.0


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("flip", "truncate", "insert", "bom", "nest")))
        pos = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "flip" and data:
            bit = 1 << draw(st.integers(0, 7))
            data = data[:pos] + bytes([data[pos] ^ bit]) + data[pos + 1 :]
        elif kind == "truncate":
            data = data[:pos]
        elif kind == "insert":
            data = data[:pos] + draw(st.sampled_from(_INSERTS)) + data[pos:]
        elif kind == "nest":
            depth = draw(st.sampled_from((2, 100, 5000)))
            data = data[:pos] + b"f(" * depth + b"a" + b")" * depth + data[pos:]
        else:
            data = _BOM + data
    return data


def _shipped(name: str) -> bytes:
    return fixtures.resource_path(name).read_bytes()


MUTATED_RULES = st.sampled_from(RULES_FILES).flatmap(
    lambda name: _mutated(_shipped(name))
)
MUTATED_FACTS = _mutated(_shipped("mario.facts"))


@settings(max_examples=300, deadline=None)
@given(st.one_of(MUTATED_RULES, MUTATED_FACTS))
def test_parsers_raise_only_typed_errors_on_mutated_files(data):
    # the CLI reads files as strict UTF-8 and reports a decoding error
    # itself; here the parsers see the undecodable bytes as surrogates
    text = data.decode("utf-8", errors="surrogateescape")
    for parse in (parse_rules, parse_facts):
        try:
            parse(text)
        except (DslError, KbError):
            pass


@settings(max_examples=100, deadline=None)
@given(MUTATED_FACTS)
def test_solve_on_mutated_facts_exits_with_a_documented_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        facts = Path(tmp) / "mario.facts"
        facts.write_bytes(data)
        argv = ["solve", "--facts", str(facts), "--person", "mario",
                "--out", str(Path(tmp) / "out")]
        for name in RULES_FILES:
            argv += ["--kb", str(fixtures.resource_path(name))]
        started = time.perf_counter()
        status = main(argv)
        assert time.perf_counter() - started < _SECONDS_PER_EXAMPLE
    assert status in range(5)


def _main_in(work: Path, argv: list[str]) -> int:
    """main(argv) run in work, timed; the exit code it returns."""
    cwd = os.getcwd()
    os.chdir(work)
    try:
        started = time.perf_counter()
        status = main(argv)
        assert time.perf_counter() - started < _SECONDS_PER_EXAMPLE
    finally:
        os.chdir(cwd)
    return status


_PAIRS = (
    ("listing1.trace", "outputs/translation_eu.txt"),
    ("listing2.trace", "outputs/translation_pl.txt"),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_PAIRS), st.booleans(), st.data())
def test_evaluate_on_a_mutated_trace_or_output_exits_with_a_documented_code(
    pair, mutate_trace, data
):
    trace, output = (_shipped(name) for name in pair)
    if mutate_trace:
        trace = data.draw(_mutated(trace))
    else:
        output = data.draw(_mutated(output))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "t.trace").write_bytes(trace)
        (work / "out.txt").write_bytes(output)
        status = _main_in(work, ["evaluate", "out.txt", "t.trace"])
    assert status in range(5)


_CONFIG = {
    "kb": list(RULES_FILES), "facts": "mario.facts", "person": "mario",
    "sources": ["directive_2010_64"], "repetitions": 2, "out": "out",
    "model": "gpt-4", "temperature": 0.5, "max_tokens": 100, "timeout": 5,
}
# JSON texts of values of every type, numbers far beyond any setting's
# range (one too long for int(), one too large for float()), and values
# nested deep in arrays.
_WRONG_TYPES = ("null", "true", "0", "-1", "2.5", '"x"', '""', "[]", "{}",
                '["x"]', "[1]", '{"a": 1}')
_HUGE = ("9" * 5000, "1" + "0" * 300, "1" + "0" * 400, "-" + "9" * 40,
         "1e999", "-1e999", "1e-999", "NaN", "Infinity")
_NESTED = tuple("[" * n + '"x"' + "]" * n for n in (2, 500, 100_000))


@st.composite
def _mutated_config(draw) -> bytes:
    values = {key: json.dumps(value) for key, value in _CONFIG.items()}
    for key in draw(st.lists(st.sampled_from(sorted(values)), max_size=3)):
        values[key] = draw(st.sampled_from(_WRONG_TYPES + _HUGE + _NESTED))
    text = "{" + ", ".join(f'"{k}": {v}' for k, v in values.items()) + "}"
    if draw(st.booleans()):
        return draw(_mutated(text.encode("utf-8")))
    return text.encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(_mutated_config())
def test_solve_on_a_mutated_config_exits_with_a_documented_code(config):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in (*RULES_FILES, "mario.facts"):
            (work / name).write_bytes(_shipped(name))
        (work / "c.json").write_bytes(config)
        status = _main_in(work, ["solve", "--config", "c.json"])
    assert status in range(5)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.data())
def test_compare_on_mutated_mock_files_exits_with_a_documented_code(index, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in (*RULES_FILES, "mario.facts"):
            (work / name).write_bytes(_shipped(name))
        (work / "mock").mkdir()
        for path in fixtures.mock_chain_dir().iterdir():
            (work / "mock" / path.name).write_bytes(path.read_bytes())
        mock = work / "mock" / f"{index:03d}.txt"
        mock.write_bytes(data.draw(_mutated(mock.read_bytes())))
        argv = ["compare", "--facts", "mario.facts", "--person", "mario",
                "--source", "directive_2010_64",
                "--source", "directive_2010_64_pl", "--mock-dir", "mock"]
        for name in RULES_FILES:
            argv += ["--kb", name]
        status = _main_in(work, argv)
    assert status in range(5)


def test_a_clause_over_5000_lines_parses_in_under_a_second():
    body = ",\n".join(f"    q{i}(X)" for i in range(5000))
    text = f"%% source: s\n%% article: a1\n%% title: T\np(X) :-\n{body}.\n"
    started = time.perf_counter()
    kb = parse_rules(text)
    assert time.perf_counter() - started < 1.0
    assert len(kb.clauses[0].body) == 5000
