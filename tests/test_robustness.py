"""Mutated shipped inputs fail only with the typed errors and exit codes the
README documents, never with a traceback.

Each example takes a shipped rules file or ``mario.facts`` and applies a
few byte-level mutations: a flipped bit, a truncation, an inserted ``(``,
``)``, ``%%``, ``not(`` or non-UTF-8 byte, or a leading byte-order mark.
Mutated rules are checked at parse level only: a program the parser
accepts may still recurse into the engine's depth limit, which bounds the
depth of a search and not its work.
"""

from __future__ import annotations

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
        kind = draw(st.sampled_from(("flip", "truncate", "insert", "bom")))
        pos = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "flip" and data:
            bit = 1 << draw(st.integers(0, 7))
            data = data[:pos] + bytes([data[pos] ^ bit]) + data[pos + 1 :]
        elif kind == "truncate":
            data = data[:pos]
        elif kind == "insert":
            data = data[:pos] + draw(st.sampled_from(_INSERTS)) + data[pos:]
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
