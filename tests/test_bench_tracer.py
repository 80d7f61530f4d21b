"""The benchmark's tracer still finds the functions it wraps.

``bench/tracer.py`` wraps lexplain functions by module and name. A renamed
function would fail only a traced benchmark run; this test fails first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

# the tracer wraps functions in every module, the CLI's included
from lexplain import cli, dsl, engine, evaluation, fixtures, kb, trace  # noqa: F401

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_spans_on_the_mario_case():
    originals = (dsl.parse_rules, engine.solve, trace.parse_trace)
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        rules = kb.merge([
            dsl.parse_rules(fixtures.eu_rules_text()),
            dsl.parse_rules(fixtures.pl_rules_text()),
        ])
        facts = dsl.parse_facts(fixtures.mario_facts_text())
        (bundle,) = engine.derive_rights("mario", "directive_2010_64", rules, facts)
        doc = trace.parse_trace(trace.render_trace(bundle, rules).raw_text)
        evaluation.evaluate(fixtures.translation_output_eu(), doc)
    finally:
        tracer.uninstall()
    assert (dsl.parse_rules, engine.solve, trace.parse_trace) == originals
    names = {span[0] for span in tracer.spans}
    assert {
        "dsl.parse_rules", "dsl.parse_facts", "engine.solve", "trace.parse_trace"
    } <= names
    assert tracer.counts["dsl.clauses"] == len(rules.clauses)
