"""Prompt construction, template fidelity, chain orchestration, persistence."""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexplain import fixtures
from lexplain.chain import (
    ChainStepError,
    SOURCE_1_LABEL,
    SOURCE_2_LABEL,
    build_comparison_prompt,
    build_translation_prompt,
    comparison_template,
    dumps_json,
    load_run,
    run_chain,
    run_from_json,
    run_repeated,
    run_to_json,
    save_run,
    template_hashes,
    translation_template,
    write_json,
)
from lexplain.gateway import (
    BackendError,
    LlmConfig,
    MockCompletionClient,
    MockExhaustedError,
    mock_from_dir,
)
from lexplain.trace import TraceDocument

CFG = LlmConfig()


def _chain_mock(**kwargs) -> MockCompletionClient:
    return MockCompletionClient(
        [
            fixtures.translation_output_eu(),
            fixtures.translation_output_pl(),
            fixtures.comparison_output(),
        ],
        **kwargs,
    )


def test_template_hashes_recorded_and_verified():
    hashes = template_hashes()
    for name, template in (
        ("translation_prompt.txt", translation_template()),
        ("comparison_prompt.txt", comparison_template()),
    ):
        assert hashes[name] == hashlib.sha256(
            template.encode("utf-8")
        ).hexdigest()


def test_translation_template_keeps_original_wording():
    template = translation_template()
    assert "What Rights do You Have" in template
    assert "langaguage" in template  # original spelling, kept deliberately
    assert "the the rights" in template


def test_tampered_template_is_rejected(monkeypatch):
    import lexplain.chain as chain_module

    real = chain_module.resource_text

    def tampered(name):
        text = real(name)
        if name == "translation_prompt.txt":
            return text.replace("langaguage", "language")
        return text

    monkeypatch.setattr(chain_module, "resource_text", tampered)
    chain_module._load_template.cache_clear()
    try:
        with pytest.raises(chain_module.TemplateIntegrityError):
            translation_template()
    finally:
        chain_module._load_template.cache_clear()


def test_translation_prompt_embeds_trace(listing1_doc, listing2_doc):
    for doc in (listing1_doc, listing2_doc):
        prompt = build_translation_prompt(doc)
        assert prompt.startswith(translation_template())
        assert doc.raw_text in prompt
        assert prompt == build_translation_prompt(doc)  # byte-stable


def test_comparison_prompt_labels_and_order(eu_output, pl_output):
    prompt = build_comparison_prompt(eu_output, pl_output)
    assert prompt.startswith(comparison_template())
    assert prompt.index(SOURCE_1_LABEL) < prompt.index(SOURCE_2_LABEL)
    assert prompt.index(eu_output) < prompt.index(pl_output)
    swapped = build_comparison_prompt(pl_output, eu_output)
    assert swapped.index(pl_output.strip()) < swapped.index(eu_output.strip())


def test_comparison_prompt_rejects_empty_inputs(eu_output):
    with pytest.raises(ValueError):
        build_comparison_prompt("", eu_output)
    with pytest.raises(ValueError):
        build_comparison_prompt(eu_output, "")


def test_run_chain_is_exactly_three_calls(listing1_doc, listing2_doc):
    client = _chain_mock()
    run = run_chain(listing1_doc, listing2_doc, client, CFG)
    assert client.calls == 3
    assert run.step1_outputs == (
        fixtures.translation_output_eu(),
        fixtures.translation_output_pl(),
    )
    assert run.step2_output == fixtures.comparison_output()


def test_run_chain_prompts_match_builders(listing1_doc, listing2_doc):
    client = _chain_mock()
    run = run_chain(listing1_doc, listing2_doc, client, CFG)
    assert client.prompts[0] == build_translation_prompt(listing1_doc)
    assert client.prompts[1] == build_translation_prompt(listing2_doc)
    assert client.prompts[2] == build_comparison_prompt(*run.step1_outputs)


def test_step2_sees_outputs_not_traces(listing1_doc, listing2_doc):
    run = run_chain(listing1_doc, listing2_doc, _chain_mock(), CFG)
    step2_prompt = run.steps[2].prompt
    assert run.step1_outputs[0] in step2_prompt
    assert run.step1_outputs[1] in step2_prompt
    assert listing1_doc.raw_text not in step2_prompt
    assert listing2_doc.raw_text not in step2_prompt


@pytest.mark.parametrize(
    "failing_call, step",
    [(1, 1), (2, 1), (3, 2), (None, 2)],
    ids=["empty_call_1", "empty_call_2", "empty_call_3", "exhausted"],
)
def test_chain_failure_annotated_with_step(
    listing1_doc, listing2_doc, failing_call, step
):
    outputs = [
        fixtures.translation_output_eu(),
        fixtures.translation_output_pl(),
        fixtures.comparison_output(),
    ]
    if failing_call is None:  # the queue runs out at the third call
        responses, cause, done = outputs[:2], MockExhaustedError, 2
    else:  # an empty mock response is a BackendError
        responses, cause, done = list(outputs), BackendError, failing_call - 1
        responses[failing_call - 1] = ""
    client = MockCompletionClient(responses)
    with pytest.raises(ChainStepError) as err:
        run_chain(listing1_doc, listing2_doc, client, CFG)
    assert err.value.step == step
    assert type(err.value.cause) is cause
    assert err.value.completed_outputs == tuple(outputs[:done])


def test_run_repeated_indexes_runs(listing1_doc, listing2_doc):
    client = _chain_mock(cycle=True)
    records = run_repeated(listing1_doc, listing2_doc, client, CFG, 5)
    assert [r.run_index for r in records] == [0, 1, 2, 3, 4]
    assert all(r.ok for r in records)
    assert client.calls == 15


def test_run_repeated_records_failures_without_aborting(
    listing1_doc, listing2_doc
):
    # enough responses for two full runs, then exhaustion mid-run
    client = MockCompletionClient(
        [
            fixtures.translation_output_eu(),
            fixtures.translation_output_pl(),
            fixtures.comparison_output(),
        ]
        * 2
    )
    records = run_repeated(listing1_doc, listing2_doc, client, CFG, 4)
    assert [r.ok for r in records] == [True, True, False, False]
    assert all(r.error for r in records if not r.ok)


def test_run_repeated_n1_equals_run_chain(listing1_doc, listing2_doc):
    records = run_repeated(listing1_doc, listing2_doc, _chain_mock(), CFG, 1)
    direct = run_chain(listing1_doc, listing2_doc, _chain_mock(), CFG)
    assert records[0].run.steps == direct.steps


def test_run_repeated_rejects_zero(listing1_doc, listing2_doc):
    with pytest.raises(ValueError):
        run_repeated(listing1_doc, listing2_doc, _chain_mock(), CFG, 0)


def test_deterministic_mock_gives_identical_runs(listing1_doc, listing2_doc):
    records = run_repeated(
        listing1_doc, listing2_doc, _chain_mock(cycle=True), CFG, 10
    )
    baseline = records[0].run.steps
    assert all(r.run.steps == baseline for r in records)


def test_run_json_round_trip(tmp_path, listing1_doc, listing2_doc):
    run = run_chain(listing1_doc, listing2_doc, _chain_mock(), CFG)
    assert run_from_json(run_to_json(run)) == run
    path = save_run(run, tmp_path)
    assert path.name == "run_000.json"
    assert load_run(path) == run
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert set(payload) == {"run_index", "config", "steps", "created_at"}
    assert len(payload["steps"]) == 3
    assert set(payload["steps"][0]) == {"prompt", "output", "latency"}


def test_mock_dir_drives_full_offline_chain(listing1_doc, listing2_doc):
    client = mock_from_dir(fixtures.mock_chain_dir())
    run = run_chain(listing1_doc, listing2_doc, client, CFG)
    assert run.step2_output == fixtures.comparison_output()


_GONE = object()  # marks a field to delete

# A path into a saved run record, the value to put there, and the text
# the ValueError must contain.
MALFORMED_RUNS = {
    "steps is a number": (["steps"], 5, "'steps'"),
    "two steps": (["steps", 2], _GONE, "3 steps, found 2"),
    "step is a string": (["steps", 1], "step", "step 1 must"),
    "step without output": (["steps", 2, "output"], _GONE, "'output'"),
    "prompt is a number": (["steps", 0, "prompt"], 7, "'prompt'"),
    "latency is a string": (["steps", 0, "latency"], "fast", "'latency'"),
    "config is null": (["config"], None, "'config'"),
    "unknown config key": (["config", "colour"], "red", "'colour'"),
    "config without model": (["config", "model_id"], _GONE, "'model_id'"),
    "temperature is a string": (
        ["config", "temperature"], "hot", "'temperature'"
    ),
    "temperature out of range": (["config", "temperature"], 5, "temperature"),
    "no created_at": (["created_at"], _GONE, "'created_at'"),
    "run_index is a word": (["run_index"], "zero", "'run_index'"),
    "run_index is a bool": (["run_index"], True, "'run_index'"),
    "unknown field": (["extra"], 1, "'extra'"),
}


@pytest.mark.parametrize(
    "path, value, field", MALFORMED_RUNS.values(), ids=list(MALFORMED_RUNS)
)
def test_malformed_run_record_names_the_field(
    tmp_path, listing1_doc, listing2_doc, path, value, field
):
    run = run_chain(listing1_doc, listing2_doc, _chain_mock(), CFG)
    record = copy.deepcopy(run_to_json(run))
    *parents, last = path
    target = functools.reduce(operator.getitem, parents, record)
    if value is _GONE:
        del target[last]
    else:
        target[last] = value
    with pytest.raises(ValueError, match=field):
        run_from_json(record)
    saved = tmp_path / "run.json"
    saved.write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(ValueError, match=field):
        load_run(saved)


@pytest.mark.parametrize("record", [[], "run", None, 3])
def test_run_record_must_be_an_object(record):
    with pytest.raises(ValueError, match="run must be an object"):
        run_from_json(record)


JSON_TEXT = st.text(
    st.one_of(
        st.characters(),
        st.characters(max_codepoint=0x1F),
        st.characters(categories=["Cs"]),
    ),
    max_size=8,
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | JSON_TEXT,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(JSON_TEXT)
    | st.dictionaries(JSON_TEXT, inner),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(value=JSON_VALUES)
def test_write_json_matches_json_dumps(tmp_path_factory, value):
    path = tmp_path_factory.getbasetemp() / "value.json"
    write_json(path, value)
    expected = json.dumps(value, indent=2)
    assert path.read_bytes() == (expected + "\n").encode()
    assert dumps_json(value) == expected


@pytest.mark.parametrize(
    "value",
    [{1, 2}, b"bytes", object(), {1: "a"}, {None: 1}, [{"a": {("k",): 1}}]],
    ids=["set", "bytes", "object", "int key", "None key", "nested tuple key"],
)
def test_write_json_rejects_unsupported_values(tmp_path, value):
    with pytest.raises(TypeError):
        write_json(tmp_path / "value.json", value)
    assert not (tmp_path / "value.json").exists()


def test_translation_prompt_adds_a_missing_final_newline(listing1_doc):
    cut = TraceDocument(listing1_doc.raw_text.rstrip("\n"), listing1_doc.bundle)
    assert cut.raw_text != listing1_doc.raw_text
    assert build_translation_prompt(cut) == build_translation_prompt(listing1_doc)
