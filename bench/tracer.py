"""In-memory spans around calls into lexplain's public functions.

The traced run wraps each function in ``TARGETS`` in every ``lexplain``
module namespace that bound it (``cli.derive_rights`` as well as
``engine.derive_rights``), so calls the program makes between its own
modules are seen too. Each call records one span: name, start, end, parent
span and op id. Spans stay in memory until the run ends. A span's self time
is its duration minus the time its child spans cover; the pipeline is
single-threaded, so children nest strictly inside their parent.

These wrappers stand in for spans inside the program, which do not exist
yet; when the program records its own spans, the benchmark should read
those instead.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("dsl", "kb", "engine", "trace", "chain", "gateway", "evaluation", "cli")


def _count_clauses(counts, kb):
    counts["dsl.clauses"] += len(kb.clauses)


def _count_answers(counts, results):
    counts["engine.solve.answers"] += len(results)


def _count_bundles(counts, bundles):
    counts["engine.bundles"] += len(bundles)
    for bundle in bundles:
        trees = (bundle.primary, *bundle.auxiliaries, *bundle.properties)
        counts["engine.solve.kept"] += len(trees)
        counts["engine.proof_nodes"] += sum(
            1 for tree in trees for _ in tree.nodes()
        )


def _count_rendered(counts, doc):
    counts["trace.bytes_rendered"] += len(doc.raw_text.encode("utf-8"))


def _count_runs(counts, records):
    counts["chain.runs"] += len(records)
    counts["chain.runs_failed"] += sum(1 for r in records if not r.ok)


def _count_report(counts, report):
    counts["evaluation.coverage_sum"] += report.completeness.coverage
    counts["evaluation.hallucinated_terms"] += len(
        report.groundedness.hallucinated_terms
    )


# (span name, defining module, attribute in that module, result hook)
TARGETS = (
    ("dsl.parse_rules", "lexplain.dsl", "parse_rules", _count_clauses),
    ("dsl.parse_facts", "lexplain.dsl", "parse_facts", None),
    ("kb.compute_strata", "lexplain.kb", "compute_strata", None),
    (
        "kb.KnowledgeBase.restricted_to",
        "lexplain.kb",
        "KnowledgeBase.restricted_to",
        None,
    ),
    ("engine.derive_rights", "lexplain.engine", "derive_rights", _count_bundles),
    ("engine.solve", "lexplain.engine", "solve", _count_answers),
    ("engine.ground_oracle", "lexplain.engine", "ground_oracle", None),
    ("trace.render_trace", "lexplain.trace", "render_trace", _count_rendered),
    ("trace.parse_trace", "lexplain.trace", "parse_trace", None),
    ("trace.extract_terms", "lexplain.trace", "extract_terms", None),
    (
        "chain.build_translation_prompt",
        "lexplain.chain",
        "build_translation_prompt",
        None,
    ),
    ("chain.run_repeated", "lexplain.chain", "run_repeated", _count_runs),
    ("chain.save_run", "lexplain.chain", "save_run", None),
    ("gateway.complete", "lexplain.gateway", "MockCompletionClient.complete", None),
    ("gateway.mock_from_dir", "lexplain.gateway", "mock_from_dir", None),
    ("evaluation.evaluate", "lexplain.evaluation", "evaluate", _count_report),
    ("evaluation.check_form", "lexplain.evaluation", "check_form", None),
    (
        "evaluation.check_completeness",
        "lexplain.evaluation",
        "check_completeness",
        None,
    ),
    (
        "evaluation.check_groundedness",
        "lexplain.evaluation",
        "check_groundedness",
        None,
    ),
    ("cli.main", "lexplain.cli", "main", None),
)


class Tracer:
    """Records spans while installed; ``op`` tags each new span.

    ``op`` is an op index inside the measured loop, ``"setup"`` while the
    program loads its inputs, and ``"check"`` while the benchmark verifies
    outputs (only ``ground_oracle`` runs there).
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counts: Counter = Counter()
        self.op: int | str = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_result):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            counts[name + ".calls"] += 1
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".failures"] += 1
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return wrapper

    def install(self, only: set[str] | None = None) -> None:
        """Wrap every target, or only the targets named in ``only``."""
        for name, module_name, attr, on_result in TARGETS:
            if only is not None and name not in only:
                continue
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self._wrap(name, original, on_result))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, on_result)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "lexplain" and not mod_name.startswith("lexplain."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[int]:
        """Self time of every span, in nanoseconds, by span index."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [
            (end - start) - covered[i]
            for i, (_, start, end, _, _) in enumerate(self.spans)
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function and per-layer figures, as ``name -> (value, unit)``.

        Function self times sum every span of the run, set-up and checks
        included. Layer self times sum only spans inside ops, so their
        shares describe where the measured ops spend their time.
        """
        fn_ms: Counter = Counter()
        layer_ms: Counter = Counter()
        for (name, _, _, _, op), own in zip(self.spans, self.self_times()):
            fn_ms[name] += own / 1e6
            if isinstance(op, int):
                layer_ms[name.split(".")[0]] += own / 1e6
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for name in (
            "dsl.parse_rules",
            "dsl.parse_facts",
            "kb.compute_strata",
            "engine.derive_rights",
            "engine.solve",
            "engine.ground_oracle",
            "trace.render_trace",
            "trace.parse_trace",
            "trace.extract_terms",
            "chain.build_translation_prompt",
            "chain.run_repeated",
            "chain.save_run",
            "gateway.complete",
            "gateway.mock_from_dir",
            "evaluation.check_form",
            "evaluation.check_completeness",
            "evaluation.check_groundedness",
            "cli.main",
        ):
            out[f"{name}.self_ms"] = (fn_ms[name], "ms")
        for name in (
            "kb.compute_strata.calls",
            "kb.KnowledgeBase.restricted_to.calls",
            "engine.solve.calls",
            "gateway.complete.calls",
            "gateway.complete.failures",
            "evaluation.evaluate.calls",
            "dsl.clauses",
            "engine.bundles",
            "engine.proof_nodes",
            "trace.bytes_rendered",
            "chain.runs_failed",
            "evaluation.hallucinated_terms",
            "cli.files_written",
            "cli.bytes_written",
        ):
            out[name] = (c[name], "count")
        answers = c["engine.solve.answers"]
        out["engine.solve.kept_ratio"] = (
            c["engine.solve.kept"] / answers if answers else 0.0,
            "ratio",
        )
        evaluations = c["evaluation.evaluate.calls"]
        out["evaluation.coverage_mean"] = (
            c["evaluation.coverage_sum"] / evaluations if evaluations else 0.0,
            "ratio",
        )
        for layer in LAYERS:
            out[f"layer.{layer}.self_ms"] = (layer_ms[layer], "ms")
        return out
