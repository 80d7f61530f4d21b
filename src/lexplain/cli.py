"""Command-line workflow: solve cases to trace files, explain a trace via
the LLM gateway, compare two sources with the prompt chain, and evaluate
outputs post hoc.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 no result,
4 gateway/authentication error. Diagnostics go to stderr; results go to
files under --out and to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .chain import (
    build_translation_prompt,
    dumps_json,
    run_repeated,
    save_run,
    write_json,
)
from .dsl import DslError, parse_facts, parse_rules
from .engine import EngineError, derive_rights
from .evaluation import (
    TRANSLATION_SECTIONS,
    evaluate,
    report_to_json,
    stability,
)
from .gateway import (
    CompletionClient,
    GatewayError,
    HttpCompletionClient,
    LlmConfig,
    mock_from_dir,
)
from .kb import KbError, KnowledgeBase, merge
from .trace import TraceDocument, TraceError, parse_trace, render_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_RESULT = 3
EXIT_GATEWAY = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 1
        raise UsageError(message)


@dataclass
class RunConfig:
    """Resolved settings for one command; flags beat the config file."""

    kb_paths: list[str]
    facts_path: str | None
    sources: list[str]
    person: str | None
    mock_dir: str | None
    repetitions: int
    output_dir: str
    llm: LlmConfig


# Config-file keys and the JSON type of each value; lists hold strings.
_CONFIG_TYPES = {
    "kb": list,
    "facts": str,
    "sources": list,
    "person": str,
    "mock_dir": str,
    "repetitions": int,
    "out": str,
    "model": str,
    "temperature": (int, float),
    "max_tokens": int,
    "base_url": str,
    "timeout": (int, float),
}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_TYPES))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in data.items():
        items = value if isinstance(value, list) else ()
        if (
            not isinstance(value, _CONFIG_TYPES[key])
            or isinstance(value, bool)
            or not all(isinstance(item, str) for item in items)
        ):
            raise UsageError(f"config key {key} has a mistyped value: {value!r}")
    return data


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(getattr(args, "config", None))

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            return file_cfg[key]
        return default

    mock_dir = pick(getattr(args, "mock_dir", None), "mock_dir", None)
    base_url_given = "base_url" in file_cfg
    if mock_dir is not None and base_url_given:
        raise UsageError("mock_dir and a live base_url are mutually exclusive")
    llm_kwargs = {}
    for attr, key in (
        ("model_id", "model"),
        ("temperature", "temperature"),
        ("max_tokens", "max_tokens"),
        ("base_url", "base_url"),
        ("timeout", "timeout"),
    ):
        value = pick(getattr(args, key, None), key, None)
        if value is not None:
            llm_kwargs[attr] = value
    try:
        llm = LlmConfig(**llm_kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))
    repetitions = pick(getattr(args, "repetitions", None), "repetitions", 1)
    if repetitions < 1:
        raise UsageError("--repetitions must be >= 1")
    sources = list(pick(getattr(args, "source", None), "sources", []))
    for index, source_id in enumerate(sources):
        if source_id in sources[:index]:
            raise UsageError(f"source {source_id} is named twice")
    return RunConfig(
        kb_paths=list(pick(getattr(args, "kb", None), "kb", [])),
        facts_path=pick(getattr(args, "facts", None), "facts", None),
        sources=sources,
        person=pick(getattr(args, "person", None), "person", None),
        mock_dir=mock_dir,
        repetitions=repetitions,
        output_dir=pick(getattr(args, "out", None), "out", "out"),
        llm=llm,
    )


def _load_inputs(cfg: RunConfig):
    if not cfg.kb_paths:
        raise UsageError("at least one --kb file is required")
    if cfg.facts_path is None:
        raise UsageError("--facts is required")
    if cfg.person is None:
        raise UsageError("--person is required")
    kbs = [
        parse_rules(Path(p).read_text(encoding="utf-8")) for p in cfg.kb_paths
    ]
    kb = merge(kbs)
    facts = parse_facts(Path(cfg.facts_path).read_text(encoding="utf-8"))
    return kb, facts


def _make_client(cfg: RunConfig, cycle: bool) -> CompletionClient:
    # Offline guarantee: with a mock dir, the live client is never built.
    if cfg.mock_dir is not None:
        return mock_from_dir(cfg.mock_dir, cycle=cycle)
    return HttpCompletionClient()


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _derive_trace(
    kb: KnowledgeBase, facts, person: str, source_id: str
) -> TraceDocument | None:
    bundles = derive_rights(person, source_id, kb, facts)
    if not bundles:
        return None
    if len(bundles) > 1:
        # one trace per source feeds the chain; picking one would hide the rest
        articles = ", ".join(b.article for b in bundles)
        raise UsageError(
            f"{person} has {len(bundles)} rights under {source_id} "
            f"(primary articles: {articles}); run solve to write every trace"
        )
    return render_trace(bundles[0], kb)


# --- commands ------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    kb, facts = _load_inputs(cfg)
    sources = cfg.sources or [s.id for s in kb.sources]
    out = _out_dir(cfg)
    written = []
    names: dict[str, int] = {}
    for source_id in sources:
        for bundle in derive_rights(cfg.person, source_id, kb, facts):
            doc = render_trace(bundle, kb)
            stem = f"{source_id}-{bundle.article}"
            # several bundles can share a primary article (distinct options)
            names[stem] = names.get(stem, 0) + 1
            if names[stem] > 1:
                stem = f"{stem}-{names[stem]}"
            path = out / f"{stem}.trace"
            path.write_text(doc.raw_text, encoding="utf-8")
            written.append(path)
    for path in written:
        print(path)
    return EXIT_OK if written else EXIT_NO_RESULT


def cmd_explain(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    if len(cfg.sources) != 1:
        raise UsageError("explain needs exactly one --source")
    kb, facts = _load_inputs(cfg)
    doc = _derive_trace(kb, facts, cfg.person, cfg.sources[0])
    if doc is None:
        print(f"no rights derivable for {cfg.person}", file=sys.stderr)
        return EXIT_NO_RESULT
    client = _make_client(cfg, cycle=False)
    response = client.complete(build_translation_prompt(doc), cfg.llm)
    report = evaluate(response.text, doc, TRANSLATION_SECTIONS)
    out = _out_dir(cfg)
    (out / "explanation.txt").write_text(response.text, encoding="utf-8")
    write_json(out / "explanation.report.json", report_to_json(report))
    print(out / "explanation.txt")
    print(out / "explanation.report.json")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    if len(cfg.sources) != 2:
        raise UsageError("compare needs exactly two --source ids")
    kb, facts = _load_inputs(cfg)
    docs = []
    for source_id in cfg.sources:
        doc = _derive_trace(kb, facts, cfg.person, source_id)
        if doc is None:
            print(
                f"no rights derivable for {cfg.person} under {source_id}",
                file=sys.stderr,
            )
            return EXIT_NO_RESULT
        docs.append(doc)
    client = _make_client(cfg, cycle=True)
    records = run_repeated(docs[0], docs[1], client, cfg.llm, cfg.repetitions)
    out = _out_dir(cfg)
    reports_by_source: dict[str, list] = {s: [] for s in cfg.sources}
    failures = []
    for record in records:
        if record.run is None:
            failures.append({"run_index": record.run_index, "error": record.error})
            continue
        save_run(record.run, out)
        for source_id, doc, output in zip(
            cfg.sources, docs, record.run.step1_outputs
        ):
            report = evaluate(
                output, doc, TRANSLATION_SECTIONS, run_index=record.run_index
            )
            reports_by_source[source_id].append(report)
            path = out / f"run_{record.run_index:03d}.{source_id}.report.json"
            write_json(path, report_to_json(report))
    summary: dict = {
        "runs_total": len(records),
        "runs_completed": sum(1 for r in records if r.ok),
        "failures": failures,
        "stability": {},
    }
    for source_id, reports in reports_by_source.items():
        if len(reports) >= 2:
            summary["stability"][source_id] = asdict(stability(reports))
    write_json(out / "stability.json", summary)
    print(out / "stability.json")
    if not any(r.ok for r in records):
        print("all runs failed", file=sys.stderr)
        return EXIT_GATEWAY
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    output_text = Path(args.output_file).read_text(encoding="utf-8")
    trace_doc = parse_trace(Path(args.trace_file).read_text(encoding="utf-8"))
    sections = tuple(args.sections) if args.sections else TRANSLATION_SECTIONS
    data = report_to_json(evaluate(output_text, trace_doc, sections))
    print(dumps_json(data))
    if args.out is not None:
        write_json(Path(args.out), data)
    return EXIT_OK


# --- wiring --------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, with_llm: bool) -> None:
    parser.add_argument(
        "--kb", action="append", metavar="FILE", help="rule-DSL file (repeatable)"
    )
    parser.add_argument("--facts", metavar="FILE", help="case facts file")
    parser.add_argument(
        "--source", action="append", metavar="ID", help="legal source id"
    )
    parser.add_argument("--person", metavar="ATOM", help="person the case is about")
    parser.add_argument("--out", metavar="DIR", help="output directory (default: out)")
    parser.add_argument("--config", metavar="FILE", help="optional JSON config; flags win")
    if with_llm:
        parser.add_argument(
            "--mock-dir",
            dest="mock_dir",
            metavar="DIR",
            help="serve canned responses from this directory instead of HTTP",
        )
        parser.add_argument("--model", metavar="ID", help="model id (default: gpt-4)")
        parser.add_argument(
            "--temperature", type=float, help="sampling temperature (default: 0)"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lexplain",
        description="Derive legal rights with proof traces, explain and "
        "compare them through an LLM, and evaluate the outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="derive rights and write trace files")
    _add_common(p_solve, with_llm=False)
    p_solve.set_defaults(func=cmd_solve)

    p_explain = sub.add_parser(
        "explain", help="translate one derived trace to lay language"
    )
    _add_common(p_explain, with_llm=True)
    p_explain.set_defaults(func=cmd_explain)

    p_compare = sub.add_parser(
        "compare", help="run the two-step comparison chain over two sources"
    )
    _add_common(p_compare, with_llm=True)
    p_compare.add_argument(
        "--repetitions", type=int, help="number of chain repetitions (default: 1)"
    )
    p_compare.set_defaults(func=cmd_compare)

    p_eval = sub.add_parser(
        "evaluate", help="evaluate an explanation file against a trace file"
    )
    p_eval.add_argument("output_file", help="text produced by the model")
    p_eval.add_argument("trace_file", help="trace the text must be grounded in")
    p_eval.add_argument(
        "--sections",
        nargs="+",
        metavar="NAME",
        help="expected section headers (default: the translation structure)",
    )
    p_eval.add_argument("--out", metavar="FILE", help="also write the report here")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves them all
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return EXIT_GATEWAY
    except (DslError, KbError, TraceError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
