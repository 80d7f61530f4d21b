"""Command-line workflow: solve cases to trace files, explain a trace via
the LLM gateway, compare two sources with the prompt chain, and evaluate
outputs post hoc.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 no result,
4 gateway/authentication error. Diagnostics go to stderr; results go to
files under --out and to stdout. Only the commands that call the LLM or
evaluate an output load the chain and evaluation modules.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .dsl import DslError, parse_facts, parse_rules
from .engine import EngineError, derive_rights
from .gateway import (
    CompletionClient,
    GatewayError,
    HttpCompletionClient,
    LlmConfig,
    _checked,
    mock_from_dir,
)
from .kb import KbError, KnowledgeBase, _excerpt, merge
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


# Config-file keys and the JSON types of each value, as _checked reads them.
_SETTINGS = {
    "kb": [str],
    "facts": (str,),
    "sources": [str],
    "person": (str,),
    "mock_dir": (str,),
    "repetitions": (int,),
    "out": (str,),
    "model": (str,),
    "temperature": (int, float),
    "max_tokens": (int,),
    "base_url": (str,),
    "timeout": (int, float),
}


def _check_path(key: str, name: str | None) -> None:
    """Refuse a path setting with a NUL, or a character the file system
    cannot encode, before any file is opened."""
    try:
        usable = name is None or b"\0" not in os.fsencode(name)
    except UnicodeEncodeError:
        usable = False
    if not usable:
        raise UsageError(f"{key} is not a usable path: {_excerpt(name)}")


def _resolve(args: argparse.Namespace) -> None:
    """Fill each flag no one gave in args from the --config file, then the
    defaults, and gather the LLM settings into args.llm."""
    data = {}
    _check_path("config", args.config)
    if args.config is not None:
        text = Path(args.config).read_text(encoding="utf-8")
        try:
            data = json.loads(text)
        except RecursionError:
            # nested too deeply to parse: as any other file that is not JSON
            raise json.JSONDecodeError("config file nests too deeply", text, 0)
        except json.JSONDecodeError:
            raise
        except ValueError:  # an integer with more digits than int() reads
            raise json.JSONDecodeError("config file holds too long an integer", text, 0)
        if not isinstance(data, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
        types = {key: t for key, t in _SETTINGS.items() if key in data}
        try:
            _checked(data, types, "config file")
        except ValueError as exc:
            raise UsageError(str(exc))
        # a number setting is a float, as argparse type=float reads the flag
        for key in (k for k, t in types.items() if float in t):
            try:
                data[key] = float(data[key])
            except OverflowError:  # an integer of 310 digits or more
                raise UsageError(f"config file field {key!r} is too large")
    defaults = {"kb": [], "sources": [], "repetitions": 1, "out": "out"}
    for key in _SETTINGS:
        if getattr(args, key, None) is None:
            setattr(args, key, data.get(key, defaults.get(key)))
    for key in ("kb", "facts", "mock_dir", "out"):
        for name in getattr(args, key) if key == "kb" else [getattr(args, key)]:
            _check_path(key, name)
    if args.mock_dir is not None and "base_url" in data:
        raise UsageError("mock_dir and a live base_url are mutually exclusive")
    llm = {"model_id": args.model, "temperature": args.temperature,
           "max_tokens": args.max_tokens, "base_url": args.base_url,
           "timeout": args.timeout}
    try:
        args.llm = LlmConfig(**{k: v for k, v in llm.items() if v is not None})
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.repetitions < 1:
        raise UsageError("--repetitions must be >= 1")
    for index, source_id in enumerate(args.sources):
        if source_id in args.sources[:index]:
            raise UsageError(f"source {_excerpt(source_id, str)} is named twice")


def _load_inputs(args: argparse.Namespace):
    if not args.kb:
        raise UsageError("at least one --kb file is required")
    if args.facts is None:
        raise UsageError("--facts is required")
    if args.person is None:
        raise UsageError("--person is required")
    kb = merge([parse_rules(Path(p).read_text(encoding="utf-8")) for p in args.kb])
    facts = parse_facts(Path(args.facts).read_text(encoding="utf-8"))
    return kb, facts


def _make_client(args: argparse.Namespace) -> CompletionClient:
    # Offline guarantee: with a mock dir, the live client is never built.
    # explain makes one completion, so cycling changes nothing it reads.
    if args.mock_dir is not None:
        return mock_from_dir(args.mock_dir, cycle=True)
    return HttpCompletionClient()


def _out_dir(args: argparse.Namespace) -> Path:
    path = Path(args.out)
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
            f"{_excerpt(person, str)} has {len(bundles)} rights under "
            f"{_excerpt(source_id, str)} (primary articles: "
            f"{_excerpt(articles, str)}); run solve to write every trace"
        )
    return render_trace(bundles[0], kb)


# --- commands ------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    _resolve(args)
    kb, facts = _load_inputs(args)
    sources = args.sources or [s.id for s in kb.sources]
    out = _out_dir(args)
    written = []
    names: dict[str, int] = {}
    for source_id in sources:
        for bundle in derive_rights(args.person, source_id, kb, facts):
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
    from .chain import build_translation_prompt, write_json
    from .evaluation import TRANSLATION_SECTIONS, evaluate, report_to_json

    _resolve(args)
    if len(args.sources) != 1:
        raise UsageError("explain needs exactly one --source")
    kb, facts = _load_inputs(args)
    doc = _derive_trace(kb, facts, args.person, args.sources[0])
    if doc is None:
        print(f"no rights derivable for {_excerpt(args.person, str)}",
              file=sys.stderr)
        return EXIT_NO_RESULT
    client = _make_client(args)
    response = client.complete(build_translation_prompt(doc), args.llm)
    report = evaluate(response.text, doc, TRANSLATION_SECTIONS)
    out = _out_dir(args)
    (out / "explanation.txt").write_text(response.text, encoding="utf-8")
    write_json(out / "explanation.report.json", report_to_json(report))
    print(out / "explanation.txt")
    print(out / "explanation.report.json")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    from .chain import run_repeated, save_run, write_json
    from .evaluation import TRANSLATION_SECTIONS, evaluate, report_to_json, stability

    _resolve(args)
    if len(args.sources) != 2:
        raise UsageError("compare needs exactly two --source ids")
    kb, facts = _load_inputs(args)
    docs = []
    for source_id in args.sources:
        doc = _derive_trace(kb, facts, args.person, source_id)
        if doc is None:
            print(
                f"no rights derivable for {_excerpt(args.person, str)} "
                f"under {_excerpt(source_id, str)}",
                file=sys.stderr,
            )
            return EXIT_NO_RESULT
        docs.append(doc)
    client = _make_client(args)
    records = run_repeated(docs[0], docs[1], client, args.llm, args.repetitions)
    out = _out_dir(args)
    reports_by_source: dict[str, list] = {s: [] for s in args.sources}
    failures = []
    for record in records:
        if record.run is None:
            failures.append({"run_index": record.run_index, "error": record.error})
            continue
        save_run(record.run, out)
        for source_id, doc, output in zip(
            args.sources, docs, record.run.step1_outputs
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
            summary["stability"][source_id] = dict(vars(stability(reports)))
    write_json(out / "stability.json", summary)
    print(out / "stability.json")
    if not any(r.ok for r in records):
        print("all runs failed", file=sys.stderr)
        return EXIT_GATEWAY
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .chain import dumps_json, write_json
    from .evaluation import TRANSLATION_SECTIONS, _section_heads, evaluate, report_to_json

    sections = tuple(args.sections) if args.sections else TRANSLATION_SECTIONS
    try:
        _section_heads(sections)  # a duplicate or empty section is a usage error
    except ValueError as exc:
        raise UsageError(str(exc))
    for key in ("output_file", "trace_file", "out"):
        _check_path(key, getattr(args, key))
    output_text = Path(args.output_file).read_text(encoding="utf-8")
    trace_doc = parse_trace(Path(args.trace_file).read_text(encoding="utf-8"))
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
        "--source",
        action="append",
        dest="sources",
        metavar="ID",
        help="legal source id",
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
    except SystemExit as exc:  # argparse exits after printing --help
        return exc.code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return EXIT_GATEWAY
    except (DslError, KbError, TraceError, EngineError, OSError,
            UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
