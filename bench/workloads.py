"""The benchmark's three workloads: inputs from a seed, one op, its checks.

Each workload class follows one protocol, driven by ``run.py``:

- ``__init__(seed, work_dir)`` generates the inputs and everything the
  checks compare against. It is untimed and not part of set-up.
- ``input_files()`` names the rules files and the facts file the program
  loads at set-up; ``setup()`` loads them in this process.
- ``next_input(i)`` prepares op ``i`` (untimed); ``run(inp)`` is the op,
  the only timed call; ``check(i, inp, out)`` returns a problem or None.
- ``finish()`` runs checks that need ``ground_oracle``, after the loop,
  and returns ``(failed ops, problems)``.

The program sees only rules and facts text, parsed through ``parse_rules``
and ``parse_facts``. Every call into ``lexplain`` goes through a module
attribute, so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from lexplain import chain, cli, dsl, engine, evaluation, kb, trace  # noqa: E402

RESOURCES = SRC / "lexplain" / "resources"
EU = "directive_2010_64"
PL = "directive_2010_64_pl"
# Identifiers a renamed copy of a shipped source changes: the source id,
# the article ids and the has_right/5 tag.
RENAMED = {
    EU: (EU, "art3_1", "art3_2", "art4", "art3_7", "dir"),
    PL: (PL, "article204_2", "article618_7", "pl"),
}
LANGUAGES = ("polish", "german", "french", "italian", "spanish")
OPTIONS = ("documents", "records", "transcript", "recording")


def _resource(name: str) -> str:
    return (RESOURCES / name).read_text(encoding="utf-8")


def rename_copy(text: str, source: str, suffix: str) -> str:
    """Rename a shipped source's identifiers so the copy derives atoms of
    its own; applies to rules text and to trace text alike."""
    words = "|".join(RENAMED[source])
    return re.sub(rf"\b(?:{words})\b", lambda m: m.group(0) + suffix, text)


def _conclusions(bundles) -> frozenset:
    """Primary conclusion plus attachment conclusions of each bundle."""
    return frozenset(
        (
            str(b.primary.literal.term),
            frozenset(str(t.literal.term) for t in b.auxiliaries),
            frozenset(str(t.literal.term) for t in b.properties),
        )
        for b in bundles
    )


def _oracle_conclusions(model, person: str) -> frozenset:
    """What derive_rights must return for ``person``, read off a model."""

    def attached(functor: str, article: str) -> frozenset:
        return frozenset(
            str(a)
            for a in model
            if a.predicate == (functor, 5)
            and a.args[1] == article
            and a.args[2] == person
        )

    return frozenset(
        (
            str(a),
            attached("auxiliary_right", a.args[2]),
            attached("right_property", a.args[2]),
        )
        for a in model
        if a.predicate == ("has_right", 5) and a.args[3] == person
    )


class Paper:
    """The paper's case through the CLI: ``lexplain compare`` for mario
    under both shipped sources, ten repetitions over the mock chain. Its
    inputs are the shipped files, so the seed changes nothing."""

    name = "paper"
    trace_ops = 40
    REPETITIONS = 10

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = work_dir
        self.kb_paths = [RESOURCES / f"{EU}.rules", RESOURCES / f"{PL}.rules"]
        self.facts_path = RESOURCES / "mario.facts"
        self.mock_dir = RESOURCES / "mock_chain"
        goldens = [_resource("listing1.trace"), _resource("listing2.trace")]
        mocks = [p.read_text(encoding="utf-8") for p in sorted(self.mock_dir.iterdir())]
        self.mocks = mocks
        self.prompts = [
            chain.build_translation_prompt(trace.parse_trace(goldens[0])),
            chain.build_translation_prompt(trace.parse_trace(goldens[1])),
            chain.build_comparison_prompt(mocks[0], mocks[1]),
        ]
        self.goldens = goldens
        self.expected_files = {"stability.json"}
        for k in range(self.REPETITIONS):
            self.expected_files.add(f"run_{k:03d}.json")
            for source in (EU, PL):
                self.expected_files.add(f"run_{k:03d}.{source}.report.json")
        self.tracer = None

    def input_files(self):
        return self.kb_paths, self.facts_path

    def info(self) -> dict:
        return {
            "persons": 1,
            "facts": len(self.facts),
            "sources": len(self.source_kbs),
            "clauses": len(self.kb.clauses),
            "repetitions": self.REPETITIONS,
        }

    def setup(self) -> None:
        self.source_kbs = {
            source: dsl.parse_rules(path.read_text(encoding="utf-8"))
            for source, path in zip((EU, PL), self.kb_paths)
        }
        self.kb = kb.merge(self.source_kbs.values())
        self.facts = dsl.parse_facts(self.facts_path.read_text(encoding="utf-8"))

    def next_input(self, i: int) -> list[str]:
        out = self.work_dir / f"op{i:06d}"
        argv = ["compare"]
        for path in self.kb_paths:
            argv += ["--kb", str(path)]
        argv += [
            "--facts", str(self.facts_path),
            "--source", EU,
            "--source", PL,
            "--person", "mario",
            "--mock-dir", str(self.mock_dir),
            "--repetitions", str(self.REPETITIONS),
            "--out", str(out),
        ]
        return argv

    def run(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, i: int, argv, code) -> str | None:
        out = Path(argv[-1])
        try:
            if self.tracer is not None:
                files = [p for p in out.iterdir() if p.is_file()]
                self.tracer.counts["cli.files_written"] += len(files)
                self.tracer.counts["cli.bytes_written"] += sum(
                    p.stat().st_size for p in files
                )
            return self.check_dir(code, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check_dir(self, code, out: Path) -> str | None:
        if code != cli.EXIT_OK:
            return f"exit code {code}"
        names = {p.name for p in out.iterdir()}
        if names != self.expected_files:
            return f"output files differ: {sorted(names ^ self.expected_files)}"
        for k in range(self.REPETITIONS):
            run = json.loads((out / f"run_{k:03d}.json").read_text(encoding="utf-8"))
            steps = run["steps"]
            if run["run_index"] != k or len(steps) != 3:
                return f"run {k}: index {run['run_index']}, {len(steps)} steps"
            for n, (step, prompt, output) in enumerate(
                zip(steps, self.prompts, self.mocks)
            ):
                if step["prompt"] != prompt:
                    return f"run {k} step {n}: prompt differs from the golden one"
                if step["output"] != output:
                    return f"run {k} step {n}: output differs from the mock"
            for source, missing, coverage in (
                (EU, ["essential_document(art3_2, mario, documents)"], 10 / 11),
                (PL, [], 1.0),
            ):
                report = json.loads(
                    (out / f"run_{k:03d}.{source}.report.json").read_text(
                        encoding="utf-8"
                    )
                )
                verdict = (
                    report["run_index"],
                    report["form"]["pass"],
                    report["completeness"]["missing"],
                    abs(report["completeness"]["coverage"] - coverage) < 1e-9,
                    report["groundedness"]["hallucinated"],
                )
                if verdict != (k, True, missing, True, []):
                    return f"run {k} {source}: verdict {verdict}"
        summary = json.loads((out / "stability.json").read_text(encoding="utf-8"))
        if (summary["runs_completed"], summary["failures"]) != (self.REPETITIONS, []):
            return f"stability summary {summary['runs_completed']} runs"
        return None

    def finish(self):
        # Both golden conclusions must be in the oracle's stratified model.
        problems = []
        for source, golden in zip((EU, PL), self.goldens):
            model = engine.ground_oracle(self.source_kbs[source], self.facts)
            root = golden.split("Explanation:\n\n", 1)[1].split("\n", 1)[0]
            if root not in {str(a) for a in model}:
                problems.append(f"{source}: {root} is not in the oracle's model")
        return (1 if problems else 0), problems


class Cohort:
    """About 300 generated persons plus mario under six sources: the two
    shipped ones and two renamed copies of each."""

    name = "cohort"
    trace_ops = 297  # one pass over the cohort
    COMBOS = 37  # persons per (understands, charge, prejudice) combination

    def __init__(self, seed: int, work_dir: Path):
        rng = random.Random(f"cohort-{seed}")
        shipped = {EU: _resource(f"{EU}.rules"), PL: _resource(f"{PL}.rules")}
        goldens = {EU: _resource("listing1.trace"), PL: _resource("listing2.trace")}
        self.rule_texts: dict[str, str] = {}
        self.golden_traces: dict[str, str] = {}
        for source in (EU, PL):
            self.rule_texts[source] = shipped[source]
            self.golden_traces[source] = goldens[source]
            for k in (1, 2):
                copy_id = f"{source}_c{k}"
                self.rule_texts[copy_id] = rename_copy(shipped[source], source, f"_c{k}")
                self.golden_traces[copy_id] = rename_copy(goldens[source], source, f"_c{k}")
        self.sources = list(self.rule_texts)

        combos = [
            (u, c, p) for u in (0, 1) for c in (0, 1) for p in (0, 1)
        ] * self.COMBOS
        rng.shuffle(combos)
        ids = rng.sample(range(10**6), len(combos))
        lines = ["proceeding_language(mario, polish).", "person_document(mario, charge)."]
        self.persons = ["mario"]
        for ident, (understands, charge, prejudice) in zip(ids, combos):
            person = f"p{ident:06d}"
            language = rng.choice(LANGUAGES)
            self.persons.append(person)
            lines.append(f"proceeding_language({person}, {language}).")
            if understands:
                lines.append(f"person_understands({person}, {language}).")
            if charge:
                lines.append(f"person_document({person}, charge).")
            if prejudice:
                lines.append(f"proceeding_event({person}, prejudice_fairness).")
        rng.shuffle(lines)
        self.facts_text = "\n".join(lines) + "\n"
        self.n_facts = len(lines)

        self.kb_paths = []
        for source, text in self.rule_texts.items():
            path = work_dir / f"{source}.rules"
            path.write_text(text, encoding="utf-8")
            self.kb_paths.append(path)
        self.facts_path = work_dir / "cohort.facts"
        self.facts_path.write_text(self.facts_text, encoding="utf-8")
        self.first: dict[str, frozenset] = {}
        self.ops_per_person: dict[str, int] = {}

    def input_files(self):
        return self.kb_paths, self.facts_path

    def info(self) -> dict:
        return {
            "persons": len(self.persons),
            "facts": self.n_facts,
            "sources": len(self.sources),
            "clauses": len(self.kb.clauses),
        }

    def setup(self) -> None:
        self.source_kbs = {
            source: dsl.parse_rules(path.read_text(encoding="utf-8"))
            for source, path in zip(self.sources, self.kb_paths)
        }
        self.kb = kb.merge(self.source_kbs.values())
        self.facts = dsl.parse_facts(self.facts_path.read_text(encoding="utf-8"))

    def next_input(self, i: int) -> str:
        return self.persons[i % len(self.persons)]

    def run(self, person: str):
        out = []
        for source in self.sources:
            bundles = engine.derive_rights(person, source, self.kb, self.facts)
            docs = []
            for bundle in bundles:
                doc = trace.render_trace(bundle, self.kb)
                docs.append((doc, trace.parse_trace(doc.raw_text)))
            out.append((source, bundles, docs))
        return out

    def check(self, i: int, person: str, out) -> str | None:
        conclusions = []
        for source, bundles, docs in out:
            for doc, parsed in docs:
                if parsed.raw_text != doc.raw_text or parsed.bundle != doc.bundle:
                    return f"{person} {source}: trace does not round-trip"
            if person == "mario":
                texts = [doc.raw_text for doc, _ in docs]
                if texts != [self.golden_traces[source]]:
                    return f"mario {source}: trace differs from the golden"
            conclusions.append((source, _conclusions(bundles)))
        conclusions = frozenset(conclusions)
        self.ops_per_person[person] = self.ops_per_person.get(person, 0) + 1
        first = self.first.setdefault(person, conclusions)
        if conclusions != first:
            return f"{person}: conclusions differ from the first op"
        return None

    def finish(self):
        failed, problems = 0, []
        models = {
            source: engine.ground_oracle(self.source_kbs[source], self.facts)
            for source in self.sources
        }
        for person, seen in self.first.items():
            expected = frozenset(
                (source, _oracle_conclusions(models[source], person))
                for source in self.sources
            )
            if seen != expected:
                failed += self.ops_per_person[person]
                problems.append(f"{person}: conclusions differ from the oracle")
        return failed, problems


DEEP_RULES = """\
% Synthetic right proved through a right-recursive reachability chain.
%% source: reach_chain
%% jurisdiction: Synthetic

%% article: art1
%% title: Article 1
has_right(right_to_access, chain, art1, P, Option) :-
    has_right(art1, P, right_to_access, Option).

%% article: art1
%% title: Article 1
has_right(art1, P, right_to_access, Option) :-
    case_start(P, S),
    case_target(P, T),
    reach(S, T),
    requested_option(P, Option),
    not(access_barred(P, T)).

%% article: art2
%% title: Article 2
reach(X, Z) :- edge(X, Z).

%% article: art2
%% title: Article 2
reach(X, Z) :- edge(X, Y), reach(Y, Z).

%% article: art5
%% title: Article 5
auxiliary_right(art5, art1, P, cost, state) :-
    auxiliary_right(art5, P, cost, state).

%% article: art5
%% title: Article 5
auxiliary_right(art5, P, cost, state) :- case_start(P, S).

%% article: art6
%% title: Article 6
right_property(art6, art1, P, form, written) :-
    right_property(art6, P, form, written).

%% article: art6
%% title: Article 6
right_property(art6, P, form, written) :-
    case_start(P, S),
    not(access_barred(P, S)).
"""


class Deep:
    """One generated case per op whose primary right is proved through a
    right-recursive chain of 10-60 edges; every op's trace is distinct."""

    name = "deep"
    trace_ops = 150
    MIN_EDGES, MAX_EDGES = 10, 60

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.template = chain.translation_template()
        self.lengths: list[int] = []
        self.kb_paths = [work_dir / "reach_chain.rules"]
        self.kb_paths[0].write_text(DEEP_RULES, encoding="utf-8")
        self.facts_path = work_dir / "case.facts"
        self.facts_path.write_text(self.case(-1)["facts"], encoding="utf-8")

    def input_files(self):
        return self.kb_paths, self.facts_path

    def info(self) -> dict:
        lengths = sorted(self.lengths)
        return {
            "cases": len(lengths),
            "sources": 1,
            "clauses": len(self.kb.clauses),
            "chain_min": lengths[0] if lengths else 0,
            "chain_median": lengths[len(lengths) // 2] if lengths else 0,
            "chain_max": lengths[-1] if lengths else 0,
        }

    def setup(self) -> None:
        self.kb = kb.merge([dsl.parse_rules(self.kb_paths[0].read_text(encoding="utf-8"))])
        self.facts = dsl.parse_facts(self.facts_path.read_text(encoding="utf-8"))

    def case(self, i: int, edges: int | None = None) -> dict:
        """Facts text, expected trace and a reference-shaped explanation
        for case ``i``, all built without the engine."""
        rng = random.Random(f"deep-{self.seed}-{i}")
        n = edges if edges is not None else self._length(i)
        tag = f"{rng.getrandbits(40):010x}"
        person = f"case{tag}"
        nodes = [f"v{tag}_{k}" for k in range(n + 1)]
        option = rng.choice(OPTIONS)
        start, target = nodes[0], nodes[-1]
        facts = [
            f"case_start({person}, {start}).",
            f"case_target({person}, {target}).",
            f"requested_option({person}, {option}).",
        ] + [f"edge({a}, {b})." for a, b in zip(nodes, nodes[1:])]
        rng.shuffle(facts)

        primary = f"has_right(right_to_access, chain, art1, {person}, {option})"
        inner = f"has_right(art1, {person}, right_to_access, {option})"
        tree = [(0, primary, ""), (1, inner, "")]
        tree += [(2, f"case_start({person}, {start})", " [FACT]")]
        tree += [(2, f"case_target({person}, {target})", " [FACT]")]
        for k in range(n):
            tree.append((2 + k, f"reach({nodes[k]}, {target})", ""))
            tree.append((3 + k, f"edge({nodes[k]}, {nodes[k + 1]})", " [FACT]"))
        tree += [(2, f"requested_option({person}, {option})", " [FACT]")]
        tree += [(2, f"not(access_barred({person}, {target}))", "")]
        aux = [
            (0, f"auxiliary_right(art5, art1, {person}, cost, state)", ""),
            (1, f"auxiliary_right(art5, {person}, cost, state)", ""),
            (2, f"case_start({person}, {start})", " [FACT]"),
        ]
        prop = [
            (0, f"right_property(art6, art1, {person}, form, written)", ""),
            (1, f"right_property(art6, {person}, form, written)", ""),
            (2, f"case_start({person}, {start})", " [FACT]"),
            (2, f"not(access_barred({person}, {start}))", ""),
        ]

        def lines(nodes_):
            return [f"{'    ' * d}{t}{s}" for d, t, s in nodes_]

        text = "\n".join(
            ["reach_chain - art1", "", "Article 1", f"Option: {option}", "",
             "Explanation:", ""] + lines(tree)
            + ["", "Auxiliaries:", "", "art5 - cost - state", "", "Article 5",
               "Explanation:", ""] + lines(aux)
            + ["", "Properties:", "", "art6 - form - written", "", "Article 6",
               "Explanation:", ""] + lines(prop)
        ) + "\n"

        terms = list(dict.fromkeys(t for _, t, _ in tree + aux + prop))
        why = "\n".join(f"   - Step {k} holds ({t})." for k, t in enumerate(terms, 1))
        explanation = (
            f"Summary: Article 1 gives you a right to access, reached through "
            f"{n} linked steps.\n\n"
            "What Rights do You Have:\n"
            "1. Right to access.\n2. The state covers the cost.\n"
            "3. Access in written form.\n\n"
            "Why do You Have Them:\n"
            f"1. You have these rights because:\n{why}\n"
        )
        return {
            "facts": "\n".join(facts) + "\n",
            "person": person,
            "edges": n,
            "trace": text,
            "explanation": explanation,
            "conclusion": primary,
        }

    def _length(self, i: int) -> int:
        # Every block of consecutive ops holds each chain length once, in
        # a seeded order, so the mix of lengths is the same for every seed.
        lengths = list(range(self.MIN_EDGES, self.MAX_EDGES + 1))
        block, position = divmod(i, len(lengths))
        random.Random(f"deep-{self.seed}-block-{block}").shuffle(lengths)
        return lengths[position]

    def next_input(self, i: int) -> dict:
        case = self.case(i)
        self.lengths.append(case["edges"])
        return case

    def run(self, case: dict):
        facts = dsl.parse_facts(case["facts"])
        bundles = engine.derive_rights(case["person"], "reach_chain", self.kb, facts)
        docs = [trace.render_trace(b, self.kb) for b in bundles]
        parsed = [trace.parse_trace(d.raw_text) for d in docs]
        prompts = [chain.build_translation_prompt(d) for d in parsed]
        reports = [evaluation.evaluate(case["explanation"], d) for d in parsed]
        return docs, parsed, prompts, reports

    def check(self, i: int, case: dict, out) -> str | None:
        docs, parsed, prompts, reports = out
        if [d.raw_text for d in docs] != [case["trace"]]:
            return f"case {i}: trace differs from the expected proof"
        if parsed[0].raw_text != docs[0].raw_text or parsed[0].bundle != docs[0].bundle:
            return f"case {i}: trace does not round-trip"
        if prompts[0] != f"{self.template}\n\n```\n{case['trace']}```\n":
            return f"case {i}: translation prompt differs"
        report = reports[0]
        verdict = (
            report.form.passed,
            report.completeness.coverage,
            report.groundedness.hallucinated_terms,
        )
        if verdict != (True, 1.0, ()):
            return f"case {i}: verdict {verdict}"
        return None

    def finish(self):
        # The bottom-up oracle is too slow for the long chains; it checks
        # one 10-edge case, and every op is checked against its expected
        # proof, built without the engine.
        case = self.case(-2, edges=self.MIN_EDGES)
        facts = dsl.parse_facts(case["facts"])
        model = engine.ground_oracle(self.kb, facts)
        bundles = engine.derive_rights(case["person"], "reach_chain", self.kb, facts)
        if _conclusions(bundles) != _oracle_conclusions(model, case["person"]):
            return 1, ["10-edge case: conclusions differ from the oracle"]
        return 0, []


WORKLOADS = {w.name: w for w in (Paper, Cohort, Deep)}
