"""Loaders for the packaged fixtures: rule files for both legal sources,
the shared case facts, the golden trace files, and the reference model
outputs used by the offline demos and the test suite."""

from __future__ import annotations

from pathlib import Path

from .dsl import parse_facts, parse_rules
from .kb import CaseFacts, KnowledgeBase


_RESOURCES = Path(__file__).parent / "resources"


def resource_text(name: str) -> str:
    return (_RESOURCES / name).read_text(encoding="utf-8")


def resource_path(name: str) -> Path:
    return _RESOURCES / name


def eu_rules_text() -> str:
    return resource_text("directive_2010_64.rules")


def pl_rules_text() -> str:
    return resource_text("directive_2010_64_pl.rules")


def eu_kb() -> KnowledgeBase:
    return parse_rules(eu_rules_text())


def pl_kb() -> KnowledgeBase:
    return parse_rules(pl_rules_text())


def mario_facts_text() -> str:
    return resource_text("mario.facts")


def mario_facts() -> CaseFacts:
    return parse_facts(mario_facts_text())


def listing1_trace() -> str:
    """Golden trace for the EU source applied to the mario case."""
    return resource_text("listing1.trace")


def listing2_trace() -> str:
    """Golden trace for the Polish source applied to the mario case."""
    return resource_text("listing2.trace")


def translation_output_eu() -> str:
    """Reference model translation of the EU trace."""
    return resource_text("outputs/translation_eu.txt")


def translation_output_pl() -> str:
    """Reference model translation of the Polish trace."""
    return resource_text("outputs/translation_pl.txt")


def comparison_output() -> str:
    """Reference model comparison of the two translations."""
    return resource_text("outputs/comparison.txt")


def mock_chain_dir() -> Path:
    """Directory of ordered canned responses driving one full offline
    chain run (EU translation, Polish translation, comparison)."""
    return resource_path("mock_chain")
