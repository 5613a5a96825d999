from __future__ import annotations

from pathlib import Path

import pytest

from locmod import Ontology, parse_ontology

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# every well-formed bundled ontology, in a stable order
CORPUS_NAMES = ["koala.ofs", "inverse_loop.ofs", "taxonomy.ofs", "mixed.ofs"]


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / name


def load_fixture(name: str) -> Ontology:
    return parse_ontology(fixture_path(name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def koala() -> Ontology:
    return load_fixture("koala.ofs")


@pytest.fixture(scope="session")
def inverse_loop() -> Ontology:
    return load_fixture("inverse_loop.ofs")


@pytest.fixture(scope="session")
def taxonomy() -> Ontology:
    return load_fixture("taxonomy.ofs")


@pytest.fixture(scope="session")
def mixed() -> Ontology:
    return load_fixture("mixed.ofs")


@pytest.fixture(scope="session")
def corpus() -> list[Ontology]:
    return [load_fixture(n) for n in CORPUS_NAMES]


def nested_text(depth: int) -> str:
    """An ontology whose deepest form, the only `B` in the text, sits at
    `depth`, the Ontology block counting as depth 1. Complements and
    intersections alternate around it, a complement innermost, so `B` is
    also the first form read at that depth."""
    inner = "B"
    for k in range(depth - 3):
        inner = f"ObjectComplementOf({inner})" if k % 2 == 0 else f"ObjectIntersectionOf(C {inner})"
    return f"Ontology(t SubClassOf(A {inner}) SubClassOf(C A))"
