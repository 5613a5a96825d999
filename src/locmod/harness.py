"""Comparison experiment between syntactic and semantic bottom-locality.

Three tests, each over one ontology:

* T1a — for sampled seed signatures, which axioms are semantically local
  but not syntactically local?
* T1b — for sampled seed signatures, how do the extracted syntactic and
  semantic modules differ?
* T2 — same module comparison, seeded with each axiom's own signature.

Seed signatures include each concept/role name independently with a fixed
probability (default 1/2); ontologies with at most nine entities are small
enough that all 2^m signatures are enumerated instead. Binned sampling
spreads target sizes evenly over sub-ranges of 0..m, which the plain
binomial draw never does.

Each test supplies a producer: it yields the case's syntactically
non-local positions, then its semantically non-local ones with the UNKNOWN
count. One `_case` times the two phases, builds the record of a case where
the two sets differ, and aborts the run with `InvariantViolation` when the
semantic set is not inside the syntactic one: the whole approach rests on
that containment. The UNKNOWN verdicts of every case are counted.

A T1a case checks, for both notions, only the axioms the seed can reach:
those syntactically ⊥-non-local w.r.t. ∅ (the `always` of the ontology's
⊥ circuit) and those that mention a seed name. Any other axiom has
its verdict w.r.t. ∅, syntactically and so semantically LOCAL, so this is
exact. Each notion asks the ontology's verdict memo (`semantic.verdicts_in`)
about every candidate in one call, even a syntactically local one, so the
direction check sees each of them; `syn_time` also covers building the candidates.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from enum import Enum
from statistics import mean

from .extractor import circuit, extract_module
from .model import (
    And,
    AtLeast,
    Axiom,
    ConceptName,
    EquivalentClasses,
    Exists,
    ForAll,
    LocalityFlavor,
    Ontology,
    Signature,
    is_self_inverse,
)
from .semantic import verdicts_in
from .tableau import Budget

__all__ = [
    "SamplingConfig",
    "CulpritType",
    "DifferenceRecord",
    "Comparison",
    "InvariantViolation",
    "sample_signatures",
    "classify_culprit",
    "run_comparison",
    "render_report",
    "MODES",
]

_EXHAUSTIVE_LIMIT = 9  # up to here, enumerate all 2^m signatures

# the (syntactic, semantic) pair of locality notions that every test compares
_PAIR = (LocalityFlavor.SYN_BOT, LocalityFlavor.SEM_BOT)


class InvariantViolation(RuntimeError):
    """A syntactically local axiom came back semantically non-local."""


@dataclass(frozen=True)
class SamplingConfig:
    sample_count: int = 400
    inclusion_probability: float = 0.5
    rng_seed: int = 0
    binned: bool = False
    bin_count: int = 10

    def __post_init__(self):
        if not 0 < self.inclusion_probability < 1:
            raise ValueError("inclusion probability must be strictly between 0 and 1")
        if self.sample_count < 1:
            raise ValueError("sample count must be positive")
        if self.bin_count < 1:
            raise ValueError("bin count must be positive")


class CulpritType(Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"
    NONE = "none"


@dataclass(frozen=True)
class DifferenceRecord:
    """One case where syntactic and semantic bottom-locality disagree."""

    ontology: str
    axiom_count: int
    test: str
    case_id: str
    seed_signature: Signature
    syntactic_size: int
    semantic_size: int
    difference_axioms: tuple[str, ...]
    relative_difference: float
    syn_time: float
    sem_time: float
    culprits: tuple[tuple[str, CulpritType], ...]
    unknown_verdicts: int = 0


class Comparison(list):
    """The difference records of one test, in case order, and the UNKNOWN
    verdicts met by all its cases, those without a record included."""

    def __init__(self, records=(), unknown_verdicts: int = 0):
        super().__init__(records)
        self.unknown_verdicts = unknown_verdicts


# ---------------------------------------------------------------------------
# Seed signature sampling
# ---------------------------------------------------------------------------

def _entities(o: Ontology) -> list[tuple[str, str]]:
    """The ontology's concept and role names as (name, kind) pairs."""
    sig = o.names
    return [(n, "C") for n in sorted(sig.concept_names)] + [
        (n, "R") for n in sorted(sig.role_names)
    ]


def sample_signatures(o: Ontology, cfg: SamplingConfig) -> list[Signature]:
    """Draw seed signatures over the ontology's concept and role names.

    Deterministic in `cfg.rng_seed`. At most nine entities: all subsets,
    in bitmask order, ignoring the sample count. Otherwise `sample_count`
    draws, Bernoulli(p) per entity, or uniform-size draws cycled through
    the bins when `binned` is set.
    """
    entities = _entities(o)
    m = len(entities)
    if m <= _EXHAUSTIVE_LIMIT:
        return [
            Signature.of_kinds(dict(entities[i] for i in range(m) if mask >> i & 1))
            for mask in range(1 << m)
        ]
    rng = random.Random(cfg.rng_seed)
    out = []
    if cfg.binned:
        n = cfg.bin_count
        for i in range(cfg.sample_count):
            k = i % n  # bin k spans sizes round(k*m/n) to round((k+1)*m/n)
            size = rng.randint(round(k * m / n), min(round((k + 1) * m / n), m))
            out.append(Signature.of_kinds(dict(rng.sample(entities, size))))
    else:
        p = cfg.inclusion_probability
        for _ in range(cfg.sample_count):
            out.append(Signature.of_kinds(dict(e for e in entities if rng.random() < p)))
    return out


# ---------------------------------------------------------------------------
# Culprit patterns
# ---------------------------------------------------------------------------

def classify_culprit(a: Axiom) -> CulpritType:
    """Match the two axiom shapes known to separate the two notions:
    an inverse-role axiom that is a tautology (type 1), and a concept-name
    definition whose conjuncts put both a universal and an existential or
    min-cardinality restriction on one role (type 2)."""
    if is_self_inverse(a):
        return CulpritType.TYPE1
    if isinstance(a, EquivalentClasses):
        for name_side, defn in ((a.left, a.right), (a.right, a.left)):
            if not isinstance(name_side, ConceptName) or not isinstance(defn, And):
                continue
            universal = set()
            existential = set()
            for part in defn.args:
                if isinstance(part, ForAll):
                    universal.add(part.role)
                elif isinstance(part, Exists):
                    existential.add(part.role)
                elif isinstance(part, AtLeast) and part.n >= 1:
                    existential.add(part.role)
            if universal & existential:
                return CulpritType.TYPE2
    return CulpritType.NONE


# ---------------------------------------------------------------------------
# The three tests
# ---------------------------------------------------------------------------

def _axiom_id(i: int) -> str:
    return f"ax{i}"


def _t1a(o, sig, budget):
    """T1a's phases: the candidates not local for the syntactic, then for the
    semantic notion. One circuit serves both, so one candidate list does too:
    its `always` and the axioms that mention a seed name."""
    syn, sem = _PAIR
    seeded = (o.name_index.get(n, ()) for n in sig.concept_names | sig.role_names)
    candidates = sorted(set(circuit(o, syn).always).union(*seeded))
    syn_nonlocal = set(verdicts_in(o, candidates, sig, syn)[0])
    yield syn_nonlocal
    found, unknown = verdicts_in(o, candidates, sig, sem, budget)
    # an UNKNOWN is non-local, like the extractor's; but a syntactically
    # local axiom is semantically local, so it is only counted
    yield {i for i in found if i in syn_nonlocal or i not in unknown}, len(unknown)


def _modules(o, sig, budget):
    """T1b's and T2's phases: the pair's syntactic, then semantic module."""
    syn, sem = _PAIR
    yield set(extract_module(o, sig, syn).positions)
    result = extract_module(o, sig, sem, budget=budget)
    yield set(result.positions), result.unknown_verdicts


_TESTS = {"t1a": ("T1a", _t1a), "t1b": ("T1b", _modules), "t2": ("T2", _modules)}
MODES = tuple(_TESTS)


def _case(o, test, produce, sig, case_id, budget, timed):
    """Run one case: time the two phases of `produce`, check that the
    semantic set lies inside the syntactic one, and return the case's
    record, or None when the two are equal, with its UNKNOWN count."""
    phases = produce(o, sig, budget)
    started = time.perf_counter()
    syn = next(phases)
    split = time.perf_counter()
    sem, unknowns = next(phases)
    ended = time.perf_counter()
    if not sem <= syn:
        i = min(sem - syn)
        raise InvariantViolation(
            f"{o.name}: {test} case {case_id}: axiom {_axiom_id(i)} is semantically but "
            f"not syntactically non-local w.r.t. {sig}: {o.axioms[i]}"
        )
    diff = sorted(syn - sem)
    if not diff:
        return None, unknowns
    syn_time, sem_time = (split - started, ended - split) if timed else (0.0, 0.0)
    culprits = []
    for i in diff:
        kind = classify_culprit(o.axioms[i])
        if kind is not CulpritType.NONE:
            culprits.append((_axiom_id(i), kind))
    record = DifferenceRecord(
        ontology=o.name,
        axiom_count=len(o.axioms),
        test=test,
        case_id=case_id,
        seed_signature=sig,
        syntactic_size=len(syn),
        semantic_size=len(sem),
        difference_axioms=tuple(_axiom_id(i) for i in diff),
        relative_difference=len(diff) / len(syn),
        syn_time=syn_time,
        sem_time=sem_time,
        culprits=tuple(culprits),
        unknown_verdicts=unknowns,
    )
    return record, unknowns


def run_comparison(
    o: Ontology,
    mode: str,
    cfg: SamplingConfig,
    *,
    budget: Budget | None = None,
    jobs: int = 1,
    measure_timings: bool = False,
) -> Comparison:
    """Run one of the tests over `o`, returning records for the cases with
    differences, in case order, and the UNKNOWN verdicts of all cases. The
    cases run one after another: `jobs` must be 1.

    With `measure_timings` set, each case carries wall-clock phase times
    and one warm-up case runs untimed first (for T1a it also finds the
    ontology's axioms not local w.r.t. ∅); otherwise times are zero so
    repeated runs render byte-identical reports.
    """
    mode = mode.lower()
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs!r}")

    if mode == "t2":
        cases = [(s, _axiom_id(i)) for i, s in enumerate(o.axiom_signatures)]
    else:
        cases = [(sig, f"s{i}") for i, sig in enumerate(sample_signatures(o, cfg))]
    test, produce = _TESTS[mode]
    if measure_timings and cases:
        _case(o, test, produce, *cases[0], budget, False)  # warm-up, excluded from the records

    results = [_case(o, test, produce, *c, budget, measure_timings) for c in cases]
    return Comparison(
        (r for r, _ in results if r is not None), sum(n for _, n in results)
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

CSV_HEADER = (
    "ontology,axioms,test,case_id,seed_size,syn_size,sem_size,"
    "diff_size,diff_rel,syn_ms,sem_ms,culprits"
)

_MS_FLOOR = 0.001  # below one millisecond no reliable ratio statement is possible


def render_report(records: list[DifferenceRecord], format: str = "markdown") -> str:
    """Render difference records as CSV (one row per case) or as a
    markdown summary table (one row per ontology and test)."""
    if format == "csv":
        return _render_csv(records)
    if format == "markdown":
        return _render_markdown(records)
    raise ValueError(f"unknown format {format!r}")


def _render_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        culprits = ";".join(f"{aid}:{kind.value}" for aid, kind in r.culprits)
        lines.append(
            ",".join(
                [
                    _csv_field(r.ontology),
                    str(r.axiom_count),
                    r.test,
                    r.case_id,
                    str(r.seed_signature.term_count),
                    str(r.syntactic_size),
                    str(r.semantic_size),
                    str(len(r.difference_axioms)),
                    f"{r.relative_difference:.4f}",
                    str(int(r.syn_time * 1000)),
                    str(int(r.sem_time * 1000)),
                    culprits,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _csv_field(text: str) -> str:
    """`text` as one CSV field: quoted, with inner quotes doubled, if it
    holds a comma, a quote or a line break (RFC 4180)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _md_cell(text: str) -> str:
    """`text` as one markdown table cell: `|` escaped, line breaks as spaces."""
    return " ".join(text.replace("|", "\\|").splitlines())


_MD_HEADER = (
    "| ontology | #axioms | test | #differences | diff. sizes (axioms) "
    "| diff. sizes (rel.) | time ratio avg. | culprit type and frequency |"
)
_MD_RULE = "|---|---|---|---|---|---|---|---|"


_CULPRIT_LABEL = {CulpritType.TYPE1: "1", CulpritType.TYPE2: "2"}


def _render_markdown(records) -> str:
    lines = [_MD_HEADER, _MD_RULE]
    groups: dict[tuple[str, str], list[DifferenceRecord]] = {}
    onto_order: list[str] = []
    for r in records:
        if r.ontology not in onto_order:
            onto_order.append(r.ontology)
        groups.setdefault((r.ontology, r.test), []).append(r)

    for key in sorted(groups, key=lambda k: (onto_order.index(k[0]), k[1])):
        rs = groups[key]
        sizes = [len(r.difference_axioms) for r in rs]
        rels = [r.relative_difference for r in rs]
        if mean(r.syn_time for r in rs) < _MS_FLOOR:
            ratio = "—"
        else:
            ratio = f"{mean(r.sem_time / r.syn_time for r in rs):.2f}"
        culprit_axioms: dict[CulpritType, set[str]] = {}
        for r in rs:
            for aid, kind in r.culprits:
                culprit_axioms.setdefault(kind, set()).add(aid)
        culprits = "; ".join(
            f"{_CULPRIT_LABEL[kind]} ({len(ids)}×)"
            for kind, ids in sorted(culprit_axioms.items(), key=lambda kv: kv[0].value)
        )
        lines.append(
            f"| {_md_cell(key[0])} | {rs[0].axiom_count} | {key[1]} | {len(rs)} "
            f"| {min(sizes)}–{max(sizes)} "
            f"| {round(min(rels) * 100)}–{round(max(rels) * 100)}% "
            f"| {ratio} | {culprits} |"
        )
    return "\n".join(lines) + "\n"
