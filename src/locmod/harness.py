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

A T1a case checks, per notion, only the axioms the seed can reach, as an
extraction's first round does: those not known to be local w.r.t. ∅
(`Ontology.nonlocal_at_empty`) and those that mention a seed name. Any
other axiom has its verdict w.r.t. ∅, a definite LOCAL, so this is exact;
`syn_time` and `sem_time` time the checks of these candidates.

A difference record is produced only for cases where the two notions
disagree; the direction is checked on every case and a syntactically-local
axiom that is semantically non-local aborts the run (that would break the
containment the whole approach rests on).
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from statistics import mean

from .extractor import _Checker, extract_module
from .model import (
    And,
    AtLeast,
    Axiom,
    ConceptName,
    EquivalentClasses,
    Exists,
    ForAll,
    Inverse,
    InverseRoles,
    LocalityFlavor,
    Ontology,
    Signature,
    normalize_role,
)
from .semantic import Locality, verdict_in
from .syntactic import is_syntactically_local
from .tableau import Budget

__all__ = [
    "SamplingConfig",
    "CulpritType",
    "DifferenceRecord",
    "InvariantViolation",
    "sample_signatures",
    "classify_culprit",
    "run_comparison",
    "render_report",
    "MODES",
]

MODES = ("t1a", "t1b", "t2")

_EXHAUSTIVE_LIMIT = 9  # up to here, enumerate all 2^m signatures


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


# ---------------------------------------------------------------------------
# Seed signature sampling
# ---------------------------------------------------------------------------

def _entities(o: Ontology) -> list[tuple[str, str]]:
    sig = o.names
    return [("C", n) for n in sorted(sig.concept_names)] + [
        ("R", n) for n in sorted(sig.role_names)
    ]


def _make_signature(chosen: list[tuple[str, str]]) -> Signature:
    return Signature(
        frozenset(n for k, n in chosen if k == "C"),
        frozenset(n for k, n in chosen if k == "R"),
    )


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
            _make_signature([entities[i] for i in range(m) if mask >> i & 1])
            for mask in range(1 << m)
        ]
    rng = random.Random(cfg.rng_seed)
    out = []
    if cfg.binned:
        edges = [round(k * m / cfg.bin_count) for k in range(cfg.bin_count + 1)]
        for i in range(cfg.sample_count):
            k = i % cfg.bin_count
            lo, hi = edges[k], min(edges[k + 1], m)
            size = rng.randint(lo, hi)
            out.append(_make_signature(rng.sample(entities, size)))
    else:
        p = cfg.inclusion_probability
        for _ in range(cfg.sample_count):
            out.append(_make_signature([e for e in entities if rng.random() < p]))
    return out


# ---------------------------------------------------------------------------
# Culprit patterns
# ---------------------------------------------------------------------------

def classify_culprit(a: Axiom) -> CulpritType:
    """Match the two axiom shapes known to separate the two notions:
    an inverse-role axiom that is a tautology (type 1), and a concept-name
    definition whose conjuncts put both a universal and an existential or
    min-cardinality restriction on one role (type 2)."""
    if isinstance(a, InverseRoles):
        if normalize_role(Inverse(a.left)) == normalize_role(a.right):
            return CulpritType.TYPE1
        return CulpritType.NONE
    if isinstance(a, EquivalentClasses):
        for name_side, defn in ((a.left, a.right), (a.right, a.left)):
            if not isinstance(name_side, ConceptName) or not isinstance(defn, And):
                continue
            universal = set()
            existential = set()
            for part in defn.args:
                if isinstance(part, ForAll):
                    universal.add(normalize_role(part.role))
                elif isinstance(part, Exists):
                    existential.add(normalize_role(part.role))
                elif isinstance(part, AtLeast) and part.n >= 1:
                    existential.add(normalize_role(part.role))
            if universal & existential:
                return CulpritType.TYPE2
    return CulpritType.NONE


# ---------------------------------------------------------------------------
# The three tests
# ---------------------------------------------------------------------------

def _axiom_id(i: int) -> str:
    return f"ax{i}"


def _culprits_of(axioms, ids) -> tuple[tuple[str, CulpritType], ...]:
    out = []
    for i in ids:
        kind = classify_culprit(axioms[i])
        if kind is not CulpritType.NONE:
            out.append((_axiom_id(i), kind))
    return tuple(out)


def _t1a_case(o, axioms, sig, case_id, budget, timed):
    everything = range(len(axioms))
    syn_nonlocal = set()
    started = time.perf_counter() if timed else 0.0
    for i in _Checker(o, LocalityFlavor.SYN_BOT).candidates(everything, sig):
        if not is_syntactically_local(axioms[i], sig, LocalityFlavor.SYN_BOT):
            syn_nonlocal.add(i)
    syn_time = time.perf_counter() - started if timed else 0.0

    sem_nonlocal = set()
    unknowns = 0
    started = time.perf_counter() if timed else 0.0
    for i in _Checker(o, LocalityFlavor.SEM_BOT, budget=budget).candidates(everything, sig):
        verdict = verdict_in(o, i, sig, LocalityFlavor.SEM_BOT, budget)
        if verdict.status is Locality.NON_LOCAL:
            sem_nonlocal.add(i)
            if i not in syn_nonlocal:
                raise InvariantViolation(
                    f"{o.name}: axiom {_axiom_id(i)} is syntactically local but "
                    f"semantically non-local w.r.t. {sig}: {axioms[i]}"
                )
        elif verdict.status is Locality.UNKNOWN:
            unknowns += 1
            sem_nonlocal.add(i)  # conservative, like the extractor
    sem_time = time.perf_counter() - started if timed else 0.0

    diff = sorted(syn_nonlocal - sem_nonlocal)
    if not diff:
        return None
    return DifferenceRecord(
        ontology=o.name,
        axiom_count=len(axioms),
        test="T1a",
        case_id=case_id,
        seed_signature=sig,
        syntactic_size=len(syn_nonlocal),
        semantic_size=len(sem_nonlocal),
        difference_axioms=tuple(_axiom_id(i) for i in diff),
        relative_difference=len(diff) / len(syn_nonlocal) if syn_nonlocal else 0.0,
        syn_time=syn_time,
        sem_time=sem_time,
        culprits=_culprits_of(axioms, diff),
        unknown_verdicts=unknowns,
    )


def _module_case(o, axioms, sig, case_id, test, budget, timed):
    started = time.perf_counter() if timed else 0.0
    syn = extract_module(o, sig, LocalityFlavor.SYN_BOT)
    syn_time = time.perf_counter() - started if timed else 0.0

    started = time.perf_counter() if timed else 0.0
    sem = extract_module(o, sig, LocalityFlavor.SEM_BOT, budget=budget)
    sem_time = time.perf_counter() - started if timed else 0.0

    syn_set = set(syn.positions)
    sem_set = set(sem.positions)
    if not sem_set <= syn_set:
        extra = axioms[min(sem_set - syn_set)]
        raise InvariantViolation(
            f"{o.name}: semantic module exceeds syntactic module w.r.t. {sig}; "
            f"first extra axiom: {extra}"
        )
    diff = sorted(syn_set - sem_set)
    if not diff:
        return None
    return DifferenceRecord(
        ontology=o.name,
        axiom_count=len(axioms),
        test=test,
        case_id=case_id,
        seed_signature=sig,
        syntactic_size=len(syn_set),
        semantic_size=len(sem_set),
        difference_axioms=tuple(_axiom_id(i) for i in diff),
        relative_difference=len(diff) / len(syn_set) if syn_set else 0.0,
        syn_time=syn_time,
        sem_time=sem_time,
        culprits=_culprits_of(axioms, diff),
        unknown_verdicts=sem.unknown_verdicts,
    )


def run_comparison(
    o: Ontology,
    mode: str,
    cfg: SamplingConfig,
    *,
    budget: Budget | None = None,
    jobs: int = 1,
    measure_timings: bool = False,
) -> list[DifferenceRecord]:
    """Run one of the tests over `o`, returning records for the cases with
    differences, in case order.

    With `measure_timings` set, each case carries wall-clock phase times
    and one warm-up case runs untimed first (for T1a it also finds the
    ontology's axioms not local w.r.t. ∅); otherwise times are zero so
    repeated runs render byte-identical reports.
    """
    mode = mode.lower()
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    axioms = o.axioms

    if mode == "t1a":
        cases = [
            (sig, f"s{i}") for i, sig in enumerate(sample_signatures(o, cfg))
        ]

        def run_case(case):
            sig, case_id = case
            return _t1a_case(o, axioms, sig, case_id, budget, measure_timings)

    elif mode == "t1b":
        cases = [
            (sig, f"s{i}") for i, sig in enumerate(sample_signatures(o, cfg))
        ]

        def run_case(case):
            sig, case_id = case
            return _module_case(o, axioms, sig, case_id, "T1b", budget, measure_timings)

    else:
        cases = [(s, _axiom_id(i)) for i, s in enumerate(o.axiom_signatures)]

        def run_case(case):
            sig, case_id = case
            return _module_case(o, axioms, sig, case_id, "T2", budget, measure_timings)

    if measure_timings and cases:
        run_case(cases[0])  # warm-up pass, excluded from the records

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_case, cases))
    else:
        results = [run_case(c) for c in cases]
    return [r for r in results if r is not None]


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
                    r.ontology,
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
            f"| {key[0]} | {rs[0].axiom_count} | {key[1]} | {len(rs)} "
            f"| {min(sizes)}–{max(sizes)} "
            f"| {round(min(rels) * 100)}–{round(max(rels) * 100)}% "
            f"| {ratio} | {culprits} |"
        )
    return "\n".join(lines) + "\n"
