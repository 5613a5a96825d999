"""Locality-based module extraction.

A module for a seed signature Σ is the fixpoint of: move any axiom that is
not local w.r.t. Σ ∪ Sig(M) from the ontology into M, until a full pass
changes nothing. The result is independent of the order in which axioms
are examined. Nested extraction alternates two flavors once; star
extraction repeats the nested step until the module stops shrinking.

The extractor works in rounds: each round checks the pending axioms against
one signature, moves the non-local ones into M, and then grows the signature
once by their names. The first round checks every axiom; a later round only
those outside M that mention a name new in the round before, since a verdict
depends only on the overlap between the signature and the axiom's own names.
Locality is anti-monotone in Σ, so the fixpoint does not depend on when the
signature grows, and the result equals that of the textbook loop, which
rescans the ontology and grows the signature after every added axiom
(`naive=True` runs it for differential testing).

Both loops check axioms by their index in the ontology. Semantic verdicts
are kept in the ontology's memo (`semantic.verdict_in`), so extractions over
one instance share them; the modules of a nested or star extraction are new
instances whose memos start empty.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .model import (
    Axiom,
    LocalityFlavor,
    Ontology,
    Signature,
    signature_of,
)
from .semantic import Locality, verdict_in
from .syntactic import is_syntactically_local
from .tableau import Budget

__all__ = [
    "ModuleResult",
    "extract_module",
    "extract_nested",
    "extract_star",
    "genuine_modules",
]

FlavorPair = tuple[LocalityFlavor, LocalityFlavor]

SYN_STAR: FlavorPair = (LocalityFlavor.SYN_TOP, LocalityFlavor.SYN_BOT)
SEM_STAR: FlavorPair = (LocalityFlavor.SEM_TOP, LocalityFlavor.SEM_BOT)


@dataclass(frozen=True)
class ModuleResult:
    """Outcome of one extraction.

    `extended_signature` is the seed joined with the signature of the
    module; every axiom left outside is local w.r.t. it (axioms whose
    semantic verdict was Unknown were pulled in conservatively and are
    tallied in `unknown_verdicts`). For a plain extraction `rounds` counts
    the rounds that added axioms (passes over the whole ontology with
    `naive=True`), and `locality_checks` counts every check made, one per
    pending axiom per round. A nested extraction sums both over its two
    passes; a star extraction counts nested iterations in `rounds` and sums
    the checks of all of them.
    """

    module: Ontology
    seed_signature: Signature
    extended_signature: Signature
    flavor: LocalityFlavor | FlavorPair
    rounds: int
    locality_checks: int
    wall_time: float
    unknown_verdicts: int


class _Checker:
    """Locality test of the axioms of one ontology, by index, with
    check/unknown counters. Semantic verdicts go through the ontology's
    memo (`semantic.verdict_in`)."""

    def __init__(
        self, o: Ontology, flavor: LocalityFlavor, refined: bool, budget: Budget | None
    ):
        self.o = o
        self.axioms = o.axioms
        self.flavor = flavor
        self.syntactic = flavor.is_syntactic
        self.refined = refined
        self.budget = budget
        self.checks = 0
        self.unknowns = 0

    def is_local(self, i: int, sig: Signature) -> bool:
        self.checks += 1
        if self.syntactic:
            return is_syntactically_local(self.axioms[i], sig, self.flavor, self.refined)
        verdict = verdict_in(self.o, i, sig, self.flavor, self.budget)
        if verdict.status is Locality.UNKNOWN:
            self.unknowns += 1
            return False
        return verdict.is_local


def extract_module(
    o: Ontology,
    sig: Signature,
    flavor: LocalityFlavor,
    *,
    refined: bool = False,
    budget: Budget | None = None,
    naive: bool = False,
    trace: list | None = None,
) -> ModuleResult:
    """Extract the locality-based module of `o` for the seed `sig`.

    With `trace` given, appends one `(round, added_axioms)` tuple per
    round that added axioms.
    """
    started = time.perf_counter()
    checker = _Checker(o, flavor, refined, budget)
    axioms = o.axioms
    in_module = [False] * len(axioms)
    working = sig
    rounds = 0

    if naive:
        changed = True
        while changed:
            changed = False
            added: list[int] = []
            for i, a in enumerate(axioms):
                if in_module[i]:
                    continue
                if not checker.is_local(i, working):
                    in_module[i] = True
                    working = working | signature_of(a)
                    added.append(i)
                    changed = True
            if added:
                rounds += 1
                if trace is not None:
                    trace.append((rounds, [axioms[i] for i in added]))
    else:
        sigs = o.axiom_signatures
        index = o.name_index
        pending = list(range(len(axioms)))
        while True:
            added = [i for i in pending if not checker.is_local(i, working)]
            if not added:
                break
            rounds += 1
            if trace is not None:
                trace.append((rounds, [axioms[i] for i in added]))
            for i in added:
                in_module[i] = True
            gained = Signature.union(sigs[i] for i in added)
            fresh = (gained.concept_names - working.concept_names) | (
                gained.role_names - working.role_names
            )
            working = working | gained
            pending = sorted({j for name in fresh for j in index[name] if not in_module[j]})

    module = Ontology(
        tuple(a for i, a in enumerate(axioms) if in_module[i]),
        name=o.name,
    )
    return ModuleResult(
        module=module,
        seed_signature=sig,
        extended_signature=working,
        flavor=flavor,
        rounds=rounds,
        locality_checks=checker.checks,
        wall_time=time.perf_counter() - started,
        unknown_verdicts=checker.unknowns,
    )


def extract_nested(
    o: Ontology,
    sig: Signature,
    pair: FlavorPair = SYN_STAR,
    **options,
) -> ModuleResult:
    """Nested extraction: inner pass with the second flavor of `pair`,
    outer pass with the first, both against the same seed."""
    first, second = pair
    started = time.perf_counter()
    inner = extract_module(o, sig, second, **options)
    outer = extract_module(inner.module, sig, first, **options)
    return ModuleResult(
        module=outer.module,
        seed_signature=sig,
        extended_signature=outer.extended_signature,
        flavor=pair,
        rounds=inner.rounds + outer.rounds,
        locality_checks=inner.locality_checks + outer.locality_checks,
        wall_time=time.perf_counter() - started,
        unknown_verdicts=inner.unknown_verdicts + outer.unknown_verdicts,
    )


def extract_star(
    o: Ontology,
    sig: Signature,
    pair: FlavorPair = SYN_STAR,
    **options,
) -> ModuleResult:
    """Iterate nested extraction from the full ontology until the module
    reaches a fixpoint. `rounds` is the smallest n with Mₙ = Mₙ₊₁; the
    chain strictly shrinks until then. The extended signature is that of
    the last nested step, which returned the fixpoint module."""
    started = time.perf_counter()
    checks = 0
    unknowns = 0
    rounds = 0
    current = o
    while True:
        step = extract_nested(current, sig, pair, **options)
        checks += step.locality_checks
        unknowns += step.unknown_verdicts
        if len(step.module) == len(current):
            break
        current = step.module
        rounds += 1
    return ModuleResult(
        module=current,
        seed_signature=sig,
        extended_signature=step.extended_signature,
        flavor=pair,
        rounds=rounds,
        locality_checks=checks,
        wall_time=time.perf_counter() - started,
        unknown_verdicts=unknowns,
    )


def genuine_modules(
    o: Ontology,
    flavor: LocalityFlavor,
    **options,
) -> list[tuple[Axiom, ModuleResult]]:
    """Modules seeded by single-axiom signatures, deduplicated by module
    content. At most one entry per distinct module survives (keyed by the
    first axiom, in ontology order, that produces it); the result is
    therefore at most linear in the ontology."""
    seen: dict[frozenset[Axiom], None] = {}
    out: list[tuple[Axiom, ModuleResult]] = []
    for axiom, axiom_sig in zip(o.axioms, o.axiom_signatures):
        result = extract_module(o, axiom_sig, flavor, **options)
        key = frozenset(result.module.axioms)
        if key in seen:
            continue
        seen[key] = None
        out.append((axiom, result))
    return out
