"""Locality-based module extraction.

A module for a seed signature Σ is the fixpoint of: move any axiom that is
not local w.r.t. Σ ∪ Sig(M) from the ontology into M, until a full pass
changes nothing. The result is independent of the order in which axioms
are examined. Nested extraction alternates two flavors once; star
extraction repeats the nested step until the module stops shrinking.

The extractor works in rounds: each round moves the axioms not local
w.r.t. one signature into M, and then grows the signature once by their
names. A verdict depends on the signature only through the names it
shares with the axiom, so an axiom that shares no name with Σ has its
verdict w.r.t. the empty signature. A semantic round therefore checks only
candidates: in the first round, the axioms not known to be local w.r.t. ∅
(`Ontology.nonlocal_at_empty`, found by the first extraction over the
whole ontology that needs them) and those that mention a name of Σ
(`_Checker.candidates`, which the harness's T1a test uses too); later,
those outside M that mention a name new in the round before. A syntactic
round is one wave of counter propagation over the ontology's compiled
`syntactic.Circuit`: the names new to the signature fire, each gate counts
down as its inputs fire, and an axiom whose root fires joins M; the axioms
non-local w.r.t. ∅ join in the first round. Locality is anti-monotone in
Σ, so the fixpoint does not depend on when the signature grows, and the
result equals that of the textbook loop, which rescans the axioms and
grows the signature after every added axiom (`naive=True` runs it for
differential testing).

All loops work on positions of the input ontology: the steps of a nested
or star extraction narrow the positions, not the ontology, and a wave
counts down only the gates of axioms at those positions. So the axiom
signatures, the name index, the circuits, the semantic verdict memo
(`semantic.verdict_in`) and the sets for ∅ are shared by all steps and by
every extraction over one instance. Only the module that is returned
becomes an `Ontology`.
"""

from __future__ import annotations

import time
from collections.abc import Collection
from dataclasses import dataclass
from itertools import chain

from .model import (
    EMPTY_SIGNATURE,
    Axiom,
    LocalityFlavor,
    Ontology,
    Signature,
)
from .semantic import Locality, verdict_in
from .syntactic import Circuit, compile_circuit, is_syntactically_local
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
    tallied in `unknown_verdicts`). `positions` are the ascending
    positions of the module's axioms in the input ontology. For a plain
    extraction `rounds` counts the rounds that added axioms (passes over
    the whole ontology with `naive=True`). For a semantic flavor, and with
    `naive=True`, `locality_checks` counts every check made, one per
    pending axiom per round, plus the checks against the empty signature
    when this extraction was the first over the instance to need them; for
    a syntactic flavor it counts the counter updates of the propagation,
    one per gate input that fired. A nested extraction sums both over its
    two passes; a star extraction counts nested iterations in `rounds` and
    sums the checks of all of them.
    """

    module: Ontology
    positions: tuple[int, ...]
    seed_signature: Signature
    extended_signature: Signature
    flavor: LocalityFlavor | FlavorPair
    rounds: int
    locality_checks: int
    wall_time: float
    unknown_verdicts: int


class _Checker:
    """Locality test of the axioms of one ontology, by position, with
    check/unknown counters. Semantic verdicts go through the ontology's
    memo (`semantic.verdict_in`); syntactic extraction runs over the
    ontology's `Circuit`."""

    def __init__(
        self,
        o: Ontology,
        flavor: LocalityFlavor,
        refined: bool = False,
        budget: Budget | None = None,
    ):
        self.o = o
        self.axioms = o.axioms
        self.flavor = flavor
        self.syntactic = flavor.is_syntactic
        self.refined = refined and self.syntactic
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

    def circuit(self) -> Circuit:
        """The ontology's circuit for this syntactic test, kept once built."""
        key = (self.flavor, self.refined)
        found = self.o.circuits.get(key)
        if found is None:
            found = self.o.circuits[key] = compile_circuit(self.axioms, self.flavor, self.refined)
        return found

    def nonlocal_at_empty(self, scope: Collection[int]) -> Collection[int]:
        """Positions of the axioms not known to be local w.r.t. the empty
        signature: the circuit's `always`, or, semantically, kept by the
        ontology once complete. Finding them checks every axiom once, and
        those checks count; until they are known, an extraction over fewer
        positions than the ontology has (a step of a nested or star
        extraction) gets all of `scope` instead. An UNKNOWN leaves its axiom
        in the set, to be checked again against the seed, and is not
        tallied here."""
        if self.syntactic:
            return self.circuit().always
        found = self.o.nonlocal_at_empty.get(self.flavor)
        if found is None:
            if len(scope) < len(self.axioms):
                return scope
            unknowns = self.unknowns
            found = tuple(
                i for i in range(len(self.axioms)) if not self.is_local(i, EMPTY_SIGNATURE)
            )
            self.unknowns = unknowns
            self.o.nonlocal_at_empty[self.flavor] = found
        return found

    def candidates(self, scope: Collection[int], sig: Signature) -> list[int]:
        """Ascending positions in `scope` that may be non-local w.r.t.
        `sig`: those not known to be local w.r.t. ∅ and those that mention
        a name of `sig`. Any other axiom has its verdict w.r.t. ∅: local."""
        index = self.o.name_index
        seeded = chain(
            self.nonlocal_at_empty(scope),
            *(index.get(name, ()) for name in sig.concept_names | sig.role_names),
        )
        return sorted({i for i in seeded if i in scope})


def _extract(
    c: _Checker,
    scope: Collection[int],
    sig: Signature,
    naive: bool,
    trace: list | None,
) -> tuple[dict[int, None], Signature, int]:
    """The module for `sig` of the axioms of `c.o` at `scope`, ascending
    positions with constant-time membership (a `range`, or a dict used as
    an ordered set). Returns the module's positions, ascending, as such a
    dict, its extended signature and the number of rounds that added
    axioms."""
    o = c.o
    sigs = o.axiom_signatures
    module: set[int] = set()
    working = sig
    rounds = 0

    if naive:
        while True:
            added: list[int] = []
            for i in scope:
                if i not in module and not c.is_local(i, working):
                    module.add(i)
                    working = working | sigs[i]
                    added.append(i)
            if not added:
                break
            rounds += 1
            if trace is not None:
                trace.append((rounds, [o.axioms[i] for i in added]))
    else:
        if c.syntactic:
            circuit = c.circuit()
            need = list(circuit.need)
            added = [i for i in circuit.always if i in scope]
        else:
            index = o.name_index
            pending = c.candidates(scope, sig)
        fresh = (sig.concept_names, sig.role_names)
        while True:
            if c.syntactic:
                # one wave: the names new in the round before fire
                fired, updates = circuit.fire(need, *fresh, scope)
                added = sorted(added + fired)
                c.checks += updates
            else:
                added = [i for i in pending if not c.is_local(i, working)]
            if not added:
                break
            rounds += 1
            if trace is not None:
                trace.append((rounds, [o.axioms[i] for i in added]))
            module.update(added)
            gained = Signature.union(sigs[i] for i in added)
            fresh = (
                gained.concept_names - working.concept_names,
                gained.role_names - working.role_names,
            )
            working = working | gained
            added = []
            if not c.syntactic:
                names = chain(*fresh)
                pending = sorted({j for n in names for j in index[n] if j in scope} - module)

    return dict.fromkeys(sorted(module)), working, rounds


def _nested(
    checkers: list[_Checker],
    scope: Collection[int],
    sig: Signature,
    naive: bool,
    trace: list | None,
) -> tuple[dict[int, None], Signature, int]:
    """One nested step over `scope`: `_extract` with the second checker,
    then with the first over what the second kept."""
    first, second = checkers
    inner, _, inner_rounds = _extract(second, scope, sig, naive, trace)
    outer, extended, outer_rounds = _extract(first, inner, sig, naive, trace)
    return outer, extended, inner_rounds + outer_rounds


def _result(
    o: Ontology,
    module: Collection[int],
    sig: Signature,
    extended: Signature,
    flavor: LocalityFlavor | FlavorPair,
    rounds: int,
    checkers: list[_Checker],
    started: float,
) -> ModuleResult:
    positions = tuple(module)
    return ModuleResult(
        module=o.restrict(positions),
        positions=positions,
        seed_signature=sig,
        extended_signature=extended,
        flavor=flavor,
        rounds=rounds,
        locality_checks=sum(c.checks for c in checkers),
        wall_time=time.perf_counter() - started,
        unknown_verdicts=sum(c.unknowns for c in checkers),
    )


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
    module, extended, rounds = _extract(checker, range(len(o)), sig, naive, trace)
    return _result(o, module, sig, extended, flavor, rounds, [checker], started)


def extract_nested(
    o: Ontology,
    sig: Signature,
    pair: FlavorPair = SYN_STAR,
    **options,
) -> ModuleResult:
    """Nested extraction: inner pass with the second flavor of `pair`,
    outer pass with the first over the inner module, both against the same
    seed."""
    started = time.perf_counter()
    naive, trace = options.pop("naive", False), options.pop("trace", None)
    checkers = [_Checker(o, flavor, **options) for flavor in pair]
    module, extended, rounds = _nested(checkers, range(len(o)), sig, naive, trace)
    return _result(o, module, sig, extended, pair, rounds, checkers, started)


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
    naive, trace = options.pop("naive", False), options.pop("trace", None)
    checkers = [_Checker(o, flavor, **options) for flavor in pair]
    scope: Collection[int] = range(len(o))
    rounds = 0
    while True:
        module, extended, _ = _nested(checkers, scope, sig, naive, trace)
        if len(module) == len(scope):
            break
        scope = module
        rounds += 1
    return _result(o, module, sig, extended, pair, rounds, checkers, started)


def genuine_modules(
    o: Ontology,
    flavor: LocalityFlavor,
    **options,
) -> list[tuple[Axiom, ModuleResult]]:
    """Modules seeded by single-axiom signatures, deduplicated by module
    content. At most one entry per distinct module survives (keyed by the
    first axiom, in ontology order, that produces it); the result is
    therefore at most linear in the ontology."""
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[Axiom, ModuleResult]] = []
    for axiom, axiom_sig in zip(o.axioms, o.axiom_signatures):
        result = extract_module(o, axiom_sig, flavor, **options)
        if result.positions in seen:
            continue
        seen.add(result.positions)
        out.append((axiom, result))
    return out
