"""Locality-based module extraction.

A module for a seed signature Σ is the fixpoint of: move any axiom that is
not local w.r.t. Σ ∪ Sig(M) from the ontology into M, until a full pass
changes nothing. The result is independent of the order in which axioms
are examined. Nested extraction alternates two flavors once; star
extraction alternates them until a pass after the first keeps its scope.

The extractor works in rounds: each round moves the axioms not local
w.r.t. one signature into M, and then grows the signature once by their
names. Every round is one wave of counter propagation over the ontology's
compiled `syntactic.Circuit`: the names new to the signature fire, each
gate counts down as its inputs fire, and an axiom whose root fires is
syntactically non-local w.r.t. the working signature (the circuit's
`always` are non-local even w.r.t. ∅ and fire in the first round). A
syntactic round moves the fired axioms into M. A semantic round checks
only fired axioms, over the circuit of the syntactic flavor of the same
polarity (`circuit`): syntactic locality implies semantic locality, so
any other axiom is local. It checks those that fired in this wave and
those that fired earlier, were found local, and mention a name new in
the round before; a verdict depends on the signature only through the
names it shares with the axiom, so the verdicts of the rest still hold.
Locality is anti-monotone in Σ, so the fixpoint does not depend on when
the signature grows, and the result equals that of the textbook loop,
which rescans the axioms and grows the signature after every added
axiom (`naive=True` runs it for differential testing). Both count an
UNKNOWN verdict as non-local, but the rounds never check an axiom the
grammar calls local: where the tableau gives up on one (A ⊑ ∃R.B ⊔
≤1 S.A at Σ = {A}, SEM_TOP, meets counting over the universal role), the
textbook loop keeps it and the rounds leave it out, as it is local.

All loops work on positions of the input ontology: the steps of a nested
or star extraction narrow the positions, not the ontology, and a wave
counts down only the gates of axioms at those positions. So the axiom
records (`Ontology.shapes`, one walk per axiom), the name index, the
circuits and the verdict memo (`semantic.verdict_in`) are shared
by all steps and by every extraction over one instance. A round reads the
names it adds to the signature off the records of the axioms it adds, and
the memo keys a verdict by the record's structure number and by which of
its names lie in the working signature, so the axioms that are renamed
copies of one another share one check. Only the module that is returned
becomes an `Ontology`, and it takes its records from the input.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator
from dataclasses import dataclass
from itertools import chain, count, islice

from .model import Axiom, LocalityFlavor, Ontology, Signature, is_self_inverse
from .semantic import IS_UNKNOWN, verdict_in
from .syntactic import Circuit, compile_circuit
from .tableau import Budget

__all__ = [
    "ModuleResult",
    "circuit",
    "extract_module",
    "extract_nested",
    "extract_star",
    "genuine_modules",
]

FlavorPair = tuple[LocalityFlavor, LocalityFlavor]

SYN_STAR: FlavorPair = (LocalityFlavor.SYN_TOP, LocalityFlavor.SYN_BOT)
SEM_STAR: FlavorPair = (LocalityFlavor.SEM_TOP, LocalityFlavor.SEM_BOT)

# one `_extract` pass: module, extended signature, rounds, checks, UNKNOWNs
Pass = tuple[dict[int, None], Signature, int, int, int]


@dataclass(frozen=True)
class ModuleResult:
    """Outcome of one extraction.

    `extended_signature` is the seed joined with the signature of the
    module; every axiom left outside is local w.r.t. it (axioms whose
    semantic verdict was Unknown were pulled in conservatively and are
    tallied in `unknown_verdicts`). `positions` are the ascending
    positions of the module's axioms in the input ontology. For a plain
    extraction `rounds` counts the rounds that added axioms (passes over
    the whole ontology with `naive=True`). For a semantic flavor
    `locality_checks` counts the semantic checks, one per fired axiom per
    round that checks it (with `naive=True`, one per axiom outside M per
    pass); for a syntactic flavor it counts the counter updates of the
    propagation, one per gate input that fired. A nested extraction sums
    both over its two passes; a star extraction counts in `rounds` the
    nested steps that shrank their scope, and sums both over its passes.
    """

    module: Ontology
    positions: tuple[int, ...]
    extended_signature: Signature
    rounds: int
    locality_checks: int
    unknown_verdicts: int


def circuit(o: Ontology, flavor: LocalityFlavor) -> Circuit:
    """The circuit of `o` for the polarity of `flavor`, which a semantic
    flavor shares with its syntactic counterpart. Compiled on first use and
    kept in `o.circuits` under `flavor.is_bottom`, which this function
    alone keys and fills."""
    found = o.circuits.get(flavor.is_bottom)
    if found is None:
        found = o.circuits[flavor.is_bottom] = compile_circuit(o, flavor)
    return found


def _extract(
    o: Ontology,
    flavor: LocalityFlavor,
    scope: Collection[int],
    sig: Signature,
    step: int = 1,
    *,
    refined: bool = False,
    budget: Budget | None = None,
    naive: bool = False,
    trace: list | None = None,
) -> Pass:
    """The `flavor` module for `sig` of the axioms of `o` at `scope`,
    ascending positions with constant-time membership (a `range`, or a
    dict used as an ordered set). Returns the module's positions,
    ascending, as such a dict, its extended signature, the number of
    rounds that added axioms, the locality checks and the UNKNOWN
    verdicts, which count as non-local. A round that adds axioms appends
    `((step, flavor, round), added_axioms)` to `trace`, if given. With
    `refined` and a syntactic flavor, Inv(R, R⁻) is local for every Σ, so
    it leaves `scope` before the first round: it would add no names."""
    if refined and flavor.is_syntactic:
        scope = dict.fromkeys(i for i in scope if not is_self_inverse(o.axioms[i]))
    module: set[int] = set()
    rounds = checks = unknowns = 0

    def is_local(i: int, working: Signature) -> bool:
        nonlocal checks, unknowns
        checks += 1
        verdict = verdict_in(o, i, working, flavor, budget)
        if verdict.status is IS_UNKNOWN:
            unknowns += 1
            return False
        return verdict.is_local

    if naive:
        sigs = o.axiom_signatures
        working = sig
        while True:
            added: list[int] = []
            for i in scope:
                if i not in module and not is_local(i, working):
                    module.add(i)
                    working = working | sigs[i]
                    added.append(i)
            if not added:
                break
            rounds += 1
            if trace is not None:
                trace.append(((step, flavor, rounds), [o.axioms[i] for i in added]))
        return dict.fromkeys(sorted(module)), working, rounds, checks, unknowns

    syntactic = flavor.is_syntactic
    shapes = o.shapes
    wave = circuit(o, flavor)
    need = list(wave.need)
    within = None if len(scope) == len(o) else scope
    fired = [i for i in wave.always if i in scope]
    waiting: set[int] = set()  # fired, but semantically local so far
    concepts, roles = set(sig.concept_names), set(sig.role_names)
    individuals = set(sig.individual_names)
    fresh = (sig.concept_names, sig.role_names)
    working = sig
    while True:
        # one wave: the names new in the round before fire
        roots, updates = wave.fire(need, *fresh, within)
        fired += roots
        if syntactic:
            checks += updates
            added = sorted(fired)
        else:
            # an axiom found local in an earlier round keeps its verdict
            # unless it mentions a new name; one that never fired is
            # syntactically local
            if waiting:
                reached = chain.from_iterable(o.name_index[n] for n in chain(*fresh))
                fired += waiting.intersection(reached)
            added = [i for i in sorted(fired) if not is_local(i, working)]
            waiting.update(fired)
            waiting.difference_update(added)
        if not added:
            break
        rounds += 1
        if trace is not None:
            trace.append(((step, flavor, rounds), [o.axioms[i] for i in added]))
        module.update(added)
        new_concepts, new_roles = set(), set()
        for i in added:
            _, cs, rs, inds = shapes[i]
            new_concepts.update(cs)
            new_roles.update(rs)
            # most axioms name no individual, and an empty update still
            # costs a call: about 0.8 ms a pass over 10,000 axioms
            if inds:
                individuals.update(inds)
        fresh = (new_concepts - concepts, new_roles - roles)
        concepts |= fresh[0]
        roles |= fresh[1]
        if not syntactic:
            working = Signature(frozenset(concepts), frozenset(roles))
        fired = []

    extended = Signature(concepts, roles, individuals)
    return dict.fromkeys(sorted(module)), extended, rounds, checks, unknowns


def _alternate(
    o: Ontology,
    pair: FlavorPair,
    sig: Signature,
    options: dict,
) -> Iterator[tuple[Collection[int], Pass]]:
    """`_extract` with the second flavor of `pair` over the whole
    ontology, then with the first over what it kept, then the second
    again, and so on. Yields each pass's scope and result; passes 2n − 1
    and 2n make nested step n and are traced with its number."""
    scope: Collection[int] = range(len(o))
    for k in count():
        found = _extract(o, pair[(k + 1) % 2], scope, sig, k // 2 + 1, **options)
        yield scope, found
        scope = found[0]


def _result(o: Ontology, passes: list[Pass], rounds: int) -> ModuleResult:
    """The result of the last of `passes`, with their checks and UNKNOWNs
    added up."""
    module, extended, *_ = passes[-1]
    positions = tuple(module)
    return ModuleResult(
        module=o.restrict(positions),
        positions=positions,
        extended_signature=extended,
        rounds=rounds,
        locality_checks=sum(p[3] for p in passes),
        unknown_verdicts=sum(p[4] for p in passes),
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

    With `trace` given, appends one `((1, flavor, round), added_axioms)`
    tuple per round that added axioms.
    """
    found = _extract(
        o, flavor, range(len(o)), sig, refined=refined, budget=budget, naive=naive, trace=trace
    )
    return _result(o, [found], found[2])


def extract_nested(
    o: Ontology,
    sig: Signature,
    pair: FlavorPair = SYN_STAR,
    **options,
) -> ModuleResult:
    """Nested extraction: inner pass with the second flavor of `pair`,
    outer pass with the first over the inner module, both against the same
    seed. Rounds are traced as by `extract_module`, labelled with the
    flavor of their pass."""
    passes = [found for _, found in islice(_alternate(o, pair, sig, options), 2)]
    return _result(o, passes, passes[0][2] + passes[1][2])


def extract_star(
    o: Ontology,
    sig: Signature,
    pair: FlavorPair = SYN_STAR,
    **options,
) -> ModuleResult:
    """The fixpoint of nested extraction, by alternating its two passes
    from the full ontology until a pass after the first keeps its whole
    scope. A module is its own module for the same seed (Cuenca Grau et
    al., JAIR 2008), so the pass before would keep that scope too: it is
    the fixpoint, and no nested step runs to confirm it. `rounds` is the
    smallest n with Mₙ = Mₙ₊₁, the nested steps (the last maybe one pass)
    that shrank their scope. Rounds are traced as by `extract_nested`,
    labelled with their nested step; the last pass adds the module."""
    passes: list[Pass] = []
    shrank: set[int] = set()  # the nested steps that shrank their scope
    for k, (scope, found) in enumerate(_alternate(o, pair, sig, options)):
        passes.append(found)
        if len(found[0]) < len(scope):
            shrank.add(k // 2)
        elif k:  # the ontology itself is no module, so the first pass does not count
            break
    return _result(o, passes, len(shrank))


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
