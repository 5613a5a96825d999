"""Seeded random generators shared by the property suites."""

from __future__ import annotations

import dataclasses
import random
from itertools import product

from locmod import (
    And,
    AtLeast,
    AtMost,
    Axiom,
    BOTTOM,
    Concept,
    ConceptName,
    DisjointClasses,
    Domain,
    EquivalentClasses,
    EquivalentRoles,
    Exists,
    ForAll,
    Interpretation,
    Inverse,
    InverseRoles,
    LocalityFlavor,
    Not,
    OneOf,
    Ontology,
    Or,
    Range,
    Role,
    RoleName,
    Signature,
    SubClassOf,
    SubRoleOf,
    TOP,
    Transitive,
    conj,
    disj,
    find_countermodel,
    holds,
    signature_of,
    substitute,
)

CONCEPTS = ("A", "B", "C")
ROLES = ("r", "s")
INDIVIDUALS = ("i",)


def random_role(rng: random.Random, roles=ROLES) -> Role:
    r: Role = RoleName(rng.choice(roles))
    if rng.random() < 0.25:
        r = Inverse(r)
    return r


def random_concept(
    rng: random.Random,
    depth: int = 3,
    concepts=CONCEPTS,
    roles=ROLES,
    individuals=INDIVIDUALS,
) -> Concept:
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(6)
        if kind == 0:
            return TOP
        if kind == 1:
            return BOTTOM
        if kind == 5 and individuals:
            return OneOf(rng.choice(individuals))
        return ConceptName(rng.choice(concepts))

    def sub():
        return random_concept(rng, depth - 1, concepts, roles, individuals)

    kind = rng.randrange(7)
    if kind == 0:
        return Not(sub())
    if kind == 1:
        return And((sub(), sub()))
    if kind == 2:
        return Or((sub(), sub()))
    if kind == 3:
        return Exists(random_role(rng, roles), sub())
    if kind == 4:
        return ForAll(random_role(rng, roles), sub())
    if kind == 5:
        return AtLeast(rng.randrange(4), random_role(rng, roles), sub())
    return AtMost(rng.randrange(4), random_role(rng, roles), sub())


def random_axiom(
    rng: random.Random,
    depth: int = 3,
    concepts=CONCEPTS,
    roles=ROLES,
    individuals=INDIVIDUALS,
) -> Axiom:
    def c():
        return random_concept(rng, depth, concepts, roles, individuals)

    def r():
        return random_role(rng, roles)

    kind = rng.randrange(12)
    if kind < 4:
        return SubClassOf(c(), c())
    if kind < 6:
        return EquivalentClasses(c(), c())
    if kind == 6:
        return SubRoleOf(r(), r())
    if kind == 7:
        return EquivalentRoles(r(), r())
    if kind == 8:
        return InverseRoles(r(), r())
    if kind == 9:
        return Transitive(r())
    if kind == 10:
        return Domain(r(), c())
    return Range(r(), c())


def literal_axioms() -> list[Axiom]:
    """Axioms whose counterexample probes are conjunctions of name literals
    at some signatures and not at others."""
    A, B, C = (ConceptName(n) for n in "ABC")
    R = RoleName("R")
    return [
        SubClassOf(A, B),
        SubClassOf(A, A),
        SubClassOf(conj(A, B), C),
        SubClassOf(A, disj(B, Not(C))),
        SubClassOf(Not(A), B),
        SubClassOf(conj(A, Not(B)), disj(A, C)),
        SubClassOf(A, Not(A)),
        SubClassOf(TOP, disj(A, B)),
        DisjointClasses(A, B),
        Domain(R, A),
        Range(R, B),
        EquivalentClasses(A, B),
        EquivalentClasses(A, conj(B, C)),
        SubClassOf(A, Exists(R, B)),
    ]


def random_signature(
    rng: random.Random,
    p: float = 0.5,
    concepts=CONCEPTS,
    roles=ROLES,
) -> Signature:
    return Signature(
        frozenset(a for a in concepts if rng.random() < p),
        frozenset(a for a in roles if rng.random() < p),
    )


def renamed(x, concepts: dict[str, str], roles: dict[str, str]):
    """The axiom, concept or role `x` with its concept and role names mapped
    through `concepts` and `roles`; names missing from a map, individuals
    and constants are kept."""
    if isinstance(x, ConceptName):
        return ConceptName(concepts.get(x.name, x.name))
    if isinstance(x, RoleName):
        return RoleName(roles.get(x.name, x.name))
    if isinstance(x, (And, Or)):
        return type(x)(tuple(renamed(a, concepts, roles) for a in x.args))
    if dataclasses.is_dataclass(x):
        return dataclasses.replace(
            x,
            **{
                f.name: renamed(getattr(x, f.name), concepts, roles)
                for f in dataclasses.fields(x)
                if isinstance(getattr(x, f.name), (Concept, Role))
            },
        )
    return x


def renamed_signature(sig: Signature, concepts: dict[str, str], roles: dict[str, str]) -> Signature:
    """`sig` with its concept and role names mapped as `renamed` maps them."""
    return Signature(
        frozenset(concepts.get(n, n) for n in sig.concept_names),
        frozenset(roles.get(n, n) for n in sig.role_names),
        sig.individual_names,
    )


def random_renaming(rng: random.Random, names, pool) -> dict[str, str]:
    """An injective map of `names` into `pool`, drawn at random."""
    return dict(zip(names, rng.sample(list(pool), len(names))))


def random_interpretation(
    rng: random.Random,
    size: int,
    concepts=CONCEPTS,
    roles=ROLES,
    individuals=INDIVIDUALS,
) -> Interpretation:
    dom = range(size)
    return Interpretation(
        domain_size=size,
        concept_ext={
            a: frozenset(x for x in dom if rng.random() < 0.5) for a in concepts
        },
        role_ext={
            r: frozenset(
                (x, y) for x in dom for y in dom if rng.random() < 0.4
            )
            for r in roles
        },
        individual_ext={m: rng.randrange(size) for m in individuals},
    )


def textbook_countermodel(a: Axiom, cap: int) -> Interpretation | None:
    """An interpretation of at most `cap` elements over the names of `a`
    that falsifies it, or None: every one is built and checked with `holds`."""
    sig = signature_of(a)
    concepts, roles = sorted(sig.concept_names), sorted(sig.role_names)
    individuals = sorted(sig.individual_names)
    for n in range(1, cap + 1):
        dom = range(n)
        pairs = [(x, y) for x in dom for y in dom]
        subsets = [frozenset(x for x in dom if m >> x & 1) for m in range(1 << n)]
        relations = [
            frozenset(p for k, p in enumerate(pairs) if m >> k & 1) for m in range(1 << n * n)
        ]
        for cs in product(subsets, repeat=len(concepts)):
            for rs in product(relations, repeat=len(roles)):
                for es in product(dom, repeat=len(individuals)):
                    i = Interpretation(
                        n, dict(zip(concepts, cs)), dict(zip(roles, rs)), dict(zip(individuals, es))
                    )
                    if not holds(a, i):
                        return i
    return None


def refutes_locality(a: Axiom, sig: Signature, flavor: LocalityFlavor, cap: int = 3) -> bool:
    """True when `a`, its names outside `sig` replaced as `flavor` says,
    has a countermodel of at most `cap` elements: `a` is then not
    semantically local for `sig`."""
    return find_countermodel(substitute(a, sig, flavor), cap) is not None


def synthetic_ontology(
    axiom_count: int,
    seed: int = 0,
    concept_count: int | None = None,
    role_count: int | None = None,
) -> Ontology:
    """A deterministic desk-scale ontology: a subclass backbone plus
    existential links, domains/ranges, and a sprinkle of definitions."""
    rng = random.Random(seed)
    concept_count = concept_count or max(axiom_count // 4, 8)
    role_count = role_count or max(axiom_count // 200, 4)
    cn = [f"C{i:05d}" for i in range(concept_count)]
    rn = [f"r{i:03d}" for i in range(role_count)]
    axioms: dict[Axiom, None] = {}
    i = 0
    while len(axioms) < axiom_count:
        pick = rng.random()
        a = ConceptName(cn[i % concept_count])
        b = ConceptName(cn[rng.randrange(concept_count)])
        role = RoleName(rn[rng.randrange(role_count)])
        if pick < 0.55:
            axioms[SubClassOf(a, b)] = None
        elif pick < 0.80:
            axioms[SubClassOf(a, Exists(role, b))] = None
        elif pick < 0.88:
            axioms[Domain(role, b)] = None
        elif pick < 0.94:
            axioms[Range(role, b)] = None
        elif pick < 0.98:
            c = ConceptName(cn[rng.randrange(concept_count)])
            axioms[EquivalentClasses(a, And((b, Exists(role, c))))] = None
        else:
            axioms[SubClassOf(a, ForAll(role, b))] = None
        i += 1
    return Ontology(tuple(axioms), name=f"synthetic-{axiom_count}")
