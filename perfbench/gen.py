"""Seeded input generators for the benchmark.

Each generator is a pure function of its seed and emits ontology or
signature *text* in the functional syntax that `locmod.parse_ontology`
reads. Nothing here imports locmod, so generating inputs costs nothing in
the timed set-up and later edits to the program or its tests cannot change
what the benchmark feeds it.
"""

from __future__ import annotations

import random

# taxo-extract: roles per subtree, and the size of each extraction seed
ROLES_PER_SUBTREE = 2
SEED_CONCEPTS = 3
SEED_ROLES = 1

# count-compare: inclusion probability of each name, both in the dense
# extraction seeds and in the compare's sampled signatures, so substituted
# axioms keep their structure
DENSE_INCLUSION = 0.85

# ---------------------------------------------------------------------------
# Text helpers
# ---------------------------------------------------------------------------


def some(r, c):
    return f"ObjectSomeValuesFrom({r} {c})"


def only(r, c):
    return f"ObjectAllValuesFrom({r} {c})"


def at_least(n, r, c="owl:Thing"):
    return f"ObjectMinCardinality({n} {r} {c})"


def at_most(n, r, c="owl:Thing"):
    return f"ObjectMaxCardinality({n} {r} {c})"


def and_(*cs):
    return "ObjectIntersectionOf(" + " ".join(cs) + ")"


def or_(*cs):
    return "ObjectUnionOf(" + " ".join(cs) + ")"


def nominal(i):
    return f"ObjectOneOf({i})"


def inv(r):
    return f"ObjectInverseOf({r})"


def ontology_text(name, concepts, roles, individuals, axioms):
    lines = [f"Ontology({name}"]
    lines += [f"  Declaration(Class({c}))" for c in concepts]
    lines += [f"  Declaration(ObjectProperty({r}))" for r in roles]
    lines += [f"  Declaration(NamedIndividual({i}))" for i in individuals]
    lines += [f"  {a}" for a in dict.fromkeys(axioms)]
    lines.append(")")
    return "\n".join(lines) + "\n"


def signature_text(concepts, roles):
    """A seed-signature file: one kind-prefixed name per line."""
    return "".join(f"C:{c}\n" for c in concepts) + "".join(f"R:{r}\n" for r in roles)


# ---------------------------------------------------------------------------
# taxo-extract: a forest of small taxonomies with subtree-local role links
# ---------------------------------------------------------------------------


def taxonomy(seed, subtrees=20, nodes=28):
    """A forest of `subtrees` complete ternary concept trees of `nodes`
    concepts each.

    Besides the subclass edges, each subtree gets ∃/∀ links, definitions
    (half of them `a ≡ ∀r.c ⊓ ≥2 r`, the type-2 culprit shape: when the
    seed holds r but neither a nor c, it is syntactically non-local yet
    semantically local, so SEM_BOT modules and the t1a compare differ from
    SYN_BOT ones), disjointness, and domain/range axioms, all over its own
    concepts and roles, so a small seed pulls in a small module. Returns
    `(text, concepts, roles)`; about 1k axioms at the defaults.

    The links are drawn from one fixed random stream and `seed` only
    renames the subtrees, so every seed's taxonomy has the same shape: a
    new random shape per seed moved the median star-module cost by ±6 %.
    """
    rng = random.Random(0)
    labels = list(range(subtrees))
    random.Random(seed).shuffle(labels)
    concepts, roles, axioms = [], [], []
    for t in labels:
        cs = [f"T{t:02d}c{k:02d}" for k in range(nodes)]
        rs = [f"t{t:02d}r{k}" for k in range(ROLES_PER_SUBTREE)]
        concepts += cs
        roles += rs
        for k in range(1, nodes):
            axioms.append(f"SubClassOf({cs[k]} {cs[(k - 1) // 3]})")
        for _ in range(nodes // 5):
            a, b = rng.sample(cs, 2)
            axioms.append(f"SubClassOf({a} {some(rng.choice(rs), b)})")
        for _ in range(nodes // 8):
            a, b = rng.sample(cs, 2)
            axioms.append(f"SubClassOf({a} {only(rng.choice(rs), b)})")
        for _ in range(nodes // 10):
            a, b, c = rng.sample(cs, 3)
            r = rng.choice(rs)
            if rng.random() < 0.5:
                defn = and_(only(r, c), at_least(2, r))
            else:
                defn = and_(b, some(r, c))
            axioms.append(f"EquivalentClasses({a} {defn})")
        for _ in range(nodes // 10):
            a, b = rng.sample(cs[1:], 2)
            axioms.append(f"DisjointClasses({a} {b})")
        for r in rs:
            axioms.append(f"ObjectPropertyDomain({r} {rng.choice(cs)})")
            axioms.append(f"ObjectPropertyRange({r} {rng.choice(cs)})")
    text = ontology_text(f"taxo-{seed}", concepts, roles, [], axioms)
    return text, concepts, roles


def small_seeds(seed, concepts, roles, count):
    """`count` seed signatures of `SEED_CONCEPTS` concept names and
    `SEED_ROLES` roles each."""
    rng = random.Random(seed)
    return [
        signature_text(
            sorted(rng.sample(concepts, SEED_CONCEPTS)),
            sorted(rng.sample(roles, SEED_ROLES)),
        )
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# count-compare: counting-heavy axioms that keep the tableau busy
# ---------------------------------------------------------------------------


def counting(seed, blocks=8):
    """An ontology whose axioms stack qualified number restrictions on a
    few roles: pigeonhole-style subsumptions, type-2 culprit definitions,
    disjunctions with nominals, inverse roles, and self-inverse role
    axioms. Numbers stay at most 4 so that no single tableau call
    dominates (≥5 over a three-way union with ≤ on each part takes tens of
    seconds). Returns `(text, concepts, roles)`.
    """
    rng = random.Random(seed)
    concepts, roles, individuals, axioms = [], [], [], []
    for b in range(blocks):
        cs = [f"K{b}x{k}" for k in range(8)]
        rs = [f"k{b}r{k}" for k in range(2)]
        ind = f"k{b}i"
        concepts += cs
        roles += rs
        individuals.append(ind)
        r, s = rs
        A, B, C, D, E, F, G, H = rng.sample(cs, 8)
        n = rng.randint(3, 4)
        # pigeonhole: n fillers in A ⊔ B with few A-fillers leave B-fillers
        axioms.append(
            f"SubClassOf({and_(at_least(n, r, or_(A, B)), at_most(1, r, A))} "
            f"{at_least(n - 1, r, B)})"
        )
        axioms.append(
            f"SubClassOf({and_(at_least(4, s, or_(C, D)), at_most(2, s, C))} "
            f"{at_least(2, s, D)})"
        )
        axioms.append(
            f"SubClassOf({and_(at_least(3, r, or_(E, F)), at_most(1, r, E), only(r, G))} "
            f"{at_least(2, r, and_(F, G))})"
        )
        axioms.append(
            f"SubClassOf({and_(at_least(3, inv(s), or_(A, H)), at_most(1, inv(s), A))} "
            f"{at_least(2, inv(s), H)})"
        )
        axioms.append(
            f"SubClassOf({and_(at_least(3, r, or_(B, nominal(ind))), at_most(1, r, B))} "
            f"{at_least(2, r, nominal(ind))})"
        )
        # type-2 culprits: ∀ and ≥ on one role inside a definition
        axioms.append(f"EquivalentClasses({C} {and_(D, only(r, E), at_least(n, r))})")
        axioms.append(f"EquivalentClasses({F} {and_(A, only(s, B), some(s, C))})")
        # a wide disjunction reaching a nominal
        axioms.append(
            f"SubClassOf({D} {or_(E, F, G, nominal(ind), some(r, A), only(s, H))})"
        )
        axioms.append(f"SubClassOf({E} {at_most(1, inv(r), C)})")
        axioms.append(f"SubClassOf({some(inv(s), A)} {B})")
        # self-inverse role axiom (type-1 culprit) and a role hierarchy
        axioms.append(f"InverseObjectProperties({s} {inv(s)})")
        axioms.append(f"SubObjectPropertyOf({s} {r})")
        axioms.append(f"ObjectPropertyDomain({r} {rng.choice(cs)})")
        axioms.append(f"ObjectPropertyRange({s} {rng.choice(cs)})")
        axioms.append(f"DisjointClasses({A} {F})")
    text = ontology_text(f"count-{seed}", concepts, roles, individuals, axioms)
    return text, concepts, roles


def dense_seeds(seed, concepts, roles, count):
    """`count` seed signatures that keep each name with probability
    `DENSE_INCLUSION`."""
    rng = random.Random(seed)
    p = DENSE_INCLUSION
    out = []
    for _ in range(count):
        cs = [c for c in concepts if rng.random() < p]
        rs = [r for r in roles if rng.random() < p]
        out.append(signature_text(cs, rs))
    return out


# ---------------------------------------------------------------------------
# synth10k-extract: the desk-scale synthetic ontology
# ---------------------------------------------------------------------------


def synthetic(axiom_count):
    """Text of the desk-scale synthetic ontology: a subclass backbone plus
    existential links, domains/ranges, and a sprinkle of definitions. The
    same axioms as the test suite's `synthetic_ontology(axiom_count)` at its
    default seed 0, drawn with the same random calls; the workload's seed
    varies only the seed signatures. Returns `(text, concepts, roles)`.
    """
    rng = random.Random(0)
    concept_count = max(axiom_count // 4, 8)
    role_count = max(axiom_count // 200, 4)
    cn = [f"C{i:05d}" for i in range(concept_count)]
    rn = [f"r{i:03d}" for i in range(role_count)]
    axioms: dict[str, None] = {}
    i = 0
    while len(axioms) < axiom_count:
        pick = rng.random()
        a = cn[i % concept_count]
        b = cn[rng.randrange(concept_count)]
        role = rn[rng.randrange(role_count)]
        if pick < 0.55:
            axioms[f"SubClassOf({a} {b})"] = None
        elif pick < 0.80:
            axioms[f"SubClassOf({a} {some(role, b)})"] = None
        elif pick < 0.88:
            axioms[f"ObjectPropertyDomain({role} {b})"] = None
        elif pick < 0.94:
            axioms[f"ObjectPropertyRange({role} {b})"] = None
        elif pick < 0.98:
            c = cn[rng.randrange(concept_count)]
            axioms[f"EquivalentClasses({a} {and_(b, some(role, c))})"] = None
        else:
            axioms[f"SubClassOf({a} {only(role, b)})"] = None
        i += 1
    text = ontology_text(f"synthetic-{axiom_count}", cn, rn, [], axioms)
    return text, cn, rn


def wide_seeds(seed, concepts, roles, count, terms=50):
    """`count` seed signatures of `terms` random names each."""
    rng = random.Random(seed)
    names = [("C", c) for c in concepts] + [("R", r) for r in roles]
    out = []
    for _ in range(count):
        chosen = rng.sample(names, terms)
        out.append(
            signature_text(
                sorted(n for k, n in chosen if k == "C"),
                sorted(n for k, n in chosen if k == "R"),
            )
        )
    return out
