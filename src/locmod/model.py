"""Immutable syntax model for SHIQ-style ontologies.

Concept and role expressions, axioms, ontologies, and signatures are frozen
dataclasses: build once, hash, share freely. The normalization helpers here
(negation normal form, role normalization, axiom normalization) are the
common ground for the locality checkers, the tableau, and the brute-force
evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence, Union


# ---------------------------------------------------------------------------
# Role expressions
# ---------------------------------------------------------------------------

class Role:
    """Base class for role expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class RoleName(Role):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Inverse(Role):
    """Inverse of a role expression.

    Arbitrary nesting is representable; `normalize_role` collapses double
    inverses so that normal forms wrap a plain `RoleName` at most once.
    """

    role: Role

    def __str__(self):
        return f"{self.role}⁻"


@dataclass(frozen=True)
class EmptyRoleType(Role):
    """The empty relation. Appears only after semantic substitution."""

    def __str__(self):
        return "R∅"


@dataclass(frozen=True)
class UniversalRoleType(Role):
    """The relation holding between all pairs of domain elements.

    Appears only after semantic substitution, never in parsed input.
    """

    def __str__(self):
        return "R∆"


EMPTY_ROLE = EmptyRoleType()
UNIVERSAL_ROLE = UniversalRoleType()


def normalize_role(r: Role) -> Role:
    """Collapse nested inverses; inversion fixes the two constant roles."""
    if isinstance(r, Inverse):
        inner = normalize_role(r.role)
        if isinstance(inner, Inverse):
            return inner.role
        if isinstance(inner, (EmptyRoleType, UniversalRoleType)):
            return inner
        return Inverse(inner)
    return r


def role_name_of(r: Role) -> str | None:
    """Underlying role name, looking through inverses; None for constants."""
    r = normalize_role(r)
    if isinstance(r, Inverse):
        r = r.role
    if isinstance(r, RoleName):
        return r.name
    return None


# ---------------------------------------------------------------------------
# Concept expressions
# ---------------------------------------------------------------------------

class Concept:
    """Base class for concept expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class TopType(Concept):
    def __str__(self):
        return "⊤"


@dataclass(frozen=True)
class BottomType(Concept):
    def __str__(self):
        return "⊥"


TOP = TopType()
BOTTOM = BottomType()


@dataclass(frozen=True)
class ConceptName(Concept):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not(Concept):
    arg: Concept

    def __str__(self):
        return f"¬{_paren(self.arg)}"


@dataclass(frozen=True)
class And(Concept):
    """Conjunction. Directly nested conjunctions are flattened on
    construction and the flattened list must have at least two members;
    use `conj` to build conjunctions of arbitrary arity."""

    args: tuple[Concept, ...]

    def __post_init__(self):
        flat: list[Concept] = []
        for a in self.args:
            if isinstance(a, And):
                flat.extend(a.args)
            else:
                flat.append(a)
        if len(flat) < 2:
            raise ValueError("And requires at least two conjuncts")
        object.__setattr__(self, "args", tuple(flat))

    def __str__(self):
        return " ⊓ ".join(_paren(a) for a in self.args)


@dataclass(frozen=True)
class Or(Concept):
    """Disjunction; same flattening and arity rules as `And`."""

    args: tuple[Concept, ...]

    def __post_init__(self):
        flat: list[Concept] = []
        for a in self.args:
            if isinstance(a, Or):
                flat.extend(a.args)
            else:
                flat.append(a)
        if len(flat) < 2:
            raise ValueError("Or requires at least two disjuncts")
        object.__setattr__(self, "args", tuple(flat))

    def __str__(self):
        return " ⊔ ".join(_paren(a) for a in self.args)


@dataclass(frozen=True)
class Exists(Concept):
    role: Role
    filler: Concept

    def __str__(self):
        return f"∃{self.role}.{_paren(self.filler)}"


@dataclass(frozen=True)
class ForAll(Concept):
    role: Role
    filler: Concept

    def __str__(self):
        return f"∀{self.role}.{_paren(self.filler)}"


@dataclass(frozen=True)
class AtLeast(Concept):
    n: int
    role: Role
    filler: Concept

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("cardinality must be non-negative")

    def __str__(self):
        return f"≥{self.n} {self.role}.{_paren(self.filler)}"


@dataclass(frozen=True)
class AtMost(Concept):
    n: int
    role: Role
    filler: Concept

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("cardinality must be non-negative")

    def __str__(self):
        return f"≤{self.n} {self.role}.{_paren(self.filler)}"


@dataclass(frozen=True)
class OneOf(Concept):
    """Singleton nominal: the concept containing exactly one individual."""

    individual: str

    def __str__(self):
        return "{" + self.individual + "}"


def _paren(c: Concept) -> str:
    if isinstance(c, (And, Or)):
        return f"({c})"
    return str(c)


def conj(*args: Concept) -> Concept:
    """N-ary conjunction: 0 args is ⊤, 1 arg is that arg."""
    if not args:
        return TOP
    if len(args) == 1:
        return args[0]
    return And(tuple(args))


def disj(*args: Concept) -> Concept:
    """N-ary disjunction: 0 args is ⊥, 1 arg is that arg."""
    if not args:
        return BOTTOM
    if len(args) == 1:
        return args[0]
    return Or(tuple(args))


def exactly(n: int, role: Role, filler: Concept = TOP) -> Concept:
    """Exact cardinality, desugared to AtLeast ⊓ AtMost at construction."""
    return And((AtLeast(n, role, filler), AtMost(n, role, filler)))


# ---------------------------------------------------------------------------
# Axioms and ontologies
# ---------------------------------------------------------------------------

class Axiom:
    """Base class for axioms."""

    __slots__ = ()


@dataclass(frozen=True)
class SubClassOf(Axiom):
    sub: Concept
    sup: Concept

    def __str__(self):
        return f"{self.sub} ⊑ {self.sup}"


@dataclass(frozen=True)
class EquivalentClasses(Axiom):
    left: Concept
    right: Concept

    def __str__(self):
        return f"{self.left} ≡ {self.right}"


@dataclass(frozen=True)
class SubRoleOf(Axiom):
    sub: Role
    sup: Role

    def __str__(self):
        return f"{self.sub} ⊑ {self.sup}"


@dataclass(frozen=True)
class EquivalentRoles(Axiom):
    left: Role
    right: Role

    def __str__(self):
        return f"{self.left} ≡ {self.right}"


@dataclass(frozen=True)
class InverseRoles(Axiom):
    """States that `left` is the inverse relation of `right`."""

    left: Role
    right: Role

    def __str__(self):
        return f"Inv({self.left}, {self.right})"


@dataclass(frozen=True)
class Transitive(Axiom):
    role: Role

    def __str__(self):
        return f"Trans({self.role})"


@dataclass(frozen=True)
class Domain(Axiom):
    role: Role
    filler: Concept

    def __str__(self):
        return f"Domain({self.role}, {self.filler})"


@dataclass(frozen=True)
class Range(Axiom):
    role: Role
    filler: Concept

    def __str__(self):
        return f"Range({self.role}, {self.filler})"


@dataclass(frozen=True)
class DisjointClasses(Axiom):
    left: Concept
    right: Concept

    def __str__(self):
        return f"Disjoint({self.left}, {self.right})"


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    """A set of concept, role, and individual names.

    The three name sets are pairwise disjoint by construction: the same
    string may not denote entities of two kinds.
    """

    concept_names: frozenset[str] = frozenset()
    role_names: frozenset[str] = frozenset()
    individual_names: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "concept_names", frozenset(self.concept_names))
        object.__setattr__(self, "role_names", frozenset(self.role_names))
        object.__setattr__(self, "individual_names", frozenset(self.individual_names))
        overlap = (
            (self.concept_names & self.role_names)
            | (self.concept_names & self.individual_names)
            | (self.role_names & self.individual_names)
        )
        if overlap:
            raise ValueError(f"names used with more than one kind: {sorted(overlap)}")

    def __or__(self, other: "Signature") -> "Signature":
        return Signature(
            self.concept_names | other.concept_names,
            self.role_names | other.role_names,
            self.individual_names | other.individual_names,
        )

    @staticmethod
    def union(sigs: Iterable["Signature"]) -> "Signature":
        """Join of any number of signatures, built in one pass (a chain of
        `|` would copy the growing name sets once per operand)."""
        concepts: set[str] = set()
        roles: set[str] = set()
        individuals: set[str] = set()
        for s in sigs:
            concepts |= s.concept_names
            roles |= s.role_names
            individuals |= s.individual_names
        return Signature(frozenset(concepts), frozenset(roles), frozenset(individuals))

    @property
    def term_count(self) -> int:
        """Number of concept plus role names (individuals excluded)."""
        return len(self.concept_names) + len(self.role_names)

    def __str__(self):
        parts = sorted(self.concept_names) + sorted(self.role_names) + sorted(
            "{%s}" % i for i in self.individual_names
        )
        return "{" + ", ".join(parts) + "}"


EMPTY_SIGNATURE = Signature()


@dataclass(frozen=True)
class Ontology:
    """An ordered, duplicate-free collection of axioms.

    `declared` records entity declarations seen by the parser (a superset
    of the used signature when the source file declares unused names); it
    does not affect the ontology's own signature.

    `axiom_signatures`, `names`, `name_index`, `verdicts`,
    `nonlocal_at_empty` and `circuits` are made on first use and kept by
    the instance (they are not fields, so equality, hashing and repr
    ignore them); every extraction over the same instance shares them.
    """

    axioms: tuple[Axiom, ...] = ()
    name: str = ""
    declared: Signature = EMPTY_SIGNATURE

    def __post_init__(self):
        object.__setattr__(self, "axioms", tuple(dict.fromkeys(self.axioms)))

    def __len__(self):
        return len(self.axioms)

    def __iter__(self):
        return iter(self.axioms)

    @cached_property
    def axiom_signatures(self) -> tuple[Signature, ...]:
        """`signature_of` of each axiom, in axiom order."""
        return tuple(signature_of(a) for a in self.axioms)

    @cached_property
    def names(self) -> Signature:
        """The declared names joined with the names the axioms use."""
        return self.declared | signature_of(self)

    @cached_property
    def name_index(self) -> dict[str, list[int]]:
        """Positions of the axioms that mention each concept or role name,
        ascending. Read-only: the instance hands out this same dict."""
        index: dict[str, list[int]] = {}
        for i, s in enumerate(self.axiom_signatures):
            for name in s.concept_names | s.role_names:
                index.setdefault(name, []).append(i)
        return index

    @cached_property
    def verdicts(self) -> dict:
        """Definite semantic locality verdicts of the axioms, filled by
        `semantic.verdict_in`, which also defines the keys."""
        return {}

    @cached_property
    def nonlocal_at_empty(self) -> dict:
        """Ascending positions of the axioms not known to be semantically
        local w.r.t. the empty signature, one tuple per semantic flavor,
        filled by the extractor."""
        return {}

    @cached_property
    def circuits(self) -> dict:
        """The syntactic locality circuits, read-only once stored, filled
        and keyed by the extractor."""
        return {}

    def restrict(self, positions: Sequence[int]) -> "Ontology":
        """The axioms at `positions` (distinct, ascending) as an ontology
        of the same name. It takes their signatures from this instance
        instead of walking the axioms again, and skips the deduplication
        of `__post_init__`, which would hash every axiom again."""
        sigs = self.axiom_signatures
        sub = object.__new__(Ontology)
        sub.__dict__.update(
            axioms=tuple(self.axioms[i] for i in positions),
            name=self.name,
            declared=EMPTY_SIGNATURE,
            axiom_signatures=tuple(sigs[i] for i in positions),
        )
        return sub


# ---------------------------------------------------------------------------
# signature_of
# ---------------------------------------------------------------------------

def _collect_role(r: Role, roles: set[str]):
    while isinstance(r, Inverse):
        r = r.role
    if isinstance(r, RoleName):
        roles.add(r.name)
    # the two constant roles contribute nothing


def _collect_concept(c: Concept, concepts: set[str], roles: set[str], individuals: set[str]):
    stack = [c]
    while stack:
        cur = stack.pop()
        if isinstance(cur, ConceptName):
            concepts.add(cur.name)
        elif isinstance(cur, OneOf):
            individuals.add(cur.individual)
        elif isinstance(cur, Not):
            stack.append(cur.arg)
        elif isinstance(cur, (And, Or)):
            stack.extend(cur.args)
        elif isinstance(cur, (Exists, ForAll, AtLeast, AtMost)):
            _collect_role(cur.role, roles)
            stack.append(cur.filler)
        # Top/Bottom: nothing


def _axiom_signature(a: Axiom) -> Signature:
    concepts: set[str] = set()
    roles: set[str] = set()
    individuals: set[str] = set()
    if isinstance(a, (SubClassOf, EquivalentClasses, DisjointClasses)):
        lhs = a.sub if isinstance(a, SubClassOf) else a.left
        rhs = a.sup if isinstance(a, SubClassOf) else a.right
        _collect_concept(lhs, concepts, roles, individuals)
        _collect_concept(rhs, concepts, roles, individuals)
    elif isinstance(a, (SubRoleOf, EquivalentRoles, InverseRoles)):
        lhs = a.sub if isinstance(a, SubRoleOf) else a.left
        rhs = a.sup if isinstance(a, SubRoleOf) else a.right
        _collect_role(lhs, roles)
        _collect_role(rhs, roles)
    elif isinstance(a, Transitive):
        _collect_role(a.role, roles)
    elif isinstance(a, (Domain, Range)):
        _collect_role(a.role, roles)
        _collect_concept(a.filler, concepts, roles, individuals)
    else:
        raise TypeError(f"not an axiom: {a!r}")
    return Signature(frozenset(concepts), frozenset(roles), frozenset(individuals))


def signature_of(x: Union[Axiom, Concept, Role, Ontology]) -> Signature:
    """The set of concept/role/individual names occurring in `x`.

    Substitution constants (empty/universal role, ⊤, ⊥) contribute
    nothing.
    """
    if isinstance(x, Ontology):
        return Signature.union(x.axiom_signatures)
    if isinstance(x, Axiom):
        return _axiom_signature(x)
    if isinstance(x, Concept):
        concepts, roles, individuals = set(), set(), set()
        _collect_concept(x, concepts, roles, individuals)
        return Signature(frozenset(concepts), frozenset(roles), frozenset(individuals))
    if isinstance(x, Role):
        roles = set()
        _collect_role(x, roles)
        return Signature(role_names=frozenset(roles))
    raise TypeError(f"cannot take the signature of {x!r}")


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------

def nnf(c: Concept) -> Concept:
    """Push negation inward until it applies only to concept names and
    nominals. Counting duality: ¬(≥n R.C) becomes ≤(n-1) R.C for n ≥ 1 and
    ⊥ for n = 0; ¬(≤n R.C) becomes ≥(n+1) R.C."""
    if isinstance(c, Not):
        return _nnf_neg(c.arg)
    if isinstance(c, And):
        return conj(*[nnf(a) for a in c.args])
    if isinstance(c, Or):
        return disj(*[nnf(a) for a in c.args])
    if isinstance(c, Exists):
        return Exists(c.role, nnf(c.filler))
    if isinstance(c, ForAll):
        return ForAll(c.role, nnf(c.filler))
    if isinstance(c, AtLeast):
        return AtLeast(c.n, c.role, nnf(c.filler))
    if isinstance(c, AtMost):
        return AtMost(c.n, c.role, nnf(c.filler))
    return c


def _nnf_neg(c: Concept) -> Concept:
    if isinstance(c, TopType):
        return BOTTOM
    if isinstance(c, BottomType):
        return TOP
    if isinstance(c, (ConceptName, OneOf)):
        return Not(c)
    if isinstance(c, Not):
        return nnf(c.arg)
    if isinstance(c, And):
        return disj(*[_nnf_neg(a) for a in c.args])
    if isinstance(c, Or):
        return conj(*[_nnf_neg(a) for a in c.args])
    if isinstance(c, Exists):
        return ForAll(c.role, _nnf_neg(c.filler))
    if isinstance(c, ForAll):
        return Exists(c.role, _nnf_neg(c.filler))
    if isinstance(c, AtLeast):
        if c.n == 0:
            # ¬(≥0 R.C) is unsatisfiable; this bottom-equivalent form keeps
            # the signature intact instead of collapsing to ⊥ outright
            return Exists(c.role, conj(nnf(c.filler), _nnf_neg(c.filler)))
        return AtMost(c.n - 1, c.role, nnf(c.filler))
    if isinstance(c, AtMost):
        return AtLeast(c.n + 1, c.role, nnf(c.filler))
    raise TypeError(f"not a concept: {c!r}")


def complement(c: Concept) -> Concept:
    """Negation normal form of ¬c."""
    return _nnf_neg(c)


# ---------------------------------------------------------------------------
# Axiom normalization
# ---------------------------------------------------------------------------

def normalize_axiom(a: Axiom) -> list[Axiom]:
    """Reduce derived axiom forms to plain inclusions.

    Domain(R, C) becomes ∃R.⊤ ⊑ C, Range(R, C) becomes ⊤ ⊑ ∀R.C, and
    DisjointClasses(C, D) becomes C ⊓ D ⊑ ⊥. Everything else passes
    through unchanged; equivalences keep their own form since the locality
    grammars treat ≡ directly.
    """
    if isinstance(a, Domain):
        return [SubClassOf(Exists(a.role, TOP), a.filler)]
    if isinstance(a, Range):
        return [SubClassOf(TOP, ForAll(a.role, a.filler))]
    if isinstance(a, DisjointClasses):
        return [SubClassOf(conj(a.left, a.right), BOTTOM)]
    return [a]


# ---------------------------------------------------------------------------
# Locality flavors
# ---------------------------------------------------------------------------

class LocalityFlavor(Enum):
    """The four locality notions: syntactic bottom/top and semantic
    bottom/top."""

    SYN_BOT = "bot"
    SYN_TOP = "top"
    SEM_BOT = "sem-bot"
    SEM_TOP = "sem-top"

    @property
    def is_syntactic(self) -> bool:
        return self in (LocalityFlavor.SYN_BOT, LocalityFlavor.SYN_TOP)

    @property
    def is_bottom(self) -> bool:
        return self in (LocalityFlavor.SYN_BOT, LocalityFlavor.SEM_BOT)

    def __str__(self):
        return self.value
