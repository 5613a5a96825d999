"""Immutable syntax model for SHIQ-style ontologies.

Concept and role expressions, axioms, ontologies, and signatures are frozen
dataclasses: build once, hash, share freely. Roles and axioms are built in
normal form, so nothing downstream normalizes them: an `Inverse` wraps a
role name, and `Domain`, `Range`, `DisjointClasses` and `exactly` build
the inclusions and conjunctions they stand for. Negation normal form is
computed here for the tableau and the semantic checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
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


@dataclass(frozen=True)
class Inverse(Role):
    """Inverse of a role, built in normal form: the inverse of an inverse
    is the role inside it, and inversion fixes the two constant roles, so
    an `Inverse` always wraps a `RoleName`."""

    role: RoleName

    # `role` defaults to None because copy and pickle call `cls.__new__(cls)`
    def __new__(cls, role=None):
        t = type(role)
        if t is Inverse:
            return role.role
        if t is EmptyRoleType or t is UniversalRoleType:
            return role
        return object.__new__(cls)

    def __str__(self):
        return f"{self.role}⁻"


def role_name_of(r: Role) -> str | None:
    """Underlying role name, looking through an inverse; None for constants."""
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
class _Junction(Concept):
    """An n-ary connective: directly nested members of the same connective
    are flattened, and at least two members must remain."""

    args: tuple[Concept, ...]

    def __post_init__(self):
        cls = type(self)
        flat: list[Concept] = []
        for a in self.args:
            if type(a) is cls:
                flat.extend(a.args)
            else:
                flat.append(a)
        if len(flat) < 2:
            raise ValueError(self._too_few)
        object.__setattr__(self, "args", tuple(flat))

    def __str__(self):
        return self._joiner.join(_paren(a) for a in self.args)


class And(_Junction):
    """Conjunction; use `conj` to build conjunctions of arbitrary arity."""

    _joiner = " ⊓ "
    _too_few = "And requires at least two conjuncts"


class Or(_Junction):
    """Disjunction; use `disj` to build disjunctions of arbitrary arity."""

    _joiner = " ⊔ "
    _too_few = "Or requires at least two disjuncts"


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
class _Counting(Concept):
    """A qualified number restriction, ≥n R.C or ≤n R.C, with n ≥ 0."""

    n: int
    role: Role
    filler: Concept

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("cardinality must be non-negative")

    def __str__(self):
        return f"{self._sign}{self.n} {self.role}.{_paren(self.filler)}"


class AtLeast(_Counting):
    _sign = "≥"


class AtMost(_Counting):
    _sign = "≤"


@dataclass(frozen=True)
class OneOf(Concept):
    """Singleton nominal: the concept containing exactly one individual."""

    individual: str

    def __str__(self):
        return "{" + self.individual + "}"


def _paren(c: Concept) -> str:
    if isinstance(c, _Junction):
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


def is_self_inverse(a: Axiom) -> bool:
    """Whether `a` is Inv(R, R⁻): valid, so local for every Σ and flavor."""
    return type(a) is InverseRoles and Inverse(a.left) == a.right


@dataclass(frozen=True)
class Transitive(Axiom):
    role: Role

    def __str__(self):
        return f"Trans({self.role})"


def Domain(role: Role, filler: Concept) -> Axiom:
    """The domain axiom of `role`, built as the inclusion ∃R.⊤ ⊑ C."""
    return SubClassOf(Exists(role, TOP), filler)


def Range(role: Role, filler: Concept) -> Axiom:
    """The range axiom of `role`, built as the inclusion ⊤ ⊑ ∀R.C."""
    return SubClassOf(TOP, ForAll(role, filler))


def DisjointClasses(left: Concept, right: Concept) -> Axiom:
    """The disjointness of two concepts, built as the inclusion C ⊓ D ⊑ ⊥."""
    return SubClassOf(conj(left, right), BOTTOM)


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
        return Signature.union((self, other))

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

    @staticmethod
    def of_kinds(kinds: dict[str, str]) -> "Signature":
        """The signature of names mapped to their kind: "C", "R" or "I"."""
        return Signature(*(frozenset(n for n, k in kinds.items() if k == kind) for kind in "CRI"))

    @property
    def kinds(self) -> dict[str, str]:
        """Each name mapped to its kind, the inverse of `of_kinds`."""
        sets = (self.concept_names, self.role_names, self.individual_names)
        return {n: kind for kind, names in zip("CRI", sets) for n in names}

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

    `shapes`, `structures`, `axiom_signatures`, `names`, `name_index`,
    `verdicts`, `circuits` and `texts` are made on first use and kept by
    the instance (they are not fields, so equality, hashing and repr ignore
    them); every extraction over the same instance shares them. `shapes`
    walks each axiom once (`axiom_shape`) and keeps one record per axiom:
    the number of its structure and its concept, role and individual
    names. The signatures, the names and the name index are read off these
    records, and so is the key of a verdict in `verdicts`, which therefore
    serves every axiom of the instance that is a renamed copy of the one
    checked, with the same of its names in the seed signature. A circuit
    serves both flavors of its polarity, the syntactic and the semantic
    one. A module shares `texts` with its source, where its axioms sit
    at `origin`.
    """

    axioms: tuple[Axiom, ...] = ()
    name: str = ""
    declared: Signature = EMPTY_SIGNATURE
    origin = None  # not a field: set by `restrict`, None on a source ontology

    def __post_init__(self):
        object.__setattr__(self, "axioms", tuple(dict.fromkeys(self.axioms)))

    def __len__(self):
        return len(self.axioms)

    def __iter__(self):
        return iter(self.axioms)

    @cached_property
    def shapes(self) -> tuple[tuple, ...]:
        """One record `(number, concepts, roles, individuals)` per axiom, in
        axiom order: `axiom_shape` of the axiom with its structure replaced
        by the structure's number in `structures` (a nested tuple would be
        hashed again on every verdict lookup)."""
        numbers = self.structures
        records = []
        for a in self.axioms:
            structure, concepts, roles, individuals = axiom_shape(a)
            number = numbers.setdefault(structure, len(numbers))
            records.append((number, concepts, roles, individuals))
        return tuple(records)

    @cached_property
    def structures(self) -> dict:
        """The number of each distinct axiom structure, filled when
        `shapes` is built."""
        return {}

    @cached_property
    def axiom_signatures(self) -> tuple[Signature, ...]:
        """`signature_of` of each axiom, in axiom order, read off `shapes`."""
        return tuple(Signature(cs, rs, inds) for _, cs, rs, inds in self.shapes)

    @cached_property
    def names(self) -> Signature:
        """The declared names joined with the names the axioms use."""
        return self.declared | signature_of(self)

    @cached_property
    def name_index(self) -> dict[str, list[int]]:
        """Positions of the axioms that mention each concept or role name,
        ascending. Read-only: the instance hands out this same dict."""
        index: dict[str, list[int]] = {}
        for i, (_, concepts, roles, _) in enumerate(self.shapes):
            for name in concepts + roles:
                index.setdefault(name, []).append(i)
        return index

    @cached_property
    def verdicts(self) -> dict:
        """Definite locality verdicts of the axioms, of every flavor, filled
        by `semantic.verdict_in`, which also defines their keys."""
        return {}

    @cached_property
    def circuits(self) -> dict:
        """The syntactic locality circuits, read-only once stored, keyed
        and filled by `extractor.circuit` alone."""
        return {}

    @cached_property
    def texts(self) -> list:
        """The written line of each axiom of the source ontology, by position
        there, or None: filled by `parser.serialize_ontology` alone."""
        return [None] * len(self.axioms)

    def restrict(self, positions: Sequence[int]) -> "Ontology":
        """The axioms at `positions` (distinct, ascending) as an ontology
        of the same name, sharing their records, the structure numbering and
        the text table of this instance instead of walking the axioms again;
        it skips the deduplication of `__post_init__`, which would hash every
        axiom again. A module of a source keeps `positions` as its `origin`."""
        shapes = self.shapes
        sub = object.__new__(Ontology)
        sub.__dict__.update(
            axioms=tuple(self.axioms[i] for i in positions),
            name=self.name,
            declared=EMPTY_SIGNATURE,
            shapes=tuple(shapes[i] for i in positions),
            structures=self.structures,
            texts=self.texts,
            origin=positions if self.origin is None else tuple(self.origin[i] for i in positions),
        )
        return sub


# ---------------------------------------------------------------------------
# Shapes and signatures
# ---------------------------------------------------------------------------

def axiom_shape(a: Axiom) -> tuple:
    """`(structure, concepts, roles, individuals)`, read in one walk over
    `a`, the only walk that collects an axiom's names. The structure is `a`
    as nested tuples of constructor classes, cardinalities and constants,
    with the k-th distinct concept name met (left to right, depth first)
    written k, and role names numbered the same way on their own.
    `concepts` and `roles` hold the names in the order of their numbers,
    `individuals` the individuals in the order met. Two axioms have equal
    structures exactly when an injective renaming of concepts and roles
    maps one onto the other. Nominals, ⊤, ⊥ and the constant roles stand
    for themselves."""
    concepts: dict[str, int] = {}
    roles: dict[str, int] = {}
    individuals: dict[str, None] = {}
    t = type(a)
    if t is SubClassOf:
        structure = (t, _concept_shape(a.sub, concepts, roles, individuals),
                     _concept_shape(a.sup, concepts, roles, individuals))
    elif t is EquivalentClasses:
        structure = (t, _concept_shape(a.left, concepts, roles, individuals),
                     _concept_shape(a.right, concepts, roles, individuals))
    elif t is SubRoleOf:
        structure = (t, _role_shape(a.sub, roles), _role_shape(a.sup, roles))
    elif t is EquivalentRoles or t is InverseRoles:
        structure = (t, _role_shape(a.left, roles), _role_shape(a.right, roles))
    elif t is Transitive:
        structure = (t, _role_shape(a.role, roles))
    else:
        raise TypeError(f"not an axiom: {a!r}")
    return structure, tuple(concepts), tuple(roles), tuple(individuals)


def _concept_shape(c: Concept, concepts: dict, roles: dict, individuals: dict):
    """The structure of `c` for `axiom_shape`, numbering names in
    `concepts` and `roles` and collecting `individuals`."""
    t = type(c)
    if t is ConceptName:
        return concepts.setdefault(c.name, len(concepts))
    if t is Exists or t is ForAll:
        return (t, _role_shape(c.role, roles),
                _concept_shape(c.filler, concepts, roles, individuals))
    if t is And or t is Or:
        return (t, *[_concept_shape(x, concepts, roles, individuals) for x in c.args])
    if t is Not:
        return (t, _concept_shape(c.arg, concepts, roles, individuals))
    if t is AtLeast or t is AtMost:
        return (t, c.n, _role_shape(c.role, roles),
                _concept_shape(c.filler, concepts, roles, individuals))
    if t is OneOf:
        individuals[c.individual] = None
        return c
    if t is TopType or t is BottomType:
        return c
    raise TypeError(f"not a concept: {c!r}")


def _role_shape(r: Role, roles: dict):
    t = type(r)
    if t is RoleName:
        return roles.setdefault(r.name, len(roles))
    if t is Inverse:
        return (t, _role_shape(r.role, roles))
    if t is EmptyRoleType or t is UniversalRoleType:
        return r
    raise TypeError(f"not a role: {r!r}")


def signature_of(x: Union[Axiom, Concept, Role, Ontology]) -> Signature:
    """The set of concept/role/individual names occurring in `x`: for an
    ontology, read off its `shapes`; otherwise by the walk of
    `axiom_shape`.

    Substitution constants (empty/universal role, ⊤, ⊥) contribute
    nothing.
    """
    if isinstance(x, Ontology):
        shapes = x.shapes
        return Signature(*(frozenset(chain.from_iterable([r[k] for r in shapes])) for k in (1, 2, 3)))
    if isinstance(x, Axiom):
        return Signature(*axiom_shape(x)[1:])
    if isinstance(x, Concept):
        concepts, roles, individuals = {}, {}, {}
        _concept_shape(x, concepts, roles, individuals)
        return Signature(concepts, roles, individuals)
    if isinstance(x, Role):
        roles = {}
        _role_shape(x, roles)
        return Signature(role_names=roles)
    raise TypeError(f"cannot take the signature of {x!r}")


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------

def nnf(c: Concept) -> Concept:
    """Push negation inward until it applies only to concept names and
    nominals. Counting duality: ¬(≥n R.C) becomes ≤(n-1) R.C for n ≥ 1 and
    ∃R.(C ⊓ ¬C) for n = 0; ¬(≤n R.C) becomes ≥(n+1) R.C."""
    return _nnf(c, False)


def complement(c: Concept) -> Concept:
    """Negation normal form of ¬c."""
    return _nnf(c, True)


def _nnf(c: Concept, negated: bool) -> Concept:
    """Negation normal form of `c`, or of ¬c when `negated`: one walk, with
    each constructor's rule beside its dual."""
    t = type(c)
    if t is Not:
        return _nnf(c.arg, not negated)
    if t is And or t is Or:
        args = [_nnf(a, negated) for a in c.args]
        return disj(*args) if (t is Or) != negated else conj(*args)
    if t is Exists or t is ForAll:
        if negated:
            t = ForAll if t is Exists else Exists
        return t(c.role, _nnf(c.filler, negated))
    if t is AtLeast or t is AtMost:
        filler = _nnf(c.filler, False)
        if not negated:
            return t(c.n, c.role, filler)
        if t is AtMost:
            return AtLeast(c.n + 1, c.role, filler)
        if c.n == 0:
            # ¬(≥0 R.C) is unsatisfiable; this bottom-equivalent form keeps
            # the signature intact instead of collapsing to ⊥ outright
            return Exists(c.role, conj(filler, _nnf(c.filler, True)))
        return AtMost(c.n - 1, c.role, filler)
    if not negated:
        return c
    if t is TopType:
        return BOTTOM
    if t is BottomType:
        return TOP
    if t is ConceptName or t is OneOf:
        return Not(c)
    raise TypeError(f"not a concept: {c!r}")


# ---------------------------------------------------------------------------
# Locality flavors
# ---------------------------------------------------------------------------

# (is_syntactic, is_bottom) of each locality flavor, by its value
_FLAVOR_KINDS = {
    "bot": (True, True),
    "top": (True, False),
    "sem-bot": (False, True),
    "sem-top": (False, False),
}


class LocalityFlavor(Enum):
    """The four locality notions: syntactic bottom/top and semantic
    bottom/top."""

    SYN_BOT = "bot"
    SYN_TOP = "top"
    SEM_BOT = "sem-bot"
    SEM_TOP = "sem-top"

    def __init__(self, value: str):
        # plain attributes: every locality check reads them, and an enum
        # property that looks up members costs about half a microsecond
        self.is_syntactic, self.is_bottom = _FLAVOR_KINDS[value]

    # members are singletons, so hashing by identity agrees with equality;
    # `Enum.__hash__` hashes the name in Python, and every lookup in the
    # semantic verdict memo hashes a flavor
    __hash__ = object.__hash__

    def __str__(self):
        return self.value
