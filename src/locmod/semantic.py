"""Semantic locality via substitution and validity.

An axiom is semantically local w.r.t. Σ exactly when the axiom obtained by
sending every non-Σ concept name to ⊥ (bottom flavor) or ⊤ (top flavor)
and every non-Σ role to the empty or universal relation is valid: the
non-Σ part of any interpretation can always be rewired to those constants
without touching Σ, so locality reduces to a tautology test. Role axioms
over the constants are decided structurally; concept axioms go through
constant propagation and then the tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import (
    And,
    AtLeast,
    AtMost,
    Axiom,
    BOTTOM,
    BottomType,
    Concept,
    ConceptName,
    DisjointClasses,
    Domain,
    EMPTY_ROLE,
    EmptyRoleType,
    EquivalentClasses,
    EquivalentRoles,
    Exists,
    ForAll,
    Inverse,
    InverseRoles,
    LocalityFlavor,
    Not,
    OneOf,
    Ontology,
    Or,
    Range,
    Role,
    Signature,
    SubClassOf,
    SubRoleOf,
    TOP,
    TopType,
    Transitive,
    UNIVERSAL_ROLE,
    UniversalRoleType,
    conj,
    disj,
    nnf,
    normalize_axiom,
    normalize_role,
    role_name_of,
)
from .tableau import Budget, DEFAULT_BUDGET, SatStatus, is_satisfiable

__all__ = [
    "Locality",
    "Verdict",
    "substitute",
    "simplify",
    "is_tautology",
    "is_semantically_local",
    "verdict_in",
]


class Locality(Enum):
    LOCAL = "local"
    NON_LOCAL = "non-local"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a semantic locality check. UNKNOWN comes only from the
    budget or the universal-role counting valve; callers that need a module
    guarantee must treat it as non-local."""

    status: Locality
    reason: str | None = None

    @property
    def is_local(self) -> bool:
        return self.status is Locality.LOCAL


LOCAL = Verdict(Locality.LOCAL)
NON_LOCAL = Verdict(Locality.NON_LOCAL)


def _check_semantic(flavor: LocalityFlavor):
    if flavor.is_syntactic:
        raise ValueError(f"expected a semantic flavor, got {flavor}")


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def _sub_role(r: Role, sig: Signature, repl: Role) -> Role:
    name = role_name_of(r)
    if name is None:
        return r  # already a constant
    if name in sig.role_names:
        return r
    return repl


def _sub_concept(c: Concept, sig: Signature, repl_c: Concept, repl_r: Role) -> Concept:
    if isinstance(c, ConceptName):
        return c if c.name in sig.concept_names else repl_c
    if isinstance(c, (TopType, BottomType, OneOf)):
        return c
    if isinstance(c, Not):
        return Not(_sub_concept(c.arg, sig, repl_c, repl_r))
    if isinstance(c, And):
        return conj(*[_sub_concept(a, sig, repl_c, repl_r) for a in c.args])
    if isinstance(c, Or):
        return disj(*[_sub_concept(a, sig, repl_c, repl_r) for a in c.args])
    if isinstance(c, Exists):
        return Exists(_sub_role(c.role, sig, repl_r), _sub_concept(c.filler, sig, repl_c, repl_r))
    if isinstance(c, ForAll):
        return ForAll(_sub_role(c.role, sig, repl_r), _sub_concept(c.filler, sig, repl_c, repl_r))
    if isinstance(c, AtLeast):
        return AtLeast(c.n, _sub_role(c.role, sig, repl_r), _sub_concept(c.filler, sig, repl_c, repl_r))
    if isinstance(c, AtMost):
        return AtMost(c.n, _sub_role(c.role, sig, repl_r), _sub_concept(c.filler, sig, repl_c, repl_r))
    raise TypeError(f"not a concept: {c!r}")


def substitute(a: Axiom, sig: Signature, flavor: LocalityFlavor) -> Axiom:
    """Replace every concept name outside `sig` by ⊥/⊤ and every role whose
    name is outside `sig` by the empty/universal relation. Nominals are
    untouched: an individual denotes one element no matter the signature."""
    _check_semantic(flavor)
    if flavor.is_bottom:
        repl_c: Concept = BOTTOM
        repl_r: Role = EMPTY_ROLE
    else:
        repl_c = TOP
        repl_r = UNIVERSAL_ROLE

    def sc(c):
        return _sub_concept(c, sig, repl_c, repl_r)

    def sr(r):
        return _sub_role(r, sig, repl_r)

    if isinstance(a, SubClassOf):
        return SubClassOf(sc(a.sub), sc(a.sup))
    if isinstance(a, EquivalentClasses):
        return EquivalentClasses(sc(a.left), sc(a.right))
    if isinstance(a, DisjointClasses):
        return DisjointClasses(sc(a.left), sc(a.right))
    if isinstance(a, SubRoleOf):
        return SubRoleOf(sr(a.sub), sr(a.sup))
    if isinstance(a, EquivalentRoles):
        return EquivalentRoles(sr(a.left), sr(a.right))
    if isinstance(a, InverseRoles):
        return InverseRoles(sr(a.left), sr(a.right))
    if isinstance(a, Transitive):
        return Transitive(sr(a.role))
    if isinstance(a, Domain):
        return Domain(sr(a.role), sc(a.filler))
    if isinstance(a, Range):
        return Range(sr(a.role), sc(a.filler))
    raise TypeError(f"not an axiom: {a!r}")


# ---------------------------------------------------------------------------
# Constant propagation
# ---------------------------------------------------------------------------

def simplify(c: Concept) -> Concept:
    """Fold the substitution constants: quantification over the empty role
    collapses, ⊥ fillers collapse, ≥0 is ⊤, and booleans fold. The
    universal role is left in place for the tableau. One bottom-up pass
    reaches the fixpoint because every rewrite yields an already-simple
    result."""
    if isinstance(c, Not):
        a = simplify(c.arg)
        if isinstance(a, TopType):
            return BOTTOM
        if isinstance(a, BottomType):
            return TOP
        if isinstance(a, Not):
            return a.arg
        return Not(a)
    if isinstance(c, And):
        args = []
        for a in c.args:
            s = simplify(a)
            if isinstance(s, BottomType):
                return BOTTOM
            if not isinstance(s, TopType):
                args.append(s)
        return conj(*args)
    if isinstance(c, Or):
        args = []
        for a in c.args:
            s = simplify(a)
            if isinstance(s, TopType):
                return TOP
            if not isinstance(s, BottomType):
                args.append(s)
        return disj(*args)
    if isinstance(c, Exists):
        filler = simplify(c.filler)
        if isinstance(normalize_role(c.role), EmptyRoleType):
            return BOTTOM
        if isinstance(filler, BottomType):
            return BOTTOM
        return Exists(c.role, filler)
    if isinstance(c, ForAll):
        filler = simplify(c.filler)
        if isinstance(normalize_role(c.role), EmptyRoleType):
            return TOP
        if isinstance(filler, TopType):
            return TOP
        return ForAll(c.role, filler)
    if isinstance(c, AtLeast):
        filler = simplify(c.filler)
        if c.n == 0:
            return TOP
        if isinstance(normalize_role(c.role), EmptyRoleType):
            return BOTTOM
        if isinstance(filler, BottomType):
            return BOTTOM
        return AtLeast(c.n, c.role, filler)
    if isinstance(c, AtMost):
        filler = simplify(c.filler)
        if isinstance(normalize_role(c.role), EmptyRoleType):
            return TOP
        if isinstance(filler, BottomType):
            return TOP
        return AtMost(c.n, c.role, filler)
    return c


# ---------------------------------------------------------------------------
# Validity
# ---------------------------------------------------------------------------

def is_tautology(a: Axiom, budget: Budget | None = None) -> bool | None:
    """Validity of a concept axiom, by refuting the satisfiability of the
    negation: C ⊑ D is valid iff nnf(C ⊓ ¬D) has no model. Equivalences
    check both directions. None means the reasoner gave up (budget or
    safety valve)."""
    if budget is None:
        budget = DEFAULT_BUDGET
    if isinstance(a, SubClassOf):
        return _subsumption_valid(a.sub, a.sup, budget)
    if isinstance(a, EquivalentClasses):
        forward = _subsumption_valid(a.left, a.right, budget)
        if forward is False:
            return False
        backward = _subsumption_valid(a.right, a.left, budget)
        if backward is False:
            return False
        if forward is None or backward is None:
            return None
        return True
    raise TypeError(f"expected a concept axiom after substitution, got {a!r}")


def _subsumption_valid(sub: Concept, sup: Concept, budget: Budget) -> bool | None:
    probe = simplify(nnf(conj(sub, Not(sup))))
    result = is_satisfiable(probe, budget)
    if result.status is SatStatus.UNSATISFIABLE:
        return True
    if result.status is SatStatus.SATISFIABLE:
        return False
    return None


# ---------------------------------------------------------------------------
# Locality
# ---------------------------------------------------------------------------

def is_semantically_local(
    a: Axiom,
    sig: Signature,
    flavor: LocalityFlavor,
    budget: Budget | None = None,
) -> Verdict:
    """Decide semantic locality of `a` w.r.t. `sig` for the given flavor.

    The axiom is normalized and each part decided on its own; the result
    is the worst verdict of the parts. Nothing is memoized: `verdict_in`
    keeps the definite verdicts of an ontology's axioms.
    """
    _check_semantic(flavor)
    if budget is None:
        budget = DEFAULT_BUDGET
    worst = LOCAL
    for part in normalize_axiom(a):
        v = _verdict_one(part, sig, flavor, budget)
        if v.status is Locality.NON_LOCAL:
            return v
        if v.status is Locality.UNKNOWN:
            worst = v
    return worst


def verdict_in(
    o: Ontology,
    i: int,
    sig: Signature,
    flavor: LocalityFlavor,
    budget: Budget | None = None,
) -> Verdict:
    """`is_semantically_local` of axiom `i` of `o`, memoized in `o.verdicts`.

    Substitution reads only the concept and role names of the axiom, so the
    verdict depends on `sig` only through the names the two share; the key
    is the axiom index, the flavor and those shared names. LOCAL and
    NON_LOCAL hold under every budget, so no budget enters the key; an
    UNKNOWN is returned but not kept, and a later call tries again.
    """
    names = o.axiom_signatures[i]
    key = (
        i,
        flavor,
        sig.concept_names & names.concept_names,
        sig.role_names & names.role_names,
    )
    verdict = o.verdicts.get(key)
    if verdict is None:
        verdict = is_semantically_local(o.axioms[i], sig, flavor, budget)
        if verdict.status is not Locality.UNKNOWN:
            o.verdicts[key] = verdict
    return verdict


def _verdict_one(a: Axiom, sig: Signature, flavor: LocalityFlavor, budget: Budget) -> Verdict:
    s = substitute(a, sig, flavor)
    if isinstance(s, (SubClassOf, EquivalentClasses)):
        taut = is_tautology(s, budget)
        if taut is True:
            return LOCAL
        if taut is False:
            return NON_LOCAL
        return Verdict(Locality.UNKNOWN, reason="tautology check gave up")
    # role axioms: validity over the substitution constants is structural
    if isinstance(s, SubRoleOf):
        valid = (
            isinstance(s.sub, EmptyRoleType)
            or isinstance(s.sup, UniversalRoleType)
            or normalize_role(s.sub) == normalize_role(s.sup)
        )
    elif isinstance(s, EquivalentRoles):
        valid = normalize_role(s.left) == normalize_role(s.right)
    elif isinstance(s, InverseRoles):
        valid = normalize_role(Inverse(s.left)) == normalize_role(s.right)
    elif isinstance(s, Transitive):
        valid = isinstance(
            normalize_role(s.role), (EmptyRoleType, UniversalRoleType)
        )
    else:
        raise TypeError(f"not a normalized axiom: {s!r}")
    return LOCAL if valid else NON_LOCAL
