"""Semantic locality via substitution and validity, and the verdict memo.

An axiom is semantically local w.r.t. Σ exactly when the axiom obtained by
sending every non-Σ concept name to ⊥ (bottom flavor) or ⊤ (top flavor)
and every non-Σ role to the empty or universal relation is valid: the
non-Σ part of any interpretation can always be rewired to those constants
without touching Σ, so locality reduces to the validity test that
`is_tautology` applies to an axiom as it stands. A role axiom, over role
names and the constants, is valid by structure alone. Substitution folds
the constants it brings in, so a concept axiom that collapses to ⊥ ⊑ D
or C ⊑ ⊤ is valid at once; the others go through negation normal form,
constant propagation and then the tableau. `verdicts_in` keeps the
verdicts of an ontology's axioms, of all four flavors, one per axiom
shape, and answers a whole batch of positions in one pass.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from operator import is_

from .model import (
    And,
    AtLeast,
    AtMost,
    Axiom,
    BOTTOM,
    BottomType,
    Concept,
    ConceptName,
    EMPTY_ROLE,
    EmptyRoleType,
    EquivalentClasses,
    EquivalentRoles,
    Exists,
    ForAll,
    InverseRoles,
    LocalityFlavor,
    Not,
    OneOf,
    Ontology,
    Or,
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
    is_self_inverse,
    nnf,
    role_name_of,
)
from .syntactic import is_syntactically_local
from .tableau import Budget, SatResult, SatStatus, is_satisfiable

__all__ = [
    "Locality",
    "Verdict",
    "substitute",
    "simplify",
    "is_tautology",
    "is_semantically_local",
    "verdicts_in",
]


class Locality(Enum):
    LOCAL = "local"
    NON_LOCAL = "non-local"
    UNKNOWN = "unknown"


# a check reads several enum members: off the class each read is ~10x slower
IS_LOCAL, IS_NON_LOCAL, IS_UNKNOWN = Locality.LOCAL, Locality.NON_LOCAL, Locality.UNKNOWN
_SAT, _UNSAT, _GAVE_UP = SatStatus.SATISFIABLE, SatStatus.UNSATISFIABLE, SatStatus.UNKNOWN


@dataclass(frozen=True)
class Verdict:
    """Outcome of a locality check. UNKNOWN comes only from the budget or
    the universal-role counting valve of a semantic check; callers that
    need a module guarantee must treat it as non-local."""

    status: Locality
    reason: str | None = None

    @property
    def is_local(self) -> bool:
        return self.status is IS_LOCAL


LOCAL = Verdict(IS_LOCAL)
NON_LOCAL = Verdict(IS_NON_LOCAL)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

_RESTRICTIONS = (Exists, ForAll, AtLeast, AtMost)


def _sub_role(r: Role, sig: Signature, repl: Role) -> Role:
    name = role_name_of(r)
    if name is None:
        return r  # already a constant
    if name in sig.role_names:
        return r
    return repl


def _sub_concept(c: Concept, sig: Signature, repl_c: Concept, repl_r: Role) -> Concept:
    """`c` with the names outside `sig` replaced: a subterm left unchanged is
    the same object, and a changed one is folded by the rule of `simplify`
    for its constructor, so only the constants substitution brings in fold."""
    if isinstance(c, ConceptName):
        return c if c.name in sig.concept_names else repl_c
    if isinstance(c, (And, Or)):
        role, args = None, c.args
    elif isinstance(c, Not):
        role, args = None, (c.arg,)
    elif isinstance(c, _RESTRICTIONS):
        role, args = _sub_role(c.role, sig, repl_r), (c.filler,)
    elif isinstance(c, (TopType, BottomType, OneOf)):
        return c
    else:
        raise TypeError(f"not a concept: {c!r}")
    subbed = [_sub_concept(a, sig, repl_c, repl_r) for a in args]
    if (role is None or role is c.role) and all(map(is_, subbed, args)):
        return c
    return _fold(c, role, subbed)


def substitute(a: Axiom, sig: Signature, flavor: LocalityFlavor) -> Axiom:
    """Replace every concept name outside `sig` by ⊥/⊤ and every role whose
    name is outside `sig` by the empty/universal relation. Nominals are
    untouched: an individual denotes one element no matter the signature.
    The constants brought in are folded as `simplify` folds them (so an
    axiom whose names `sig` covers comes back unchanged); probes built from
    the result equal those built from the unfolded substitution."""
    if flavor.is_syntactic:
        raise ValueError(f"expected a semantic flavor, got {flavor}")
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
    if isinstance(a, SubRoleOf):
        return SubRoleOf(sr(a.sub), sr(a.sup))
    if isinstance(a, EquivalentRoles):
        return EquivalentRoles(sr(a.left), sr(a.right))
    if isinstance(a, InverseRoles):
        return InverseRoles(sr(a.left), sr(a.right))
    if isinstance(a, Transitive):
        return Transitive(sr(a.role))
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
    if isinstance(c, (And, Or)):
        return _fold(c, None, map(simplify, c.args))
    if isinstance(c, Not):
        return _fold(c, None, (simplify(c.arg),))
    if isinstance(c, AtLeast) and c.n == 0:
        return TOP
    if isinstance(c, _RESTRICTIONS):
        return _fold(c, c.role, (simplify(c.filler),))
    return c


def _fold(c: Concept, role: Role | None, args) -> Concept:
    """`c` rebuilt over `role` and its simplified arguments `args`, with the
    constants folded by the rule for its constructor. An absorbing argument
    stops a lazy `args`. ≥0 is left to `simplify`: folding it here would
    change the probe that the negation of ≥0 R.C yields in `nnf`."""
    if isinstance(c, (And, Or)):
        absorbing, unit = (BottomType, TopType) if isinstance(c, And) else (TopType, BottomType)
        kept = []
        for a in args:
            if isinstance(a, absorbing):
                return BOTTOM if absorbing is BottomType else TOP
            if not isinstance(a, unit):
                kept.append(a)
        return conj(*kept) if absorbing is BottomType else disj(*kept)
    (a,) = args
    if isinstance(c, Not):
        if isinstance(a, (TopType, BottomType)):
            return BOTTOM if isinstance(a, TopType) else TOP
        return a.arg if isinstance(a, Not) else Not(a)
    empty = isinstance(role, EmptyRoleType)
    if isinstance(c, ForAll):
        return TOP if empty or isinstance(a, TopType) else ForAll(role, a)
    if isinstance(c, AtMost):
        return TOP if empty or isinstance(a, BottomType) else AtMost(c.n, role, a)
    if (empty or isinstance(a, BottomType)) and not (isinstance(c, AtLeast) and c.n == 0):
        return BOTTOM
    return Exists(role, a) if isinstance(c, Exists) else AtLeast(c.n, role, a)


# ---------------------------------------------------------------------------
# Validity
# ---------------------------------------------------------------------------

def is_tautology(a: Axiom, budget: Budget | None = None) -> bool | None:
    """Validity of `a`, of any of the six axiom kinds, by the test that
    `is_semantically_local` applies to a substituted axiom. None means the
    reasoner gave up (budget or safety valve)."""
    verdict = _validity(a, budget)
    return None if verdict.status is IS_UNKNOWN else verdict.is_local


def _validity(s: Axiom, budget: Budget | None) -> Verdict:
    """Validity of the axiom `s`, as LOCAL (valid), NON_LOCAL or an UNKNOWN
    with the tableau's reason. C ⊑ D is valid iff nnf(C ⊓ ¬D) has no model,
    and an equivalence checks both directions. A role axiom, over role
    names and the substitution constants, is valid by structure alone."""
    if isinstance(s, (SubClassOf, EquivalentClasses)):
        left, right = (s.sub, s.sup) if isinstance(s, SubClassOf) else (s.left, s.right)
        result = _counterexample(left, right, budget)
        if result.status is not _SAT and isinstance(s, EquivalentClasses):
            backward = _counterexample(right, left, budget)
            result = result if backward.status is _UNSAT else backward
        if result.status is _GAVE_UP:
            return Verdict(IS_UNKNOWN, reason=result.reason)
        return LOCAL if result.status is _UNSAT else NON_LOCAL
    if isinstance(s, SubRoleOf):
        valid = (
            isinstance(s.sub, EmptyRoleType)
            or isinstance(s.sup, UniversalRoleType)
            or s.sub == s.sup
        )
    elif isinstance(s, EquivalentRoles):
        valid = s.left == s.right
    elif isinstance(s, InverseRoles):
        valid = is_self_inverse(s)
    elif isinstance(s, Transitive):
        valid = isinstance(s.role, (EmptyRoleType, UniversalRoleType))
    else:
        raise TypeError(f"not an axiom: {s!r}")
    return LOCAL if valid else NON_LOCAL


_NO_COUNTEREXAMPLE = SatResult(_UNSAT)


def _counterexample(sub: Concept, sup: Concept, budget: Budget | None) -> SatResult:
    """Satisfiability of the probe simplify(nnf(sub ⊓ ¬sup)). A substituted
    ⊥ ⊑ D or C ⊑ ⊤ has no counterexample, found before any probe is built."""
    if type(sub) is BottomType or type(sup) is TopType:
        return _NO_COUNTEREXAMPLE
    return is_satisfiable(simplify(nnf(conj(sub, Not(sup)))), budget)


# ---------------------------------------------------------------------------
# Locality
# ---------------------------------------------------------------------------

def is_semantically_local(
    a: Axiom,
    sig: Signature,
    flavor: LocalityFlavor,
    budget: Budget | None = None,
) -> Verdict:
    """Decide semantic locality of `a` w.r.t. `sig` for the given flavor:
    the validity of its substitution. Nothing is memoized: `verdicts_in`
    keeps the definite verdicts of an ontology's axioms."""
    return _validity(substitute(a, sig, flavor), budget)


def verdicts_in(
    o: Ontology,
    positions: Iterable[int],
    sig: Signature,
    flavor: LocalityFlavor,
    budget: Budget | None = None,
) -> tuple[list[int], dict[int, Verdict]]:
    """The verdicts of the axioms of `o` at `positions` for any flavor,
    memoized in `o.verdicts`: `is_syntactically_local` for a syntactic
    flavor, `is_semantically_local` (under `budget`) for a semantic one.
    Returns the positions not local, in the order given and an UNKNOWN
    among them, and the UNKNOWN verdicts by position.

    The grammar and substitution read only the concept and role names of
    the axiom, and an injective renaming of concepts and roles maps each
    grammar walk to an equal one and each probe to an isomorphic one, so
    the verdict depends on `sig` only through which of the axiom's names
    lie in it. The key is read off the axiom's record in `o.shapes`: the
    flavor, the number of its structure and, for each of its concept names
    and then each of its role names in the order of their numbers, whether
    it lies in `sig` among the names of its kind. Renamed copies of an
    axiom, and one axiom under signatures that share the same of its
    names, meet one key. LOCAL and NON_LOCAL hold under every budget, so no
    budget enters the key; an UNKNOWN is returned but not kept, and a later
    call tries again.
    """
    shapes, axioms, memo = o.shapes, o.axioms, o.verdicts
    # `map` over bound membership tests: before Python 3.12 each list
    # comprehension is a function call, and every position pays for its key
    in_concepts, in_roles = sig.concept_names.__contains__, sig.role_names.__contains__
    syntactic = flavor.is_syntactic
    found: list[int] = []
    unknown: dict[int, Verdict] = {}
    for i in positions:
        number, concepts, roles, _ = shapes[i]
        key = (flavor, number, *map(in_concepts, concepts), *map(in_roles, roles))
        verdict = memo.get(key)
        if verdict is None:
            # the checks are read off the module at call time, so a
            # wrapper put there sees every miss
            if syntactic:
                verdict = LOCAL if is_syntactically_local(axioms[i], sig, flavor) else NON_LOCAL
            else:
                verdict = is_semantically_local(axioms[i], sig, flavor, budget)
                if verdict.status is IS_UNKNOWN:
                    unknown[i] = verdict
                    found.append(i)
                    continue
            memo[key] = verdict
        if verdict.status is IS_NON_LOCAL:
            found.append(i)
    return found, unknown
