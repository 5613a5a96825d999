"""Substitution without constant folding, as `locmod.semantic` did it before
its substitution folded the constants it brings in: every concept name
outside Σ becomes ⊥/⊤, every role outside Σ the empty/universal relation,
and the tree is rebuilt around them unchanged. Probes built from it are
the reference for the folding one."""

from __future__ import annotations

from locmod.model import (
    BOTTOM,
    EMPTY_ROLE,
    TOP,
    UNIVERSAL_ROLE,
    And,
    AtLeast,
    AtMost,
    Axiom,
    BottomType,
    Concept,
    ConceptName,
    EquivalentClasses,
    EquivalentRoles,
    Exists,
    ForAll,
    InverseRoles,
    LocalityFlavor,
    Not,
    OneOf,
    Or,
    Role,
    Signature,
    SubClassOf,
    SubRoleOf,
    TopType,
    Transitive,
    conj,
    disj,
    role_name_of,
)


def _role(r: Role, sig: Signature, repl: Role) -> Role:
    name = role_name_of(r)
    if name is None or name in sig.role_names:
        return r
    return repl


def _concept(c: Concept, sig: Signature, repl_c: Concept, repl_r: Role) -> Concept:
    if isinstance(c, ConceptName):
        return c if c.name in sig.concept_names else repl_c
    if isinstance(c, (TopType, BottomType, OneOf)):
        return c
    if isinstance(c, Not):
        return Not(_concept(c.arg, sig, repl_c, repl_r))
    if isinstance(c, And):
        return conj(*[_concept(a, sig, repl_c, repl_r) for a in c.args])
    if isinstance(c, Or):
        return disj(*[_concept(a, sig, repl_c, repl_r) for a in c.args])
    role, filler = _role(c.role, sig, repl_r), _concept(c.filler, sig, repl_c, repl_r)
    if isinstance(c, (Exists, ForAll)):
        return type(c)(role, filler)
    if isinstance(c, (AtLeast, AtMost)):
        return type(c)(c.n, role, filler)
    raise TypeError(f"not a concept: {c!r}")


def substitute(a: Axiom, sig: Signature, flavor: LocalityFlavor) -> Axiom:
    """The substitution of the axiom `a`, unfolded."""
    bottom = flavor.is_bottom
    repl_c, repl_r = (BOTTOM, EMPTY_ROLE) if bottom else (TOP, UNIVERSAL_ROLE)

    def sc(c):
        return _concept(c, sig, repl_c, repl_r)

    def sr(r):
        return _role(r, sig, repl_r)

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
