"""The recursive Bot(Σ)/Top(Σ) classifier that `locmod.syntactic` used
before its grammar was written once over a builder, kept as a reference:
`is_syntactically_local` here must equal the package's on every input,
and `classify_concept` the class the package's grammar gives a concept.
Like the package, it leaves ≥n R.C with n ≥ 2 out of Top(Σ): with R
outside Σ it is ⊤ only in domains of at least n elements."""

from __future__ import annotations

from enum import Enum

from locmod.model import (
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
    Inverse,
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
    role_name_of,
)


class SyntacticClass(Enum):
    IN_BOT = "bot"
    IN_TOP = "top"
    NEITHER = "neither"


def _role_outside(r: Role, sig: Signature) -> bool:
    """True when the underlying role name is not in the signature.

    Inversion is transparent: inv(P) is outside Σ exactly when P is. The
    substitution constants must not reach the syntactic checker.
    """
    name = role_name_of(r)
    if name is None:
        raise ValueError("substituted role constants have no syntactic classification")
    return name not in sig.role_names


def classify_concept(c: Concept, sig: Signature, flavor: LocalityFlavor) -> SyntacticClass:
    """Classify `c` as IN_BOT, IN_TOP, or NEITHER for the given flavor in a
    single recursive pass."""
    return _classify(c, sig, flavor is LocalityFlavor.SYN_BOT)


def _classify(c, sig, bot_flavor) -> SyntacticClass:
    if isinstance(c, BottomType):
        return SyntacticClass.IN_BOT
    if isinstance(c, TopType):
        return SyntacticClass.IN_TOP
    if isinstance(c, ConceptName):
        if c.name in sig.concept_names:
            return SyntacticClass.NEITHER
        return SyntacticClass.IN_BOT if bot_flavor else SyntacticClass.IN_TOP
    if isinstance(c, OneOf):
        # A nominal denotes a nonempty singleton whatever the signature.
        return SyntacticClass.NEITHER
    if isinstance(c, Not):
        sub = _classify(c.arg, sig, bot_flavor)
        if sub is SyntacticClass.IN_TOP:
            return SyntacticClass.IN_BOT
        if sub is SyntacticClass.IN_BOT:
            return SyntacticClass.IN_TOP
        return SyntacticClass.NEITHER
    if isinstance(c, And):
        kinds = [_classify(a, sig, bot_flavor) for a in c.args]
        if any(k is SyntacticClass.IN_BOT for k in kinds):
            return SyntacticClass.IN_BOT
        if all(k is SyntacticClass.IN_TOP for k in kinds):
            return SyntacticClass.IN_TOP
        return SyntacticClass.NEITHER
    if isinstance(c, Or):
        kinds = [_classify(a, sig, bot_flavor) for a in c.args]
        if any(k is SyntacticClass.IN_TOP for k in kinds):
            return SyntacticClass.IN_TOP
        if all(k is SyntacticClass.IN_BOT for k in kinds):
            return SyntacticClass.IN_BOT
        return SyntacticClass.NEITHER
    if isinstance(c, AtLeast) and c.n == 0:
        return SyntacticClass.IN_TOP
    if isinstance(c, (Exists, AtLeast)):
        # ∃R.C is ≥1 R.C
        filler = _classify(c.filler, sig, bot_flavor)
        outside = _role_outside(c.role, sig)
        if bot_flavor:
            if filler is SyntacticClass.IN_BOT or outside:
                return SyntacticClass.IN_BOT
            return SyntacticClass.NEITHER
        if filler is SyntacticClass.IN_BOT:
            return SyntacticClass.IN_BOT
        counting = isinstance(c, AtLeast) and c.n > 1
        if outside and filler is SyntacticClass.IN_TOP and not counting:
            return SyntacticClass.IN_TOP
        return SyntacticClass.NEITHER
    if isinstance(c, ForAll):
        filler = _classify(c.filler, sig, bot_flavor)
        if filler is SyntacticClass.IN_TOP:
            return SyntacticClass.IN_TOP
        if bot_flavor and _role_outside(c.role, sig):
            # a role sent to the empty relation quantifies vacuously
            return SyntacticClass.IN_TOP
        return SyntacticClass.NEITHER
    if isinstance(c, AtMost):
        if bot_flavor:
            if _role_outside(c.role, sig):
                return SyntacticClass.IN_TOP
            if _classify(c.filler, sig, bot_flavor) is SyntacticClass.IN_BOT:
                return SyntacticClass.IN_TOP
        return SyntacticClass.NEITHER
    raise TypeError(f"not a concept: {c!r}")


def is_syntactically_local(
    a: Axiom,
    sig: Signature,
    flavor: LocalityFlavor,
    refined: bool = False,
) -> bool:
    """Decide syntactic locality of `a` w.r.t. `sig`.

    Role axioms are decided on role names alone. With `refined` set, an
    inverse-role axiom whose two sides are inverses of each other counts as
    local regardless of the signature; this is off by default so the
    checker reproduces the plain grammar behavior.
    """
    return _axiom_local(a, sig, flavor, refined)


def _axiom_local(a, sig, flavor, refined) -> bool:
    bot_flavor = flavor is LocalityFlavor.SYN_BOT
    if isinstance(a, SubClassOf):
        if _classify(a.sub, sig, bot_flavor) is SyntacticClass.IN_BOT:
            return True
        return _classify(a.sup, sig, bot_flavor) is SyntacticClass.IN_TOP
    if isinstance(a, EquivalentClasses):
        left = _classify(a.left, sig, bot_flavor)
        right = _classify(a.right, sig, bot_flavor)
        return left is right and left is not SyntacticClass.NEITHER
    if isinstance(a, SubRoleOf):
        return _role_outside(a.sub if bot_flavor else a.sup, sig)
    if isinstance(a, Transitive):
        return _role_outside(a.role, sig)
    if isinstance(a, EquivalentRoles):
        return _role_outside(a.left, sig) and _role_outside(a.right, sig)
    if isinstance(a, InverseRoles):
        if refined and Inverse(a.left) == a.right:
            return True
        return _role_outside(a.left, sig) and _role_outside(a.right, sig)
    raise TypeError(f"not an axiom: {a!r}")
