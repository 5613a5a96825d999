"""Syntactic bottom-/top-locality via the Bot(Σ)/Top(Σ) grammars.

A concept is classified into Bot(Σ) when the substitution that sends
non-Σ names to the empty set (bottom flavor) or the full domain (top
flavor) forces it to be equivalent to ⊥, and into Top(Σ) when it is
forced to ⊤. Axioms are local when that classification alone makes them
valid. The classification is a sufficient condition: every production is
sound for the corresponding semantic notion, but a concept may be
`NEITHER` and still collapse semantically (the price of staying
polynomial).

The grammar is written once as two monotone Boolean functions per concept
C of which of its names are in Σ: nb, "C is not in Bot(Σ)", and nt, "C is
not in Top(Σ)"; C ⊑ D is non-local iff nb(C) ∧ nt(D). Its rules build over
a builder. Evaluated (`_Evaluator`), a name is "it is in Σ" and the rules
fold to a bool; compiled (`_Compiler`), the rules build every axiom's
non-locality as AND/OR gates, the ontology's `Circuit`, over which the
extractor propagates counters (Dowling & Gallier's Horn propagation).
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from enum import Enum

from .model import (
    And,
    AtLeast,
    AtMost,
    Axiom,
    BottomType,
    Concept,
    ConceptName,
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
    Or,
    Role,
    Signature,
    SubClassOf,
    SubRoleOf,
    TopType,
    Transitive,
    UniversalRoleType,
    normalize_axiom,
    normalize_role,
    role_name_of,
)

__all__ = [
    "Circuit", "SyntacticClass", "classify_concept", "compile_circuit", "is_syntactically_local"
]


class SyntacticClass(Enum):
    IN_BOT = "bot"
    IN_TOP = "top"
    NEITHER = "neither"


def _check_syntactic(flavor: LocalityFlavor):
    if not flavor.is_syntactic:
        raise ValueError(f"expected a syntactic flavor, got {flavor}")


def _role_name(r: Role) -> str:
    """The underlying role name: inversion is transparent, inv(P) is in Σ
    exactly when P is. The substitution constants must not reach the
    syntactic checker."""
    if isinstance(r, (EmptyRoleType, UniversalRoleType)) or (
        isinstance(r, Inverse) and isinstance(r.role, (EmptyRoleType, UniversalRoleType))
    ):
        raise ValueError("substituted role constants have no syntactic classification")
    return role_name_of(r)


def _concept(c, b, bot):
    """(nb, nt) of `c` over the builder `b`, for the bottom flavor if `bot`
    and the top flavor otherwise. nb ∨ nt always holds: no concept is in
    both classes."""
    if isinstance(c, ConceptName):
        # outside Σ a name is ⊥ under the bottom flavor, ⊤ under the top one
        x = b.concept(c.name)
        return (x, True) if bot else (True, x)
    if isinstance(c, And):
        nbs, nts = zip(*[_concept(a, b, bot) for a in c.args])
        return b.and_(nbs), b.or_(nts)
    if isinstance(c, Or):
        nbs, nts = zip(*[_concept(a, b, bot) for a in c.args])
        return b.or_(nbs), b.and_(nts)
    if isinstance(c, Not):
        nb, nt = _concept(c.arg, b, bot)
        return nt, nb
    if isinstance(c, AtLeast) and c.n == 0:
        return True, False
    if isinstance(c, (Exists, AtLeast)):
        # ∃R.C is ≥1 R.C; a role outside Σ is empty under the bottom
        # flavor and universal under the top one
        nb, nt = _concept(c.filler, b, bot)
        r = b.role(_role_name(c.role))
        return (b.and_((nb, r)), True) if bot else (nb, b.or_((r, nt)))
    if isinstance(c, ForAll):
        # a role sent to the empty relation quantifies vacuously
        nb, nt = _concept(c.filler, b, bot)
        return True, (b.and_((nt, b.role(_role_name(c.role)))) if bot else nt)
    if isinstance(c, AtMost):
        if not bot:
            return True, True
        nb, _ = _concept(c.filler, b, bot)
        return True, b.and_((b.role(_role_name(c.role)), nb))
    if isinstance(c, BottomType):
        return False, True
    if isinstance(c, TopType):
        return True, False
    if isinstance(c, OneOf):
        # a nominal denotes a nonempty singleton whatever the signature
        return True, True
    raise TypeError(f"not a concept: {c!r}")


def _nonlocal(a, b, bot, refined):
    """Non-locality of the normalized axiom `a` over the builder `b`."""
    if isinstance(a, SubClassOf):
        nb = _concept(a.sub, b, bot)[0]
        if nb is False:  # the subclass is in Bot(Σ)
            return False
        return b.and_((nb, _concept(a.sup, b, bot)[1]))
    if isinstance(a, EquivalentClasses):
        # local iff both sides are in Bot(Σ) or both in Top(Σ)
        nb_left, nt_left = _concept(a.left, b, bot)
        nb_right, nt_right = _concept(a.right, b, bot)
        return b.and_((b.or_((nb_left, nb_right)), b.or_((nt_left, nt_right))))
    if isinstance(a, SubRoleOf):
        return b.role(_role_name(a.sub if bot else a.sup))
    if isinstance(a, Transitive):
        return b.role(_role_name(a.role))
    if isinstance(a, InverseRoles) and refined:
        if normalize_role(Inverse(a.left)) == normalize_role(a.right):
            return False
    if isinstance(a, (EquivalentRoles, InverseRoles)):
        return b.or_((b.role(_role_name(a.left)), b.role(_role_name(a.right))))
    raise TypeError(f"not a normalized axiom: {a!r}")


class _Evaluator:
    """A name is the Boolean "it is in Σ": the rules fold to a bool."""

    __slots__ = ("concept", "role")
    and_, or_ = staticmethod(all), staticmethod(any)

    def __init__(self, sig: Signature):
        self.concept = sig.concept_names.__contains__
        self.role = sig.role_names.__contains__


def classify_concept(c: Concept, sig: Signature, flavor: LocalityFlavor) -> SyntacticClass:
    """Classify `c` as IN_BOT, IN_TOP, or NEITHER for the given flavor in a
    single recursive pass."""
    _check_syntactic(flavor)
    nb, nt = _concept(c, _Evaluator(sig), flavor is LocalityFlavor.SYN_BOT)
    if not nb:
        return SyntacticClass.IN_BOT
    return SyntacticClass.NEITHER if nt else SyntacticClass.IN_TOP


def is_syntactically_local(
    a: Axiom,
    sig: Signature,
    flavor: LocalityFlavor,
    refined: bool = False,
) -> bool:
    """Decide syntactic locality of `a` w.r.t. `sig`.

    Derived axiom forms (domain, range, disjointness) are reduced first.
    Role axioms are decided on role names alone. With `refined` set, an
    inverse-role axiom whose two sides are inverses of each other after
    normalization counts as local regardless of the signature; this is off
    by default so the checker reproduces the plain grammar behavior.
    """
    _check_syntactic(flavor)
    b = _Evaluator(sig)
    bot = flavor is LocalityFlavor.SYN_BOT
    for p in normalize_axiom(a):
        if _nonlocal(p, b, bot, refined):
            return False
    return True


class Circuit:
    """The syntactic non-locality of the axioms of one ontology, for one
    flavor and `refined`, as AND/OR gates; read-only once built. Gate g
    belongs to the axiom at position `owner[g]` and fires once `need[g]` of
    its inputs have fired (all for an AND, one for an OR). A name fires when
    it enters Σ and a gate when its count reaches 0; either then reaches
    its targets, the name's `uses` or the gate's `up[g]`. A target t ≥ 0 is
    a gate to count down; t < 0 makes the axiom ~t non-local. The axioms in
    `always` are non-local even w.r.t. ∅."""

    __slots__ = ("uses", "need", "owner", "up", "always")

    def __init__(self, uses, need, owner, up, always):
        self.uses, self.need, self.owner, self.up, self.always = uses, need, owner, up, always

    def fire(self, need: list[int], concepts, roles, scope: Collection[int]):
        """Fire the names in `concepts` and `roles` and count down `need`,
        one extraction's copy of the counts, at the gates of the axioms at
        `scope`. Returns the axioms made non-local and the number of counter
        updates, one per target reached."""
        owner, up = self.owner, self.up
        pairs = zip(self.uses, (concepts, roles))
        named = [uses.get(n, ()) for uses, names in pairs for n in names]
        hits = [t for ts in named for t in ts if (owner[t] if t >= 0 else ~t) in scope]
        roots, updates = [], len(hits)
        while hits:
            t = hits.pop()
            if t < 0:
                roots.append(~t)
                continue
            need[t] -= 1
            if not need[t]:
                hits.append(up[t])
                updates += 1
        return roots, updates


def _fold(inputs, absorbing: bool):
    """The AND (`absorbing` False) or OR (True) of `inputs` with the
    constants folded; two or more inputs left make a `(need, inputs)` gate."""
    kept = []
    for x in inputs:
        if x is absorbing:
            return absorbing
        if x is not (not absorbing):
            kept.append(x)
    if len(kept) < 2:
        return kept[0] if kept else not absorbing
    return (1 if absorbing else len(kept), kept)


class _Compiler:
    """A name is the list of its targets, shared by all axioms, so the
    rules build gates. `place` numbers them from an axiom's root down, so
    the unused half of an (nb, nt) pair is never placed."""

    and_ = staticmethod(lambda inputs: _fold(inputs, False))
    or_ = staticmethod(lambda inputs: _fold(inputs, True))

    def __init__(self):
        self.uses: tuple[dict, dict] = ({}, {})  # concept and role names
        self.need, self.owner, self.up = [], [], []

    def concept(self, name):
        return self.uses[0].setdefault(name, [])

    def role(self, name):
        return self.uses[1].setdefault(name, [])

    def place(self, gate, owner: int, up: int):
        """Number `gate` and its inputs for the axiom `owner`, feeding `up`."""
        if isinstance(gate, list):  # a name
            gate.append(up)
            return
        g = len(self.need)
        self.need.append(gate[0])
        self.owner.append(owner)
        self.up.append(up)
        for x in gate[1]:
            self.place(x, owner, g)


def compile_circuit(axioms: Sequence[Axiom], flavor: LocalityFlavor, refined=False) -> Circuit:
    """The `Circuit` of syntactic non-locality of `axioms`, by position."""
    _check_syntactic(flavor)
    b = _Compiler()
    bot = flavor is LocalityFlavor.SYN_BOT
    always: list[int] = []
    for i, a in enumerate(axioms):
        root = b.or_([_nonlocal(p, b, bot, refined) for p in normalize_axiom(a)])
        if root is True:
            always.append(i)
        elif root is not False:
            b.place(root, i, ~i)
    uses = tuple({n: tuple(gates) for n, gates in by.items()} for by in b.uses)
    return Circuit(uses, tuple(b.need), tuple(b.owner), tuple(b.up), tuple(always))
