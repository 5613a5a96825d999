"""Syntactic bottom-/top-locality via the Bot(Σ)/Top(Σ) grammars.

A concept is classified into Bot(Σ) when the substitution that sends
non-Σ names to the empty set (bottom flavor) or the full domain (top
flavor) forces it to be equivalent to ⊥, and into Top(Σ) when it is
forced to ⊤. Axioms are local when that classification alone makes them
valid. The classification is a sufficient condition: a concept may be in
neither class and still collapse semantically (the price of staying
polynomial). Every production is sound for the corresponding semantic
notion, so an axiom called local for a flavor is semantically local for
the flavor of the same polarity. In particular ≥n R.C with n ≥ 2 is never
in Top(Σ): with R outside Σ it is ⊤ only in domains of at least n
elements.

The grammar is written once as two monotone Boolean functions per concept
C of which of its names are in Σ: nb, "C is not in Bot(Σ)", and nt, "C is
not in Top(Σ)"; C ⊑ D is non-local iff nb(C) ∧ nt(D). Its rules build over
a builder. Evaluated (`_Evaluator`), a name is "it is in Σ" and the rules
fold to a bool. Compiled (`compile_circuit`), the rules build the AND/OR
gates of each axiom structure once, and each axiom copies them, fed by its
own names, into the ontology's `Circuit`, over which the extractor
propagates counters (Dowling & Gallier's Horn propagation).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Collection

from .model import (
    And,
    AtLeast,
    AtMost,
    Axiom,
    BottomType,
    ConceptName,
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
    TopType,
    Transitive,
    is_self_inverse,
    role_name_of,
)

__all__ = ["Circuit", "compile_circuit", "is_syntactically_local"]


def _role_name(r: Role) -> str:
    """The underlying role name: inversion is transparent, inv(P) is in Σ
    exactly when P is. The substitution constants must not reach the
    syntactic checker."""
    name = role_name_of(r)
    if name is None:
        raise ValueError("substituted role constants have no syntactic classification")
    return name


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
        # flavor and universal under the top one, where ≥n R.C is ⊤ only
        # in domains of at least n elements
        nb, nt = _concept(c.filler, b, bot)
        r = b.role(_role_name(c.role))
        if bot:
            return b.and_((nb, r)), True
        if isinstance(c, AtLeast) and c.n > 1:
            return nb, True
        return nb, b.or_((r, nt))
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


def _nonlocal(a, b, bot):
    """Non-locality of the axiom `a` over the builder `b`."""
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
    if isinstance(a, (EquivalentRoles, InverseRoles)):
        return b.or_((b.role(_role_name(a.left)), b.role(_role_name(a.right))))
    raise TypeError(f"not an axiom: {a!r}")


class _Evaluator:
    """A name is the Boolean "it is in Σ": the rules fold to a bool."""

    __slots__ = ("concept", "role")
    and_, or_ = staticmethod(all), staticmethod(any)

    def __init__(self, sig: Signature):
        self.concept = sig.concept_names.__contains__
        self.role = sig.role_names.__contains__


def is_syntactically_local(
    a: Axiom,
    sig: Signature,
    flavor: LocalityFlavor,
    refined: bool = False,
) -> bool:
    """Decide syntactic locality of `a` w.r.t. `sig`.

    The grammar reads `a` as built: domain, range and disjointness axioms
    are inclusions from construction on, and an inverse wraps a role name.
    Role axioms are decided on role names alone. With `refined` set,
    Inv(R, R⁻) is local whatever the signature (`is_self_inverse`). A
    semantic flavor gets the grammar of its polarity, so a local answer
    implies semantic locality.
    """
    return refined and is_self_inverse(a) or not _nonlocal(a, _Evaluator(sig), flavor.is_bottom)


class Circuit:
    """The syntactic non-locality of the axioms of one ontology, for one
    polarity, as AND/OR gates; read-only once built. Gate g belongs to
    the axiom at position `owner[g]` and fires once `need[g]` of its
    inputs have fired (all for an AND, one for an OR). A name fires when
    it enters Σ and a gate when its count reaches 0; either then reaches
    its targets, the name's `uses` or the gate's `up[g]`. A target t ≥ 0 is
    a gate to count down; t < 0 makes the axiom ~t non-local. The axioms in
    `always` are non-local even w.r.t. ∅."""

    __slots__ = ("uses", "need", "owner", "up", "always")

    def __init__(self, uses, need, owner, up, always):
        self.uses, self.need, self.owner, self.up, self.always = uses, need, owner, up, always

    def fire(self, need: list[int], concepts, roles, scope: Collection[int] | None):
        """Fire the names in `concepts` and `roles` and count down `need`,
        one extraction's copy of the counts, at the gates of the axioms at
        `scope` (None: of every axiom). Returns the axioms made non-local
        and the number of counter updates, one per target reached."""
        owner, up = self.owner, self.up
        pairs = zip(self.uses, (concepts, roles))
        named = [uses.get(n, ()) for uses, names in pairs for n in names]
        if scope is None:  # the scope test costs about 4 % of a warm extraction
            hits = [t for ts in named for t in ts]
        else:
            hits = [t for ts in named for t in ts if (owner[t] if t >= 0 else ~t) in scope]
        roots, updates = [], len(hits)
        for t in hits:  # a gate that fires appends its target
            if t < 0:
                roots.append(~t)
                continue
            left = need[t] = need[t] - 1
            if not left:
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


class _Template:
    """The gates of one axiom structure, over slots of the axiom's record
    (`Ontology.shapes`): k is its k-th concept name, ~k its k-th role name.
    `place` numbers the gates from the root down, so the unused half of an
    (nb, nt) pair is never placed; -1 stands for the axiom's root."""

    and_ = staticmethod(lambda inputs: _fold(inputs, False))
    or_ = staticmethod(lambda inputs: _fold(inputs, True))

    def __init__(self, a: Axiom, concepts, roles, bot: bool):
        self.concept = {n: k for k, n in enumerate(concepts)}.__getitem__
        self.role = {n: ~k for k, n in enumerate(roles)}.__getitem__
        self.need, self.up, self.feeds = [], [], []
        self.root = _nonlocal(a, self, bot)
        if self.root is not True and self.root is not False:
            self.place(self.root, -1)

    def place(self, x, target: int):
        if type(x) is int:  # a slot
            self.feeds.append((x, target))
            return
        g = len(self.need)
        self.need.append(x[0])
        self.up.append(target)
        for y in x[1]:
            self.place(y, g)


def compile_circuit(o: Ontology, flavor: LocalityFlavor) -> Circuit:
    """The `Circuit` of syntactic non-locality of the axioms of `o`, by
    position, with the grammar `is_syntactically_local` uses for `flavor`,
    run once per structure: each axiom copies its structure's `_Template`."""
    bot, templates = flavor.is_bottom, {}
    concept_uses, role_uses = defaultdict(list), defaultdict(list)
    need, owner, up, always = [], [], [], []
    for i, (number, concepts, roles, _) in enumerate(o.shapes):
        t = templates.get(number)
        if t is None:
            t = templates[number] = _Template(o.axioms[i], concepts, roles, bot)
        if t.root is True:
            always.append(i)
        base = len(need)
        if t.need:
            need += t.need
            owner += [i] * len(t.need)
            up += [u + base if u >= 0 else ~i for u in t.up]
        for x, u in t.feeds:
            target = u + base if u >= 0 else ~i
            if x >= 0:
                concept_uses[concepts[x]].append(target)
            else:
                role_uses[roles[~x]].append(target)
    uses = tuple({n: tuple(ts) for n, ts in by.items()} for by in (concept_uses, role_uses))
    return Circuit(uses, tuple(need), tuple(owner), tuple(up), tuple(always))
