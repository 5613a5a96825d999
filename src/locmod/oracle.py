"""Finite-model evaluation and an exact countermodel search.

This is the independent referee for the tableau and the semantic checker:
`eval_concept`/`holds` implement the textbook set semantics directly, and
`find_countermodel` searches every interpretation up to a domain-size cap.
Refutation only: a found countermodel disproves validity, exhaustion
proves nothing beyond the cap.

For each domain size the search fixes one thing at a time, in this order:
each individual's element, each concept name's extension, then each
role's successors of each element, names sorted and values ascending.
Whatever is not fixed yet is unknown, and `_bounds` evaluates a concept
in Kleene's three-valued logic to the elements surely in it and those
possibly in it. A branch is cut as soon as these bounds show that the
axiom holds in every completion, so the search stays exact; on a complete
assignment the bounds coincide and are the plain semantics. Callers still
keep signatures small (a few names, two roles) and the cap at 2 or 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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
    Not,
    OneOf,
    Or,
    Role,
    RoleName,
    SubClassOf,
    SubRoleOf,
    TopType,
    Transitive,
    UniversalRoleType,
    signature_of,
)

__all__ = [
    "Interpretation",
    "eval_concept",
    "eval_role",
    "holds",
    "find_countermodel",
]


@dataclass(frozen=True, eq=True)
class Interpretation:
    """A finite interpretation over the domain {0, ..., domain_size - 1}."""

    domain_size: int
    concept_ext: dict[str, frozenset[int]]
    role_ext: dict[str, frozenset[tuple[int, int]]]
    individual_ext: dict[str, int]

    def __post_init__(self):
        if self.domain_size < 1:
            raise ValueError("domain must be nonempty")
        dom = range(self.domain_size)
        for name, ext in self.concept_ext.items():
            if not all(e in dom for e in ext):
                raise ValueError(f"extension of {name} leaves the domain")
        for name, ext in self.role_ext.items():
            if not all(a in dom and b in dom for a, b in ext):
                raise ValueError(f"extension of {name} leaves the domain")
        for name, e in self.individual_ext.items():
            if e not in dom:
                raise ValueError(f"individual {name} leaves the domain")

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(range(self.domain_size))


def eval_role(r: Role, interp: Interpretation) -> frozenset[tuple[int, int]]:
    if isinstance(r, RoleName):
        if r.name not in interp.role_ext:
            raise KeyError(f"role name not interpreted: {r.name}")
        return interp.role_ext[r.name]
    if isinstance(r, Inverse):
        return frozenset((b, a) for a, b in eval_role(r.role, interp))
    if isinstance(r, EmptyRoleType):
        return frozenset()
    if isinstance(r, UniversalRoleType):
        dom = range(interp.domain_size)
        return frozenset((a, b) for a in dom for b in dom)
    raise TypeError(f"not a role: {r!r}")


def eval_concept(c: Concept, interp: Interpretation) -> frozenset[int]:
    if isinstance(c, TopType):
        return interp.domain
    if isinstance(c, BottomType):
        return frozenset()
    if isinstance(c, ConceptName):
        if c.name not in interp.concept_ext:
            raise KeyError(f"concept name not interpreted: {c.name}")
        return interp.concept_ext[c.name]
    if isinstance(c, OneOf):
        if c.individual not in interp.individual_ext:
            raise KeyError(f"individual name not interpreted: {c.individual}")
        return frozenset({interp.individual_ext[c.individual]})
    if isinstance(c, Not):
        return interp.domain - eval_concept(c.arg, interp)
    if isinstance(c, And):
        return reduce(
            frozenset.intersection, (eval_concept(a, interp) for a in c.args)
        )
    if isinstance(c, Or):
        return reduce(frozenset.union, (eval_concept(a, interp) for a in c.args))
    if isinstance(c, (Exists, ForAll, AtLeast, AtMost)):
        pairs = eval_role(c.role, interp)
        filler = eval_concept(c.filler, interp)
        succ: dict[int, set[int]] = {e: set() for e in interp.domain}
        for a, b in pairs:
            succ[a].add(b)
        if isinstance(c, Exists):
            return frozenset(x for x in interp.domain if succ[x] & filler)
        if isinstance(c, ForAll):
            return frozenset(x for x in interp.domain if succ[x] <= filler)
        counts = {x: len(succ[x] & filler) for x in interp.domain}
        if isinstance(c, AtLeast):
            return frozenset(x for x in interp.domain if counts[x] >= c.n)
        return frozenset(x for x in interp.domain if counts[x] <= c.n)
    raise TypeError(f"not a concept: {c!r}")


def holds(a: Axiom, interp: Interpretation) -> bool:
    """Satisfaction of a single axiom, straight from the semantics."""
    if isinstance(a, SubClassOf):
        return eval_concept(a.sub, interp) <= eval_concept(a.sup, interp)
    if isinstance(a, EquivalentClasses):
        return eval_concept(a.left, interp) == eval_concept(a.right, interp)
    if isinstance(a, SubRoleOf):
        return eval_role(a.sub, interp) <= eval_role(a.sup, interp)
    if isinstance(a, EquivalentRoles):
        return eval_role(a.left, interp) == eval_role(a.right, interp)
    if isinstance(a, InverseRoles):
        left = eval_role(a.left, interp)
        return frozenset((b, x) for x, b in left) == eval_role(a.right, interp)
    if isinstance(a, Transitive):
        pairs = eval_role(a.role, interp)
        return all(
            (x, w) in pairs for x, y in pairs for z, w in pairs if y == z
        )
    raise TypeError(f"not an axiom: {a!r}")


# ---------------------------------------------------------------------------
# Bounds over a partial interpretation (used only by the search)
# ---------------------------------------------------------------------------

@dataclass
class _Partial:
    """An interpretation over {0, ..., n - 1} under construction. Each
    concept name and individual has a pair of bitmasks, the elements surely
    and those possibly in its extension, and each role one such pair of
    successor masks per element: equal masks once fixed, (0, full) before."""

    n: int
    full: int
    concepts: dict[str, tuple[int, int]]
    roles: dict[str, list[tuple[int, int]]]
    individuals: dict[str, tuple[int, int]]


def _successors(r: Role, p: _Partial) -> list[tuple[int, int]]:
    """Per element, the masks of its sure and of its possible `r`-successors."""
    if isinstance(r, RoleName):
        return p.roles[r.name]
    if isinstance(r, Inverse):
        los, his = [0] * p.n, [0] * p.n
        for x, (lo, hi) in enumerate(p.roles[r.role.name]):
            for y in range(p.n):
                los[y] |= (lo >> y & 1) << x
                his[y] |= (hi >> y & 1) << x
        return list(zip(los, his))
    if isinstance(r, EmptyRoleType):
        return [(0, 0)] * p.n
    if isinstance(r, UniversalRoleType):
        return [(p.full, p.full)] * p.n
    raise TypeError(f"not a role: {r!r}")


def _bounds(c: Concept, p: _Partial) -> tuple[int, int]:
    """The elements surely in `c` and those possibly in it, as bitmasks
    (Kleene's three-valued semantics). Once `p` fixes every name of `c`
    the two are equal: the extension of `c`."""
    if isinstance(c, ConceptName):
        return p.concepts[c.name]
    if isinstance(c, OneOf):
        return p.individuals[c.individual]
    if isinstance(c, TopType):
        return p.full, p.full
    if isinstance(c, BottomType):
        return 0, 0
    if isinstance(c, Not):
        lo, hi = _bounds(c.arg, p)
        return p.full & ~hi, p.full & ~lo
    if isinstance(c, And):
        lo = hi = p.full
        for arg in c.args:
            alo, ahi = _bounds(arg, p)
            lo, hi = lo & alo, hi & ahi
            if not hi:
                break
        return lo, hi
    if isinstance(c, Or):
        lo = hi = 0
        for arg in c.args:
            alo, ahi = _bounds(arg, p)
            lo, hi = lo | alo, hi | ahi
            if lo == p.full:
                break
        return lo, hi
    if not isinstance(c, (Exists, ForAll, AtLeast, AtMost)):
        raise TypeError(f"not a concept: {c!r}")
    # each restriction is "at least k successors in the filler" or the
    # complement of one: ∀R.C is ¬≥1 R.¬C and ≤k R.C is ¬≥(k+1) R.C
    flo, fhi = _bounds(c.filler, p)
    if isinstance(c, ForAll):
        flo, fhi = p.full & ~fhi, p.full & ~flo
    k = 1 if isinstance(c, (Exists, ForAll)) else c.n + isinstance(c, AtMost)
    lo = hi = 0
    for x, (slo, shi) in enumerate(_successors(c.role, p)):
        if (slo & flo).bit_count() >= k:
            lo |= 1 << x
        if (shi & fhi).bit_count() >= k:
            hi |= 1 << x
    if isinstance(c, (ForAll, AtMost)):
        return p.full & ~hi, p.full & ~lo
    return lo, hi


def _surely_holds(a: Axiom, p: _Partial) -> bool:
    """Whether `a` holds in every completion of `p`; once `p` is complete,
    whether `a` holds in it."""
    if isinstance(a, SubClassOf):
        return not _bounds(a.sub, p)[1] & ~_bounds(a.sup, p)[0]
    if isinstance(a, EquivalentClasses):
        (llo, lhi), (rlo, rhi) = _bounds(a.left, p), _bounds(a.right, p)
        return not (lhi & ~rlo or rhi & ~llo)
    if isinstance(a, Transitive):
        rows = _successors(a.role, p)
        return not any(
            rows[y][1] & ~lo for lo, hi in rows for y in range(p.n) if hi >> y & 1
        )
    if isinstance(a, SubRoleOf):
        inclusions = [(a.sub, a.sup)]
    elif isinstance(a, (EquivalentRoles, InverseRoles)):
        left = Inverse(a.left) if isinstance(a, InverseRoles) else a.left
        inclusions = [(left, a.right), (a.right, left)]
    else:
        raise TypeError(f"not an axiom: {a!r}")
    return not any(
        hi & ~lo
        for r, s in inclusions
        for (_, hi), (lo, _) in zip(_successors(r, p), _successors(s, p))
    )


def _falsify(a: Axiom, p: _Partial, slots: list, k: int = 0) -> bool:
    """Fix `slots[k:]` in order, each to its values in ascending order, and
    cut every branch on which `a` surely holds. True, with `p` left at the
    first complete assignment that falsifies `a`, when there is one."""
    if _surely_holds(a, p):
        return False
    if k == len(slots):
        return True
    table, key, values = slots[k]
    for v in values:
        table[key] = v
        if _falsify(a, p, slots, k + 1):
            return True
    table[key] = (0, p.full)
    return False


def find_countermodel(a: Axiom, max_domain: int = 3) -> Interpretation | None:
    """Search domain sizes 1..max_domain for an interpretation falsifying
    `a`, exactly: only branches on which `a` holds in every completion are
    cut. The first one in lexicographic order wins, reading an
    interpretation as its individuals' elements, then its concept masks,
    then each role's successor mask per element, names sorted."""
    if max_domain < 1:
        raise ValueError(f"max_domain must be at least 1, got {max_domain}")
    sig = signature_of(a)
    for n in range(1, max_domain + 1):
        full = (1 << n) - 1
        unknown, masks = (0, full), [(m, m) for m in range(full + 1)]
        p = _Partial(
            n,
            full,
            dict.fromkeys(sorted(sig.concept_names), unknown),
            {r: [unknown] * n for r in sorted(sig.role_names)},
            dict.fromkeys(sorted(sig.individual_names), unknown),
        )
        slots = [(p.individuals, m, [(1 << e, 1 << e) for e in range(n)]) for m in p.individuals]
        slots += [(p.concepts, c, masks) for c in p.concepts]
        slots += [(rows, x, masks) for rows in p.roles.values() for x in range(n)]
        if _falsify(a, p, slots):
            def members(mask):
                return frozenset(x for x in range(n) if mask >> x & 1)

            return Interpretation(
                n,
                {c: members(m) for c, (m, _) in p.concepts.items()},
                {
                    r: frozenset((x, y) for x, (row, _) in enumerate(rows) for y in members(row))
                    for r, rows in p.roles.items()
                },
                {m: e.bit_length() - 1 for m, (e, _) in p.individuals.items()},
            )
    return None
