"""Brute-force finite-model evaluation and countermodel search.

This is the independent referee for the tableau and the semantic checker:
`eval_concept`/`holds` implement the textbook set semantics directly, and
`find_countermodel` exhaustively enumerates every interpretation up to a
domain-size cap (all concept subsets, all role pair-sets, all individual
assignments) in a fixed lexicographic order. Refutation only: a found
countermodel disproves validity, exhaustion proves nothing beyond the cap.

Enumeration is doubly exponential in the number of names, so callers keep
signatures tiny (four or so names) and the cap at 3 or 4. The enumerator
evaluates through a compiled bitmask representation for speed; tests pin
it against the plain set semantics below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

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
    RoleName,
    Signature,
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
    "brute_force_refutes_locality",
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
# Compiled bitmask evaluation (used only by the enumerator)
# ---------------------------------------------------------------------------
# An environment is (cvals, rvals, ivals, n, full): concept extensions as
# bitmasks, role extensions as per-element successor-mask tuples,
# individuals as elements.

def _transpose(succ: tuple[int, ...], n: int) -> tuple[int, ...]:
    out = [0] * n
    for x in range(n):
        row = succ[x]
        y = 0
        while row:
            if row & 1:
                out[y] |= 1 << x
            row >>= 1
            y += 1
    return tuple(out)


def _compile_role(r: Role, ridx: dict[str, int]):
    if isinstance(r, RoleName):
        k = ridx[r.name]
        return lambda env: env[1][k]
    if isinstance(r, Inverse):
        k = ridx[r.role.name]
        return lambda env: _transpose(env[1][k], env[3])
    if isinstance(r, EmptyRoleType):
        return lambda env: (0,) * env[3]
    if isinstance(r, UniversalRoleType):
        return lambda env: (env[4],) * env[3]
    raise TypeError(f"not a role: {r!r}")


def _compile_concept(c: Concept, cidx, ridx, iidx):
    if isinstance(c, TopType):
        return lambda env: env[4]
    if isinstance(c, BottomType):
        return lambda env: 0
    if isinstance(c, ConceptName):
        k = cidx[c.name]
        return lambda env: env[0][k]
    if isinstance(c, OneOf):
        k = iidx[c.individual]
        return lambda env: 1 << env[2][k]
    if isinstance(c, Not):
        f = _compile_concept(c.arg, cidx, ridx, iidx)
        return lambda env: env[4] & ~f(env)
    if isinstance(c, And):
        fs = [_compile_concept(a, cidx, ridx, iidx) for a in c.args]

        def et(env):
            m = env[4]
            for f in fs:
                m &= f(env)
                if not m:
                    return 0
            return m

        return et
    if isinstance(c, Or):
        fs = [_compile_concept(a, cidx, ridx, iidx) for a in c.args]

        def vel(env):
            m = 0
            full = env[4]
            for f in fs:
                m |= f(env)
                if m == full:
                    return m
            return m

        return vel
    rf = _compile_role(c.role, ridx)
    ff = _compile_concept(c.filler, cidx, ridx, iidx)
    if isinstance(c, Exists):
        def ex(env):
            succ, fm, m = rf(env), ff(env), 0
            for x in range(env[3]):
                if succ[x] & fm:
                    m |= 1 << x
            return m

        return ex
    if isinstance(c, ForAll):
        def fa(env):
            succ, fm, m = rf(env), ff(env), 0
            for x in range(env[3]):
                if not (succ[x] & ~fm & env[4]):
                    m |= 1 << x
            return m

        return fa
    if isinstance(c, AtLeast):
        n0 = c.n

        def ge(env):
            succ, fm, m = rf(env), ff(env), 0
            for x in range(env[3]):
                if (succ[x] & fm).bit_count() >= n0:
                    m |= 1 << x
            return m

        return ge
    if isinstance(c, AtMost):
        n0 = c.n

        def le(env):
            succ, fm, m = rf(env), ff(env), 0
            for x in range(env[3]):
                if (succ[x] & fm).bit_count() <= n0:
                    m |= 1 << x
            return m

        return le
    raise TypeError(f"not a concept: {c!r}")


def _compile_axiom(a: Axiom, cidx, ridx, iidx):
    if isinstance(a, SubClassOf):
        f, g = (
            _compile_concept(a.sub, cidx, ridx, iidx),
            _compile_concept(a.sup, cidx, ridx, iidx),
        )
        return lambda env: not (f(env) & ~g(env))
    if isinstance(a, EquivalentClasses):
        f, g = (
            _compile_concept(a.left, cidx, ridx, iidx),
            _compile_concept(a.right, cidx, ridx, iidx),
        )
        return lambda env: f(env) == g(env)
    if isinstance(a, SubRoleOf):
        f, g = _compile_role(a.sub, ridx), _compile_role(a.sup, ridx)

        def sub_ok(env):
            rs, ss = f(env), g(env)
            return all(not (rs[x] & ~ss[x]) for x in range(env[3]))

        return sub_ok
    if isinstance(a, EquivalentRoles):
        f, g = _compile_role(a.left, ridx), _compile_role(a.right, ridx)
        return lambda env: f(env) == g(env)
    if isinstance(a, InverseRoles):
        f, g = _compile_role(a.left, ridx), _compile_role(a.right, ridx)
        return lambda env: _transpose(f(env), env[3]) == tuple(g(env))
    if isinstance(a, Transitive):
        f = _compile_role(a.role, ridx)

        def trans_ok(env):
            succ = f(env)
            for x in range(env[3]):
                row = succ[x]
                y = 0
                while row:
                    if row & 1 and succ[y] & ~succ[x]:
                        return False
                    row >>= 1
                    y += 1
            return True

        return trans_ok
    raise TypeError(f"not an axiom: {a!r}")


@lru_cache(maxsize=8)
def _role_space(n: int) -> tuple[tuple[int, ...], ...]:
    """All successor-mask tuples for one role over an n-element domain."""
    return tuple(product(range(1 << n), repeat=n))


def _materialize(cnames, rnames, inames, env) -> Interpretation:
    cvals, rvals, ivals, n, _full = env
    concept_ext = {
        a: frozenset(x for x in range(n) if (cvals[k] >> x) & 1)
        for k, a in enumerate(cnames)
    }
    role_ext = {}
    for k, r in enumerate(rnames):
        pairs = set()
        for x in range(n):
            row = rvals[k][x]
            for y in range(n):
                if (row >> y) & 1:
                    pairs.add((x, y))
        role_ext[r] = frozenset(pairs)
    individual_ext = {m: ivals[k] for k, m in enumerate(inames)}
    return Interpretation(n, concept_ext, role_ext, individual_ext)


def find_countermodel(a: Axiom, max_domain: int = 3) -> Interpretation | None:
    """Exhaustively search domain sizes 1..max_domain for an interpretation
    falsifying `a`; the first one in lexicographic order wins."""
    sig = signature_of(a)
    cnames = sorted(sig.concept_names)
    rnames = sorted(sig.role_names)
    inames = sorted(sig.individual_names)
    cidx = {name: k for k, name in enumerate(cnames)}
    ridx = {name: k for k, name in enumerate(rnames)}
    iidx = {name: k for k, name in enumerate(inames)}
    check = _compile_axiom(a, cidx, ridx, iidx)
    for n in range(1, max_domain + 1):
        full = (1 << n) - 1
        space = _role_space(n)
        concept_grid = list(product(range(full + 1), repeat=len(cnames)))
        individual_grid = list(product(range(n), repeat=len(inames)))
        for rvals in product(space, repeat=len(rnames)):
            for cvals in concept_grid:
                for ivals in individual_grid:
                    env = (cvals, rvals, ivals, n, full)
                    if not check(env):
                        return _materialize(cnames, rnames, inames, env)
    return None


def brute_force_refutes_locality(
    a: Axiom,
    sig: Signature,
    flavor: LocalityFlavor,
    max_domain: int = 3,
) -> bool:
    """True when the substituted axiom has a finite counterexample within
    the domain cap, i.e. the axiom is refuted as semantically local."""
    from .semantic import substitute  # local import: semantic sits above this module

    return find_countermodel(substitute(a, sig, flavor), max_domain) is not None
