"""Bounded tableau for TBox-free concept satisfiability.

Handles booleans, ∃/∀, qualified ≥/≤, inverse roles, singleton nominals,
and the universal-role artifacts produced by semantic substitution. With
an empty TBox no blocking is needed: the quantifier depth of labels
strictly decreases along tree edges, so expansion depth is bounded by the
nesting depth of the input; merging only shrinks the graph. ∀R∆.C acts
as the axiom ⊤ ⊑ C, though, and an existential in C can make every new
node ask for another. A step budget caps that and pathological
branching; a wall-clock limit is there only when a caller asks for one.

The search keeps one state and an agenda (Tsarkov & Horrocks 2006).
Adding a concept to a label puts the (node, concept) pair on a FIFO
agenda and flags at once the clashes it causes: ⊥, a complementary
literal, ¬{o} on a node tagged o, ∃/≥n≥1 over the empty role. Popping a
pair applies its deterministic rule once (⊓, nominal tag and merge, ∀,
∃/≥ witnesses); ⊔ and ≤ go on per-node pending lists. A new or
redirected edge carries the expanded ∀-concepts of both its ends. Every
mutation appends an undo entry to a trail; a choice point keeps the trail
length and its untried alternatives, and backtracking undoes down to that
length, so nothing is cloned.

With the agenda empty, a node with ≤n R.C and n+1 pairwise-distinct
R-neighbours carrying C closes the branch (Horrocks, Sattler & Tobies
2000), found by a greedy walk; a clique it misses is closed later by the
merge rule. Otherwise the search branches on the first open ⊔, then the
choose rule, then the merge rule, taking nodes in ascending id and each
node's pending concepts, neighbours and disjuncts in insertion order, so
identical inputs and budgets produce identical results and models.

The witness rule fires once per (node, ≥n R.C): a record kept through
merges says its witnesses are in place. This is exact: fresh witnesses
are pairwise distinct and labels only grow, so a satisfied ≥ stays
satisfied. The fresh witnesses of one firing form a group, and two live
nodes are asserted distinct exactly when they share a group; a merge
gives the kept node the groups of the dropped one. A tick is one agenda
pair expanded, one merge, one clique extension the witness rule
examines, or one fresh witness it builds, charged before the node
exists. A ⊔ or choose decision adds one new pair, so it costs the tick
of that pair's expansion; a merge may add none, so it ticks itself. The
model of the open state is built on first access.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from itertools import combinations

from .model import (
    And,
    AtLeast,
    AtMost,
    BottomType,
    Concept,
    ConceptName,
    EmptyRoleType,
    Exists,
    ForAll,
    Inverse,
    Not,
    OneOf,
    Or,
    Role,
    RoleName,
    Signature,
    UniversalRoleType,
    complement,
    signature_of,
)
from .oracle import Interpretation

__all__ = ["Budget", "SatStatus", "SatResult", "is_satisfiable"]


@dataclass(frozen=True)
class Budget:
    """Resource limits for one satisfiability check, both positive.

    Steps alone end a check by default, so a verdict does not depend on
    machine load; a finite `max_seconds` is an explicit opt-in."""

    max_steps: int = 200_000
    max_seconds: float = math.inf

    def __post_init__(self):
        for name in ("max_steps", "max_seconds"):
            value = getattr(self, name)
            if not value > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {value}")


DEFAULT_BUDGET = Budget()


class SatStatus(Enum):
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SatResult:
    """Outcome of a satisfiability check.

    For SATISFIABLE, `model` is a finite interpretation in which element 0
    satisfies the input concept, built from the open state on first access.
    """

    status: SatStatus
    reason: str | None = None
    _open: "_State | None" = field(default=None, repr=False, compare=False)

    @cached_property
    def model(self) -> Interpretation | None:
        return None if self._open is None else _extract_model(self._open)


class _OutOfBudget(Exception):
    pass


class _Meter:
    __slots__ = ("steps", "deadline")

    def __init__(self, budget: Budget):
        self.steps = budget.max_steps
        self.deadline = time.monotonic() + budget.max_seconds

    def tick(self):
        self.steps -= 1
        if self.steps <= 0:
            raise _OutOfBudget("rule application limit reached")
        if self.steps % 256 == 0 and time.monotonic() > self.deadline:
            raise _OutOfBudget("time limit reached")


def _individuals(c: Concept) -> set[str] | None:
    """The individual names in `c`, or None for the constructs routed to
    the Unknown safety valve: counting over the universal role needs
    domain-cardinality reasoning this tableau does not implement
    (AtLeast(0/1) is fine: a single global witness)."""
    found: set[str] = set()
    stack = [c]
    while stack:
        cur = stack.pop()
        if isinstance(cur, AtMost) and isinstance(cur.role, UniversalRoleType):
            return None
        if isinstance(cur, AtLeast):
            if cur.n >= 2 and isinstance(cur.role, UniversalRoleType):
                return None
            stack.append(cur.filler)
        elif isinstance(cur, OneOf):
            found.add(cur.individual)
        elif isinstance(cur, Not):
            stack.append(cur.arg)
        elif isinstance(cur, (And, Or)):
            stack.extend(cur.args)
        elif isinstance(cur, (Exists, ForAll, AtMost)):
            stack.append(cur.filler)
    return found


class _Node:
    __slots__ = ("label", "nbrs", "tags", "groups", "alls", "ors", "or_at",
                 "atmosts", "fired")

    def __init__(self):
        self.label: dict[Concept, None] = {}
        # role → neighbours, each edge stored at both ends
        self.nbrs: dict[Role, dict[int, None]] = {}
        self.tags: dict[str, None] = {}
        # witness groups: two live nodes are asserted distinct exactly
        # when their groups meet
        self.groups: frozenset[int] = frozenset()
        self.alls: list[tuple[Role, Concept]] = []  # expanded ∀R.C
        self.ors: list[Or] = []
        self.or_at = 0  # the disjunctions before it hold a disjunct
        self.atmosts: list[tuple[AtMost, Role, Concept]] = []  # (≤n R.C, R, ¬C)
        self.fired: dict[Concept, None] = {}  # ≥/∃ whose witnesses are in place


class _State:
    __slots__ = ("nodes", "dead", "trail", "agenda", "head", "univ", "clash", "meter")

    def __init__(self, meter: _Meter):
        self.nodes: list[_Node] = []
        self.dead: set[int] = set()  # nodes merged into a smaller id
        self.trail: list[tuple] = []  # (undo function, its argument)
        self.agenda: list[tuple[int, Concept]] = []
        self.head = 0
        self.univ: list[Concept] = []  # fillers of expanded ∀U.C, each once
        self.clash = False
        self.meter = meter

    def new_node(self) -> int:
        y = len(self.nodes)
        self.nodes.append(_Node())
        self.trail.append((self.nodes.pop, -1))
        for f in self.univ:
            self.add(y, f)
        return y

    def add(self, x: int, c: Concept) -> None:
        """Put c in x's label and on the agenda; flag the clash it causes."""
        node = self.nodes[x]
        label = node.label
        if c in label:
            return
        label[c] = None
        self.trail.append((label.pop, c))
        t = type(c)
        if t is ConceptName or t is OneOf:
            self.clash |= Not(c) in label
        elif t is Not:
            arg = c.arg
            self.clash |= arg in label or (
                type(arg) is OneOf and arg.individual in node.tags
            )
        elif t is BottomType:
            self.clash = True
        elif (t is Exists or t is AtLeast and c.n >= 1) and type(c.role) is EmptyRoleType:
            self.clash = True
        self.agenda.append((x, c))

    def add_edge(self, x: int, role: Role, y: int) -> None:
        """Add the R-edge x→y and push the ∀-concepts of both ends along it."""
        if y in self.nodes[x].nbrs.get(role, ()):
            return
        inv = Inverse(role)
        for a, r, b in ((x, role, y), (y, inv, x)):
            ends = self.nodes[a].nbrs.setdefault(r, {})
            ends[b] = None
            self.trail.append((ends.pop, b))
        for r, f in self.nodes[x].alls:
            if r == role:
                self.add(y, f)
        for r, f in self.nodes[y].alls:
            if r == inv:
                self.add(x, f)

    def tag(self, x: int, o: str) -> None:
        """x is the individual o: merge it with the node already tagged o."""
        node = self.nodes[x]
        if o in node.tags:
            return
        node.tags[o] = None
        self.trail.append((node.tags.pop, o))
        self.clash |= Not(OneOf(o)) in node.label
        for y, other in enumerate(self.nodes):
            if y != x and o in other.tags and y not in self.dead:
                self.merge(min(x, y), max(x, y))
                return

    def merge(self, keep: int, drop: int) -> None:
        """Merge `drop` into `keep` < `drop`, so the root stays; a clash
        when the two are asserted distinct."""
        self.meter.tick()
        k, d = self.nodes[keep], self.nodes[drop]
        if not k.groups.isdisjoint(d.groups):
            self.clash = True
            return
        self.dead.add(drop)
        self.trail.append((self.dead.discard, drop))
        if d.groups:
            self.trail.append((partial(setattr, k, "groups"), k.groups))
            k.groups |= d.groups
        for c in d.fired:
            if c not in k.fired:
                k.fired[c] = None
                self.trail.append((k.fired.pop, c))
        for o in d.tags:
            if o not in k.tags:
                k.tags[o] = None
                self.trail.append((k.tags.pop, o))
                self.clash |= Not(OneOf(o)) in k.label
        for c in d.label:
            self.add(keep, c)
        for role, ends in d.nbrs.items():
            for y in ends:
                if y == drop or y not in self.dead:
                    self.add_edge(keep, role, keep if y == drop else y)

    # -- graph queries ------------------------------------------------

    def successors(self, x: int, role: Role) -> list[int]:
        """Live R-neighbours of x in the order their edges were added."""
        dead = self.dead
        return [y for y in self.nodes[x].nbrs.get(role, ()) if y not in dead]

    def qualified(self, x: int, role: Role, filler: Concept) -> list[int]:
        """R-neighbours of x whose labels hold `filler`."""
        nodes = self.nodes
        return [y for y in self.successors(x, role) if filler in nodes[y].label]

    # -- rules --------------------------------------------------------

    def expand(self, x: int, c: Concept) -> None:
        """Apply the deterministic rule of a popped agenda pair."""
        node = self.nodes[x]
        t = type(c)
        if t is And:
            for a in c.args:
                self.add(x, a)
        elif t is Or:
            node.ors.append(c)
            self.trail.append((node.ors.pop, -1))
        elif t is OneOf:
            self.tag(x, c.individual)
        elif t is ForAll:
            role = c.role
            if type(role) is UniversalRoleType:
                if c.filler in self.univ:  # every live node holds it already
                    return
                self.univ.append(c.filler)
                self.trail.append((self.univ.pop, -1))
                for y in range(len(self.nodes)):
                    if y not in self.dead:
                        self.add(y, c.filler)
            elif type(role) is not EmptyRoleType:
                node.alls.append((role, c.filler))
                self.trail.append((node.alls.pop, -1))
                for y in self.successors(x, role):
                    self.add(y, c.filler)
        elif t is AtMost:
            # ≤ over the universal role is behind the safety valve; over
            # the empty role it always holds
            role = c.role
            if type(role) is not EmptyRoleType:
                node.atmosts.append((c, role, complement(c.filler)))
                self.trail.append((node.atmosts.pop, -1))
        elif (t is Exists or t is AtLeast and c.n >= 1) and c not in node.fired:
            self.witness(x, c, 1 if t is Exists else c.n)
            node.fired[c] = None
            self.trail.append((node.fired.pop, c))

    def witness(self, x: int, c: Exists | AtLeast, n: int) -> None:
        """Give x n pairwise-distinct R-neighbours carrying C unless it has them."""
        role = c.role
        if type(role) is UniversalRoleType:
            # n == 1 here; larger n is behind the safety valve
            if not any(
                c.filler in node.label
                for y, node in enumerate(self.nodes) if y not in self.dead
            ):
                self.meter.tick()
                self.add(self.new_node(), c.filler)
            return
        if _has_clique(self.qualified(x, role, c.filler), n, self.nodes, self.meter):
            return
        fresh = []
        for _ in range(n):
            # charged before it is built, so a huge n runs out of steps,
            # not of memory
            self.meter.tick()
            fresh.append(self.new_node())
        # one group, named by its first node: undoing the creation of the
        # nodes drops it, and every merge that spread it was undone first
        group = frozenset(fresh[:1])
        for y in fresh:
            self.nodes[y].groups = group
            self.add_edge(x, role, y)
            self.add(y, c.filler)

    def branching(self) -> list[tuple] | None:
        """The alternatives of the first nondeterministic rule that applies:
        [] when an over-full ≤ closes the branch, None when saturated."""
        live = [(x, node) for x, node in enumerate(self.nodes) if x not in self.dead]
        for x, node in live:
            for c, role, _ in node.atmosts:
                if _has_clique(self.qualified(x, role, c.filler), c.n + 1, self.nodes):
                    return []
        # disjunction: each disjunct in syntactic order
        for x, node in live:
            ors, label, at = node.ors, node.label, node.or_at
            while at < len(ors) and not label.keys().isdisjoint(ors[at].args):
                at += 1
            if at != node.or_at:
                self.trail.append((partial(setattr, node, "or_at"), node.or_at))
                node.or_at = at
            if at < len(ors):
                return [(self.add, x, a) for a in ors[at].args]
        # choose rule: decide the qualifier on every neighbour of a ≤
        for x, node in live:
            for c, role, neg in node.atmosts:
                for y in self.successors(x, role):
                    label = self.nodes[y].label
                    if c.filler not in label and neg not in label:
                        return [(self.add, y, c.filler), (self.add, y, neg)]
        # merge rule: too many qualified neighbours for a ≤; no mergeable
        # pair leaves no alternative and the branch closes
        for x, node in live:
            for c, role, _ in node.atmosts:
                qualified = self.qualified(x, role, c.filler)
                if len(qualified) > c.n:
                    return [
                        (self.merge, min(a, b), max(a, b))
                        for a, b in combinations(qualified, 2)
                        if self.nodes[a].groups.isdisjoint(self.nodes[b].groups)
                    ]
        return None

    def search(self) -> bool:
        """Depth-first expansion. True when a saturated open state is
        reached, False when every branch closes.

        Choice points live on an explicit stack of (trail length, untried
        alternatives), so the number of nested choices is not bounded by
        Python's recursion limit. The agenda is empty at every choice
        point, so backtracking clears it."""
        choices: list[tuple[int, object]] = []
        agenda, trail, tick = self.agenda, self.trail, self.meter.tick
        while True:
            if not self.clash:
                if self.head < len(agenda):
                    x, c = agenda[self.head]
                    self.head += 1
                    if x not in self.dead:  # else its keeper got the concept
                        tick()
                        self.expand(x, c)
                    continue
                alts = self.branching()
                if alts is None:
                    return True
                choices.append((len(trail), iter(alts)))
            # the branch closed or branches here: go on with the next
            # untried alternative of the innermost open choice point
            while choices:
                mark, untried = choices[-1]
                alt = next(untried, None)
                if alt is not None:
                    break
                choices.pop()
            else:
                return False
            while len(trail) > mark:
                undo, arg = trail.pop()
                undo(arg)
            agenda.clear()
            self.head = 0
            self.clash = False
            alt[0](*alt[1:])


def is_satisfiable(c: Concept, budget: Budget | None = None) -> SatResult:
    """Decide satisfiability of a concept in negation normal form.

    Sound always; complete within the budget except for the counting
    constructs handled by the Unknown safety valve. No budget means
    `Budget()`: steps alone, so the verdict does not depend on the clock.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    individuals = _individuals(c)
    if individuals is None:
        return SatResult(
            SatStatus.UNKNOWN, reason="counting over the universal role"
        )
    state = _State(_Meter(budget))
    state.add(state.new_node(), c)
    # every individual denotes: give each mentioned individual a node up
    # front so universal-role propagation and nominal clashes reach it
    for ind in sorted(individuals):
        state.nodes[state.new_node()].tags[ind] = None
    try:
        is_open = state.search()
    except _OutOfBudget as exc:
        return SatResult(SatStatus.UNKNOWN, reason=str(exc))
    if not is_open:
        return SatResult(SatStatus.UNSATISFIABLE)
    return SatResult(SatStatus.SATISFIABLE, _open=state)


def _has_clique(nodes: list[int], n: int, graph: list[_Node], meter=None) -> bool:
    """Whether `nodes` holds n members pairwise asserted distinct.

    Depth-first over cliques grown in list order, dropping a branch once
    too few candidates are left, one tick per clique extended. Without a
    meter only the first branch is walked: a greedy walk, sound, not
    complete."""
    stack = [(nodes, 0)]  # (candidates distinct from the clique, its size)
    while stack:
        cands, size = stack.pop()
        if size == n:
            return True
        if size + len(cands) < n:
            if meter is None:
                return False
            continue
        if meter is not None:
            meter.tick()
        v, rest = cands[0], cands[1:]
        stack.append((rest, size))
        groups = graph[v].groups
        stack.append(([w for w in rest if not groups.isdisjoint(graph[w].groups)], size + 1))
    return False


# ---------------------------------------------------------------------------
# Model extraction
# ---------------------------------------------------------------------------

def _extract_model(state: _State) -> Interpretation:
    """Read a finite interpretation off a saturated open state. Element 0
    is the root, whose label holds the input concept, so the label
    signatures cover its concept and role names. Each individual tags a
    node from the start, and a merge moves tags to the node it keeps, so
    the tags name every individual."""
    live = [x for x in range(len(state.nodes)) if x not in state.dead]
    index = {x: pos for pos, x in enumerate(live)}

    sig = Signature.union(
        signature_of(c) for x in live for c in state.nodes[x].label
    )
    concept_ext = {a: set() for a in sorted(sig.concept_names)}
    role_ext = {r: set() for r in sorted(sig.role_names)}
    individual_ext: dict[str, int] = {}

    for x in live:
        node, elem = state.nodes[x], index[x]
        for c in node.label:
            if isinstance(c, ConceptName):
                concept_ext[c.name].add(elem)
        for tag in node.tags:
            individual_ext[tag] = elem
        # each edge is stored at both ends: read the forward copies
        for role, ends in node.nbrs.items():
            if isinstance(role, RoleName):
                role_ext[role.name].update((elem, index[y]) for y in ends if y in index)

    return Interpretation(
        domain_size=len(live),
        concept_ext={a: frozenset(s) for a, s in concept_ext.items()},
        role_ext={r: frozenset(s) for r, s in role_ext.items()},
        individual_ext=dict(sorted(individual_ext.items())),
    )
