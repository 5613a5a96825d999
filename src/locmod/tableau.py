"""Bounded tableau for TBox-free concept satisfiability.

Handles booleans, ∃/∀, qualified ≥/≤, inverse roles, singleton nominals,
and the universal-role artifacts produced by semantic substitution. With
an empty TBox no blocking is needed: the quantifier depth of labels
strictly decreases along tree edges, so expansion depth is bounded by the
nesting depth of the input; merging only shrinks the graph. A step/time
budget caps pathological branching.

Branch exploration is deterministic: nodes are visited in ascending id,
labels in insertion order, disjuncts in syntactic order, and merge
candidates in ascending id pairs, so identical inputs and budgets always
produce identical results.

A node with ≤n R.C and n+1 pairwise-distinct R-neighbours carrying C is a
clash at once (Horrocks, Sattler & Tobies 2000), found by a greedy walk in
ascending id; a clique it misses is closed later by the merge rule. This
is exact: labels only grow and distinct nodes never merge, so every
extension of such a branch closes too and the search returns the same
first open state, whose model is built on first access. Ticks count
expansion steps and the subsets the witness rule examines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Iterator

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
    normalize_role,
    signature_of,
)
from .oracle import Interpretation

__all__ = ["Budget", "SatStatus", "SatResult", "is_satisfiable"]


@dataclass(frozen=True)
class Budget:
    """Resource limits for one satisfiability check."""

    max_steps: int = 1_000_000
    max_seconds: float = 5.0


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
        if isinstance(cur, AtMost) and isinstance(
            normalize_role(cur.role), UniversalRoleType
        ):
            return None
        if isinstance(cur, AtLeast):
            if cur.n >= 2 and isinstance(normalize_role(cur.role), UniversalRoleType):
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
    __slots__ = ("label", "edges", "tags")

    def __init__(self):
        self.label: dict[Concept, None] = {}
        self.edges: list[tuple[Role, int]] = []
        self.tags: dict[str, None] = {}

    def clone(self) -> "_Node":
        n = _Node.__new__(_Node)
        n.label = dict(self.label)
        n.edges = list(self.edges)
        n.tags = dict(self.tags)
        return n


class _State:
    __slots__ = ("nodes", "distinct", "next_id", "root")

    def __init__(self):
        self.nodes: dict[int, _Node] = {}
        self.distinct: set[frozenset[int]] = set()
        self.next_id = 0
        self.root = 0

    def clone(self) -> "_State":
        s = _State.__new__(_State)
        s.nodes = {i: n.clone() for i, n in self.nodes.items()}
        s.distinct = set(self.distinct)
        s.next_id = self.next_id
        s.root = self.root
        return s

    def new_node(self) -> int:
        i = self.next_id
        self.next_id += 1
        self.nodes[i] = _Node()
        return i

    def add(self, node_id: int, c: Concept) -> bool:
        label = self.nodes[node_id].label
        if c in label:
            return False
        label[c] = None
        return True

    # -- graph queries ------------------------------------------------

    def successors(self, x: int, role: Role) -> list[int]:
        """R-successors of x, following forward edges and inverse edges
        from other nodes, in discovery order without duplicates."""
        want = normalize_role(role)
        found: dict[int, None] = {}
        for s, y in self.nodes[x].edges:
            if normalize_role(s) == want:
                found[y] = None
        for z in sorted(self.nodes):
            for s, t in self.nodes[z].edges:
                if t == x and normalize_role(Inverse(s)) == want:
                    found[z] = None
        return list(found)

    def merge(self, keep: int, drop: int) -> bool:
        """Merge `drop` into `keep`. Returns False when the two nodes are
        asserted distinct (the branch closes)."""
        if frozenset((keep, drop)) in self.distinct:
            return False
        keep_node = self.nodes[keep]
        drop_node = self.nodes.pop(drop)
        for c in drop_node.label:
            keep_node.label.setdefault(c, None)
        for e in drop_node.edges:
            role, tgt = e
            if tgt == drop:
                tgt = keep
            if (role, tgt) not in keep_node.edges:
                keep_node.edges.append((role, tgt))
        for tag in drop_node.tags:
            keep_node.tags.setdefault(tag, None)
        for node in self.nodes.values():
            changed = False
            for idx, (role, tgt) in enumerate(node.edges):
                if tgt == drop:
                    node.edges[idx] = (role, keep)
                    changed = True
            if changed:
                deduped: list[tuple[Role, int]] = []
                for e in node.edges:
                    if e not in deduped:
                        deduped.append(e)
                node.edges = deduped
        new_distinct = set()
        for pair in self.distinct:
            if drop in pair:
                other = next(iter(pair - {drop}), keep)
                new_distinct.add(frozenset((keep, other)))
            else:
                new_distinct.add(pair)
        self.distinct = new_distinct
        if self.root == drop:
            self.root = keep
        return True

    # -- clash detection ----------------------------------------------

    def find_clash(self) -> bool:
        for x, node in self.nodes.items():
            label = node.label
            for c in label:
                if isinstance(c, BottomType):
                    return True
                if isinstance(c, (ConceptName, OneOf)) and Not(c) in label:
                    return True
                if isinstance(c, Not) and isinstance(c.arg, OneOf):
                    if c.arg.individual in node.tags:
                        return True
                if isinstance(c, (Exists, AtLeast)) and isinstance(
                    normalize_role(c.role), EmptyRoleType
                ):
                    if isinstance(c, Exists) or c.n >= 1:
                        return True
                if isinstance(c, AtMost) and _greedy_clique(
                    self.qualified(x, c.role, c.filler), c.n + 1, self.distinct
                ):
                    return True
        return False

    def qualified(self, x: int, role: Role, filler: Concept) -> list[int]:
        """R-neighbours of x whose labels hold `filler`, in ascending id;
        none over the empty or the universal role, which label no edge."""
        return [
            y for y in sorted(self.successors(x, role))
            if filler in self.nodes[y].label
        ]


def is_satisfiable(c: Concept, budget: Budget | None = None) -> SatResult:
    """Decide satisfiability of a concept in negation normal form.

    Sound always; complete within the budget except for the counting
    constructs handled by the Unknown safety valve.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    individuals = _individuals(c)
    if individuals is None:
        return SatResult(
            SatStatus.UNKNOWN, reason="counting over the universal role"
        )
    state = _State()
    root = state.new_node()
    state.add(root, c)
    # every individual denotes: give each mentioned individual a node up
    # front so universal-role propagation and nominal clashes reach it
    for ind in sorted(individuals):
        node = state.new_node()
        state.nodes[node].tags[ind] = None
    meter = _Meter(budget)
    try:
        result = _search(state, meter)
    except _OutOfBudget as exc:
        return SatResult(SatStatus.UNKNOWN, reason=str(exc))
    if result is None:
        return SatResult(SatStatus.UNSATISFIABLE)
    return SatResult(SatStatus.SATISFIABLE, _open=result)


def _search(state: _State, meter: _Meter) -> _State | None:
    """Depth-first expansion. Returns a saturated open state or None when
    every branch closes.

    Choice points live on an explicit stack of (state at the choice, its
    untried alternatives), so the number of nested choices is not bounded
    by Python's recursion limit. One tick per expansion step."""
    choices: list[tuple[_State, Iterator]] = []
    while True:
        meter.tick()
        if not state.find_clash():
            if _apply_deterministic(state, meter):
                continue
            alts = _branching_alternatives(state)
            if alts is None:
                return state
            choices.append((state, iter(alts)))
        # the branch closed or branches here: go on with the next untried
        # alternative of the innermost open choice point
        state = None
        while state is None and choices:
            base, untried = choices[-1]
            for apply_alt in untried:
                candidate = base.clone()
                if apply_alt(candidate):  # False: it closed at once (bad merge)
                    state = candidate
                    break
            else:
                choices.pop()
        if state is None:
            return None


# ---------------------------------------------------------------------------
# Deterministic rules
# ---------------------------------------------------------------------------

def _apply_deterministic(state: _State, meter: _Meter) -> bool:
    node_ids = sorted(state.nodes)

    # conjunction decomposition
    for x in node_ids:
        for c in list(state.nodes[x].label):
            if isinstance(c, And):
                changed = False
                for arg in c.args:
                    changed |= state.add(x, arg)
                if changed:
                    return True

    # nominal tagging: a node whose label contains {m} is m
    for x in node_ids:
        for c in list(state.nodes[x].label):
            if isinstance(c, OneOf) and c.individual not in state.nodes[x].tags:
                state.nodes[x].tags[c.individual] = None
                return True

    # nominal merging: two nodes carrying the same tag are the same element
    tag_owner: dict[str, int] = {}
    for x in node_ids:
        for tag in state.nodes[x].tags:
            if tag in tag_owner:
                keep, drop = tag_owner[tag], x
                if not state.merge(keep, drop):
                    # distinct nodes forced equal: surface as a clash
                    state.add(keep, BottomType())
                return True
            tag_owner[tag] = x

    # universal quantification
    for x in node_ids:
        if x not in state.nodes:
            continue
        for c in list(state.nodes[x].label):
            if not isinstance(c, ForAll):
                continue
            role = normalize_role(c.role)
            if isinstance(role, EmptyRoleType):
                continue
            if isinstance(role, UniversalRoleType):
                changed = False
                for y in sorted(state.nodes):
                    changed |= state.add(y, c.filler)
                if changed:
                    return True
                continue
            changed = False
            for y in state.successors(x, role):
                changed |= state.add(y, c.filler)
            if changed:
                return True

    # existential witnesses
    for x in node_ids:
        if x not in state.nodes:
            continue
        for c in list(state.nodes[x].label):
            # ∃R.C is ≥1 R.C
            if isinstance(c, Exists):
                n = 1
            elif isinstance(c, AtLeast) and c.n >= 1:
                n = c.n
            else:
                continue
            role = normalize_role(c.role)
            if isinstance(role, EmptyRoleType):
                continue  # clash already reported
            if isinstance(role, UniversalRoleType):
                # n == 1 here; larger n is behind the safety valve
                if any(c.filler in state.nodes[y].label for y in state.nodes):
                    continue
                y = state.new_node()
                state.add(y, c.filler)
                return True
            witnesses = state.qualified(x, role, c.filler)
            if _has_distinct_subset(witnesses, n, state.distinct, meter):
                continue
            fresh = []
            for _ in range(n):
                y = state.new_node()
                state.nodes[x].edges.append((role, y))
                state.add(y, c.filler)
                fresh.append(y)
            for i in range(len(fresh)):
                for j in range(i + 1, len(fresh)):
                    state.distinct.add(frozenset((fresh[i], fresh[j])))
            return True
    return False


def _greedy_clique(nodes: list[int], n: int, distinct) -> bool:
    """Whether walking `nodes` in order, keeping each one asserted distinct
    from all kept so far, keeps n of them. Sound, not complete."""
    kept: list[int] = []
    for y in nodes:
        if all(frozenset((y, k)) in distinct for k in kept):
            kept.append(y)
            if len(kept) == n:
                return True
    return False


def _has_distinct_subset(nodes: list[int], n: int, distinct, meter: _Meter) -> bool:
    """Whether `nodes` contains n members that are pairwise asserted
    distinct: greedy walks both ways first (the newest nodes may be this
    rule's own fresh witnesses), then every subset, one tick each."""
    if _greedy_clique(nodes, n, distinct) or _greedy_clique(nodes[::-1], n, distinct):
        return True
    for combo in combinations(nodes, n):
        meter.tick()
        if all(
            frozenset((a, b)) in distinct
            for a, b in combinations(combo, 2)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Branching rules
# ---------------------------------------------------------------------------

def _branching_alternatives(state: _State):
    node_ids = sorted(state.nodes)

    # disjunction: try each disjunct in syntactic order
    for x in node_ids:
        for c in state.nodes[x].label:
            if isinstance(c, Or) and not any(
                a in state.nodes[x].label for a in c.args
            ):
                def make(arg, x=x):
                    def apply(s: _State) -> bool:
                        s.add(x, arg)
                        return True

                    return apply

                return [make(a) for a in c.args]

    # choose rule: decide the qualifier on every neighbor of an AtMost
    for x in node_ids:
        for c in state.nodes[x].label:
            if not isinstance(c, AtMost):
                continue
            role = normalize_role(c.role)
            if isinstance(role, (EmptyRoleType, UniversalRoleType)):
                continue
            neg = complement(c.filler)
            for y in state.successors(x, role):
                label = state.nodes[y].label
                if c.filler not in label and neg not in label:
                    def with_pos(s: _State, y=y, f=c.filler) -> bool:
                        s.add(y, f)
                        return True

                    def with_neg(s: _State, y=y, f=neg) -> bool:
                        s.add(y, f)
                        return True

                    return [with_pos, with_neg]

    # merge rule: too many qualified neighbors for an AtMost
    for x in node_ids:
        for c in state.nodes[x].label:
            if not isinstance(c, AtMost):
                continue
            qualified = state.qualified(x, c.role, c.filler)
            if len(qualified) <= c.n:
                continue
            alts = []
            for i in range(len(qualified)):
                for j in range(i + 1, len(qualified)):
                    a, b = qualified[i], qualified[j]
                    if frozenset((a, b)) in state.distinct:
                        continue

                    def do_merge(s: _State, a=a, b=b) -> bool:
                        return s.merge(a, b)

                    alts.append(do_merge)
            # no mergeable pair: every alternative fails, branch closes
            return alts
    return None


# ---------------------------------------------------------------------------
# Model extraction
# ---------------------------------------------------------------------------

def _extract_model(state: _State) -> Interpretation:
    """Read a finite interpretation off a saturated open state. Element 0
    is the root representative, whose label holds the input concept, so
    the label signatures cover the input's."""
    order = [state.root] + [i for i in sorted(state.nodes) if i != state.root]
    index = {node_id: pos for pos, node_id in enumerate(order)}

    sig = Signature.union(
        signature_of(c) for node in state.nodes.values() for c in node.label
    )
    concept_ext = {a: set() for a in sorted(sig.concept_names)}
    role_ext = {r: set() for r in sorted(sig.role_names)}
    individual_ext: dict[str, int] = {}

    for node_id, node in state.nodes.items():
        elem = index[node_id]
        for c in node.label:
            if isinstance(c, ConceptName):
                concept_ext[c.name].add(elem)
        for tag in node.tags:
            individual_ext[tag] = elem
        for role, tgt in node.edges:
            nr = normalize_role(role)
            if isinstance(nr, RoleName):
                role_ext[nr.name].add((elem, index[tgt]))
            elif isinstance(nr, Inverse):
                role_ext[nr.role.name].add((index[tgt], elem))

    # individuals mentioned only under negation still denote something;
    # park them on an element that nothing forbids
    for ind in sorted(sig.individual_names - set(individual_ext)):
        allowed = [
            index[i]
            for i in sorted(state.nodes)
            if Not(OneOf(ind)) not in state.nodes[i].label
        ]
        individual_ext[ind] = allowed[0] if allowed else len(order)

    domain_size = max([len(order)] + [e + 1 for e in individual_ext.values()])
    return Interpretation(
        domain_size=domain_size,
        concept_ext={a: frozenset(s) for a, s in concept_ext.items()},
        role_ext={r: frozenset(s) for r, s in role_ext.items()},
        individual_ext=dict(sorted(individual_ext.items())),
    )
