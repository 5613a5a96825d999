import hashlib
import random
import sys
import time
import tracemalloc

import pytest

import locmod.tableau
from locmod import (
    AtLeast,
    AtMost,
    BOTTOM,
    Budget,
    ConceptName,
    EquivalentClasses,
    Exists,
    ForAll,
    Interpretation,
    Inverse,
    Not,
    OneOf,
    Or,
    RoleName,
    SatStatus,
    SubClassOf,
    TOP,
    UNIVERSAL_ROLE,
    Locality,
    LocalityFlavor,
    Signature,
    conj,
    eval_concept,
    find_countermodel,
    is_satisfiable,
    is_semantically_local,
    nnf,
)
from conftest import CORPUS_NAMES, load_fixture
from genlib import random_concept

A, B = ConceptName("A"), ConceptName("B")
R = RoleName("R")
c_role = RoleName("c")


def sat(concept, budget=None):
    return is_satisfiable(nnf(concept), budget)


class TestVerdicts:
    def test_vacuous_forall_against_atleast(self):
        probe = conj(ForAll(c_role, BOTTOM), AtLeast(3, c_role, TOP))
        assert sat(probe).status is SatStatus.UNSATISFIABLE

    def test_direct_clash(self):
        assert sat(conj(A, Not(A))).status is SatStatus.UNSATISFIABLE

    def test_counting_conflict(self):
        # the brute-force referee agrees there is no model up to size 3
        probe = conj(AtLeast(2, R, A), AtMost(1, R, TOP))
        assert find_countermodel(SubClassOf(probe, BOTTOM), 3) is None
        assert sat(probe).status is SatStatus.UNSATISFIABLE

    def test_witnessed_existential(self):
        probe = conj(Exists(R, A), ForAll(R, B))
        # the referee builds the two-element witness by hand
        witness = Interpretation(
            domain_size=2,
            concept_ext={"A": frozenset({1}), "B": frozenset({1})},
            role_ext={"R": frozenset({(0, 1)})},
            individual_ext={},
        )
        assert 0 in eval_concept(probe, witness)
        result = sat(probe)
        assert result.status is SatStatus.SATISFIABLE
        assert result.model.domain_size == 2
        assert 0 in eval_concept(probe, result.model)

    def test_counting_satisfiable(self):
        probe = conj(AtLeast(2, R, A), AtMost(3, R, TOP))
        result = sat(probe)
        assert result.status is SatStatus.SATISFIABLE
        assert 0 in eval_concept(probe, result.model)

    def test_merge_respects_distinctness(self):
        probe = conj(AtLeast(3, R, TOP), AtMost(2, R, TOP))
        assert sat(probe).status is SatStatus.UNSATISFIABLE


class TestInverseRoles:
    def test_inverse_propagation(self):
        # an R-successor whose ∀R⁻ pushes B back to the root
        probe = conj(Not(B), Exists(R, ForAll(Inverse(R), B)))
        assert sat(probe).status is SatStatus.UNSATISFIABLE

    def test_inverse_satisfiable(self):
        probe = Exists(Inverse(R), A)
        result = sat(probe)
        assert result.status is SatStatus.SATISFIABLE
        assert 0 in eval_concept(probe, result.model)


class TestNominals:
    def test_nominal_merging_bounds_count(self):
        # both successors are the same individual, so ≥2 distinct fails
        probe = conj(AtLeast(2, R, OneOf("m")), AtMost(1, R, TOP))
        assert sat(probe).status is SatStatus.UNSATISFIABLE

    def test_every_individual_denotes(self):
        # ¬{m} everywhere contradicts m denoting something
        probe = conj(A, ForAll(UNIVERSAL_ROLE, Not(OneOf("m"))))
        assert sat(probe).status is SatStatus.UNSATISFIABLE

    def test_nominal_model_assignment(self):
        probe = conj(Exists(R, OneOf("m")), Exists(R, A))
        result = sat(probe)
        assert result.status is SatStatus.SATISFIABLE
        assert "m" in result.model.individual_ext
        assert 0 in eval_concept(probe, result.model)

    def test_individual_only_under_negation_is_placed(self):
        # m occurs only as ¬{m}, yet it tags a node of its own, so the
        # model maps it and keeps it off the root
        probe = conj(A, Not(OneOf("m")))
        result = sat(probe)
        assert result.status is SatStatus.SATISFIABLE
        assert "m" in result.model.individual_ext
        assert 0 in eval_concept(probe, result.model)


class TestUniversalRole:
    def test_universal_forall_reaches_every_node(self):
        probe = conj(Exists(R, A), ForAll(UNIVERSAL_ROLE, B))
        result = sat(probe)
        assert result.status is SatStatus.SATISFIABLE
        assert 0 in eval_concept(probe, result.model)

    def test_universal_witness(self):
        probe = conj(Not(A), Exists(UNIVERSAL_ROLE, A))
        result = sat(probe)
        assert result.status is SatStatus.SATISFIABLE
        assert 0 in eval_concept(probe, result.model)

    def test_safety_valve(self):
        assert sat(AtMost(1, UNIVERSAL_ROLE, A)).status is SatStatus.UNKNOWN
        assert sat(AtLeast(2, UNIVERSAL_ROLE, A)).status is SatStatus.UNKNOWN
        assert sat(AtLeast(1, UNIVERSAL_ROLE, A)).status is SatStatus.SATISFIABLE


class TestBudgetAndDeterminism:
    def test_budget_exhaustion_is_unknown(self):
        deep = random_concept(random.Random(5), depth=3)
        result = is_satisfiable(nnf(deep), Budget(max_steps=3, max_seconds=5.0))
        assert result.status in (SatStatus.UNKNOWN, SatStatus.SATISFIABLE, SatStatus.UNSATISFIABLE)
        tiny = is_satisfiable(nnf(conj(A, B, Exists(R, A))), Budget(max_steps=2))
        assert tiny.status is SatStatus.UNKNOWN

    def test_budget_limits_are_positive(self):
        # NaN compares false with every number, so a NaN clock would never
        # run out; a step limit below 1 would make every verdict UNKNOWN
        for steps, seconds, message in (
            (0, 5.0, "max_steps must be positive, got 0"),
            (-3, 5.0, "max_steps must be positive, got -3"),
            (10, 0.0, "max_seconds must be positive, got 0.0"),
            (10, -1.0, "max_seconds must be positive, got -1.0"),
            (10, float("nan"), "max_seconds must be positive, got nan"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                Budget(steps, seconds)
        assert Budget(1, float("inf")).max_steps == 1

    def test_verdicts_ignore_the_clock_by_default(self, monkeypatch):
        # a clock that jumps 1,000 s per read: the default budget never
        # reads it as a limit, and an explicit max_seconds still does
        start = time.monotonic()
        reads = iter(range(1, 10**9))
        monkeypatch.setattr(
            locmod.tableau.time, "monotonic", lambda: start + 1000.0 * next(reads)
        )
        axiom = SubClassOf(AtLeast(300, RoleName("r"), B), A)
        sig = Signature({"A", "B"}, {"r"})
        flavor = LocalityFlavor.SEM_BOT
        assert is_semantically_local(axiom, sig, flavor).status is Locality.NON_LOCAL
        timed = is_semantically_local(axiom, sig, flavor, Budget(max_seconds=1.0))
        assert timed.status is Locality.UNKNOWN
        assert timed.reason == "time limit reached"

    def test_choice_points_do_not_recurse(self):
        # every binary disjunction is a choice point; a search that recursed
        # once per choice would overflow the lowered limit, and one that
        # rescanned every label per decision would be quadratic in the width
        width = 600
        probe = conj(
            *(Or((ConceptName(f"A{i}"), ConceptName(f"B{i}"))) for i in range(width))
        )
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 200)
        try:
            start = time.monotonic()
            result = is_satisfiable(probe)
            elapsed = time.monotonic() - start
        finally:
            sys.setrecursionlimit(limit)
        assert result.status is SatStatus.SATISFIABLE
        assert elapsed < 0.25
        assert 0 in eval_concept(probe, result.model)

    def test_step_cost_stays_flat(self):
        # ∀R∆.∃r⁻.≥1 R∆.⊤ after SEM_TOP substitution asks every node for a
        # fresh r⁻-neighbour, so the search runs until the step limit; each
        # step costs the same however large the state has grown
        C, s_role = ConceptName("C"), RoleName("s")
        r_role = RoleName("r")
        axiom = EquivalentClasses(
            AtMost(0, r_role, Or((C, OneOf("i")))),
            ForAll(Inverse(s_role), Exists(Inverse(r_role), AtLeast(1, s_role, B))),
        )
        sig = Signature({"C"}, {"r"})
        start = time.monotonic()
        verdict = is_semantically_local(
            axiom, sig, LocalityFlavor.SEM_TOP, Budget(max_steps=800, max_seconds=1e9)
        )
        assert time.monotonic() - start < 0.5
        assert verdict.reason == "rule application limit reached"

    def test_identical_runs_identical_results(self):
        rng = random.Random(6)
        for _ in range(60):
            c = nnf(random_concept(rng, depth=3))
            first = is_satisfiable(c)
            second = is_satisfiable(c)
            assert first.status == second.status
            assert first.model == second.model


def literal_conjunctions():
    """Conjunct tuples of name literals, ⊤, ⊥ and ∀/≤ over role names and
    inverses with literal or ⊤ fillers: none (⊤), duplicates and clashes,
    hand-picked and seeded."""
    S = RoleName("S")
    picked = [
        (), (A,), (Not(A),), (TOP,), (BOTTOM,), (ForAll(R, Not(A)),), (AtMost(0, R, TOP),),
        (A, B), (A, A), (A, Not(A)), (Not(A), A, B), (A, B, A, Not(B)),
        (A, BOTTOM), (BOTTOM, BOTTOM), (TOP, TOP), (A, TOP, Not(B)),
        (A, ForAll(R, Not(B))), (A, ForAll(Inverse(R), B), ForAll(Inverse(R), B)),
        (A, ForAll(R, A), ForAll(R, Not(A)), AtMost(1, S, Not(A))),
        (AtMost(0, R, A), AtMost(2, Inverse(S), TOP), Not(B)),
        (ForAll(R, A), Not(A), ForAll(R, TOP), A),
    ]
    rng = random.Random(12)
    names = (A, B, ConceptName("C"))
    roles = (R, Inverse(R), S)

    def literal():
        return rng.choice((rng.choice(names), Not(rng.choice(names))))

    def conjunct():
        kind = rng.randrange(9)
        if kind < 5:
            return literal()
        if kind == 5:
            return rng.choice((TOP, BOTTOM))
        filler = rng.choice((literal(), TOP))
        if kind < 8:
            return ForAll(rng.choice(roles), filler)
        return AtMost(rng.randrange(3), rng.choice(roles), filler)

    seeded = [tuple(conjunct() for _ in range(rng.randint(1, 6))) for _ in range(400)]
    return picked + seeded


class TestAgainstOracle:
    def test_literal_conjunctions(self):
        # a conjunction of literals makes no neighbour: a model must satisfy
        # it, and none found unsatisfiable has a model on three elements
        seen = set()
        for conjuncts in literal_conjunctions():
            probe = conj(*conjuncts)
            result = is_satisfiable(probe)
            seen.add(result.status)
            if result.status is SatStatus.SATISFIABLE:
                assert 0 in eval_concept(probe, result.model), conjuncts
            else:
                assert result.status is SatStatus.UNSATISFIABLE, conjuncts
                assert find_countermodel(SubClassOf(probe, BOTTOM), 3) is None, conjuncts
        assert seen == {SatStatus.SATISFIABLE, SatStatus.UNSATISFIABLE}

    def test_oracle_soundness_sample(self):
        # where the referee finds a small model, the tableau must not
        # declare unsatisfiability; returned models must check out
        rng = random.Random(8)
        for _ in range(150):
            c = nnf(random_concept(rng, depth=3, concepts=("A", "B"), roles=("r",)))
            tableau = is_satisfiable(c)
            oracle_model = find_countermodel(SubClassOf(c, BOTTOM), 3)
            if oracle_model is not None:
                assert tableau.status is not SatStatus.UNSATISFIABLE
            if tableau.status is SatStatus.SATISFIABLE:
                assert 0 in eval_concept(c, tableau.model)


def pigeonhole(k, a, b, role=R, x=A, y=B):
    """≥k R.(X ⊔ Y) ⊓ ≤a R.X ⊓ ≤b R.Y: unsatisfiable exactly when k > a + b."""
    return conj(AtLeast(k, role, Or((x, y))), AtMost(a, role, x), AtMost(b, role, y))


class TestAtMostClash:
    def test_pigeonholes_close_within_a_small_budget(self):
        # an over-full ≤ closes the branch before every disjunction and
        # choose decision below it is made
        for k, a, b in ((4, 2, 1), (5, 2, 2), (6, 3, 2)):
            result = sat(pigeonhole(k, a, b), Budget(max_steps=100))
            assert result.status is SatStatus.UNSATISFIABLE, (k, a, b)

    def test_random_counting_probes_agree_with_oracle(self):
        rng = random.Random(11)
        fillers = (A, B, Not(A), Not(B))
        seen = set()
        for _ in range(30):
            role = R if rng.random() < 0.5 else Inverse(R)
            probe = pigeonhole(
                rng.randint(1, 4), rng.randint(0, 2), rng.randint(0, 2), role
            )
            if rng.random() < 0.5:
                probe = conj(probe, ForAll(role, rng.choice(fillers)))
            if rng.random() < 0.5:
                # a neighbour not asserted distinct from the others
                probe = conj(probe, Exists(role, rng.choice(fillers)))
            result = sat(probe, Budget(max_steps=20_000))
            seen.add(result.status)
            if result.status is SatStatus.SATISFIABLE:
                assert 0 in eval_concept(probe, result.model), probe
            else:
                assert result.status is SatStatus.UNSATISFIABLE, probe
                assert find_countermodel(SubClassOf(probe, BOTTOM), 3) is None, probe
        assert seen == {SatStatus.SATISFIABLE, SatStatus.UNSATISFIABLE}

    def test_wide_counting_finishes_quickly(self):
        # neither the ≤-clash nor the witness rule enumerates subsets of
        # many neighbours; the witness rule's fallback is budgeted
        C = ConceptName("C")
        wide = conj(AtLeast(20, R, A), AtLeast(20, R, B), AtMost(30, R, TOP))
        start = time.monotonic()
        assert sat(wide, Budget(max_seconds=60.0)).status is SatStatus.SATISFIABLE
        assert time.monotonic() - start < 2.0
        # the largest clique of A/B-witnesses has 8 nodes: the fallback
        # drops every clique with too few candidates left to reach 9, so it
        # spends 8 ticks, not one per 9-subset (C(16, 9) = 11 440); it adds
        # 9 fresh C-witnesses and records that ≥9 R.C fired, so no step
        # asks again
        starved = conj(AtLeast(8, R, A), AtLeast(8, R, B), ForAll(R, C), AtLeast(9, R, C))
        start = time.monotonic()
        result = sat(starved, Budget(max_steps=1000, max_seconds=60.0))
        assert time.monotonic() - start < 2.0
        assert result.status is SatStatus.SATISFIABLE
        assert 0 in eval_concept(starved, result.model)


    def test_a_huge_witness_count_runs_out_of_steps_not_memory(self):
        # each fresh witness is charged a step before its node is built,
        # so a million of them stop at the step limit
        axiom = SubClassOf(AtLeast(10**6, R, B), A)
        start = time.monotonic()
        v = is_semantically_local(
            axiom, Signature({"A", "B"}, {"R"}), LocalityFlavor.SEM_BOT, Budget(max_steps=1000)
        )
        assert time.monotonic() - start < 1.0
        assert v.status is Locality.UNKNOWN
        assert v.reason == "rule application limit reached"

    def test_witness_distinctness_grows_linearly(self):
        # distinctness is kept once per witness group, not as n - 1 others
        # on each fresh node: 4,000 witnesses fit in a few megabytes
        axiom = SubClassOf(AtLeast(4000, R, B), A)
        tracemalloc.start()
        try:
            v = is_semantically_local(axiom, Signature({"A", "B"}, {"R"}), LocalityFlavor.SEM_BOT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.status is Locality.NON_LOCAL
        assert peak < 50 * 2**20


def status_corpus():
    """6000 random concepts and 1200 counting probes with inverse roles
    and nominals, seeded."""
    rng = random.Random(0)
    corpus = [nnf(random_concept(rng, depth=3)) for _ in range(6000)]
    S = RoleName("S")
    fillers = (A, B, Not(A), Not(B), OneOf("m"), Not(OneOf("m")))
    for _ in range(1200):
        role = rng.choice((R, Inverse(R)))
        x, y = rng.sample(fillers, 2)
        probe = pigeonhole(
            rng.randint(1, 4), rng.randint(0, 2), rng.randint(0, 2), role, x, y
        )
        if rng.random() < 0.5:
            probe = conj(probe, ForAll(rng.choice((role, S)), rng.choice(fillers)))
        if rng.random() < 0.5:
            some = rng.choice((role, Inverse(role), Inverse(S)))
            probe = conj(probe, Exists(some, rng.choice(fillers)))
        if rng.random() < 0.25:
            probe = conj(probe, rng.choice(fillers))
        corpus.append(nnf(probe))
    return corpus


class TestPinnedStatuses:
    def test_statuses_equal_the_pinned_ones(self):
        # pinned from the rescanning, cloning search this one replaced:
        # 5307 SAT and 693 UNSAT random concepts, 494 SAT and 706 UNSAT
        # counting probes, none UNKNOWN; a step budget alone, so that no
        # status depends on machine load
        budget = Budget(max_steps=1_000_000, max_seconds=1e9)
        corpus = status_corpus()
        results = [is_satisfiable(c, budget) for c in corpus]
        statuses = "".join(r.status.name + "\n" for r in results)
        assert hashlib.sha256(statuses.encode()).hexdigest() == (
            "2eb08c7c56fc6f4b32837b0eb63b2ef04051879073d1fe7fef5f763eea77a1bc"
        )
        for c, result in zip(corpus, results):
            if result.status is SatStatus.SATISFIABLE:
                assert 0 in eval_concept(c, result.model), c


class TestLazyModel:
    def test_verdict_path_builds_no_model(self, monkeypatch):
        def refuse(state):
            raise AssertionError("a model was built on the verdict path")

        monkeypatch.setattr(locmod.tableau, "_extract_model", refuse)
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            for sig in (Signature(), o.names):
                for axiom in o.axioms:
                    for flavor in (LocalityFlavor.SEM_BOT, LocalityFlavor.SEM_TOP):
                        is_semantically_local(axiom, sig, flavor)
