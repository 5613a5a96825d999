import random
import sys

from locmod import (
    AtLeast,
    AtMost,
    BOTTOM,
    Budget,
    ConceptName,
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
    conj,
    eval_concept,
    find_countermodel,
    is_satisfiable,
    nnf,
)
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

    def test_choice_points_do_not_recurse(self):
        # every binary disjunction is a choice point; a search that recursed
        # once per choice would overflow the lowered limit
        width = 250
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
            result = is_satisfiable(probe)
        finally:
            sys.setrecursionlimit(limit)
        assert result.status is SatStatus.SATISFIABLE
        assert 0 in eval_concept(probe, result.model)

    def test_identical_runs_identical_results(self):
        rng = random.Random(6)
        for _ in range(60):
            c = nnf(random_concept(rng, depth=3))
            first = is_satisfiable(c)
            second = is_satisfiable(c)
            assert first.status == second.status
            assert first.model == second.model


class TestAgainstOracle:
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
