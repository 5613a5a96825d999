import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from locmod import (
    And,
    AtLeast,
    AtMost,
    BOTTOM,
    ConceptName,
    DisjointClasses,
    Domain,
    EMPTY_ROLE,
    EquivalentClasses,
    Exists,
    ForAll,
    Inverse,
    Not,
    OneOf,
    Ontology,
    Or,
    Range,
    RoleName,
    Signature,
    SubClassOf,
    TOP,
    UNIVERSAL_ROLE,
    complement,
    conj,
    eval_concept,
    exactly,
    nnf,
    signature_of,
)
from conftest import CORPUS_NAMES, load_fixture
from genlib import random_axiom, random_concept, random_interpretation, random_role

A, B = ConceptName("A"), ConceptName("B")
R = RoleName("R")


class TestSignatureOf:
    def test_on_topic_axiom(self):
        axiom = SubClassOf(ConceptName("Duck"), Exists(RoleName("eats"), ConceptName("Grass")))
        assert signature_of(axiom) == Signature({"Duck", "Grass"}, {"eats"})

    def test_top_in_top_is_empty(self):
        assert signature_of(SubClassOf(TOP, TOP)) == Signature()

    def test_equivalence(self):
        assert signature_of(EquivalentClasses(A, B)) == Signature({"A", "B"})

    def test_constants_contribute_nothing(self):
        c = Exists(EMPTY_ROLE, ForAll(UNIVERSAL_ROLE, A))
        assert signature_of(c) == Signature({"A"})

    def test_ontology_signature_is_union_of_axiom_signatures(self):
        rng = random.Random(7)
        axioms = tuple(random_axiom(rng) for _ in range(20))
        onto = Ontology(axioms, name="x")
        merged = Signature()
        for a in onto.axioms:
            merged = merged | signature_of(a)
        assert signature_of(onto) == merged


class TestNnf:
    def test_de_morgan(self):
        assert nnf(Not(And((A, B)))) == Or((Not(A), Not(B)))

    def test_quantifier_duality(self):
        assert nnf(Not(Exists(R, A))) == ForAll(R, Not(A))

    def test_counting_duality(self):
        assert nnf(Not(AtLeast(3, R, A))) == AtMost(2, R, A)
        assert nnf(Not(AtMost(2, R, A))) == AtLeast(3, R, A)

    def test_negated_vacuous_counting_keeps_the_signature(self):
        # ¬(≥0 R.A) has no model but must not lose R on the way to NNF
        n = nnf(Not(AtLeast(0, R, A)))
        assert n == Exists(R, And((A, Not(A))))
        assert signature_of(n) == signature_of(AtLeast(0, R, A))

    def test_negation_stops_at_nominals(self):
        assert nnf(Not(OneOf("m"))) == Not(OneOf("m"))

    def test_idempotent_and_signature_preserving(self):
        rng = random.Random(1)
        for _ in range(300):
            c = random_concept(rng, depth=3)
            n = nnf(c)
            assert nnf(n) == n
            assert signature_of(n) == signature_of(c)

    def test_preserves_meaning_on_random_interpretations(self):
        rng = random.Random(2)
        for _ in range(200):
            c = random_concept(rng, depth=3)
            i = random_interpretation(rng, rng.randint(1, 3))
            assert eval_concept(nnf(c), i) == eval_concept(c, i)
            assert eval_concept(complement(c), i) == i.domain - eval_concept(c, i)


class TestNormalizeRole:
    """Roles are built in normal form: an `Inverse` wraps a role name."""

    def test_double_inverse_collapses(self):
        p = RoleName("P")
        assert Inverse(Inverse(p)) is p
        assert Inverse(Inverse(Inverse(p))) == Inverse(p)

    def test_single_inverse_is_normal(self):
        p = RoleName("P")
        assert type(Inverse(p)) is Inverse and Inverse(p).role is p

    def test_constants_are_fixed_points(self):
        assert Inverse(EMPTY_ROLE) is EMPTY_ROLE
        assert Inverse(UNIVERSAL_ROLE) is UNIVERSAL_ROLE

    def test_idempotent(self):
        # nothing is left to normalize: a chain of inversions over a name is
        # the name or its one inverse, by the parity of its length
        rng = random.Random(3)
        for _ in range(100):
            p = RoleName(rng.choice("rs"))
            r, n = p, rng.randrange(8)
            for _ in range(n):
                r = Inverse(r)
            assert r == (Inverse(p) if n % 2 else p)
            assert (r.role if n % 2 else r) is p

    def test_copies_equal_the_original(self):
        # copy, deepcopy and pickle rebuild an instance by `cls.__new__(cls)`
        r = Inverse(RoleName("P"))
        for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(twin) is Inverse
            assert twin == r and hash(twin) == hash(r)
        assert dataclasses.replace(r, role=Inverse(RoleName("Q"))) == RoleName("Q")


class TestNormalizeAxiom:
    """`Domain`, `Range` and `DisjointClasses` build the inclusions they
    stand for; the other axioms keep their own form, since the locality
    grammars treat ≡ and the role axioms directly."""

    def test_domain(self):
        eats, animal = RoleName("eats"), ConceptName("Animal")
        assert Domain(eats, animal) == SubClassOf(Exists(eats, TOP), animal)

    def test_range(self):
        eats, food = RoleName("eats"), ConceptName("Food")
        assert Range(eats, food) == SubClassOf(TOP, ForAll(eats, food))

    def test_disjointness(self):
        assert DisjointClasses(A, B) == SubClassOf(And((A, B)), BOTTOM)

    def test_plain_axioms_pass_through(self):
        axiom = EquivalentClasses(A, B)
        assert (axiom.left, axiom.right) == (A, B)
        # a built domain axiom is its inclusion: it prints and deduplicates so
        eats = RoleName("eats")
        o = Ontology((Domain(eats, A), SubClassOf(Exists(eats, TOP), A)))
        assert len(o) == 1 and str(o.axioms[0]) == "∃eats.⊤ ⊑ A"

    def test_signature_preserved(self):
        rng = random.Random(4)
        for _ in range(300):
            r, c, d = random_role(rng), random_concept(rng), random_concept(rng)
            assert signature_of(Domain(r, c)) == signature_of(r) | signature_of(c)
            assert signature_of(Range(r, c)) == signature_of(r) | signature_of(c)
            assert signature_of(DisjointClasses(c, d)) == signature_of(c) | signature_of(d)


class TestConstruction:
    def test_boolean_arity(self):
        with pytest.raises(ValueError):
            And((A,))
        with pytest.raises(ValueError):
            Or(())

    def test_nested_conjunctions_flatten(self):
        c = And((A, And((B, TOP))))
        assert c.args == (A, B, TOP)
        assert conj(A) == A
        assert conj() == TOP

    def test_exact_cardinality_desugars(self):
        assert exactly(3, R, A) == And((AtLeast(3, R, A), AtMost(3, R, A)))
        with pytest.raises(ValueError):
            AtLeast(-1, R, A)

    def test_signature_kinds_are_disjoint(self):
        with pytest.raises(ValueError):
            Signature({"x"}, {"x"})

    def test_ontology_deduplicates(self):
        o = Ontology((SubClassOf(A, B), SubClassOf(A, B), EquivalentClasses(A, B)))
        assert len(o) == 2

    def test_restrict_equals_a_built_ontology(self):
        rng = random.Random(12)
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            n = len(o)
            subsets = [range(n), range(0), range(1, n, 2)]
            subsets += [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(5)]
            for p in subsets:
                sub = o.restrict(p)
                built = Ontology(tuple(o.axioms[i] for i in p), name=o.name)
                assert sub == built and hash(sub) == hash(built)
                assert sub.axiom_signatures == built.axiom_signatures
                assert sub.names == built.names


# a small hypothesis strategy over concepts, to shake out constructor edge cases
_names = st.sampled_from(["A", "B", "C"])
_roles = st.builds(RoleName, st.sampled_from(["r", "s"]))
_concepts = st.recursive(
    st.one_of(
        st.just(TOP),
        st.just(BOTTOM),
        st.builds(ConceptName, _names),
        st.builds(OneOf, st.just("m")),
    ),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(lambda a, b: And((a, b)), inner, inner),
        st.builds(lambda a, b: Or((a, b)), inner, inner),
        st.builds(Exists, _roles, inner),
        st.builds(ForAll, _roles, inner),
        st.builds(AtLeast, st.integers(0, 3), _roles, inner),
        st.builds(AtMost, st.integers(0, 3), _roles, inner),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_concepts)
def test_nnf_fixpoint_property(c):
    n = nnf(c)
    assert nnf(n) == n
    assert signature_of(n) == signature_of(c)
    # complement of the complement round-trips to nnf
    assert nnf(Not(Not(c))) == n
    # nnf and complement are the two polarities of one walk
    assert complement(c) == nnf(Not(c))
