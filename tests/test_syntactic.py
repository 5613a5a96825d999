import random

import pytest

import grammar_walker as walker

from locmod import (
    AtLeast,
    BOTTOM,
    ConceptName,
    EquivalentClasses,
    EquivalentRoles,
    ForAll,
    Inverse,
    InverseRoles,
    LocalityFlavor,
    OneOf,
    RoleName,
    Signature,
    SubClassOf,
    SubRoleOf,
    SyntacticClass,
    TOP,
    Transitive,
    classify_concept,
    conj,
    exactly,
    is_syntactically_local,
    substitute,
)
from locmod.syntactic import compile_circuit
from genlib import random_axiom, random_concept, random_signature

BOT = LocalityFlavor.SYN_BOT
TOPF = LocalityFlavor.SYN_TOP
A, B = ConceptName("A"), ConceptName("B")
R = RoleName("R")
P = RoleName("P")


def koala_rhs():
    return conj(
        ConceptName("S"),
        ForAll(RoleName("c"), ConceptName("F")),
        ForAll(RoleName("g"), OneOf("m")),
        exactly(3, RoleName("c")),
    )


class TestClassifyConcept:
    def test_name_outside_signature_is_bot(self):
        assert classify_concept(A, Signature({"B"}), BOT) is SyntacticClass.IN_BOT
        assert classify_concept(A, Signature({"A"}), BOT) is SyntacticClass.NEITHER

    def test_atleast_zero_is_top(self):
        sig = Signature({"A"}, {"R"})
        assert classify_concept(AtLeast(0, R, A), sig, BOT) is SyntacticClass.IN_TOP
        assert classify_concept(AtLeast(0, R, A), sig, TOPF) is SyntacticClass.IN_TOP

    def test_koala_rhs_is_neither(self):
        sig = Signature({"S"}, {"c", "g"})
        assert classify_concept(koala_rhs(), sig, BOT) is SyntacticClass.NEITHER

    def test_constants(self):
        rng = random.Random(11)
        for _ in range(50):
            sig = random_signature(rng)
            for flavor in (BOT, TOPF):
                assert classify_concept(BOTTOM, sig, flavor) is SyntacticClass.IN_BOT
                assert classify_concept(TOP, sig, flavor) is SyntacticClass.IN_TOP

    def test_nominal_is_never_classified(self):
        for flavor in (BOT, TOPF):
            assert classify_concept(OneOf("m"), Signature(), flavor) is SyntacticClass.NEITHER

    def test_classification_is_a_function(self):
        # the grammars never put one concept in both classes
        rng = random.Random(12)
        for _ in range(500):
            c = random_concept(rng, depth=3)
            sig = random_signature(rng)
            for flavor in (BOT, TOPF):
                classify_concept(c, sig, flavor)  # single pass, single value

    def test_rejects_semantic_flavor(self):
        with pytest.raises(ValueError):
            classify_concept(A, Signature(), LocalityFlavor.SEM_BOT)


class TestAxiomLocality:
    def test_shared_name_equivalence_is_not_local(self):
        assert not is_syntactically_local(EquivalentClasses(A, B), Signature({"A"}), BOT)

    def test_inverse_tautology_quartet(self):
        axiom = InverseRoles(P, Inverse(P))
        with_p = Signature(role_names={"P"})
        assert not is_syntactically_local(axiom, with_p, BOT)
        assert is_syntactically_local(axiom, with_p, BOT, refined=True)
        assert is_syntactically_local(axiom, Signature(), BOT)
        assert is_syntactically_local(axiom, Signature(), BOT, refined=True)

    def test_koala_axiom_not_bot_local(self):
        axiom = EquivalentClasses(ConceptName("M"), koala_rhs())
        assert not is_syntactically_local(axiom, Signature({"S"}, {"c", "g"}), BOT)

    def test_subclass_forms(self):
        sig = Signature({"A"}, {"R"})
        assert is_syntactically_local(SubClassOf(B, A), sig, BOT)  # lhs outside
        assert is_syntactically_local(SubClassOf(A, AtLeast(0, R, B)), sig, BOT)
        assert not is_syntactically_local(SubClassOf(A, B), sig, BOT)
        # top flavor: rhs name outside the signature is a top concept
        assert is_syntactically_local(SubClassOf(A, B), sig, TOPF)
        assert not is_syntactically_local(SubClassOf(B, A), sig, TOPF)

    def test_role_axiom_forms(self):
        out = Signature(role_names={"other"})
        both = Signature(role_names={"R", "S"})
        s = RoleName("S")
        assert is_syntactically_local(SubRoleOf(R, s), out, BOT)
        assert not is_syntactically_local(SubRoleOf(R, s), both, BOT)
        assert is_syntactically_local(SubRoleOf(R, s), out, TOPF)
        assert is_syntactically_local(Transitive(R), out, BOT)
        assert not is_syntactically_local(Transitive(R), both, TOPF)
        assert is_syntactically_local(EquivalentRoles(R, s), out, BOT)
        assert not is_syntactically_local(EquivalentRoles(R, s), Signature(role_names={"R"}), BOT)
        # bottom flavor looks at the sub-role, top flavor at the super-role
        assert not is_syntactically_local(SubRoleOf(R, s), Signature(role_names={"R"}), BOT)
        assert is_syntactically_local(SubRoleOf(R, s), Signature(role_names={"R"}), TOPF)

    def test_inverse_is_transparent_for_role_names(self):
        axiom = Transitive(Inverse(P))
        assert is_syntactically_local(axiom, Signature(), BOT)
        assert not is_syntactically_local(axiom, Signature(role_names={"P"}), BOT)

    def test_refined_differs_only_on_inverse_tautologies(self):
        rng = random.Random(13)
        for _ in range(800):
            axiom = random_axiom(rng)
            sig = random_signature(rng)
            for flavor in (BOT, TOPF):
                plain = is_syntactically_local(axiom, sig, flavor)
                refined = is_syntactically_local(axiom, sig, flavor, refined=True)
                if plain != refined:
                    assert isinstance(axiom, InverseRoles)
                    from locmod import normalize_role

                    assert normalize_role(Inverse(axiom.left)) == normalize_role(axiom.right)
                    assert refined and not plain


class TestOneGrammar:
    """The grammar written once over a builder decides as the recursive
    classifier it replaced (`grammar_walker`)."""

    def test_evaluation_equals_the_walker(self):
        rng = random.Random(14)
        compared = 0
        for _ in range(3000):
            concept = random_concept(rng, depth=4)
            axiom = random_axiom(rng, depth=3)
            sig = random_signature(rng)
            for flavor in (BOT, TOPF):
                assert classify_concept(concept, sig, flavor) is walker.classify_concept(
                    concept, sig, flavor
                )
                for refined in (False, True):
                    assert is_syntactically_local(
                        axiom, sig, flavor, refined
                    ) == walker.is_syntactically_local(axiom, sig, flavor, refined)
                compared += 2
        assert compared >= 6000

    def test_substituted_role_constants_still_raise(self):
        # substitution sends roles outside Σ to the empty or universal role;
        # wherever the walker refused such an input, so does the grammar
        rng = random.Random(15)
        raised = 0
        for _ in range(1500):
            axiom = random_axiom(rng, depth=3)
            sig = random_signature(rng)
            for sem in (LocalityFlavor.SEM_BOT, LocalityFlavor.SEM_TOP):
                probe = substitute(axiom, sig, sem)
                concept = substitute(SubClassOf(random_concept(rng), TOP), sig, sem).sub
                for flavor in (BOT, TOPF):
                    for check, reference, x in (
                        (is_syntactically_local, walker.is_syntactically_local, probe),
                        (classify_concept, walker.classify_concept, concept),
                    ):
                        try:
                            expected = reference(x, sig, flavor)
                        except ValueError:
                            raised += 1
                            with pytest.raises(ValueError):
                                check(x, sig, flavor)
                            with pytest.raises(ValueError):
                                compile_circuit([SubClassOf(x, x) if x is concept else x], flavor)
                            continue
                        try:
                            assert check(x, sig, flavor) == expected
                        except ValueError:
                            pass  # the walker skipped the constant; the grammar need not
        assert raised >= 500
