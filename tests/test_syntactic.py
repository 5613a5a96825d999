import random
import re

import pytest

import grammar_walker as walker
from grammar_walker import SyntacticClass

from locmod import (
    AtLeast,
    BOTTOM,
    ConceptName,
    EquivalentClasses,
    EquivalentRoles,
    ForAll,
    Inverse,
    InverseRoles,
    Locality,
    LocalityFlavor,
    OneOf,
    Ontology,
    RoleName,
    Signature,
    SubClassOf,
    SubRoleOf,
    TOP,
    Transitive,
    conj,
    exactly,
    is_semantically_local,
    is_syntactically_local,
    substitute,
)
import locmod.model as model
import locmod.semantic as semantic
import locmod.syntactic as syntactic
from locmod.semantic import verdict_in
from locmod.syntactic import compile_circuit
from conftest import CORPUS_NAMES, load_fixture
from genlib import (
    CONCEPTS,
    ROLES,
    random_axiom,
    random_concept,
    random_renaming,
    random_signature,
    refutes_locality,
    renamed,
    synthetic_ontology,
)

BOT = LocalityFlavor.SYN_BOT
TOPF = LocalityFlavor.SYN_TOP
A, B = ConceptName("A"), ConceptName("B")
R = RoleName("R")
P = RoleName("P")


def classify_concept(c, sig, flavor) -> SyntacticClass:
    """The class the grammar gives `c`: in Bot(Σ) when c ⊑ ⊥ is local, in
    Top(Σ) when ⊤ ⊑ c is."""
    if is_syntactically_local(SubClassOf(c, BOTTOM), sig, flavor):
        return SyntacticClass.IN_BOT
    if is_syntactically_local(SubClassOf(TOP, c), sig, flavor):
        return SyntacticClass.IN_TOP
    return SyntacticClass.NEITHER


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
                in_bot = is_syntactically_local(SubClassOf(c, BOTTOM), sig, flavor)
                assert not (in_bot and is_syntactically_local(SubClassOf(TOP, c), sig, flavor))


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
                    assert Inverse(axiom.left) == axiom.right
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
                                compile_circuit(
                                    Ontology((SubClassOf(x, x) if x is concept else x,)), flavor
                                )
                            continue
                        try:
                            assert check(x, sig, flavor) == expected
                        except ValueError:
                            pass  # the walker skipped the constant; the grammar need not
        assert raised >= 500


class TestSoundGrammar:
    """Every production is sound for semantic locality of the same
    polarity, so a semantic flavor gets the grammar of its syntactic
    counterpart; ≥n R.C with n ≥ 2 is never in Top(Σ)."""

    def test_semantic_flavors_use_the_grammar_of_their_polarity(self):
        rng = random.Random(16)
        counting = 0
        for _ in range(4000):
            axiom = random_axiom(rng, depth=3)
            sig = random_signature(rng)
            for syn, sem in ((BOT, LocalityFlavor.SEM_BOT), (TOPF, LocalityFlavor.SEM_TOP)):
                local = is_syntactically_local(axiom, sig, syn)
                assert is_syntactically_local(axiom, sig, sem) == local
            counting += bool(re.search(r"AtLeast\(n=([2-9]|\d\d)", repr(axiom)))
        assert counting >= 500
        # at Σ = {A} the one-element interpretation refutes A ⊑ ≥2 R.B
        at_least_two = SubClassOf(A, AtLeast(2, R, B))
        one = SubClassOf(A, AtLeast(1, R, B))
        for flavor in (TOPF, LocalityFlavor.SEM_TOP):
            assert not is_syntactically_local(at_least_two, Signature({"A"}), flavor)
            assert is_syntactically_local(one, Signature({"A"}), flavor)

    def test_local_is_never_refuted(self):
        rng = random.Random(17)
        local = 0
        for _ in range(600):
            axiom = random_axiom(rng, depth=2)
            sig = random_signature(rng)
            for flavor in LocalityFlavor:
                sem = LocalityFlavor.SEM_BOT if flavor.is_bottom else LocalityFlavor.SEM_TOP
                if is_syntactically_local(axiom, sig, flavor):
                    local += 1
                    assert not refutes_locality(axiom, sig, sem, 2)
                    verdict = is_semantically_local(axiom, sig, sem)
                    assert verdict.status is not Locality.NON_LOCAL
        assert local >= 600

    def test_circuit_equals_evaluation(self):
        rng = random.Random(18)
        o = Ontology(tuple(random_axiom(rng, depth=3) for _ in range(300)))
        axioms = o.axioms
        for sem in (LocalityFlavor.SEM_BOT, LocalityFlavor.SEM_TOP):
            circuit = compile_circuit(o, sem)
            for _ in range(40):
                sig = random_signature(rng)
                roots, _ = circuit.fire(
                    list(circuit.need), sig.concept_names, sig.role_names, range(len(axioms))
                )
                assert set(roots) | set(circuit.always) == {
                    i for i, a in enumerate(axioms) if not is_syntactically_local(a, sig, sem)
                }


def compile_per_axiom(axioms, flavor):
    """The `Circuit` fields compiled axiom by axiom, the reference for
    `compile_circuit`: the grammar runs on every axiom, over a builder whose
    name is the list of its targets shared by all axioms, and each axiom's
    gates are numbered from its root down."""
    uses = ({}, {})
    need, owner, up, always = [], [], [], []

    class Lists:
        and_ = staticmethod(lambda inputs: syntactic._fold(inputs, False))
        or_ = staticmethod(lambda inputs: syntactic._fold(inputs, True))
        concept = staticmethod(lambda name: uses[0].setdefault(name, []))
        role = staticmethod(lambda name: uses[1].setdefault(name, []))

    def place(gate, i, target):
        if isinstance(gate, list):  # a name
            gate.append(target)
            return
        g = len(need)
        need.append(gate[0])
        owner.append(i)
        up.append(target)
        for x in gate[1]:
            place(x, i, g)

    for i, a in enumerate(axioms):
        root = syntactic._nonlocal(a, Lists, flavor.is_bottom)
        if root is True:
            always.append(i)
        elif root is not False:
            place(root, i, ~i)
    # a name whose half of an (nb, nt) pair was never placed has no targets
    used = tuple({n: tuple(ts) for n, ts in by.items() if ts} for by in uses)
    return used, tuple(need), tuple(owner), tuple(up), tuple(always)


def renamed_copies(seed: int, count: int):
    """An ontology of random axioms, each followed by up to three renamed
    copies; `random_axiom` repeats names within an axiom and draws inverse
    roles and nominals."""
    rng = random.Random(seed)
    axioms = []
    for _ in range(count):
        a = random_axiom(rng, depth=3)
        axioms.append(a)
        for _ in range(rng.randrange(4)):
            concepts = random_renaming(rng, CONCEPTS, [f"C{j}" for j in range(8)])
            roles = random_renaming(rng, ROLES, [f"r{j}" for j in range(5)])
            axioms.append(renamed(a, concepts, roles))
    return Ontology(tuple(axioms))


class TestCircuitPerStructure:
    """`compile_circuit` runs the grammar once per axiom structure and
    copies the gates to every axiom of the structure."""

    @staticmethod
    def ontologies():
        return [synthetic_ontology(300), renamed_copies(19, 150)]

    def test_equals_the_per_axiom_compilation(self):
        rng = random.Random(20)
        for o in self.ontologies():
            assert len(o.structures) < len(o)
            for flavor in (BOT, TOPF):
                circuit = compile_circuit(o, flavor)
                fields = (circuit.uses, circuit.need, circuit.owner, circuit.up, circuit.always)
                assert fields == compile_per_axiom(o.axioms, flavor)
                names = o.names
                for _ in range(10):
                    sig = random_signature(
                        rng,
                        0.3,
                        concepts=sorted(names.concept_names),
                        roles=sorted(names.role_names),
                    )
                    roots, _ = circuit.fire(
                        list(circuit.need), sig.concept_names, sig.role_names, None
                    )
                    assert set(roots) | set(circuit.always) == {
                        i
                        for i, a in enumerate(o.axioms)
                        if not is_syntactically_local(a, sig, flavor)
                    }

    def test_grammar_runs_once_per_structure(self, monkeypatch):
        calls = []
        nonlocal_ = syntactic._nonlocal

        def counted(a, *args):
            calls.append(a)
            return nonlocal_(a, *args)

        monkeypatch.setattr(syntactic, "_nonlocal", counted)
        for o in self.ontologies():
            for flavor in (BOT, TOPF):
                calls.clear()
                compile_circuit(o, flavor)
                assert len(calls) == len(set(calls)) == len(o.structures)


def memo_key(a, sig, flavor):
    """The key under which `verdict_in` keeps a verdict of `a`, of any
    flavor, with the structure in place of its number."""
    structure, concepts, roles, _ = model.axiom_shape(a)
    return (
        flavor,
        structure,
        *(name in sig.concept_names for name in concepts),
        *(name in sig.role_names for name in roles),
    )


class TestVerdictMemo:
    """`semantic.verdict_in` answers a syntactic flavor as the grammar does,
    and walks the grammar once per key."""

    def test_equals_the_grammar_in_any_order(self, monkeypatch):
        rng = random.Random(37)
        walk, walked = syntactic.is_syntactically_local, []

        def counted(a, sig, flavor):
            walked.append(memo_key(a, sig, flavor))
            return walk(a, sig, flavor)

        monkeypatch.setattr(semantic, "is_syntactically_local", counted)
        ontologies = [load_fixture(name) for name in CORPUS_NAMES]
        ontologies += [synthetic_ontology(300), renamed_copies(21, 60), renamed_copies(22, 60)]
        for o in ontologies:
            names = o.names
            cases = [
                (i, sig, flavor)
                for sig in (
                    random_signature(
                        rng, concepts=sorted(names.concept_names), roles=sorted(names.role_names)
                    )
                    for _ in range(20)
                )
                for i in range(len(o))
                for flavor in (BOT, TOPF)
            ]
            walked.clear()
            keys = set()
            for _ in range(2):  # the second order meets a warm memo
                rng.shuffle(cases)
                for i, sig, flavor in cases:
                    a = o.axioms[i]
                    expected = walk(a, sig, flavor)
                    assert verdict_in(o, i, sig, flavor).is_local is expected
                    keys.add(memo_key(a, sig, flavor))
            assert len(walked) == len(set(walked)) == len(keys) < len(cases)

    def test_one_key_layout_for_every_flavor(self):
        # the self-inverse axiom and a renamed copy, with both roles in Σ:
        # the grammar calls them non-local, semantics local, and each
        # flavor keeps one verdict for both under (flavor, number, *bits);
        # `refined` answers before the memo and is no part of any key
        o = Ontology((InverseRoles(P, Inverse(P)), InverseRoles(R, Inverse(R))))
        sig = Signature(frozenset(), frozenset({"P", "R"}))
        for flavor in LocalityFlavor:
            for i in (0, 1):
                assert verdict_in(o, i, sig, flavor).is_local is not flavor.is_syntactic
                assert is_syntactically_local(o.axioms[i], sig, flavor, refined=True)
        (number, *_), (other, *_) = o.shapes
        assert number == other
        assert set(o.verdicts) == {(flavor, number, True) for flavor in LocalityFlavor}
