import random

from locmod import (
    Budget,
    ConceptName,
    EquivalentClasses,
    Exists,
    LocalityFlavor,
    Ontology,
    RoleName,
    SEM_STAR,
    SYN_STAR,
    Signature,
    SubClassOf,
    brute_force_refutes_locality,
    extract_module,
    extract_nested,
    extract_star,
    genuine_modules,
    is_semantically_local,
    is_syntactically_local,
    signature_of,
)
from conftest import CORPUS_NAMES, load_fixture
from genlib import random_signature, synthetic_ontology

A, B = ConceptName("A"), ConceptName("B")
ALL_FLAVORS = tuple(LocalityFlavor)


def module_set(result):
    return frozenset(result.module.axioms)


class TestExtractModule:
    def test_shared_name_equivalence_is_kept_under_every_flavor(self):
        o = Ontology((EquivalentClasses(A, B),), name="pair")
        for flavor in ALL_FLAVORS:
            result = extract_module(o, Signature({"A"}), flavor)
            assert module_set(result) == frozenset(o.axioms)

    def test_full_signature_seed_keeps_everything_non_local(self):
        # over its own full signature no fixture axiom is bottom-local,
        # so each module is exactly the non-local set it claims to be
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            result = extract_module(o, signature_of(o), LocalityFlavor.SYN_BOT)
            expected = frozenset(
                a
                for a in o.axioms
                if not is_syntactically_local(
                    a, result.extended_signature, LocalityFlavor.SYN_BOT
                )
            )
            assert module_set(result) == expected == frozenset(o.axioms)

    def test_off_topic_axioms_fall_away(self):
        duck, bird = ConceptName("Duck"), ConceptName("Bird")
        o = Ontology(
            (
                SubClassOf(duck, Exists(RoleName("eats"), ConceptName("Grass"))),
                SubClassOf(duck, bird),
            ),
            name="ducks",
        )
        sig = Signature({"Bird"})
        result = extract_module(o, sig, LocalityFlavor.SYN_BOT)
        assert module_set(result) == frozenset()
        # the referee agrees both axioms are harmless for this seed
        for a in o.axioms:
            assert not brute_force_refutes_locality(a, sig, LocalityFlavor.SEM_BOT)
            assert is_semantically_local(a, sig, LocalityFlavor.SEM_BOT).is_local

    def test_post_hoc_correctness(self):
        rng = random.Random(41)
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            entities = signature_of(o)
            for _ in range(12):
                sig = random_signature(
                    rng,
                    concepts=sorted(entities.concept_names),
                    roles=sorted(entities.role_names),
                )
                for flavor in ALL_FLAVORS:
                    result = extract_module(o, sig, flavor)
                    outside = set(o.axioms) - module_set(result)
                    for a in outside:
                        if flavor.is_syntactic:
                            assert is_syntactically_local(
                                a, result.extended_signature, flavor
                            )
                        else:
                            assert is_semantically_local(
                                a, result.extended_signature, flavor
                            ).is_local

    def test_extended_signature_is_seed_plus_module(self):
        o = load_fixture("koala.ofs")
        sig = Signature({"Student"}, {"hasChildren"})
        result = extract_module(o, sig, LocalityFlavor.SYN_BOT)
        assert result.extended_signature == sig | signature_of(result.module)

    def test_worklist_equals_naive(self):
        # the fixtures under random seeds, plus a synthetic ontology whose
        # few-name seeds pull in most of it over several rounds
        rng = random.Random(42)
        inputs = [(load_fixture(name), 0.5) for name in CORPUS_NAMES]
        inputs.append((synthetic_ontology(300), 0.03))
        for o, p in inputs:
            entities = signature_of(o)
            for _ in range(10):
                sig = random_signature(
                    rng,
                    p,
                    concepts=sorted(entities.concept_names),
                    roles=sorted(entities.role_names),
                )
                runs = [(extract_module, flavor) for flavor in ALL_FLAVORS]
                runs += [
                    (extract, pair)
                    for extract in (extract_nested, extract_star)
                    for pair in (SYN_STAR, SEM_STAR)
                ]
                for extract, flavor in runs:
                    fast = extract(o, sig, flavor)
                    slow = extract(o, sig, flavor, naive=True)
                    assert module_set(fast) == module_set(slow)
                    assert fast.extended_signature == slow.extended_signature
                    assert fast.extended_signature == sig | signature_of(fast.module)
        # genuine modules share one name index across all their extractions
        o = load_fixture("taxonomy.ofs")
        for flavor in ALL_FLAVORS:
            first_seeds: dict[frozenset, object] = {}
            for a in o.axioms:
                slow = extract_module(o, signature_of(a), flavor, naive=True)
                first_seeds.setdefault(module_set(slow), a)
            genuine = [(a, module_set(r)) for a, r in genuine_modules(o, flavor)]
            assert genuine == [(a, m) for m, a in first_seeds.items()]

    def test_order_independence(self):
        rng = random.Random(43)
        o = load_fixture("koala.ofs")
        entities = signature_of(o)
        sigs = [
            random_signature(
                rng,
                concepts=sorted(entities.concept_names),
                roles=sorted(entities.role_names),
            )
            for _ in range(5)
        ]
        for sig in sigs:
            reference = module_set(extract_module(o, sig, LocalityFlavor.SYN_BOT))
            for _ in range(5):
                axioms = list(o.axioms)
                rng.shuffle(axioms)
                shuffled = Ontology(tuple(axioms), name=o.name)
                assert module_set(extract_module(shuffled, sig, LocalityFlavor.SYN_BOT)) == reference

    def test_unknown_verdicts_are_pulled_in_and_counted(self):
        o = Ontology(
            (SubClassOf(A, Exists(RoleName("r"), B)), SubClassOf(A, B)),
            name="starved",
        )
        starved = Budget(max_steps=1, max_seconds=5.0)
        result = extract_module(o, Signature({"A", "B"}), LocalityFlavor.SEM_BOT, budget=starved)
        assert result.unknown_verdicts >= 1
        assert SubClassOf(A, Exists(RoleName("r"), B)) in module_set(result)

    def test_trace_reports_rounds(self):
        o = load_fixture("taxonomy.ofs")
        trace = []
        result = extract_module(o, Signature({"Duck"}), LocalityFlavor.SYN_BOT, trace=trace)
        assert trace
        assert sum(len(added) for _, added in trace) == len(result.module)


class TestNestedAndStar:
    def test_nested_on_the_pair_ontology(self):
        o = Ontology((EquivalentClasses(A, B),), name="pair")
        result = extract_nested(o, Signature({"A"}), SYN_STAR)
        assert module_set(result) == frozenset(o.axioms)

    def test_nested_on_empty_ontology(self):
        result = extract_nested(Ontology((), name="empty"), Signature({"A"}), SYN_STAR)
        assert module_set(result) == frozenset()

    def test_nested_result_contained_in_inner_result(self):
        rng = random.Random(44)
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            entities = signature_of(o)
            for _ in range(6):
                sig = random_signature(
                    rng,
                    concepts=sorted(entities.concept_names),
                    roles=sorted(entities.role_names),
                )
                inner = extract_module(o, sig, LocalityFlavor.SYN_BOT)
                nested = extract_nested(o, sig, SYN_STAR)
                assert module_set(nested) <= module_set(inner)

    def test_star_on_empty_ontology(self):
        result = extract_star(Ontology((), name="empty"), Signature(), SYN_STAR)
        assert module_set(result) == frozenset()
        assert result.rounds == 0

    def test_star_is_a_fixpoint_of_nested(self):
        rng = random.Random(45)
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            entities = signature_of(o)
            for _ in range(6):
                sig = random_signature(
                    rng,
                    concepts=sorted(entities.concept_names),
                    roles=sorted(entities.role_names),
                )
                star = extract_star(o, sig, SYN_STAR)
                again = extract_nested(star.module, sig, SYN_STAR)
                assert module_set(again) == module_set(star)

    def test_semantic_star_works(self):
        o = load_fixture("inverse_loop.ofs")
        sig = Signature({"Car"})
        result = extract_star(o, sig, SEM_STAR)
        assert module_set(result) <= frozenset(o.axioms)


class TestGenuineModules:
    def test_single_axiom_ontology(self):
        o = Ontology((SubClassOf(A, B),), name="one")
        results = genuine_modules(o, LocalityFlavor.SYN_BOT)
        assert len(results) == 1

    def test_linear_bound_on_fixtures(self):
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            results = genuine_modules(o, LocalityFlavor.SYN_BOT)
            assert len(results) <= len(o)

    def test_identical_signatures_deduplicate(self):
        o = Ontology((SubClassOf(A, B), SubClassOf(B, A)), name="loop")
        results = genuine_modules(o, LocalityFlavor.SYN_BOT)
        assert len(results) == 1
        assert module_set(results[0][1]) == frozenset(o.axioms)
