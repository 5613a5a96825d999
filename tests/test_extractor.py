import gc
import random
import weakref

import pytest

import locmod.extractor as extractor
from locmod import (
    BOTTOM,
    TOP,
    Budget,
    ConceptName,
    DisjointClasses,
    EquivalentClasses,
    Exists,
    LocalityFlavor,
    OneOf,
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
    model,
    serialize_ontology,
    signature_of,
)
from conftest import CORPUS_NAMES, load_fixture
from genlib import random_signature, synthetic_ontology

A, B = ConceptName("A"), ConceptName("B")
ALL_FLAVORS = tuple(LocalityFlavor)


def module_set(result):
    return frozenset(result.module.axioms)


def nonlocal_at_empty(o, flavor, budget=None):
    """Positions of the axioms of `o` not known to be local w.r.t. the
    empty signature, decided afresh."""
    if flavor.is_syntactic:
        return {
            i
            for i, a in enumerate(o.axioms)
            if not is_syntactically_local(a, Signature(), flavor)
        }
    return {
        i
        for i, a in enumerate(o.axioms)
        if not is_semantically_local(a, Signature(), flavor, budget).is_local
    }


def reference_nested(o, sig, pair, naive):
    """Nested extraction as a chain of explicit ontologies."""
    first, second = pair
    inner = extract_module(o, sig, second, naive=naive)
    outer = extract_module(inner.module, sig, first, naive=naive)
    checks = inner.locality_checks + outer.locality_checks
    return outer.module, outer.extended_signature, inner.rounds + outer.rounds, checks


def reference_star(o, sig, pair, naive):
    current, rounds, checks = o, 0, 0
    while True:
        module, extended, _, step_checks = reference_nested(current, sig, pair, naive)
        checks += step_checks
        if len(module) == len(current):
            return current, extended, rounds, checks
        current, rounds = module, rounds + 1


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


class TestSeededFirstRound:
    @staticmethod
    def ontologies():
        """Pairs of an ontology and the flavor under which its first two
        axioms are not local w.r.t. the empty signature."""
        C, D, E, F, G = (ConceptName(n) for n in "CDEFG")
        r, s = RoleName("r"), RoleName("s")
        off_topic = (SubClassOf(E, F), SubClassOf(F, Exists(s, G)), SubClassOf(D, G))
        return [
            (
                Ontology(
                    (SubClassOf(TOP, A), SubClassOf(OneOf("a"), B), SubClassOf(A, Exists(r, C)))
                    + off_topic,
                    name="bot-at-empty",
                ),
                LocalityFlavor.SYN_BOT,
            ),
            (
                Ontology(
                    (SubClassOf(A, BOTTOM), DisjointClasses(A, B), SubClassOf(B, C)) + off_topic,
                    name="top-at-empty",
                ),
                LocalityFlavor.SYN_TOP,
            ),
        ]

    def test_axioms_non_local_at_empty_are_found(self):
        seeds = [
            Signature(),
            Signature({"E"}),
            Signature({"G"}, {"s"}),
            Signature({"D", "F"}),
            Signature({"C"}),
        ]
        runs = [(extract_module, flavor) for flavor in ALL_FLAVORS]
        runs += [(extract_star, pair) for pair in (SYN_STAR, SEM_STAR)]
        for o, first_two_nonlocal in self.ontologies():
            assert {0, 1} <= nonlocal_at_empty(o, first_two_nonlocal)
            for sig in seeds:
                for extract, flavor in runs:
                    fast = extract(o, sig, flavor)
                    slow = extract(o, sig, flavor, naive=True)
                    assert fast.module.axioms == slow.module.axioms
                    assert fast.extended_signature == slow.extended_signature
                    assert fast.unknown_verdicts == slow.unknown_verdicts
                    if extract is extract_star:
                        assert fast.rounds == slow.rounds
            # an axiom not local w.r.t. ∅ is in every module
            for flavor in ALL_FLAVORS:
                for sig in seeds:
                    kept = set(extract_module(o, sig, flavor).positions)
                    assert nonlocal_at_empty(o, flavor) <= kept

    def test_warm_empty_module_checks_only_reached_axioms(self):
        cases = 0
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            concepts = signature_of(o).concept_names
            for flavor in ALL_FLAVORS:
                extract_module(o, Signature(), flavor)  # warm the instance
                at_empty = nonlocal_at_empty(o, flavor)
                for term, positions in o.name_index.items():
                    sig = (
                        Signature({term}) if term in concepts else Signature(role_names={term})
                    )
                    if len(extract_module(o, sig, flavor, naive=True).module):
                        continue
                    result = extract_module(o, sig, flavor)
                    assert len(result.module) == 0
                    if flavor.is_syntactic:
                        # counter updates: only the gates of the axioms
                        # that mention the term count down, as they would
                        # in an ontology of those axioms alone
                        reached = Ontology(tuple(o.axioms[i] for i in positions))
                        assert not at_empty
                        assert (
                            result.locality_checks
                            == extract_module(reached, sig, flavor).locality_checks
                        )
                    else:
                        assert result.locality_checks == len(at_empty | set(positions)) < len(o)
                    cases += 1
        assert cases >= 20

    def test_starved_budget_does_not_stick(self):
        starved = Budget(max_steps=1)
        rng = random.Random(46)
        for name in CORPUS_NAMES:
            entities = signature_of(load_fixture(name))
            sigs = [Signature()] + [
                random_signature(
                    rng,
                    concepts=sorted(entities.concept_names),
                    roles=sorted(entities.role_names),
                )
                for _ in range(4)
            ]
            for flavor in (LocalityFlavor.SEM_BOT, LocalityFlavor.SEM_TOP):
                for sig in sigs:
                    o = load_fixture(name)
                    assert nonlocal_at_empty(o, flavor) < nonlocal_at_empty(o, flavor, starved)
                    first = extract_module(o, sig, flavor, budget=starved)
                    assert first.unknown_verdicts >= 1
                    warm = extract_module(o, sig, flavor)
                    fresh = extract_module(load_fixture(name), sig, flavor)
                    assert warm.module.axioms == fresh.module.axioms
                    assert warm.extended_signature == fresh.extended_signature
                    assert warm.rounds == fresh.rounds
                    assert warm.unknown_verdicts == fresh.unknown_verdicts

    def test_dropped_ontology_releases_its_axioms(self):
        o = synthetic_ontology(2000)
        extract_module(o, Signature({"C00000"}), LocalityFlavor.SYN_BOT, naive=True)
        axiom = weakref.ref(o.axioms[-1])
        del o
        gc.collect()
        assert axiom() is None


class TestStepsOnPositions:
    def test_nested_and_star_equal_a_chain_of_ontologies(self):
        # both loops, against nested steps that each build an explicit
        # ontology, so a fresh instance with cold caches
        rng = random.Random(47)
        inputs = [(load_fixture(name), 0.5) for name in CORPUS_NAMES]
        inputs.append((synthetic_ontology(300), 0.03))
        runs = [
            (extract, reference, pair, naive)
            for extract, reference in (
                (extract_nested, reference_nested),
                (extract_star, reference_star),
            )
            for pair in (SYN_STAR, SEM_STAR)
            for naive in (False, True)
        ]
        for o, p in inputs:
            entities = signature_of(o)
            for _ in range(8):
                sig = random_signature(
                    rng,
                    p,
                    concepts=sorted(entities.concept_names),
                    roles=sorted(entities.role_names),
                )
                for extract, reference, pair, naive in runs:
                    result = extract(o, sig, pair, naive=naive)
                    module, extended, rounds, _ = reference(o, sig, pair, naive)
                    assert result.module.axioms == module.axioms
                    assert result.extended_signature == extended
                    assert result.rounds == rounds
                    kept = set(module.axioms)
                    assert result.positions == tuple(
                        i for i, a in enumerate(o.axioms) if a in kept
                    )

    def test_steps_check_no_more_than_fresh_ontologies(self):
        # on a fresh instance a step over part of the ontology checks its
        # own positions, not every axiom against the empty signature
        rng = random.Random(48)
        inputs = [(load_fixture(name), 0.5) for name in CORPUS_NAMES]
        inputs.append((synthetic_ontology(300), 0.03))
        for o, p in inputs:
            entities = signature_of(o)
            for _ in range(3):
                sig = random_signature(
                    rng,
                    p,
                    concepts=sorted(entities.concept_names),
                    roles=sorted(entities.role_names),
                )
                for extract, reference in (
                    (extract_nested, reference_nested),
                    (extract_star, reference_star),
                ):
                    for pair in (SYN_STAR, SEM_STAR):
                        result = extract(Ontology(o.axioms, name=o.name), sig, pair)
                        *_, checks = reference(Ontology(o.axioms, name=o.name), sig, pair, False)
                        if pair is SYN_STAR:
                            # a step counts down only the gates of the
                            # axioms in its scope, as a fresh ontology of
                            # them would
                            assert result.locality_checks == checks
                        else:
                            assert result.locality_checks <= checks

    def test_module_takes_its_signatures_from_the_input(self, monkeypatch):
        o = synthetic_ontology(300)
        result = extract_star(o, Signature({"C00001"}), SEM_STAR)
        assert len(result.module) > 0
        walked = []
        monkeypatch.setattr(model, "_axiom_signature", walked.append)
        serialize_ontology(result.module)
        sigs = result.module.axiom_signatures
        assert walked == []
        monkeypatch.undo()
        assert sigs == tuple(signature_of(a) for a in result.module.axioms)


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


def reference_rounds(o, sig, flavor):
    """The axioms each round adds when every round checks every axiom
    outside the module afresh against that round's signature."""
    module, working, trace = set(), sig, []
    while True:
        added = [
            i
            for i, a in enumerate(o.axioms)
            if i not in module and not is_syntactically_local(a, working, flavor)
        ]
        if not added:
            return trace
        trace.append([o.axioms[i] for i in added])
        module.update(added)
        working = working | Signature.union(o.axiom_signatures[i] for i in added)


class TestPropagation:
    def test_equals_the_textbook_loop(self):
        # a synthetic ontology whose seeds pull in most of it over several
        # rounds, and the fixtures, whose modules are small
        o = synthetic_ontology(2000)
        rng = random.Random(49)
        cases = [(o, Signature({"C00001"})), (o, Signature({"C00250"}, {"r003"}))]
        inputs = [(o, 0.02, 2)] + [(load_fixture(name), 0.3, 4) for name in CORPUS_NAMES]
        for o, p, count in inputs:
            entities = signature_of(o)
            cases += [
                (
                    o,
                    random_signature(
                        rng,
                        p,
                        concepts=sorted(entities.concept_names),
                        roles=sorted(entities.role_names),
                    ),
                )
                for _ in range(count)
            ]
        for o, sig in cases:
            for flavor in (LocalityFlavor.SYN_BOT, LocalityFlavor.SYN_TOP):
                trace = []
                fast = extract_module(o, sig, flavor, trace=trace)
                slow = extract_module(o, sig, flavor, naive=True)
                assert fast.module.axioms == slow.module.axioms
                assert fast.positions == slow.positions
                assert fast.extended_signature == slow.extended_signature
                assert [added for _, added in trace] == reference_rounds(o, sig, flavor)
                assert fast.rounds == len(trace)
            for pair in (SYN_STAR, (LocalityFlavor.SYN_BOT, LocalityFlavor.SYN_TOP)):
                fast = extract_star(o, sig, pair)
                slow = extract_star(o, sig, pair, naive=True)
                assert fast.module.axioms == slow.module.axioms
                assert fast.positions == slow.positions
                assert fast.extended_signature == slow.extended_signature
                assert fast.rounds == slow.rounds

    def test_second_extraction_builds_no_circuit(self, monkeypatch):
        o = load_fixture("mixed.ofs")
        sig = Signature({"Team"}, {"memberOf"})

        def extract_all():
            results = [
                extract_module(o, sig, flavor)
                for flavor in (LocalityFlavor.SYN_BOT, LocalityFlavor.SYN_TOP)
            ]
            results += [extract(o, sig, SYN_STAR) for extract in (extract_nested, extract_star)]
            results += [r for _, r in genuine_modules(o, LocalityFlavor.SYN_BOT)]
            return [(r.positions, r.extended_signature, r.rounds) for r in results]

        first = extract_all()

        def refuse(*args, **kwargs):
            raise AssertionError("compiled a circuit again")

        monkeypatch.setattr(extractor, "compile_circuit", refuse)
        assert extract_all() == first

    def test_failed_compile_stores_nothing(self, monkeypatch):
        o = load_fixture("koala.ofs")

        def fail(*args, **kwargs):
            raise RecursionError

        monkeypatch.setattr(extractor, "compile_circuit", fail)
        with pytest.raises(RecursionError):
            extract_module(o, Signature(), LocalityFlavor.SYN_BOT)
        assert o.circuits == {}
        monkeypatch.undo()
        fresh = extract_module(load_fixture("koala.ofs"), Signature(), LocalityFlavor.SYN_BOT)
        assert extract_module(o, Signature(), LocalityFlavor.SYN_BOT).positions == fresh.positions


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
