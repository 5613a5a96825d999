import gc
import hashlib
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import locmod.extractor as extractor
import locmod.harness as harness
import locmod.semantic as semantic
from locmod import (
    BOTTOM,
    TOP,
    AtLeast,
    AtMost,
    Budget,
    ConceptName,
    DisjointClasses,
    Inverse,
    InverseRoles,
    EquivalentClasses,
    Exists,
    Locality,
    LocalityFlavor,
    OneOf,
    Ontology,
    Or,
    RoleName,
    SEM_STAR,
    SYN_STAR,
    SamplingConfig,
    Signature,
    SubClassOf,
    extract_module,
    extract_nested,
    extract_star,
    genuine_modules,
    is_semantically_local,
    is_syntactically_local,
    model,
    run_comparison,
    serialize_ontology,
    signature_of,
)
from conftest import CORPUS_NAMES, load_fixture
from genlib import random_axiom, random_signature, refutes_locality, synthetic_ontology

A, B = ConceptName("A"), ConceptName("B")
ALL_FLAVORS = tuple(LocalityFlavor)


def module_set(result):
    return frozenset(result.module.axioms)


def nonlocal_at_empty(o, flavor):
    """Positions of the axioms of `o` not local w.r.t. the empty signature,
    decided afresh."""
    if flavor.is_syntactic:
        return {
            i
            for i, a in enumerate(o.axioms)
            if not is_syntactically_local(a, Signature(), flavor)
        }
    return {
        i
        for i, a in enumerate(o.axioms)
        if not is_semantically_local(a, Signature(), flavor).is_local
    }


def reference_nested(o, sig, pair, naive):
    """Nested extraction as a chain of explicit ontologies."""
    first, second = pair
    inner = extract_module(o, sig, second, naive=naive)
    outer = extract_module(inner.module, sig, first, naive=naive)
    checks = inner.locality_checks + outer.locality_checks
    return outer.module, outer.extended_signature, inner.rounds + outer.rounds, checks


def reference_star(o, sig, pair, naive):
    """Star extraction as a chain of explicit ontologies, one per pass:
    the second flavor of `pair`, then the first, and so on, each over the
    module of the pass before, up to the first pass after the first that
    keeps its whole ontology. `rounds` counts the nested steps (pairs of
    passes) that shrank their ontology."""
    first, second = pair
    current, shrank, checks = o, set(), 0
    for k in itertools.count():
        result = extract_module(current, sig, (second, first)[k % 2], naive=naive)
        checks += result.locality_checks
        if len(result.module) < len(current):
            shrank.add(k // 2)
        elif k:
            return result.module, result.extended_signature, len(shrank), checks
        current = result.module


def textbook_star(o, sig, pair, naive=False, budget=None):
    """The star module by its definition: repeat the nested step, each over
    an explicit ontology, until the module stops shrinking. Returns the
    module, its extended signature, the number of steps that shrank it,
    whether any verdict was UNKNOWN and the number of passes run."""
    first, second = pair
    current, rounds, unknown, passes = o, 0, False, 0
    while True:
        inner = extract_module(current, sig, second, naive=naive, budget=budget)
        outer = extract_module(inner.module, sig, first, naive=naive, budget=budget)
        unknown |= bool(inner.unknown_verdicts or outer.unknown_verdicts)
        passes += 2
        if len(outer.module) == len(current):
            return current, outer.extended_signature, rounds, unknown, passes
        current, rounds = outer.module, rounds + 1


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
            assert not refutes_locality(a, sig, LocalityFlavor.SEM_BOT)
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

    def test_additions_report_rounds(self):
        o = load_fixture("taxonomy.ofs")
        result = extract_module(o, Signature({"Duck"}), LocalityFlavor.SYN_BOT)
        assert result.additions
        assert sum(len(added) for _, added in result.additions) == len(result.module)


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
                # the gate's grammar: the syntactic one, or for a semantic
                # flavor the productions sound for it
                at_empty = {
                    i
                    for i, a in enumerate(o.axioms)
                    if not is_syntactically_local(a, Signature(), flavor)
                }
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
                        # only the axioms whose root fired are checked:
                        # those syntactically non-local w.r.t. the seed
                        reached = at_empty | set(positions)
                        assert result.locality_checks == sum(
                            not is_syntactically_local(o.axioms[i], sig, flavor) for i in reached
                        )
                    cases += 1
        assert cases >= 20

    def test_starved_budget_does_not_stick(self):
        starved = Budget(max_steps=1)
        rng = random.Random(46)
        unknown_cases = 0
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
                    first = extract_module(o, sig, flavor, budget=starved)
                    warm = extract_module(o, sig, flavor)
                    fresh = extract_module(load_fixture(name), sig, flavor)
                    assert warm.module.axioms == fresh.module.axioms
                    assert warm.extended_signature == fresh.extended_signature
                    assert warm.rounds == fresh.rounds
                    assert warm.unknown_verdicts == fresh.unknown_verdicts
                    if first.unknown_verdicts:
                        unknown_cases += 1
                        continue
                    # substitution and the syntactic gate decided every
                    # check without the tableau, so the budget did not bind
                    assert first.positions == fresh.positions
                    assert first.extended_signature == fresh.extended_signature
                    assert first.rounds == fresh.rounds
        assert unknown_cases >= 32

    def test_semantic_rounds_check_only_fired_axioms(self, monkeypatch):
        # every axiom a semantic round checks is non-local w.r.t. the
        # signature it is checked against by the grammar sound for the
        # flavor, and the modules equal those of the textbook loop, which
        # checks every axiom, also where it meets UNKNOWN verdicts
        rng = random.Random(50)
        inputs = [(name, 0.5) for name in CORPUS_NAMES] + [(None, 0.03)]
        seen = []

        def recording(o, positions, sig, flavor, *options):
            # every check a round makes, memo hits included
            seen.extend((o.axioms[i], sig, flavor) for i in positions)
            return semantic.verdicts_in(o, positions, sig, flavor, *options)

        runs = [
            (extract_module, LocalityFlavor.SEM_BOT),
            (extract_module, LocalityFlavor.SEM_TOP),
            (extract_star, SEM_STAR),
        ]
        checked = unknown_cases = 0
        for name, p in inputs:
            load = (lambda: load_fixture(name)) if name else (lambda: synthetic_ontology(300))
            entities = signature_of(load())
            for _ in range(6):
                sig = random_signature(
                    rng,
                    p,
                    concepts=sorted(entities.concept_names),
                    roles=sorted(entities.role_names),
                )
                for extract, flavor in runs:
                    o = load()
                    monkeypatch.setattr(extractor, "verdicts_in", recording)
                    fast = extract(o, sig, flavor)
                    monkeypatch.undo()
                    for a, at, sem in seen:
                        assert not is_syntactically_local(a, at, sem)
                    checked += len(seen)
                    seen.clear()
                    slow = extract(load(), sig, flavor, naive=True)
                    unknown_cases += bool(slow.unknown_verdicts)
                    assert fast.positions == slow.positions
                    assert fast.extended_signature == slow.extended_signature
                    if extract is extract_star:
                        assert fast.rounds == slow.rounds
                    else:
                        assert [added for _, added in fast.additions] == reference_rounds(
                            o, sig, flavor
                        )
        assert checked > 1_000 and unknown_cases >= 10

    def test_top_rounds_keep_counting_axioms(self):
        # ≥2 R.B with R outside Σ is ⊤ only in domains of two or more
        # elements: the axiom is not local, the grammar leaves it out of
        # Top(Σ), the check gives up on it, and the rounds keep it as the
        # textbook loop does
        axiom = SubClassOf(A, AtLeast(2, RoleName("R"), B))
        sig = Signature({"A"})
        assert refutes_locality(axiom, sig, LocalityFlavor.SEM_TOP, 1)
        o = Ontology((axiom,))
        for extract, flavor in (
            (extract_module, LocalityFlavor.SYN_TOP),
            (extract_module, LocalityFlavor.SEM_TOP),
            (extract_module, LocalityFlavor.SEM_BOT),
            (extract_star, SYN_STAR),
            (extract_star, SEM_STAR),
        ):
            fast = extract(o, sig, flavor)
            assert fast.positions == extract(o, sig, flavor, naive=True).positions == (0,)

    def test_rounds_skip_axioms_the_sound_grammar_calls_local(self):
        # the tableau gives up on this axiom (counting over the universal
        # role), so the textbook loop keeps it; the top grammar shows it
        # local, so the rounds never check it
        axiom = SubClassOf(A, Or((Exists(RoleName("R"), B), AtMost(1, RoleName("S"), A))))
        sig = Signature({"A"})
        assert is_syntactically_local(axiom, sig, LocalityFlavor.SEM_TOP)
        assert is_semantically_local(axiom, sig, LocalityFlavor.SEM_TOP).status is Locality.UNKNOWN
        assert not refutes_locality(axiom, sig, LocalityFlavor.SEM_TOP)
        o = Ontology((axiom,))
        fast = extract_module(o, sig, LocalityFlavor.SEM_TOP)
        slow = extract_module(o, sig, LocalityFlavor.SEM_TOP, naive=True)
        assert (fast.positions, fast.locality_checks, fast.unknown_verdicts) == ((), 0, 0)
        assert (slow.positions, slow.unknown_verdicts) == ((0,), 1)

    def test_dropped_ontology_releases_its_axioms(self):
        o = synthetic_ontology(2000)
        extract_module(o, Signature({"C00000"}), LocalityFlavor.SYN_BOT, naive=True)
        axiom = weakref.ref(o.axioms[-1])
        del o
        gc.collect()
        assert axiom() is None


class TestContainment:
    # the semantic module of a flavor lies inside the syntactic one of the
    # same polarity: for ⊥, for ⊤ and for both star pairs
    PAIRS = (
        (extract_module, LocalityFlavor.SYN_BOT, LocalityFlavor.SEM_BOT),
        (extract_module, LocalityFlavor.SYN_TOP, LocalityFlavor.SEM_TOP),
        (extract_star, SYN_STAR, SEM_STAR),
        (
            extract_star,
            (LocalityFlavor.SYN_BOT, LocalityFlavor.SYN_TOP),
            (LocalityFlavor.SEM_BOT, LocalityFlavor.SEM_TOP),
        ),
    )

    # a step limit alone: an UNKNOWN verdict keeps its axiom, and the clock
    # would make which one depend on machine load
    BUDGET = Budget(max_steps=2_000, max_seconds=1e9)

    def assert_contained(self, o, sig):
        for extract, syn, sem in self.PAIRS:
            inner = extract(o, sig, sem, budget=self.BUDGET).positions
            outer = extract(o, sig, syn).positions
            assert set(inner) <= set(outer), (o.name, sig, syn)

    def test_on_the_fixtures(self):
        rng = random.Random(50)
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            entities = signature_of(o)
            for _ in range(40):
                sig = random_signature(
                    rng,
                    0.3,
                    concepts=sorted(entities.concept_names),
                    roles=sorted(entities.role_names),
                )
                self.assert_contained(o, sig)

    def test_on_random_ontologies_with_counting(self):
        rng = random.Random(51)
        counting = 0
        for k in range(100):
            # without nominals, which no grammar puts in Bot(Σ) or Top(Σ),
            # modules stay small enough to tell the flavors apart
            axioms = [random_axiom(rng, depth=2, individuals=()) for _ in range(6)]
            o = Ontology(tuple(axioms), name=f"r{k}")
            counting += any("AtLeast(n=2" in repr(a) or "AtLeast(n=3" in repr(a) for a in o)
            for _ in range(4):
                self.assert_contained(o, random_signature(rng, 0.3))
        assert counting >= 40


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
        # the module's records are the input's: serializing it and reading
        # its signatures, names and index walk no axiom
        o = synthetic_ontology(300)
        result = extract_star(o, Signature({"C00001"}), SEM_STAR)
        module = result.module
        assert len(module) > 0
        walked = []
        monkeypatch.setattr(model, "axiom_shape", walked.append)
        serialize_ontology(module)
        sigs, names, index = module.axiom_signatures, module.names, module.name_index
        assert walked == []
        monkeypatch.undo()
        assert module.shapes == tuple(o.shapes[i] for i in result.positions)
        assert sigs == tuple(signature_of(a) for a in module.axioms)
        assert names == Signature.union(sigs)
        assert index == {
            n: [i for i, s in enumerate(sigs) if n in s.concept_names | s.role_names]
            for n in names.concept_names | names.role_names
        }

    def test_each_axiom_is_walked_once_per_ontology(self, monkeypatch):
        # every flavor, both star pairs, genuine modules and every compare
        # mode read the records of one walk per axiom; the modules they
        # return, serialized and indexed, walk none
        build = model.axiom_shape
        walked = []

        def counted(a):
            walked.append(a)
            return build(a)

        monkeypatch.setattr(model, "axiom_shape", counted)
        cfg = SamplingConfig(sample_count=8, rng_seed=5)
        rng = random.Random(36)
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            walked.clear()
            names = o.names
            results = []
            for _ in range(3):
                sig = random_signature(
                    rng,
                    concepts=sorted(names.concept_names),
                    roles=sorted(names.role_names),
                )
                for flavor in ALL_FLAVORS:
                    results.append(extract_module(o, sig, flavor))
                    results.append(extract_module(o, sig, flavor, naive=True))
                for pair in (SYN_STAR, SEM_STAR):
                    results.append(extract_nested(o, sig, pair))
                    results.append(extract_star(o, sig, pair))
            for flavor in ALL_FLAVORS:
                results += [r for _, r in genuine_modules(o, flavor)]
            for mode in ("t1a", "t1b", "t2"):
                run_comparison(o, mode, cfg)
            for r in results:
                serialize_ontology(r.module)
                r.module.axiom_signatures, r.module.name_index  # read off the records
            assert walked == list(o.axioms), name


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


class TestStarStoppingRule:
    """`extract_star` stops at the first pass after the first that keeps its
    whole scope, and returns what the textbook loop returns."""

    # a step limit alone, so that which verdicts are UNKNOWN does not
    # depend on machine load
    BUDGET = Budget(max_steps=2_000, max_seconds=1e9)

    def assert_as_textbook(self, o, sig):
        for pair in (SYN_STAR, SEM_STAR):
            for naive in (False, True):
                result = extract_star(o, sig, pair, budget=self.BUDGET, naive=naive)
                module, extended, rounds, unknown, _ = textbook_star(
                    o, sig, pair, naive, self.BUDGET
                )
                kept = set(module.axioms)
                assert result.positions == tuple(i for i, a in enumerate(o.axioms) if a in kept)
                assert result.extended_signature == extended
                assert result.rounds == rounds
                assert (result.unknown_verdicts > 0) == unknown

    def test_equals_the_textbook_loop(self):
        rng = random.Random(52)
        inputs = [(load_fixture(name), 0.5) for name in CORPUS_NAMES]
        inputs.append((synthetic_ontology(300), 0.03))
        for o, p in inputs:
            entities = signature_of(o)
            for _ in range(6):
                sig = random_signature(
                    rng,
                    p,
                    concepts=sorted(entities.concept_names),
                    roles=sorted(entities.role_names),
                )
                self.assert_as_textbook(o, sig)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_the_textbook_loop_on_random_ontologies(self, seed):
        rng = random.Random(seed)
        axioms = [random_axiom(rng, depth=2) for _ in range(rng.randrange(1, 9))]
        self.assert_as_textbook(Ontology(tuple(axioms)), random_signature(rng, 0.3))

    def test_a_step_that_keeps_its_scope_is_not_run(self, monkeypatch):
        # the ⊤ pass keeps the whole ⊥ module: the textbook loop runs a
        # second nested step to see the module stay, which takes 2 passes
        o = load_fixture("mixed.ofs")
        sig = Signature({"Manager"})
        *_, passes = textbook_star(o, sig, SYN_STAR)
        assert passes == 4
        scopes = []
        run = extractor._extract

        def counted(o, flavor, scope, *args, **options):
            scopes.append(len(scope))
            return run(o, flavor, scope, *args, **options)

        monkeypatch.setattr(extractor, "_extract", counted)
        result = extract_star(o, sig, SYN_STAR)
        assert len(scopes) == 2
        assert scopes[1] == len(result.module) < len(o)
        assert result.rounds == 1

def reference_rounds(o, sig, flavor):
    """The positions each round adds when every round checks every axiom
    outside the module afresh against that round's signature."""
    module, working, rounds = set(), sig, []
    while True:
        added = [
            i
            for i, a in enumerate(o.axioms)
            if i not in module
            and not (
                is_syntactically_local(a, working, flavor)
                if flavor.is_syntactic
                else is_semantically_local(a, working, flavor).is_local
            )
        ]
        if not added:
            return rounds
        rounds.append(tuple(added))
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
                fast = extract_module(o, sig, flavor)
                slow = extract_module(o, sig, flavor, naive=True)
                assert fast.module.axioms == slow.module.axioms
                assert fast.positions == slow.positions
                assert fast.extended_signature == slow.extended_signature
                assert [added for _, added in fast.additions] == reference_rounds(o, sig, flavor)
                assert fast.rounds == len(fast.additions)
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

    def test_one_circuit_per_key(self, monkeypatch):
        # a semantic flavor, T1a and a refined extraction share the circuit
        # of their polarity: the key is the polarity alone
        o = load_fixture("mixed.ofs")
        sig = Signature({"Manager"})
        compile_circuit = extractor.compile_circuit
        compiled = []

        def counted(*args):
            compiled.append(args)
            return compile_circuit(*args)

        monkeypatch.setattr(extractor, "compile_circuit", counted)
        extract_module(o, sig, LocalityFlavor.SYN_BOT)
        extract_module(o, sig, LocalityFlavor.SEM_BOT, refined=True)
        extract_star(o, sig, SEM_STAR)
        run_comparison(o, "t1a", SamplingConfig(sample_count=8, rng_seed=5))
        assert len(compiled) == 2
        assert set(o.circuits) == {True, False}
        extract_module(o, sig, LocalityFlavor.SYN_BOT, refined=True)
        extract_star(o, sig, SYN_STAR, refined=True)
        assert len(compiled) == 2
        assert set(o.circuits) == {True, False}

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


def planted_self_inverses(seed: int, count: int):
    """Random axioms over three roles, with Inv(p, p⁻) and Inv(p⁻, p) for
    two of the roles p planted among them."""
    rng = random.Random(seed)
    roles = ("r", "s", "t")
    axioms = [random_axiom(rng, depth=2, roles=roles) for _ in range(count)]
    for name in rng.sample(roles, 2):
        p = RoleName(name)
        for a in (InverseRoles(p, Inverse(p)), InverseRoles(Inverse(p), p)):
            axioms.insert(rng.randrange(len(axioms) + 1), a)
    return Ontology(tuple(axioms), name=f"planted-{seed}")


class TestRefinedScope:
    """`refined` takes Inv(R, R⁻) out of a syntactic extraction's scope, so
    a refined extraction of O is the plain one of O without those axioms."""

    SYNTACTIC = [
        (extract_module, LocalityFlavor.SYN_BOT),
        (extract_module, LocalityFlavor.SYN_TOP),
        (extract_nested, SYN_STAR),
        (extract_star, SYN_STAR),
        (extract_star, (LocalityFlavor.SYN_BOT, LocalityFlavor.SYN_TOP)),
    ]
    SEMANTIC = [
        (extract_module, LocalityFlavor.SEM_BOT),
        (extract_module, LocalityFlavor.SEM_TOP),
        (extract_star, SEM_STAR),
    ]
    # a step limit alone, so that UNKNOWNs do not depend on machine load
    BUDGET = Budget(max_steps=2_000, max_seconds=1e9)

    @staticmethod
    def cases():
        ontologies = [load_fixture(name) for name in CORPUS_NAMES]
        ontologies += [planted_self_inverses(seed, 30) for seed in range(4)]
        rng = random.Random(43)
        for o in ontologies:
            names = o.names
            for _ in range(6):
                concepts, roles = sorted(names.concept_names), sorted(names.role_names)
                yield o, random_signature(rng, concepts=concepts, roles=roles)

    @staticmethod
    def fields(result, back=None):
        """The module, the extended signature and every field of `result`
        but its source and seed; positions mapped through `back`, if given."""

        def at(positions):
            return positions if back is None else tuple(back[i] for i in positions)

        return (
            result.module.axioms,
            at(result.positions),
            result.extended_signature,
            result.rounds,
            result.locality_checks,
            result.unknown_verdicts,
            tuple((label, at(added)) for label, added in result.additions),
        )

    def test_syntactic_equals_the_plain_extraction_without_them(self):
        planted = 0
        for o, sig in self.cases():
            kept = [i for i, a in enumerate(o.axioms) if not model.is_self_inverse(a)]
            rest = Ontology(tuple(o.axioms[i] for i in kept), name=o.name)
            planted += len(o) - len(kept)
            for (extract, flavor), naive in itertools.product(self.SYNTACTIC, (False, True)):
                refined = extract(o, sig, flavor, refined=True, naive=naive)
                plain = extract(rest, sig, flavor, naive=naive)
                expected = self.fields(plain, kept)
                if extract is extract_star and len(rest) < len(o):
                    # the first nested step leaves Inv(R, R⁻) out of all of
                    # O, so it shrank its scope even where all of rest stays
                    expected = expected[:3] + (max(plain.rounds, 1),) + expected[4:]
                assert self.fields(refined) == expected
        # inverse_loop.ofs and mixed.ofs hold one each, the planted four
        assert planted == 6 * (2 + 4 * 4)

    def test_semantic_results_do_not_depend_on_it(self):
        for o, sig in self.cases():
            for (extract, flavor), naive in itertools.product(self.SEMANTIC, (False, True)):
                plain, refined = (
                    extract(o, sig, flavor, refined=refined, naive=naive, budget=self.BUDGET)
                    for refined in (False, True)
                )
                assert self.fields(plain) == self.fields(refined)
        for o in {o: None for o, _ in self.cases()}:
            for flavor in (LocalityFlavor.SEM_BOT, LocalityFlavor.SEM_TOP):
                plain, refined = (
                    genuine_modules(o, flavor, refined=refined, budget=self.BUDGET)
                    for refined in (False, True)
                )
                assert [(a, self.fields(r)) for a, r in plain] == [
                    (a, self.fields(r)) for a, r in refined
                ]

    def test_one_circuit_per_polarity(self):
        for o, sig in self.cases():
            for flavor, refined in itertools.product(LocalityFlavor, (False, True)):
                extract_module(o, sig, flavor, refined=refined, budget=self.BUDGET)
            extract_star(o, sig, SYN_STAR, refined=True)
            assert set(o.circuits) == {True, False}


@pytest.mark.parametrize(
    "extract, args",
    [
        (extract_module, (LocalityFlavor.SYN_BOT,)),
        (extract_nested, ()),
        (extract_star, ()),
        (genuine_modules, (LocalityFlavor.SYN_BOT,)),
    ],
)
def test_a_misspelled_option_raises(extract, args):
    o = load_fixture("mixed.ofs")
    if extract is not genuine_modules:
        args = (Signature({"Manager"}), *args)
    with pytest.raises(TypeError, match="refnied"):
        extract(o, *args, refnied=True)


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


class TestLazyModule:
    @staticmethod
    def restricts(monkeypatch):
        """The positions of every `Ontology.restrict` call from now on."""
        calls = []
        restrict = Ontology.restrict

        def counted(o, positions):
            calls.append(positions)
            return restrict(o, positions)

        monkeypatch.setattr(Ontology, "restrict", counted)
        return calls

    def test_t1b_and_t2_build_no_module(self, monkeypatch):
        # their cases read only the positions of the two modules
        extractions = []
        extract = harness.extract_module

        def counted(*args, **options):
            extractions.append(args)
            return extract(*args, **options)

        monkeypatch.setattr(harness, "extract_module", counted)
        calls = self.restricts(monkeypatch)
        cfg = SamplingConfig(sample_count=10, rng_seed=3)
        for name in CORPUS_NAMES:
            for mode in ("t1b", "t2"):
                run_comparison(load_fixture(name), mode, cfg)
        assert len(extractions) > 100
        assert calls == []

    def test_genuine_modules_build_a_module_only_when_read(self, monkeypatch):
        calls = self.restricts(monkeypatch)
        o = load_fixture("taxonomy.ofs")
        for flavor in (LocalityFlavor.SYN_BOT, LocalityFlavor.SEM_BOT):
            results = [r for _, r in genuine_modules(o, flavor)]
            assert calls == []
            modules = [r.module for r in results]
            assert calls == [r.positions for r in results]
            assert all(r.module is m for r, m in zip(results, modules))
            assert len(calls) == len(results) < len(o)
            calls.clear()

    def test_module_is_restricted_once(self, monkeypatch):
        calls = self.restricts(monkeypatch)
        o, sig = load_fixture("koala.ofs"), Signature({"Koala"})
        result = extract_star(o, sig, SEM_STAR)
        assert calls == []
        module = result.module
        assert result.extended_signature == sig | signature_of(module)
        assert result.module is module
        assert calls == [result.positions]
        assert module.axioms == tuple(o.axioms[i] for i in result.positions)

    def test_a_kind_conflict_raises_when_the_extended_signature_is_read(self):
        # the seed's concept r is the module's role r
        o = Ontology((SubClassOf(A, Exists(RoleName("r"), B)),), name="clash")
        result = extract_module(o, Signature({"A", "r"}), LocalityFlavor.SYN_BOT)
        assert result.positions == (0,)
        with pytest.raises(ValueError, match="more than one kind"):
            result.extended_signature


def pinned_cases():
    """The fixtures and `synthetic_ontology(400)`, each with three seeded
    signatures, under every flavor, nested and star pair, naive or not,
    with the default budget and with one of 30 steps."""
    rng = random.Random(17)
    kinds = [(extract_module, flavor) for flavor in LocalityFlavor]
    kinds += [(e, pair) for e in (extract_nested, extract_star) for pair in (SYN_STAR, SEM_STAR)]
    for name in CORPUS_NAMES + [None]:
        o = load_fixture(name) if name else synthetic_ontology(400)
        concepts, roles = sorted(o.names.concept_names), sorted(o.names.role_names)
        p = 0.3 if name else 0.02
        sigs = [random_signature(rng, p, concepts=concepts, roles=roles) for _ in range(3)]
        budgets = (None, Budget(max_steps=30))
        for case in itertools.product(sigs, kinds, (False, True), budgets):
            yield (o, *case)


def rendered(result) -> str:
    """The positions, extended signature, counts and additions of `result`."""
    ext = result.extended_signature
    names = [sorted(ext.concept_names), sorted(ext.role_names), sorted(ext.individual_names)]
    counts = (result.rounds, result.locality_checks, result.unknown_verdicts)
    lines = [f"{result.positions} {names} {counts}"]
    lines += [f"{step} {flavor} {n}: {added}" for (step, flavor, n), added in result.additions]
    return "\n".join(lines) + "\n"


class TestPinnedAdditions:
    def test_results_equal_the_pinned_ones(self):
        # pinned from the extractor that reported rounds only to a `trace=`
        # list of axioms, each axiom mapped to its position; both budgets
        # count steps alone, so no UNKNOWN depends on machine load
        digest = hashlib.sha256()
        for o, sig, (extract, flavor), naive, budget in pinned_cases():
            digest.update(rendered(extract(o, sig, flavor, naive=naive, budget=budget)).encode())
        assert digest.hexdigest() == (
            "7fbc53ad22d489563cb8af45ad75b7fb7ce17c6feba3b4edf0be580fc8ef253f"
        )
