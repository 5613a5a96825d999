import random
import time

import pytest

from locmod import (
    AtLeast,
    BOTTOM,
    ConceptName,
    DisjointClasses,
    Domain,
    EquivalentClasses,
    Exists,
    ForAll,
    Interpretation,
    Inverse,
    InverseRoles,
    Locality,
    LocalityFlavor,
    Not,
    OneOf,
    Range,
    RoleName,
    Signature,
    SubClassOf,
    TOP,
    Transitive,
    conj,
    eval_concept,
    eval_role,
    exactly,
    find_countermodel,
    holds,
    is_semantically_local,
    signature_of,
    substitute,
)
from genlib import (
    literal_axioms,
    random_axiom,
    random_concept,
    random_interpretation,
    random_role,
    random_signature,
    refutes_locality,
    textbook_countermodel,
)

A, B = ConceptName("A"), ConceptName("B")
SEM_BOT = LocalityFlavor.SEM_BOT
SEM_TOP = LocalityFlavor.SEM_TOP


def substituted_koala():
    axiom = EquivalentClasses(
        ConceptName("M"),
        conj(
            ConceptName("S"),
            ForAll(RoleName("c"), ConceptName("F")),
            ForAll(RoleName("g"), OneOf("m")),
            exactly(3, RoleName("c")),
        ),
    )
    return substitute(axiom, Signature({"S"}, {"c", "g"}), SEM_BOT)


class TestEvalConcept:
    def test_top_is_whole_domain(self):
        i = random_interpretation(random.Random(31), 3)
        assert eval_concept(TOP, i) == i.domain

    def test_forall_fails_where_a_bad_successor_exists(self):
        i = Interpretation(
            domain_size=2,
            concept_ext={},
            role_ext={"c": frozenset({(0, 1)})},
            individual_ext={},
        )
        assert eval_concept(ForAll(RoleName("c"), BOTTOM), i) == frozenset({1})

    def test_vacuous_forall_against_atleast_has_no_instances(self):
        # exhaustive over every c-extension at sizes 1..4
        probe = conj(AtLeast(3, RoleName("c"), TOP), ForAll(RoleName("c"), BOTTOM))
        for n in range(1, 5):
            dom = range(n)
            all_pairs = [(x, y) for x in dom for y in dom]
            for mask in range(1 << len(all_pairs)):
                ext = frozenset(p for k, p in enumerate(all_pairs) if mask >> k & 1)
                i = Interpretation(n, {}, {"c": ext}, {})
                assert eval_concept(probe, i) == frozenset()

    def test_missing_name_raises(self):
        i = Interpretation(1, {}, {}, {})
        with pytest.raises(KeyError):
            eval_concept(A, i)


class TestHolds:
    def test_everything_below_top(self):
        i = random_interpretation(random.Random(32), 3)
        assert holds(SubClassOf(A, TOP), i)

    def test_transitivity_counterexample(self):
        i = Interpretation(3, {}, {"R": frozenset({(0, 1), (1, 2)})}, {})
        assert not holds(Transitive(RoleName("R")), i)
        closed = Interpretation(3, {}, {"R": frozenset({(0, 1), (1, 2), (0, 2)})}, {})
        assert holds(Transitive(RoleName("R")), closed)

    def test_double_inverse_always_holds(self):
        axiom = InverseRoles(RoleName("P"), Inverse(RoleName("P")))
        rng = random.Random(33)
        for _ in range(80):
            i = random_interpretation(rng, rng.randint(1, 4), roles=("P",))
            assert holds(axiom, i)


    def test_derived_axioms_mean_what_they_say(self):
        # the inclusions `Domain`, `Range` and `DisjointClasses` build,
        # against their meaning computed here from the extensions
        rng = random.Random(34)
        for _ in range(300):
            i = random_interpretation(rng, rng.randint(1, 4))
            r = random_role(rng)
            c, d = random_concept(rng, depth=2), random_concept(rng, depth=2)
            pairs = eval_role(r, i)
            cs, ds = eval_concept(c, i), eval_concept(d, i)
            assert holds(Domain(r, c), i) == all(x in cs for x, _ in pairs)
            assert holds(Range(r, c), i) == all(y in cs for _, y in pairs)
            assert holds(DisjointClasses(c, d), i) == (not cs & ds)


class TestFindCountermodel:
    def test_name_equivalent_to_bottom_is_refuted(self):
        witness = find_countermodel(EquivalentClasses(A, BOTTOM), 3)
        assert witness is not None
        assert witness.concept_ext["A"]

    @pytest.mark.parametrize("cap", [0, -3])
    def test_a_cap_below_one_is_refused(self, cap):
        # no domain size to search would leave every axiom unrefuted
        with pytest.raises(ValueError, match=f"max_domain must be at least 1, got {cap}"):
            find_countermodel(EquivalentClasses(A, BOTTOM), cap)

    def test_bottom_subsumption_never_refuted(self):
        assert find_countermodel(SubClassOf(BOTTOM, A), 4) is None

    def test_substituted_student_definition_has_no_small_countermodel(self):
        # two roles make this the most expensive exhaustive search in the
        # suite (6.3 million interpretations at size 3)
        assert find_countermodel(substituted_koala(), 3) is None

    def test_found_countermodels_really_refute(self):
        rng = random.Random(34)
        found = 0
        for _ in range(150):
            a = random_axiom(rng, depth=2, concepts=("A", "B"), roles=("r",))
            witness = find_countermodel(a, 2)
            if witness is not None:
                found += 1
                assert not holds(a, witness)
        assert found > 30  # random axioms are mostly refutable

    def test_exhaustion_means_no_small_model_exists(self):
        rng = random.Random(35)
        checked = 0
        for _ in range(60):
            a = random_axiom(rng, depth=1, concepts=("A",), roles=("r",), individuals=())
            if find_countermodel(a, 2) is None:
                checked += 1
                assert textbook_countermodel(a, 2) is None, a
        assert checked > 5

    def test_agrees_with_the_textbook_enumeration(self):
        # every kind of axiom, a quarter with the individual, a tenth over
        # two roles, half with the names outside a signature substituted
        rng = random.Random(38)
        kinds, none = set(), 0
        for k in range(1000):
            roles = ("r", "s") if k % 10 == 0 else ("r",)
            individuals = ("i",) if k % 4 == 0 else ()
            a = random_axiom(rng, depth=2, concepts=("A", "B"), roles=roles, individuals=individuals)
            kinds.add(type(a))
            if k % 2:
                sig = random_signature(rng, concepts=("A", "B"), roles=roles)
                a = substitute(a, sig, rng.choice((SEM_BOT, SEM_TOP)))
            witness = find_countermodel(a, 2)
            if witness is None:
                none += 1
            else:
                assert not holds(a, witness), a
            assert (witness is None) == (textbook_countermodel(a, 2) is None), a
        assert len(kinds) == 6 and 100 < none < 900

    def test_two_role_probe_without_a_model_is_quick(self):
        r, s = RoleName("r"), RoleName("s")
        probe = conj(Exists(r, A), ForAll(s, B), ForAll(r, Not(A)))
        started = time.perf_counter()
        assert find_countermodel(SubClassOf(probe, BOTTOM), 3) is None
        assert time.perf_counter() - started < 2.0


class TestBruteForceLocal:
    def test_shared_name_equivalence_refuted(self):
        assert refutes_locality(EquivalentClasses(A, B), Signature({"A"}), SEM_BOT)

    def test_trivial_subsumption_not_refuted(self):
        assert not refutes_locality(SubClassOf(A, TOP), Signature(), SEM_BOT)

    def test_inverse_tautology_not_refuted(self):
        axiom = InverseRoles(RoleName("P"), Inverse(RoleName("P")))
        assert not refutes_locality(axiom, Signature(role_names={"P"}), SEM_BOT)

    def test_rejects_syntactic_flavor(self):
        with pytest.raises(ValueError, match="expected a semantic flavor, got"):
            refutes_locality(SubClassOf(A, B), Signature(), LocalityFlavor.SYN_BOT)

    def test_one_sided_agreement_with_checker(self):
        # refuted by enumeration => the checker must not call it local. The
        # axioms whose probes may be conjunctions of name literals come
        # first, at every signature over their names; a counterexample to
        # them needs at most two elements, so there the converse holds too
        rng = random.Random(36)
        signatures = [
            Signature(frozenset(c), frozenset(r))
            for c in ((), ("A",), ("B",), ("A", "B"), ("A", "B", "C"))
            for r in ((), ("R",))
        ]
        cases = [
            (a, sig, flavor)
            for a in literal_axioms()
            for sig in signatures
            for flavor in (SEM_BOT, SEM_TOP)
        ]
        exact = len(cases)
        for _ in range(250):
            a = random_axiom(rng, depth=2, concepts=("A", "B"), roles=("r",))
            sig = random_signature(rng, concepts=("A", "B"), roles=("r",))
            cases.append((a, sig, rng.choice((SEM_BOT, SEM_TOP))))
        refuted = 0
        for k, (a, sig, flavor) in enumerate(cases):
            verdict = is_semantically_local(a, sig, flavor)
            if refutes_locality(a, sig, flavor, 2):
                refuted += 1
                assert verdict.status in (Locality.NON_LOCAL, Locality.UNKNOWN), (a, sig)
            elif k < exact:
                assert verdict.status is Locality.LOCAL, (a, sig, flavor)
        assert refuted > 200


class TestRestrictionLemma:
    def test_names_outside_the_axiom_do_not_matter(self):
        rng = random.Random(37)
        for _ in range(150):
            a = random_axiom(rng, depth=2)
            i = random_interpretation(rng, rng.randint(1, 3))
            sig = signature_of(a)
            # rewire everything the axiom does not mention
            concept_ext = dict(i.concept_ext)
            role_ext = dict(i.role_ext)
            for name in concept_ext:
                if name not in sig.concept_names:
                    concept_ext[name] = frozenset(
                        x for x in range(i.domain_size) if rng.random() < 0.5
                    )
            for name in role_ext:
                if name not in sig.role_names:
                    role_ext[name] = frozenset(
                        (x, y)
                        for x in range(i.domain_size)
                        for y in range(i.domain_size)
                        if rng.random() < 0.4
                    )
            individual_ext = dict(i.individual_ext)
            for name in individual_ext:
                if name not in sig.individual_names:
                    individual_ext[name] = rng.randrange(i.domain_size)
            j = Interpretation(i.domain_size, concept_ext, role_ext, individual_ext)
            assert holds(a, i) == holds(a, j)
