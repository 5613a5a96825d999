import dataclasses
import random

import pytest

import locmod.model as model
import locmod.semantic as semantic
import plain_substitution
from locmod import (
    AtLeast,
    BOTTOM,
    Budget,
    Concept,
    ConceptName,
    EMPTY_ROLE,
    EquivalentClasses,
    EquivalentRoles,
    Exists,
    ForAll,
    Inverse,
    InverseRoles,
    Locality,
    LocalityFlavor,
    Not,
    OneOf,
    RoleName,
    Signature,
    SubClassOf,
    SubRoleOf,
    TOP,
    Transitive,
    UNIVERSAL_ROLE,
    Ontology,
    conj,
    disj,
    eval_concept,
    exactly,
    find_countermodel,
    is_semantically_local,
    is_syntactically_local,
    is_tautology,
    nnf,
    signature_of,
    simplify,
    substitute,
)
from locmod.model import BottomType, TopType
from locmod.semantic import verdict_in
from conftest import CORPUS_NAMES, load_fixture
from genlib import (
    CONCEPTS,
    ROLES,
    random_axiom,
    random_interpretation,
    random_renaming,
    random_role,
    random_signature,
    refutes_locality,
    renamed,
    renamed_signature,
)

SEM_BOT = LocalityFlavor.SEM_BOT
SEM_TOP = LocalityFlavor.SEM_TOP
A, B, S, F, M = (ConceptName(n) for n in "ABSFM")
R, P = RoleName("R"), RoleName("P")


def koala_axiom():
    return EquivalentClasses(
        M,
        conj(
            S,
            ForAll(RoleName("c"), F),
            ForAll(RoleName("g"), OneOf("m")),
            exactly(3, RoleName("c")),
        ),
    )


KOALA_SIG = Signature({"S"}, {"c", "g"})


def directions(a):
    """The (sub, sup) pairs whose validity makes the concept axiom `a` valid."""
    if isinstance(a, SubClassOf):
        return [(a.sub, a.sup)]
    return [(a.left, a.right), (a.right, a.left)]


class TestSubstitute:
    def test_equivalence_with_shared_name(self):
        assert substitute(EquivalentClasses(A, B), Signature({"A"}), SEM_BOT) == \
            EquivalentClasses(A, BOTTOM)

    def test_koala_substitution(self):
        expected = EquivalentClasses(
            BOTTOM,
            conj(
                S,
                ForAll(RoleName("c"), BOTTOM),
                ForAll(RoleName("g"), OneOf("m")),
                exactly(3, RoleName("c")),
            ),
        )
        assert substitute(koala_axiom(), KOALA_SIG, SEM_BOT) == expected

    def test_identity_when_signature_covers_axiom(self):
        rng = random.Random(21)
        for _ in range(200):
            a = random_axiom(rng)
            for flavor in (SEM_BOT, SEM_TOP):
                assert substitute(a, signature_of(a), flavor) == a

    def test_transitive_in_signature_unchanged(self):
        axiom = Transitive(R)
        sig = Signature(role_names={"R"})
        for flavor in (SEM_BOT, SEM_TOP):
            assert substitute(axiom, sig, flavor) == axiom

    def test_folds_only_what_it_changes(self):
        outside = SubClassOf(disj(A, Exists(R, B)), ForAll(P, A))
        assert substitute(outside, Signature({"A"}, {"P"}), SEM_BOT) == \
            SubClassOf(A, ForAll(P, A))
        assert substitute(outside, Signature({"A"}), SEM_BOT).sup == TOP
        assert substitute(outside, Signature(), SEM_BOT).sub == BOTTOM
        # a subterm substitution leaves alone is the same object, constants
        # of the input included
        kept = conj(A, ForAll(R, BOTTOM))
        assert substitute(SubClassOf(kept, B), Signature({"A"}, {"R"}), SEM_BOT).sub is kept
        # ≥0 stays as it is written: it is ⊤ whatever the role
        assert substitute(SubClassOf(AtLeast(0, R, B), A), Signature({"A"}), SEM_BOT) == \
            SubClassOf(AtLeast(0, EMPTY_ROLE, BOTTOM), A)

    def test_folding_keeps_probes_and_verdicts(self, monkeypatch):
        # against a plain substitution: every probe the tableau gets from
        # the folded substitution equals the one from the plain one, and a
        # direction decided before the tableau (⊥ ⊑ D or C ⊑ ⊤) has the
        # probe ⊥, so tick counts and UNKNOWNs at a budget do not move
        rng = random.Random(26)
        cases = [
            (random_axiom(rng), random_signature(rng), flavor)
            for _ in range(2_000)
            for flavor in (SEM_BOT, SEM_TOP)
        ]
        reached = skipped = 0
        for a, sig, flavor in cases:
            folded = substitute(a, sig, flavor)
            plain = plain_substitution.substitute(a, sig, flavor)
            if not isinstance(plain, (SubClassOf, EquivalentClasses)):
                assert folded == plain
                continue
            for (sub, sup), (psub, psup) in zip(directions(folded), directions(plain)):
                expected = simplify(nnf(conj(psub, Not(psup))))
                if isinstance(sub, BottomType) or isinstance(sup, TopType):
                    assert expected == BOTTOM, (a, sig, flavor)
                    skipped += 1
                else:
                    assert simplify(nnf(conj(sub, Not(sup)))) == expected, (a, sig, flavor)
                    reached += 1
        assert reached > 1_000 and skipped > 1_000
        # a step budget alone, so that the UNKNOWNs do not hang on the clock
        budget = Budget(max_steps=300, max_seconds=1e9)
        verdicts = [is_semantically_local(a, sig, flavor, budget) for a, sig, flavor in cases]
        assert {v.status for v in verdicts} == set(Locality)
        monkeypatch.setattr(semantic, "substitute", plain_substitution.substitute)
        plain = [is_semantically_local(a, sig, flavor, budget) for a, sig, flavor in cases]
        assert plain == verdicts

    def test_role_constants_for_outside_roles(self):
        axiom = SubRoleOf(R, Inverse(P))
        sub = substitute(axiom, Signature(role_names={"P"}), SEM_BOT)
        assert sub == SubRoleOf(EMPTY_ROLE, Inverse(P))
        sub = substitute(axiom, Signature(), SEM_TOP)
        assert sub == SubRoleOf(UNIVERSAL_ROLE, UNIVERSAL_ROLE)


class TestSimplify:
    def test_empty_role_quantification(self):
        assert simplify(ForAll(EMPTY_ROLE, F)) == TOP
        assert simplify(Exists(EMPTY_ROLE, F)) == BOTTOM

    def test_boolean_folding(self):
        assert simplify(conj(S, BOTTOM)) == BOTTOM
        assert simplify(conj(S, TOP)) == S

    def test_counting_without_constant_role_is_kept(self):
        probe = conj(ForAll(RoleName("c"), BOTTOM), AtLeast(3, RoleName("c"), TOP))
        assert simplify(probe) == probe

    def test_atleast_zero(self):
        assert simplify(AtLeast(0, R, A)) == TOP

    def test_universal_role_left_in_place(self):
        probe = ForAll(UNIVERSAL_ROLE, A)
        assert simplify(probe) == probe

    def test_meaning_preserved_pointwise(self):
        rng = random.Random(22)
        for _ in range(200):
            a = random_axiom(rng)
            sub = substitute(a, random_signature(rng), rng.choice((SEM_BOT, SEM_TOP)))
            interp = random_interpretation(rng, rng.randint(1, 3))
            for field in dataclasses.fields(sub):
                c = getattr(sub, field.name)
                if isinstance(c, Concept):
                    assert eval_concept(simplify(c), interp) == eval_concept(c, interp)


class TestIsTautology:
    def test_bottom_subsumed_by_anything(self):
        assert is_tautology(SubClassOf(BOTTOM, A)) is True

    def test_name_into_bottom_fails(self):
        assert is_tautology(SubClassOf(A, BOTTOM)) is False

    def test_koala_equivalence_is_tautology(self):
        assert is_tautology(substitute(koala_axiom(), KOALA_SIG, SEM_BOT)) is True

    def test_role_axioms_are_decided_by_structure(self):
        s = RoleName("S")
        valid = [SubRoleOf(R, R), EquivalentRoles(R, R), InverseRoles(R, Inverse(R))]
        for a in valid + [InverseRoles(Inverse(R), R)]:
            assert is_tautology(a) is True, a
        for a in (Transitive(R), InverseRoles(R, s), SubRoleOf(R, Inverse(R))):
            assert is_tautology(a) is False, a

    def test_role_axioms_agree_with_the_oracle(self):
        rng = random.Random(41)
        decided = set()
        for _ in range(300):
            r, s = random_role(rng), random_role(rng)
            kinds = (SubRoleOf(r, s), EquivalentRoles(r, s), InverseRoles(r, s), Transitive(r))
            a = rng.choice(kinds)
            valid = is_tautology(a)
            assert valid is (find_countermodel(a, 3) is None), a
            decided.add((type(a), valid))
        assert len(decided) == 7  # a transitivity axiom is never valid


class TestLocality:
    def test_inverse_tautology_local_for_any_signature(self):
        axiom = InverseRoles(P, Inverse(P))
        for sig in (Signature(), Signature(role_names={"P"}), Signature({"A"}, {"P"})):
            for flavor in (SEM_BOT, SEM_TOP):
                assert is_semantically_local(axiom, sig, flavor).is_local

    def test_shared_name_equivalence_nonlocal_both_flavors(self):
        for flavor in (SEM_BOT, SEM_TOP):
            v = is_semantically_local(EquivalentClasses(A, B), Signature({"A"}), flavor)
            assert v.status is Locality.NON_LOCAL

    def test_koala_axiom_sembot_local(self):
        assert is_semantically_local(koala_axiom(), KOALA_SIG, SEM_BOT).is_local

    def test_unknown_from_safety_valve(self):
        # ≤-counting over a role pushed to the universal relation
        axiom = SubClassOf(B, AtLeast(2, R, A))
        v = is_semantically_local(axiom, Signature({"B", "A"}), SEM_TOP)
        assert v.status is Locality.UNKNOWN
        assert v.reason == "counting over the universal role"

    def test_unknown_names_the_step_limit(self):
        axiom = EquivalentClasses(A, conj(B, Exists(R, A)))
        v = is_semantically_local(axiom, Signature({"A", "B"}, {"R"}), SEM_BOT, Budget(max_steps=1))
        assert v.status is Locality.UNKNOWN
        assert v.reason == "rule application limit reached"
        assert is_tautology(substitute(axiom, Signature(), SEM_TOP), Budget(max_steps=1)) is None

    def test_local_verdicts_survive_budget_growth(self):
        rng = random.Random(23)
        small = Budget(max_steps=2_000, max_seconds=5.0)
        big = Budget(max_steps=200_000, max_seconds=30.0)
        for _ in range(150):
            a = random_axiom(rng, depth=2)
            sig = random_signature(rng)
            flavor = rng.choice((SEM_BOT, SEM_TOP))
            lo = is_semantically_local(a, sig, flavor, small)
            hi = is_semantically_local(a, sig, flavor, big)
            if lo.status is not Locality.UNKNOWN:
                assert lo.status == hi.status

    def test_memoized_verdicts_equal_fresh_ones(self):
        rng = random.Random(25)
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            entities = signature_of(o)
            sigs = [
                random_signature(
                    rng,
                    concepts=sorted(entities.concept_names),
                    roles=sorted(entities.role_names),
                )
                for _ in range(50)
            ]
            cases = [
                (i, sig, flavor)
                for i in range(len(o))
                for sig in sigs
                for flavor in (SEM_BOT, SEM_TOP)
            ]
            rng.shuffle(cases)
            for i, sig, flavor in cases:
                fresh = is_semantically_local(o.axioms[i], sig, flavor)
                assert verdict_in(o, i, sig, flavor) == fresh, (name, i, sig, flavor)
            # verdicts were reused across signatures that agree on an axiom
            assert 0 < len(o.verdicts) < len(cases)

    def test_unknown_verdict_is_not_memoized(self):
        o = Ontology((SubClassOf(A, Exists(R, B)),), name="starved")
        sig = Signature({"A", "B"})
        starved = verdict_in(o, 0, sig, SEM_BOT, Budget(max_steps=1))
        assert starved.status is Locality.UNKNOWN
        assert verdict_in(o, 0, sig, SEM_BOT).status is Locality.NON_LOCAL
        # β is α renamed, so the two share a key: a starved check of α is
        # not kept under it
        alpha = o.axioms[0]
        beta = renamed(alpha, {"A": "S", "B": "F"}, {"R": "P"})
        o = Ontology((alpha, beta), name="starved")
        sig = Signature({"A", "B", "S", "F"})
        assert verdict_in(o, 0, sig, SEM_BOT, Budget(max_steps=1)) == starved
        assert not o.verdicts
        assert verdict_in(o, 1, sig, SEM_BOT).status is Locality.NON_LOCAL

    def test_rejects_syntactic_flavor(self):
        with pytest.raises(ValueError):
            is_semantically_local(SubClassOf(A, B), Signature(), LocalityFlavor.SYN_BOT)

    def test_global_counting_zone_stays_unknown(self):
        # ≥n R.C over an outside role is ⊤ under the top substitution only
        # in domains of at least n elements: for n ≥ 2 a singleton
        # interpretation refutes the substituted axiom. The top grammar
        # leaves it out of Top(Σ), and the checker answers Unknown there,
        # never Local, so the conservative direction survives.
        axiom = SubClassOf(A, AtLeast(2, R, B))
        sig = Signature({"A"})
        assert not is_syntactically_local(axiom, sig, LocalityFlavor.SYN_TOP)
        verdict = is_semantically_local(axiom, sig, SEM_TOP)
        assert verdict.status is Locality.UNKNOWN
        assert refutes_locality(axiom, sig, SEM_TOP, 1)


class TestImplicationSample:
    def test_syntactic_implies_semantic(self):
        # small inline version of the full acceptance property
        rng = random.Random(24)
        pairs = (
            (LocalityFlavor.SYN_BOT, SEM_BOT),
            (LocalityFlavor.SYN_TOP, SEM_TOP),
        )
        for _ in range(400):
            a = random_axiom(rng)
            sig = random_signature(rng)
            for syn, sem in pairs:
                if is_syntactically_local(a, sig, syn):
                    verdict = is_semantically_local(a, sig, sem)
                    assert verdict.status is not Locality.NON_LOCAL, (a, sig, syn)


def shape_key(a, sig, flavor):
    """The key under which `verdict_in` keeps a definite verdict of `a`."""
    structure, concepts, roles, _ = model.axiom_shape(a)
    return (
        flavor,
        structure,
        *(name in sig.concept_names for name in concepts),
        *(name in sig.role_names for name in roles),
    )


def look_up_every_axiom(o, rng, budget=None):
    """`verdict_in` of every axiom of `o` under 20 random signatures over
    its names, for both semantic flavors."""
    names = signature_of(o)
    for _ in range(20):
        sig = random_signature(
            rng, concepts=sorted(names.concept_names), roles=sorted(names.role_names)
        )
        for flavor in (SEM_BOT, SEM_TOP):
            for i in range(len(o)):
                verdict_in(o, i, sig, flavor, budget)


class TestShapeKey:
    def test_renaming_keeps_verdicts(self):
        # the fact the shape key rests on: an injective renaming of concepts
        # and roles, applied to Σ as well, changes no definite status, and
        # an UNKNOWN on either side is met by an equal one, reason included
        rng = random.Random(31)
        budgets = [Budget(max_steps=n, max_seconds=1e9) for n in (20, 5_000)]
        definite, reasons = 0, set()
        for _ in range(1_000):
            a, sig = random_axiom(rng), random_signature(rng)
            concepts = random_renaming(rng, CONCEPTS, ("A", "B", "C", "D", "E"))
            roles = random_renaming(rng, ROLES, ("r", "s", "t"))
            b, sig_b = renamed(a, concepts, roles), renamed_signature(sig, concepts, roles)
            for flavor in (SEM_BOT, SEM_TOP):
                for budget in budgets:
                    x = is_semantically_local(a, sig, flavor, budget)
                    y = is_semantically_local(b, sig_b, flavor, budget)
                    if Locality.UNKNOWN in (x.status, y.status):
                        assert x == y, (a, sig, b, sig_b, flavor, budget)
                        reasons.add(x.reason)
                    else:
                        assert x.status is y.status, (a, sig, b, sig_b, flavor)
                        definite += 1
        assert definite > 3_000
        assert reasons == {"rule application limit reached", "counting over the universal role"}

    def test_shapes_separate_what_renaming_cannot_map(self):
        C, r = ConceptName("C"), RoleName("r")
        sig = Signature({"A", "B", "C"}, {"r"})
        pairs = [
            (SubClassOf(A, disj(A, B)), SubClassOf(A, disj(C, B))),
            (SubClassOf(A, Exists(r, A)), SubClassOf(A, Exists(r, B))),
            (SubClassOf(B, Exists(Inverse(r), A)), SubClassOf(B, Exists(r, A))),
            (SubClassOf(A, OneOf("a")), SubClassOf(A, OneOf("b"))),
            (SubClassOf(B, AtLeast(2, r, A)), SubClassOf(B, AtLeast(3, r, A))),
        ]
        # a renamed copy of either side, with Σ moved along, keeps its key
        concepts, roles = {"A": "X", "B": "Y", "C": "Z"}, {"r": "q"}
        sig_copy = renamed_signature(sig, concepts, roles)
        for flavor in (SEM_BOT, SEM_TOP):
            for left, right in pairs:
                assert shape_key(left, sig, flavor) != shape_key(right, sig, flavor)
                for a in (left, right):
                    copy = renamed(a, concepts, roles)
                    assert shape_key(copy, sig_copy, flavor) == shape_key(a, sig, flavor)
            # the concept r and the role r: names are numbered and
            # Σ-membership is read per kind
            neither, as_concept = Signature({"A", "B"}), Signature({"A", "B", "r"})
            as_role = Signature({"A", "B"}, {"r"})
            a = SubClassOf(A, Exists(r, B))
            assert shape_key(a, as_concept, flavor) == shape_key(a, neither, flavor)
            assert shape_key(a, as_role, flavor) != shape_key(a, neither, flavor)
            a = SubClassOf(ConceptName("r"), Exists(r, TOP))
            assert len({shape_key(a, s, flavor) for s in (neither, as_concept, as_role)}) == 3
            # which names lie in Σ, not how many
            a = SubClassOf(A, B)
            assert shape_key(a, Signature({"A"}), flavor) != shape_key(a, Signature({"B"}), flavor)
        a = SubClassOf(A, B)
        assert shape_key(a, sig, SEM_BOT) != shape_key(a, sig, SEM_TOP)

    def test_renamed_copies_share_one_check(self, monkeypatch):
        # an ontology of each fixture and two renamed copies of it: the memo
        # answers as a fresh check would, and checks each shape once it has
        # a definite verdict for it
        rng = random.Random(33)
        check = semantic.is_semantically_local
        settled, calls = set(), []

        def counted(a, sig, flavor, budget=None):
            key = shape_key(a, sig, flavor)
            assert key not in settled, (a, sig, flavor)
            calls.append(key)
            verdict = check(a, sig, flavor, budget)
            if verdict.status is not Locality.UNKNOWN:
                settled.add(key)
            return verdict

        monkeypatch.setattr(semantic, "is_semantically_local", counted)
        for name in CORPUS_NAMES:
            base = load_fixture(name)
            entities = signature_of(base)
            concepts, roles = sorted(entities.concept_names), sorted(entities.role_names)
            copies = [
                (
                    random_renaming(rng, concepts, [f"c{j}_{k}" for j in range(len(concepts))]),
                    random_renaming(rng, roles, [f"r{j}_{k}" for j in range(len(roles))]),
                )
                for k in (1, 2)
            ]
            o = Ontology(
                base.axioms + tuple(renamed(a, *m) for m in copies for a in base.axioms),
                name=name,
            )
            assert len(o) == 3 * len(base)
            names = signature_of(o)
            sigs = []
            for _ in range(10):
                seed = random_signature(rng, concepts=concepts, roles=roles)
                sigs.append(Signature.union([seed, *(renamed_signature(seed, *m) for m in copies)]))
                sigs.append(
                    random_signature(
                        rng,
                        concepts=sorted(names.concept_names),
                        roles=sorted(names.role_names),
                    )
                )
            cases = [
                (i, sig, flavor)
                for i in range(len(o))
                for sig in sigs
                for flavor in (SEM_BOT, SEM_TOP)
            ]
            rng.shuffle(cases)
            exact = set()
            settled.clear()
            calls.clear()
            for i, sig, flavor in cases:
                fresh = check(o.axioms[i], sig, flavor)
                assert verdict_in(o, i, sig, flavor) == fresh, (name, i, sig, flavor)
                own = o.axiom_signatures[i]
                exact.add(
                    (
                        i,
                        flavor,
                        sig.concept_names & own.concept_names,
                        sig.role_names & own.role_names,
                    )
                )
            # copies were answered by the checks of the others
            assert 0 < len(calls) < len(exact), name

    def test_one_entry_per_definite_check(self, monkeypatch):
        # the memo keeps one entry per definite check, under the key
        # `shape_key` gives, and nothing for an UNKNOWN
        rng = random.Random(34)
        check = semantic.is_semantically_local
        definite, unknown = [], 0

        def counted(a, sig, flavor, budget=None):
            nonlocal unknown
            verdict = check(a, sig, flavor, budget)
            if verdict.status is Locality.UNKNOWN:
                unknown += 1
            else:
                definite.append(shape_key(a, sig, flavor))
            return verdict

        monkeypatch.setattr(semantic, "is_semantically_local", counted)
        budget = Budget(max_steps=40, max_seconds=1e9)
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            definite.clear()
            look_up_every_axiom(o, rng, budget)
            assert definite, name
            assert len(o.verdicts) == len(definite), name
            structure_of = {n: st for st, n in o.structures.items()}
            stored = {(f, structure_of[n], *bits) for f, n, *bits in o.verdicts}
            assert stored == set(definite), name
        assert unknown > 0

    def test_each_shape_is_built_once(self, monkeypatch):
        # across many signatures and both flavors, every axiom's shape is
        # built once, in axiom order, on first use, and never again
        rng = random.Random(35)
        build = model.axiom_shape
        built = []

        def counted(a):
            built.append(a)
            return build(a)

        monkeypatch.setattr(model, "axiom_shape", counted)
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            built.clear()
            look_up_every_axiom(o, rng)
            assert built == list(o.axioms), name
            for a, (number, *names) in zip(o.axioms, o.shapes):
                structure, *own = build(a)
                assert (o.structures[structure], own) == (number, names), name
            # a restricted ontology walks none: its records are the input's
            sub = o.restrict(range(0, len(o), 2))
            built.clear()
            for i in range(len(sub)):
                verdict_in(sub, i, Signature(), SEM_BOT)
                verdict_in(sub, i, o.names, SEM_TOP)
            assert built == [], name
            assert sub.shapes == o.shapes[::2] and sub.structures is o.structures, name
