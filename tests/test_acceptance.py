"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time budget is asserted, not just reported.
"""

import math
import random
import time

from locmod import (
    ConceptName,
    EquivalentClasses,
    Inverse,
    InverseRoles,
    Locality,
    LocalityFlavor,
    Ontology,
    RoleName,
    SYN_STAR,
    SamplingConfig,
    Signature,
    SubClassOf,
    eval_concept,
    extract_module,
    extract_nested,
    extract_star,
    find_countermodel,
    genuine_modules,
    is_satisfiable,
    is_semantically_local,
    is_syntactically_local,
    is_tautology,
    nnf,
    Not,
    SatStatus,
    sample_signatures,
    signature_of,
    simplify,
    substitute,
    conj,
)
from locmod.cli import main as cli_main
from conftest import CORPUS_NAMES, fixture_path, load_fixture
from genlib import random_axiom, random_signature, synthetic_ontology

SYN_BOT, SYN_TOP = LocalityFlavor.SYN_BOT, LocalityFlavor.SYN_TOP
SEM_BOT, SEM_TOP = LocalityFlavor.SEM_BOT, LocalityFlavor.SEM_TOP


def _sigs_for(onto, count, seed):
    cfg = SamplingConfig(sample_count=count, rng_seed=seed)
    return sample_signatures(onto, cfg)


def test_criterion_1_non_locality_exemplar():
    started = time.perf_counter()
    axiom = EquivalentClasses(ConceptName("A"), ConceptName("B"))
    sig = Signature({"A"})
    assert not is_syntactically_local(axiom, sig, SYN_BOT)
    assert not is_syntactically_local(axiom, sig, SYN_TOP)
    assert is_semantically_local(axiom, sig, SEM_BOT).status is Locality.NON_LOCAL
    assert is_semantically_local(axiom, sig, SEM_TOP).status is Locality.NON_LOCAL
    onto = Ontology((axiom,), name="pair")
    for flavor in LocalityFlavor:
        result = extract_module(onto, sig, flavor)
        assert set(result.module.axioms) == {axiom}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: shared-name equivalence non-local everywhere ({elapsed:.3f}s)")


def test_criterion_2_type2_fixture(koala):
    started = time.perf_counter()
    definition = koala.axioms[0]
    assert isinstance(definition, EquivalentClasses)
    sig = Signature({"Student"}, {"hasChildren", "hasGender"})
    assert is_semantically_local(definition, sig, SEM_BOT).is_local
    assert not is_syntactically_local(definition, sig, SYN_BOT)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: mixed-quantifier definition splits the checkers ({elapsed:.3f}s)")


def test_criterion_3_type1_truth_table():
    axiom = InverseRoles(RoleName("P"), Inverse(RoleName("P")))
    empty, with_p = Signature(), Signature(role_names={"P"})
    for sig in (empty, with_p):
        assert is_semantically_local(axiom, sig, SEM_BOT).is_local
        assert is_semantically_local(axiom, sig, SEM_TOP).is_local
    cases = 0
    for sig, p_in in ((empty, False), (with_p, True)):
        for refined in (False, True):
            for flavor in (SYN_BOT, SYN_TOP):
                expected = refined or not p_in
                assert is_syntactically_local(axiom, sig, flavor, refined) == expected
                cases += 1
    assert cases == 8
    print("\nPASS criterion 3: self-inverse axiom truth table (8/8 cases)")


def test_criterion_4_implication_property():
    started = time.perf_counter()
    rng = random.Random(2024)
    pairs = ((SYN_BOT, SEM_BOT), (SYN_TOP, SEM_TOP))
    checked = syn_local = 0
    for _ in range(10_000):
        axiom = random_axiom(rng, depth=3)  # pools carry 6 names
        sig = random_signature(rng)
        for syn, sem in pairs:
            checked += 1
            if not is_syntactically_local(axiom, sig, syn):
                continue
            syn_local += 1
            verdict = is_semantically_local(axiom, sig, sem)
            assert verdict.status is not Locality.NON_LOCAL, (axiom, sig, syn)
    elapsed = time.perf_counter() - started
    assert checked >= 10_000
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 4: {checked} flavor checks, {syn_local} syntactically "
        f"local, zero inversions ({elapsed:.1f}s)"
    )


def test_criterion_5_module_containment(corpus):
    started = time.perf_counter()
    cases = 0
    for onto in corpus:
        for sig in _sigs_for(onto, 400, seed=5):
            syn = extract_module(onto, sig, SYN_BOT)
            sem = extract_module(onto, sig, SEM_BOT)
            assert set(sem.module.axioms) <= set(syn.module.axioms), (onto.name, sig)
            assert len(sem.module) <= len(syn.module)
            cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"\nPASS criterion 5: semantic ⊆ syntactic on {cases} extractions ({elapsed:.1f}s)")


def test_criterion_6_order_independence(corpus):
    rng = random.Random(6)
    for onto in corpus:
        sigs = _sigs_for(onto, 20, seed=6)[:20]
        reference = {
            flavor: [frozenset(extract_module(onto, s, flavor).module.axioms) for s in sigs]
            for flavor in (SYN_BOT, SEM_BOT)
        }
        for _ in range(10):
            axioms = list(onto.axioms)
            rng.shuffle(axioms)
            shuffled = Ontology(tuple(axioms), name=onto.name)
            for flavor, expected in reference.items():
                got = [
                    frozenset(extract_module(shuffled, s, flavor).module.axioms)
                    for s in sigs
                ]
                assert got == expected, (onto.name, flavor)
    print("\nPASS criterion 6: 10 permutations × 20 signatures, identical modules")


def test_criterion_7_oracle_soundness():
    started = time.perf_counter()
    rng = random.Random(7)
    cases = refuted = satisfiable = 0
    while cases < 2_000:
        individuals = ("i",) if rng.random() < 0.25 else ()
        kind = rng.random()
        lhs = _small_concept(rng, individuals)
        rhs = _small_concept(rng, individuals)
        axiom = (
            SubClassOf(lhs, rhs) if kind < 0.7 else EquivalentClasses(lhs, rhs)
        )
        sig = random_signature(rng, concepts=("A", "B"), roles=("r",))
        flavor = rng.choice((SEM_BOT, SEM_TOP))
        substituted = substitute(axiom, sig, flavor)
        cases += 1

        taut = is_tautology(substituted)
        witness = find_countermodel(substituted, 3)
        if witness is not None:
            refuted += 1
            assert taut is not True, (axiom, sig, flavor)
        # drive the tableau directly and referee its models
        if isinstance(substituted, SubClassOf):
            probe = simplify(nnf(conj(substituted.sub, Not(substituted.sup))))
            result = is_satisfiable(probe)
            if result.status is SatStatus.SATISFIABLE:
                satisfiable += 1
                assert 0 in eval_concept(probe, result.model), (axiom, sig, flavor)
            elif result.status is SatStatus.UNSATISFIABLE:
                assert find_countermodel(substituted, 3) is None
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    assert refuted > 100 and satisfiable > 100  # both sides genuinely exercised
    print(
        f"\nPASS criterion 7: {cases} substituted axioms, {refuted} refuted by the "
        f"oracle, {satisfiable} tableau models confirmed ({elapsed:.1f}s)"
    )


def _small_concept(rng, individuals):
    from genlib import random_concept

    return random_concept(
        rng, depth=2, concepts=("A", "B"), roles=("r",), individuals=individuals
    )


def test_criterion_8_star_fixpoint(corpus):
    for onto in corpus:
        for sig in _sigs_for(onto, 10, seed=8)[:10]:
            chain = [frozenset(onto.axioms)]
            current = onto
            while True:
                step = extract_nested(current, sig, SYN_STAR)
                nxt = frozenset(step.module.axioms)
                if nxt == chain[-1]:
                    break
                assert nxt < chain[-1], "chain must strictly decrease"
                chain.append(nxt)
                current = step.module
            star = extract_star(onto, sig, SYN_STAR)
            assert frozenset(star.module.axioms) == chain[-1]
            assert star.rounds == len(chain) - 1
            bot = frozenset(extract_module(onto, sig, SYN_BOT).module.axioms)
            top = frozenset(extract_module(onto, sig, SYN_TOP).module.axioms)
            assert frozenset(star.module.axioms) <= bot
            assert frozenset(star.module.axioms) <= top
    print("\nPASS criterion 8: alternating chains decrease to fixpoints inside both modules")


def test_criterion_9_genuine_module_bound(corpus):
    for onto in corpus:
        results = genuine_modules(onto, SYN_BOT)
        assert len(results) <= len(onto), onto.name
    print("\nPASS criterion 9: deduplicated genuine modules ≤ axiom count on every fixture")


def test_criterion_10_desk_scale_performance():
    big = synthetic_ontology(10_000, seed=10)
    names = signature_of(big)
    seed_sig = Signature(
        frozenset(sorted(names.concept_names)[:40]),
        frozenset(sorted(names.role_names)[:10]),
    )
    assert seed_sig.term_count == 50
    extract_module(big, Signature(frozenset(sorted(names.concept_names)[40:42])), SYN_BOT)
    started = time.perf_counter()
    result = extract_module(big, seed_sig, SYN_BOT)
    syn_elapsed = time.perf_counter() - started
    assert syn_elapsed < 2.0
    assert len(result.module) > 0

    # informational ratio on a fixture with real tableau work; a freshly
    # loaded instance starts with an empty verdict memo, so the semantic
    # side is actually computed
    koala = load_fixture("koala.ofs")
    probe_sig = Signature({"Student"}, {"hasChildren", "hasGender"})
    extract_module(koala, Signature({"Koala"}), SYN_BOT)  # warm-up
    started = time.perf_counter()
    extract_module(koala, probe_sig, SYN_BOT)
    syn_time = time.perf_counter() - started
    started = time.perf_counter()
    extract_module(koala, probe_sig, SEM_BOT)
    sem_time = time.perf_counter() - started
    ratio = sem_time / syn_time
    assert math.isfinite(ratio) and ratio > 1.0
    print(
        f"\nPASS criterion 10: 10k-axiom extraction in {syn_elapsed * 1000:.0f}ms "
        f"({len(result.module)} axioms); semantic:syntactic time ratio {ratio:.1f}"
    )


def test_criterion_11_report_fidelity(tmp_path):
    ontologies = [str(fixture_path(n)) for n in CORPUS_NAMES]
    for fmt in ("markdown", "csv"):
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"report-{fmt}-{run}.txt"
            code = cli_main(
                [
                    "compare",
                    "--ontology",
                    *ontologies,
                    "--samples",
                    "400",
                    "--seed",
                    "11",
                    "--format",
                    fmt,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{fmt} report differs between runs"
    header = (tmp_path / "report-csv-1.txt").read_text().splitlines()[0]
    assert header.split(",") == [
        "ontology", "axioms", "test", "case_id", "seed_size", "syn_size",
        "sem_size", "diff_size", "diff_rel", "syn_ms", "sem_ms", "culprits",
    ]
    md = (tmp_path / "report-markdown-1.txt").read_text()
    for column in ("#differences", "diff. sizes", "time ratio avg.", "culprit type"):
        assert column in md
    print("\nPASS criterion 11: byte-identical seeded reports in both formats")
