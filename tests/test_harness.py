import math
import statistics
import sys

import pytest

from locmod import (
    TOP,
    Budget,
    ConceptName,
    CulpritType,
    DifferenceRecord,
    EquivalentClasses,
    Exists,
    ForAll,
    InvariantViolation,
    Inverse,
    InverseRoles,
    LocalityFlavor,
    OneOf,
    Ontology,
    RoleName,
    SamplingConfig,
    Signature,
    SubClassOf,
    classify_culprit,
    conj,
    exactly,
    is_semantically_local,
    is_syntactically_local,
    render_report,
    run_comparison,
    sample_signatures,
    signature_of,
)
import locmod.extractor as extractor
import locmod.harness as harness
from locmod.semantic import Locality
from conftest import CORPUS_NAMES, load_fixture
from genlib import synthetic_ontology


def chain_ontology(n):
    axioms = tuple(
        SubClassOf(ConceptName(f"C{i}"), ConceptName(f"C{i + 1}")) for i in range(n)
    )
    return Ontology(axioms, name=f"chain{n}")


class TestSampling:
    def test_deterministic_in_the_seed(self, koala):
        cfg = SamplingConfig(sample_count=50, rng_seed=9)
        assert sample_signatures(koala, cfg) == sample_signatures(koala, cfg)
        other = SamplingConfig(sample_count=50, rng_seed=10)
        assert sample_signatures(koala, cfg) != sample_signatures(koala, other)

    def test_binomial_concentration(self):
        # 915 entities, p = 1/2: sizes follow Binomial(m, 1/2) with mean
        # m/2 and variance m/4; the sample mean must sit within 3 standard
        # errors of 457.5
        o = chain_ontology(914)  # 915 concept names
        m = signature_of(o).term_count
        assert m == 915
        cfg = SamplingConfig(sample_count=400, rng_seed=1)
        sizes = [s.term_count for s in sample_signatures(o, cfg)]
        mean = statistics.fmean(sizes)
        stderr = math.sqrt(m / 4) / math.sqrt(len(sizes))
        assert abs(mean - m / 2) < 3 * stderr
        # the plain draw concentrates: nothing tiny, nothing huge
        assert min(sizes) > m / 4 and max(sizes) < 3 * m / 4

    def test_binned_sampling_reaches_the_edges(self):
        o = chain_ontology(99)  # 100 concept names
        cfg = SamplingConfig(sample_count=400, rng_seed=2, binned=True, bin_count=10)
        sizes = [s.term_count for s in sample_signatures(o, cfg)]
        assert min(sizes) < 10
        assert max(sizes) > 90

    def test_small_ontologies_enumerate_every_signature(self, inverse_loop):
        sigs = sample_signatures(inverse_loop, SamplingConfig(sample_count=400))
        m = signature_of(inverse_loop).term_count
        assert len(sigs) == 2**m
        assert len(set(sigs)) == 2**m

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(inclusion_probability=0.0)
        with pytest.raises(ValueError):
            SamplingConfig(sample_count=0)


class TestClassifyCulprit:
    def test_inverse_tautology(self):
        assert classify_culprit(
            InverseRoles(RoleName("P"), Inverse(RoleName("P")))
        ) is CulpritType.TYPE1
        assert classify_culprit(
            InverseRoles(RoleName("P"), RoleName("Q"))
        ) is CulpritType.NONE

    def test_mixed_quantifier_definition(self):
        axiom = EquivalentClasses(
            ConceptName("M"),
            conj(
                ConceptName("S"),
                ForAll(RoleName("c"), ConceptName("F")),
                ForAll(RoleName("g"), OneOf("m")),
                exactly(3, RoleName("c")),
            ),
        )
        assert classify_culprit(axiom) is CulpritType.TYPE2

    def test_plain_subclass_is_no_culprit(self):
        axiom = SubClassOf(
            ConceptName("Duck"), Exists(RoleName("eats"), ConceptName("Grass"))
        )
        assert classify_culprit(axiom) is CulpritType.NONE

    def test_existential_without_universal_is_no_culprit(self):
        axiom = EquivalentClasses(
            ConceptName("F"),
            conj(ConceptName("A"), Exists(RoleName("g"), OneOf("f"))),
        )
        assert classify_culprit(axiom) is CulpritType.NONE


class TestRunComparison:
    def test_quiet_fixture_yields_no_records(self, taxonomy):
        cfg = SamplingConfig(sample_count=100, rng_seed=3)
        for mode in harness.MODES:
            assert run_comparison(taxonomy, mode, cfg) == []

    def test_inverse_fixture_t1a_exhaustive(self, inverse_loop):
        # all 16 signatures are enumerated; the self-inverse axiom breaks
        # syntactic locality exactly when its role is in the signature
        records = run_comparison(inverse_loop, "t1a", SamplingConfig())
        assert len(records) == 8
        for r in records:
            assert "partOf" in r.seed_signature.role_names
            assert r.culprits and all(k is CulpritType.TYPE1 for _, k in r.culprits)
            assert r.semantic_size <= r.syntactic_size

    def test_koala_t1a_finds_the_definition(self, koala):
        cfg = SamplingConfig(sample_count=400, rng_seed=4)
        records = run_comparison(koala, "t1a", cfg)
        assert records
        culprit_kinds = {k for r in records for _, k in r.culprits}
        assert culprit_kinds == {CulpritType.TYPE2}
        for r in records:
            sig = r.seed_signature
            assert {"Student", "hasChildren"} <= (sig.concept_names | sig.role_names)
            assert "MaleStudentWith3Daughters" not in sig.concept_names
            assert "Female" not in sig.concept_names

    def test_t1b_records_are_module_differences(self, mixed):
        cfg = SamplingConfig(sample_count=60, rng_seed=5)
        records = run_comparison(mixed, "t1b", cfg)
        for r in records:
            assert r.test == "T1b"
            assert r.semantic_size < r.syntactic_size
            assert len(r.difference_axioms) == r.syntactic_size - r.semantic_size
            assert 0 < r.relative_difference <= 1

    def test_t2_uses_axiom_signatures(self, mixed):
        records = run_comparison(mixed, "t2", SamplingConfig())
        for r in records:
            assert r.test == "T2"
            assert r.case_id.startswith("ax")

    def test_jobs_do_not_change_records(self, koala):
        cfg = SamplingConfig(sample_count=60, rng_seed=6)
        interval = sys.getswitchinterval()
        for mode in ("t1a", "t1b"):
            solo = run_comparison(koala, mode, cfg)
            # a fresh instance: the threads meet its per-ontology caches and
            # verdict memo cold, and switch often while filling them
            fresh = load_fixture("koala.ofs")
            sys.setswitchinterval(1e-5)
            try:
                threaded = run_comparison(fresh, mode, cfg, jobs=4)
            finally:
                sys.setswitchinterval(interval)
            assert solo == threaded

    def test_timings_are_recorded_on_request(self, koala):
        cfg = SamplingConfig(sample_count=40, rng_seed=7)
        records = run_comparison(koala, "t1a", cfg, measure_timings=True)
        assert records
        assert all(r.sem_time > 0 and r.syn_time >= 0 for r in records)

    def test_direction_violations_abort(self, monkeypatch):
        # a lying syntactic checker must trip the direction assertion, also
        # on the axioms not local w.r.t. the empty signature, which the
        # compiled circuit finds and the liar then checks (fresh instances)
        liar = lambda *args, **kw: True  # noqa: E731
        monkeypatch.setattr(harness, "is_syntactically_local", liar)
        monkeypatch.setattr(extractor, "is_syntactically_local", liar)
        with pytest.raises(InvariantViolation):
            run_comparison(
                load_fixture("taxonomy.ofs"), "t1a", SamplingConfig(sample_count=20, rng_seed=8)
            )
        # ⊤ ⊑ C is non-local w.r.t. every signature; the first case, the
        # empty signature, shares no name with it and must already abort
        A, B, C = (ConceptName(n) for n in "ABC")
        o = Ontology((SubClassOf(A, B), SubClassOf(TOP, C)), name="top-sub")
        with pytest.raises(InvariantViolation, match=r"axiom ax1 .* w\.r\.t\. \{\}"):
            run_comparison(o, "t1a", SamplingConfig())

    def test_unknown_mode_is_rejected(self, taxonomy):
        with pytest.raises(ValueError):
            run_comparison(taxonomy, "t3", SamplingConfig())


def reference_t1a(o, cfg, budget):
    """T1a records from a plain check of every axiom against every seed."""
    records = []
    for k, sig in enumerate(sample_signatures(o, cfg)):
        syn = {
            i
            for i, a in enumerate(o.axioms)
            if not is_syntactically_local(a, sig, LocalityFlavor.SYN_BOT)
        }
        sem, unknowns = set(), 0
        for i, a in enumerate(o.axioms):
            status = is_semantically_local(a, sig, LocalityFlavor.SEM_BOT, budget).status
            if status is not Locality.LOCAL:
                sem.add(i)
                unknowns += status is Locality.UNKNOWN
        diff = sorted(syn - sem)
        if not diff:
            continue
        culprits = [(f"ax{i}", classify_culprit(o.axioms[i])) for i in diff]
        records.append(
            DifferenceRecord(
                ontology=o.name,
                axiom_count=len(o),
                test="T1a",
                case_id=f"s{k}",
                seed_signature=sig,
                syntactic_size=len(syn),
                semantic_size=len(sem),
                difference_axioms=tuple(f"ax{i}" for i in diff),
                relative_difference=len(diff) / len(syn),
                syn_time=0.0,
                sem_time=0.0,
                culprits=tuple((aid, kind) for aid, kind in culprits if kind is not CulpritType.NONE),
                unknown_verdicts=unknowns,
            )
        )
    return records


class TestSeededT1a:
    @staticmethod
    def ontologies():
        """Fresh instances: every fixture, the koala plus two axioms not
        ⊥-local w.r.t. any signature, and a 300-axiom synthetic ontology."""
        koala = load_fixture("koala.ofs")
        extra = (SubClassOf(TOP, ConceptName("Extra")), SubClassOf(OneOf("a"), ConceptName("Other")))
        out = [load_fixture(name) for name in CORPUS_NAMES]
        out.append(Ontology(koala.axioms + extra, name="koala+at-empty"))
        out.append(synthetic_ontology(300))
        return out

    def test_records_equal_a_check_of_every_axiom(self):
        cfg = SamplingConfig(sample_count=25, rng_seed=21)
        records = unknowns = 0
        for budget in (None, Budget(max_steps=1)):
            for o in self.ontologies():
                expected = reference_t1a(o, cfg, budget)
                assert run_comparison(o, "t1a", cfg, budget=budget) == expected
                records += len(expected)
                unknowns += sum(r.unknown_verdicts for r in expected)
        assert records >= 20 and unknowns >= 1

    def test_warm_case_checks_only_reachable_axioms(self, monkeypatch):
        counts = {"syn": 0, "sem": 0}

        def counted(key, check):
            def wrapper(*args, **kw):
                counts[key] += 1
                return check(*args, **kw)

            return wrapper

        cases = 0
        for o in self.ontologies():
            run_comparison(o, "t1a", SamplingConfig(sample_count=1))  # warm the instance
            syn_at_empty = {
                i
                for i, a in enumerate(o.axioms)
                if not is_syntactically_local(a, Signature(), LocalityFlavor.SYN_BOT)
            }
            sem_at_empty = {
                i
                for i, a in enumerate(o.axioms)
                if not is_semantically_local(a, Signature(), LocalityFlavor.SEM_BOT).is_local
            }
            with monkeypatch.context() as m:
                m.setattr(harness, "is_syntactically_local", counted("syn", is_syntactically_local))
                m.setattr(harness, "verdict_in", counted("sem", harness.verdict_in))
                for term in sorted(o.names.concept_names):
                    counts.update(syn=0, sem=0)
                    harness._t1a_case(o, o.axioms, Signature({term}), "s0", None, False)
                    mentions = set(o.name_index.get(term, ()))
                    reached = {
                        "syn": len(syn_at_empty | mentions),
                        "sem": len(sem_at_empty | mentions),
                    }
                    assert counts == reached
                    assert max(reached.values()) < len(o)
                    cases += 1
        assert cases >= 100


class TestRenderReport:
    def test_empty_records_render_headers_only(self):
        assert render_report([], "csv") == harness.CSV_HEADER + "\n"
        md = render_report([], "markdown")
        assert md.count("\n") == 2  # header and rule only

    def _record(self, **kw):
        base = dict(
            ontology="demo",
            axiom_count=100,
            test="T2",
            case_id="ax1",
            seed_signature=Signature({"A"}),
            syntactic_size=100,
            semantic_size=97,
            difference_axioms=("ax2", "ax3", "ax4"),
            relative_difference=0.03,
            syn_time=0.0,
            sem_time=0.0,
            culprits=(("ax2", CulpritType.TYPE2),),
        )
        base.update(kw)
        return DifferenceRecord(**base)

    def test_percentages_and_sizes(self):
        md = render_report([self._record()], "markdown")
        assert "| demo | 100 | T2 | 1 | 3–3 | 3–3% |" in md

    def test_sub_millisecond_times_render_as_dash(self):
        md = render_report([self._record(syn_time=0.0004, sem_time=0.5)], "markdown")
        assert "| — |" in md
        timed = render_report([self._record(syn_time=0.002, sem_time=0.006)], "markdown")
        assert "| 3.00 |" in timed

    def test_culprit_frequencies(self):
        records = [
            self._record(case_id="ax1"),
            self._record(case_id="ax5", culprits=(("ax2", CulpritType.TYPE2), ("ax9", CulpritType.TYPE1))),
        ]
        md = render_report(records, "markdown")
        assert "1 (1×)" in md and "2 (1×)" in md

    def test_csv_shape_and_determinism(self, mixed):
        cfg = SamplingConfig(sample_count=50, rng_seed=9)
        records = run_comparison(mixed, "t1b", cfg)
        first = render_report(records, "csv")
        second = render_report(run_comparison(mixed, "t1b", cfg), "csv")
        assert first == second
        header, *rows = first.strip().split("\n")
        assert header == harness.CSV_HEADER
        for row in rows:
            assert row.count(",") == harness.CSV_HEADER.count(",")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report([], "xml")


class TestSyntheticOntology:
    def test_deterministic_and_sized(self):
        a = synthetic_ontology(500, seed=1)
        b = synthetic_ontology(500, seed=1)
        assert a == b
        assert len(a) == 500
