import pytest

from locmod import (
    And,
    AtLeast,
    AtMost,
    ConceptName,
    EquivalentClasses,
    EquivalentRoles,
    Exists,
    Inverse,
    InverseRoles,
    OneOf,
    Ontology,
    ParseErrorKind,
    ParseFailure,
    RoleName,
    Signature,
    SubClassOf,
    TOP,
    parse_ontology,
    parse_signature,
    serialize_ontology,
    signature_of,
)
from locmod.parser import MAX_NESTING
from conftest import CORPUS_NAMES, fixture_path, load_fixture, nested_text


def wrap(*axiom_lines):
    return "Ontology(t\n" + "\n".join(f"  {l}" for l in axiom_lines) + "\n)\n"


class TestNestingLimit:
    def test_forms_nest_up_to_the_limit(self):
        o = parse_ontology(nested_text(MAX_NESTING))
        assert len(o) == 2
        assert parse_ontology(serialize_ontology(o)) == o

    def test_one_form_deeper_is_a_syntax_error_at_its_position(self):
        text = nested_text(MAX_NESTING + 1)
        with pytest.raises(ParseFailure) as err:
            parse_ontology(text)
        (error,) = err.value.errors
        assert error.kind is ParseErrorKind.SYNTAX
        assert (error.line, error.column) == (1, text.index("B") + 1)
        assert f"nested deeper than {MAX_NESTING}" in error.message


class TestParseOntology:
    def test_some_values_from(self):
        o = parse_ontology(wrap("SubClassOf(Duck ObjectSomeValuesFrom(eats Grass))"))
        assert o.axioms == (
            SubClassOf(
                ConceptName("Duck"), Exists(RoleName("eats"), ConceptName("Grass"))
            ),
        )

    def test_inverse_object_properties(self):
        o = parse_ontology(wrap("InverseObjectProperties(P ObjectInverseOf(P))"))
        assert o.axioms == (InverseRoles(RoleName("P"), Inverse(RoleName("P"))),)

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseFailure) as err:
            parse_ontology("SubClassOf(A")
        assert any(e.kind is ParseErrorKind.SYNTAX for e in err.value.errors)

    def test_derived_forms_are_normalized_at_parse_time(self):
        o = parse_ontology(wrap("ObjectPropertyDomain(eats Animal)"))
        assert o.axioms == (
            SubClassOf(Exists(RoleName("eats"), TOP), ConceptName("Animal")),
        )

    def test_exact_cardinality_desugars(self):
        o = parse_ontology(wrap("SubClassOf(A ObjectExactCardinality(3 c owl:Thing))"))
        rhs = o.axioms[0].sup
        assert rhs == And((AtLeast(3, RoleName("c"), TOP), AtMost(3, RoleName("c"), TOP)))

    def test_has_value_desugars(self):
        o = parse_ontology(wrap("SubClassOf(A ObjectHasValue(g m))"))
        assert o.axioms[0].sup == Exists(RoleName("g"), OneOf("m"))

    def test_nary_equivalence_becomes_a_chain(self):
        o = parse_ontology(wrap("EquivalentClasses(A B C)"))
        assert o.axioms == (
            EquivalentClasses(ConceptName("A"), ConceptName("B")),
            EquivalentClasses(ConceptName("B"), ConceptName("C")),
        )

    def test_nary_disjointness_becomes_pairs(self):
        o = parse_ontology(wrap("DisjointClasses(A B C)"))
        assert len(o.axioms) == 3  # normalized pairwise inclusions

    def test_nary_equivalent_properties(self):
        o = parse_ontology(wrap("EquivalentObjectProperties(p q r)"))
        assert o.axioms == (
            EquivalentRoles(RoleName("p"), RoleName("q")),
            EquivalentRoles(RoleName("q"), RoleName("r")),
        )

    def test_iri_reduction(self):
        o = parse_ontology(
            wrap("SubClassOf(<http://x.org/onto#Duck> ex:Bird)")
        )
        assert o.axioms == (SubClassOf(ConceptName("Duck"), ConceptName("Bird")),)

    def test_owl_thing_iris(self):
        o = parse_ontology(
            wrap("SubClassOf(A <http://www.w3.org/2002/07/owl#Thing>)")
        )
        assert o.axioms[0].sup == TOP

    def test_annotations_are_skipped(self):
        o = parse_ontology(
            wrap(
                'AnnotationAssertion(rdfs:label A "a label")',
                "Declaration(AnnotationProperty(rdfs:label))",
                "SubClassOf(A B)",
            )
        )
        assert len(o.axioms) == 1

    def test_prefix_declarations_are_ignored(self):
        text = "Prefix(:=<http://x.org/>)\n" + wrap("SubClassOf(A B)")
        assert len(parse_ontology(text).axioms) == 1

    def test_unsupported_constructs(self):
        with pytest.raises(ParseFailure) as err:
            parse_ontology(fixture_path("unsupported.ofs").read_text())
        kinds = {e.kind for e in err.value.errors}
        assert kinds == {ParseErrorKind.UNSUPPORTED_CONSTRUCT}
        constructs = {e.construct for e in err.value.errors}
        assert "ObjectPropertyChain" in constructs
        assert "DataPropertyAssertion" in constructs

    def test_multi_individual_oneof_is_unsupported(self):
        with pytest.raises(ParseFailure) as err:
            parse_ontology(wrap("SubClassOf(A ObjectOneOf(m n))"))
        assert err.value.errors[0].kind is ParseErrorKind.UNSUPPORTED_CONSTRUCT

    def test_negative_fixture_reports_position(self):
        with pytest.raises(ParseFailure) as err:
            parse_ontology(fixture_path("bad_syntax.ofs").read_text())
        assert err.value.errors[0].line == 2

    def test_kind_conflict(self):
        with pytest.raises(ParseFailure) as err:
            parse_ontology(wrap("SubClassOf(A B)", "TransitiveObjectProperty(A)"))
        assert err.value.errors[0].kind is ParseErrorKind.UNKNOWN_ENTITY

    def test_strict_mode_requires_declarations(self):
        text = wrap("SubClassOf(A B)")
        with pytest.raises(ParseFailure) as err:
            parse_ontology(text, strict=True)
        assert all(e.kind is ParseErrorKind.UNKNOWN_ENTITY for e in err.value.errors)
        declared = wrap(
            "Declaration(Class(A))", "Declaration(Class(B))", "SubClassOf(A B)"
        )
        assert len(parse_ontology(declared, strict=True).axioms) == 1

    def test_fixture_corpus_parses_cleanly(self):
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            assert len(o.axioms) > 0
            assert o.name


class TestRoundTrip:
    def test_every_fixture_round_trips(self):
        for name in CORPUS_NAMES:
            o = load_fixture(name)
            assert parse_ontology(serialize_ontology(o)) == o

    def test_empty_ontology(self):
        o = Ontology((), name="empty")
        text = serialize_ontology(o)
        assert text.startswith("Ontology(empty")
        assert parse_ontology(text) == o

    def test_trivial_axiom_serialization(self):
        o = Ontology((SubClassOf(ConceptName("A"), TOP),), name="t")
        assert "SubClassOf(A owl:Thing)" in serialize_ontology(o)

    def test_desugared_cardinality_round_trips(self):
        o = parse_ontology(wrap("SubClassOf(A ObjectExactCardinality(2 c B))"))
        text = serialize_ontology(o)
        assert "ObjectMinCardinality(2 c B)" in text
        assert "ObjectMaxCardinality(2 c B)" in text
        assert parse_ontology(text) == o


class TestParseSignature:
    def test_prefixed_entries(self, koala):
        sig = parse_signature("C:Student\nR:hasChildren\n", koala)
        assert sig == Signature({"Student"}, {"hasChildren"})

    def test_empty_text(self, koala):
        assert parse_signature("", koala) == Signature()

    def test_unknown_name(self, koala):
        with pytest.raises(ParseFailure) as err:
            parse_signature("NoSuchName\n", koala)
        assert err.value.errors[0].kind is ParseErrorKind.UNKNOWN_ENTITY
        assert err.value.errors[0].line == 1

    def test_unprefixed_names_resolve_against_the_ontology(self, koala):
        sig = parse_signature("# comment\nStudent\nhasGender\nmale\n", koala)
        assert sig == Signature({"Student"}, {"hasGender"}, {"male"})

    def test_declared_but_unused_names_resolve(self):
        o = parse_ontology(
            wrap("Declaration(Class(Lonely))", "SubClassOf(A B)")
        )
        assert "Lonely" not in signature_of(o).concept_names
        assert parse_signature("Lonely\n", o) == Signature({"Lonely"})

    def test_seed_file_fixture(self, koala):
        sig = parse_signature(fixture_path("koala_seed.sig").read_text(), koala)
        assert sig == Signature({"Student"}, {"hasChildren", "hasGender"})
