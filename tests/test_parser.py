import hashlib
import random
import re
import time

import pytest

import locmod.parser as parser
from locmod import (
    SEM_STAR,
    SYN_STAR,
    And,
    AtLeast,
    AtMost,
    Budget,
    ConceptName,
    EquivalentClasses,
    EquivalentRoles,
    Exists,
    Inverse,
    InverseRoles,
    LocalityFlavor,
    OneOf,
    Ontology,
    ParseErrorKind,
    ParseFailure,
    RoleName,
    Signature,
    SubClassOf,
    SubRoleOf,
    TOP,
    Transitive,
    extract_module,
    extract_star,
    genuine_modules,
    parse_ontology,
    parse_signature,
    serialize_ontology,
    signature_of,
)
from locmod.model import EMPTY_ROLE, UNIVERSAL_ROLE
from locmod.parser import MAX_NESTING
from conftest import CORPUS_NAMES, fixture_path, load_fixture, nested_text
from genlib import random_axiom, synthetic_ontology


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

    @pytest.mark.parametrize(
        "n",
        ["1_000", "+2", "٣", "３", "9" * 5_000],
        ids=["separator", "sign", "arabic-indic", "fullwidth", "5000-digits"],
    )
    def test_cardinality_is_ascii_digits(self, n):
        # OWL's nonNegativeInteger: Python's `int` also reads separators,
        # signs and non-ASCII digits, and refuses 5,000 digits outright
        with pytest.raises(ParseFailure) as err:
            parse_ontology(wrap(f"SubClassOf(A ObjectMinCardinality({n} r B))"))
        (error,) = err.value.errors
        assert error.kind is ParseErrorKind.SYNTAX
        assert "cardinality must be a non-negative integer" in str(error)

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

    @pytest.mark.parametrize("text", ["C:Student\nR:Student\n", "Student\nR:Student\n"])
    def test_a_name_given_two_kinds_is_an_error_at_the_second(self, koala, text):
        with pytest.raises(ParseFailure) as err:
            parse_signature(text, koala)
        (error,) = err.value.errors
        assert (error.line, error.column) == (2, 1)
        assert error.kind is ParseErrorKind.UNKNOWN_ENTITY
        assert error.message == "'Student' used both as class and object property"

    @pytest.mark.parametrize("text", ["C:hasChildren\n", "R:Koala\nC:hasChildren\n"])
    def test_a_prefix_against_the_ontology_is_an_error_at_its_line(self, koala, text):
        with pytest.raises(ParseFailure) as err:
            parse_signature(text, koala)
        error = err.value.errors[-1]
        assert (error.line, error.column) == (text.count("\n"), 1)
        assert error.message == "'hasChildren' used both as object property and class"
        assert len(err.value.errors) == text.count("\n")

    def test_a_prefixed_name_the_ontology_does_not_use_is_legal(self, koala):
        assert parse_signature("C:Nope\nR:Nope2\n", koala) == Signature({"Nope"}, {"Nope2"})

    def test_seed_file_fixture(self, koala):
        sig = parse_signature(fixture_path("koala_seed.sig").read_text(), koala)
        assert sig == Signature({"Student"}, {"hasChildren", "hasGender"})


def parse_outcome(text: str, strict: bool = False) -> str:
    """The serialized ontology, or one `line:column:message:kind:construct`
    line per error."""
    try:
        return serialize_ontology(parse_ontology(text, strict=strict))
    except ParseFailure as exc:
        return "".join(
            f"{e.line}:{e.column}:{e.message}:{e.kind.name}:{e.construct}\n"
            for e in exc.errors
        )


# where a mutation lands: a bracket, quote, comment mark, line break or
# the start of a keyword
_ANCHOR = re.compile(r'[()<"#\n]|\b[A-Z]\w*')
_PIECES = (
    "(", ")", "<", '"', "#", "\n", " ", ")\n)", "Ontology(", "Prefix(:=<http://x.org/>)",
    "SubClassOf", "Declaration(Class(Z))", "ObjectPropertyChain(p q)",
    'Annotation(rdfs:label "x")', "DataPropertyAssertion(p x 3)", "owl:Nothing",
    "<http://x.org/o#Q>", '"a \\" b"', "ObjectMinCardinality(-1 p)",
    "ObjectOneOf(a b)", "TransitiveObjectProperty(A)",
)


def mutated(text: str, rng: random.Random) -> str:
    """`text` after one to three insertions, deletions or truncations
    around its anchors."""
    for _ in range(rng.randint(1, 3)):
        anchors = [0, len(text)] + [m.start() for m in _ANCHOR.finditer(text)]
        at = max(0, min(rng.choice(anchors) + rng.randrange(-1, 2), len(text)))
        op = rng.random()
        if op < 0.5:
            text = text[:at] + rng.choice(_PIECES) + text[at:]
        elif op < 0.85:
            text = text[:at] + text[at + rng.randint(1, 12):]
        else:
            text = text[:at]
    return text


def outcome_corpus() -> list[str]:
    """The fixtures, serialized generated ontologies and 2,400 seeded
    mutations of the fixtures."""
    fixtures = [fixture_path(n).read_text() for n in CORPUS_NAMES]
    texts = list(fixtures)
    texts.append(serialize_ontology(synthetic_ontology(600, seed=3)))
    for seed in range(20):
        rng = random.Random(seed)
        axioms = tuple(dict.fromkeys(random_axiom(rng) for _ in range(25)))
        texts.append(serialize_ontology(Ontology(axioms, name=f"random-{seed}")))
    rng = random.Random(15)
    for text in fixtures:
        texts.extend(mutated(text, rng) for _ in range(600))
    return texts


class TestReaderErrors:
    @pytest.mark.parametrize(
        "text, position, message",
        [
            ("Ontology(t\n  SubClassOf(A <http://x.org/B)\n)\n", (2, 16), "unterminated IRI"),
            ('Ontology(t\n  AnnotationAssertion(l A "a)\n)\n', (2, 27), "unterminated string"),
            ("", (1, 1), "unexpected end of input"),
            ("Prefix(:=<http://x.org/>)\n", (1, 25), "unexpected end of input"),
            ("Prefix(a)\n  )\n", (2, 3), "unexpected ')'"),
            ("Ontology(t\n  SubClassOf((A B)))\n", (2, 14), "'(' must follow a keyword"),
            (
                "Ontology(t\n  SubClassOf(A B)\n",
                (2, 17),
                "unbalanced parenthesis in Ontology(...)",
            ),
            ("Ontology(t)\n\n  extra\n", (3, 3), "content after the Ontology block"),
        ],
    )
    def test_position(self, text, position, message):
        with pytest.raises(ParseFailure) as err:
            parse_ontology(text)
        (error,) = err.value.errors
        assert (error.line, error.column, error.message) == (*position, message)
        assert error.kind is ParseErrorKind.SYNTAX

    def test_twenty_thousand_errors_in_linear_time(self):
        lines = "".join(f"  DataPropertyAssertion(p{i} x 3)\n" for i in range(20_000))
        start = time.monotonic()
        with pytest.raises(ParseFailure) as err:
            parse_ontology(f"Ontology(t\n{lines})\n")
        # the character-stepping tokenizer this reader replaced took about
        # 1.0 s here (2-vCPU VM, Python 3.11)
        assert time.monotonic() - start < 1.0
        assert [(e.line, e.column) for e in err.value.errors] == [
            (line, 3) for line in range(2, 20_002)
        ]
        assert {e.construct for e in err.value.errors} == {"DataPropertyAssertion"}


class TestFormErrors:
    # one malformed form per keyword the reader builds a term from; the
    # pinned corpus reaches only some of these messages
    @pytest.mark.parametrize(
        "form, column, message",
        [
            ("SubClassOf(A)", 3, "SubClassOf takes two class expressions"),
            ("EquivalentClasses(A)", 3, "EquivalentClasses takes at least two class expressions"),
            ("DisjointClasses(A)", 3, "DisjointClasses takes at least two class expressions"),
            ("SubObjectPropertyOf(p)", 3, "SubObjectPropertyOf takes two property expressions"),
            (
                "EquivalentObjectProperties(p)",
                3,
                "EquivalentObjectProperties takes at least two properties",
            ),
            (
                "InverseObjectProperties(p)",
                3,
                "InverseObjectProperties takes two property expressions",
            ),
            (
                "TransitiveObjectProperty(p q)",
                3,
                "TransitiveObjectProperty takes one property expression",
            ),
            ("ObjectPropertyDomain(p)", 3, "ObjectPropertyDomain takes a property and a class"),
            ("ObjectPropertyRange(p)", 3, "ObjectPropertyRange takes a property and a class"),
            (
                "SubClassOf(A ObjectIntersectionOf(B))",
                16,
                "ObjectIntersectionOf takes at least two classes",
            ),
            ("SubClassOf(A ObjectUnionOf(B))", 16, "ObjectUnionOf takes at least two classes"),
            ("SubClassOf(A ObjectComplementOf(B C))", 16, "ObjectComplementOf takes one class"),
            (
                "SubClassOf(A ObjectSomeValuesFrom(p))",
                16,
                "ObjectSomeValuesFrom takes a property and a class",
            ),
            (
                "SubClassOf(A ObjectAllValuesFrom(p))",
                16,
                "ObjectAllValuesFrom takes a property and a class",
            ),
            (
                "TransitiveObjectProperty(ObjectInverseOf(p q))",
                28,
                "ObjectInverseOf takes one property expression",
            ),
            (
                "SubClassOf(A ObjectHasValue(p))",
                16,
                "ObjectHasValue takes a property and an individual",
            ),
            ("SubClassOf(A ObjectMinCardinality(1))", 16, "malformed ObjectMinCardinality"),
            ("Declaration(Class(A B))", 3, "malformed Declaration"),
        ],
    )
    def test_message_and_position(self, form, column, message):
        with pytest.raises(ParseFailure) as err:
            parse_ontology(wrap(form))
        (error,) = err.value.errors
        assert (error.line, error.column, error.message) == (2, column, message)
        assert (error.kind, error.construct) == (ParseErrorKind.SYNTAX, None)


class TestWriterErrors:
    @pytest.mark.parametrize(
        "axiom",
        [
            SubClassOf(Exists(UNIVERSAL_ROLE, TOP), ConceptName("A")),
            SubRoleOf(EMPTY_ROLE, RoleName("p")),
            Transitive(UNIVERSAL_ROLE),
        ],
    )
    def test_substitution_constants_have_no_surface_syntax(self, axiom):
        with pytest.raises(ValueError, match="^substitution constants have no surface syntax$"):
            serialize_ontology(Ontology((axiom,), name="t"))

    def test_a_non_term_is_a_type_error(self):
        with pytest.raises(TypeError):
            serialize_ontology(Ontology((SubClassOf(ConceptName("A"), "B"),), name="t"))


def untabled(m: Ontology) -> str:
    """`m` written through a fresh ontology of the same axioms, whose text
    table starts empty and belongs to it alone."""
    return serialize_ontology(Ontology(m.axioms, name=m.name))


def every_module(o: Ontology) -> list[Ontology]:
    """The modules of `o` from `extract_module` of every flavor, from
    `extract_star` of both pairs, each seeded with every axiom's
    signature, and from `genuine_modules` of every flavor."""
    budget = Budget(max_steps=2_000, max_seconds=1e9)
    modules = []
    for sig in o.axiom_signatures:
        for flavor in LocalityFlavor:
            modules.append(extract_module(o, sig, flavor, budget=budget).module)
        for pair in (SYN_STAR, SEM_STAR):
            modules.append(extract_star(o, sig, pair, budget=budget).module)
    for flavor in LocalityFlavor:
        modules.extend(r.module for _, r in genuine_modules(o, flavor, budget=budget))
    return modules


@pytest.fixture
def renders(monkeypatch):
    """Counts the axioms written: each axiom writer of `parser._WRITERS`
    is wrapped, and axioms do not nest, so a call is one top-level
    render."""
    count = [0]

    def counted(write):
        def wrapper(a):
            count[0] += 1
            return write(a)

        return wrapper

    for t in (SubClassOf, EquivalentClasses, SubRoleOf, EquivalentRoles, InverseRoles, Transitive):
        monkeypatch.setitem(parser._WRITERS, t, counted(parser._WRITERS[t]))
    return count


class TestTextTable:
    # modules write their axioms' lines into the text table of the source
    # they were restricted from; no byte may depend on it

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_every_module_writes_as_a_fresh_ontology(self, name):
        o = load_fixture(name)
        for m in every_module(o):
            assert serialize_ontology(m) == untabled(m)
        assert serialize_ontology(o) == serialize_ontology(load_fixture(name))

    def test_a_restrict_of_a_restrict(self):
        o = load_fixture("koala.ofs")
        m = o.restrict(range(1, len(o), 2))
        mm = m.restrict((0, 2, 3))
        assert mm.origin == (1, 5, 7)
        assert mm.axioms == tuple(o.axioms[i] for i in mm.origin)
        assert mm.texts is o.texts
        assert serialize_ontology(mm) == untabled(mm)
        assert serialize_ontology(m) == untabled(m)

    def test_module_before_source_and_source_before_module(self):
        for module_first in (True, False):
            o = load_fixture("mixed.ofs")
            m = o.restrict((0, 3, 4, len(o) - 1))
            if module_first:
                assert serialize_ontology(m) == untabled(m)
            assert serialize_ontology(o) == serialize_ontology(load_fixture("mixed.ofs"))
            assert serialize_ontology(m) == untabled(m)

    def test_a_writer_error_part_way_leaves_the_table_sound(self):
        a, b = ConceptName("A"), ConceptName("B")
        p = RoleName("p")
        axioms = (
            SubClassOf(a, b),
            SubClassOf(b, Exists(p, a)),
            SubClassOf(Exists(UNIVERSAL_ROLE, TOP), a),
            SubRoleOf(p, RoleName("q")),
            Transitive(p),
        )
        o = Ontology(axioms, name="t")
        with pytest.raises(ValueError, match="^substitution constants have no surface syntax$"):
            serialize_ontology(o.restrict((0, 1, 2, 3)))
        for positions in ((0, 1, 3, 4), (1, 4), (3,)):
            m = o.restrict(positions)
            assert serialize_ontology(m) == untabled(m)

    def test_a_second_serialization_renders_nothing(self, renders):
        for name in CORPUS_NAMES:
            modules = every_module(load_fixture(name))
            for m in modules:
                serialize_ontology(m)
            renders[0] = 0
            for m in modules:
                serialize_ontology(m)
            assert renders[0] == 0

    def test_only_the_written_axioms_are_rendered(self, renders):
        o = synthetic_ontology(2000)
        serialize_ontology(o.restrict((7, 700, 1999)))
        assert renders[0] == 3

    def test_genuine_modules_render_each_axiom_at_most_once(self, renders):
        o = load_fixture("taxonomy.ofs")
        for _, result in genuine_modules(o, LocalityFlavor.SYN_BOT):
            serialize_ontology(result.module)
        assert 0 < renders[0] <= len(o)


class TestPinnedOutcomes:
    def test_outcomes_equal_the_pinned_ones(self):
        # pinned from the character-stepping tokenizer and recursive reader
        # that the regular-expression tokenizer and stack reader replaced
        outcomes = [
            parse_outcome(text, strict) for text in outcome_corpus() for strict in (False, True)
        ]
        digest = hashlib.sha256("\0".join(outcomes).encode()).hexdigest()
        assert digest == (
            "99afd3f00a8eb02a03a2b71fd19b680510e81c48bbfc1ebb3d6ea873f5898d7c"
        )

    def test_the_corpus_reaches_every_reader_error(self):
        messages = set()
        for text in outcome_corpus():
            try:
                parse_ontology(text)
            except ParseFailure as exc:
                messages.update(e.message for e in exc.errors)
        for expected in (
            "unterminated IRI",
            "unterminated string",
            "unexpected end of input",
            "unexpected ')'",
            "'(' must follow a keyword",
            "content after the Ontology block",
            "expected an Ontology(...) block",
        ):
            assert expected in messages
        assert any(m.startswith("unbalanced parenthesis in ") for m in messages)
