"""Locality-based module extraction for description-logic ontologies.

The package decides syntactic (grammar-based) and semantic (reasoner-based)
locality of axioms, extracts locality-based modules with the usual fixpoint
algorithm, and runs a statistical comparison experiment between the two
locality families over user-supplied ontologies.
"""

from .extractor import (
    SEM_STAR,
    SYN_STAR,
    ModuleResult,
    extract_module,
    extract_nested,
    extract_star,
    genuine_modules,
)
from .harness import (
    CulpritType,
    DifferenceRecord,
    InvariantViolation,
    SamplingConfig,
    classify_culprit,
    render_report,
    run_comparison,
    sample_signatures,
)
from .model import (
    BOTTOM,
    EMPTY_ROLE,
    EMPTY_SIGNATURE,
    TOP,
    UNIVERSAL_ROLE,
    And,
    AtLeast,
    AtMost,
    Axiom,
    Concept,
    ConceptName,
    DisjointClasses,
    Domain,
    EquivalentClasses,
    EquivalentRoles,
    Exists,
    ForAll,
    Inverse,
    InverseRoles,
    LocalityFlavor,
    Not,
    OneOf,
    Ontology,
    Or,
    Range,
    Role,
    RoleName,
    Signature,
    SubClassOf,
    SubRoleOf,
    Transitive,
    complement,
    conj,
    disj,
    exactly,
    nnf,
    signature_of,
)
from .oracle import (
    Interpretation,
    eval_concept,
    eval_role,
    find_countermodel,
    holds,
)
from .parser import (
    ParseError,
    ParseErrorKind,
    ParseFailure,
    parse_ontology,
    parse_signature,
    serialize_ontology,
)
from .semantic import (
    Locality,
    Verdict,
    is_semantically_local,
    is_tautology,
    simplify,
    substitute,
)
from .syntactic import is_syntactically_local
from .tableau import Budget, SatResult, SatStatus, is_satisfiable

__version__ = "0.1.0"
