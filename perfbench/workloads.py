"""The benchmark's workloads: what each one generates from its seed and
which operations a session runs on it.

Every workload runs the same kinds of operation, in different regimes:
per-seed extraction (SYN_BOT, SEM_BOT and syntactic star, each followed by
serialization of the module) and a compare over its ontologies, plus
genuine modules on `taxo-extract`. `order` says which comes first; the
verdict cache of a session is cold for whatever runs first.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import gen

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_NAMES = ("koala", "inverse_loop", "taxonomy", "mixed")

NAMES = ("taxo-extract", "count-compare", "synth10k-extract")

# Step limit that decides every verdict; the wall-clock limit never fires,
# so no verdict depends on machine load.
MAX_STEPS = 200_000
MAX_SECONDS = 1e9


@dataclass(frozen=True)
class Inputs:
    target: str  # ontology text the seeds and genuine modules refer to
    seeds: tuple[str, ...]  # seed-signature texts against `target`
    compared: tuple[str, ...]  # ontology texts for the compare, in order
    modes: tuple[str, ...]  # compare modes run on each compared ontology
    sampling: dict  # SamplingConfig arguments
    order: tuple[str, ...]  # steps in run order: "extract", "genuine", "compare"


def _density(concepts, roles, terms):
    """Inclusion probability that gives seeds of about `terms` names."""
    return min(0.5, terms / (len(concepts) + len(roles)))


def make(workload: str, seed: int, tiny: bool = False) -> Inputs:
    """Generate the inputs of `workload` from `seed`; `tiny` shrinks every
    size for smoke tests."""
    if workload == "taxo-extract":
        size = {"subtrees": 3, "nodes": 10} if tiny else {}
        text, cs, rs = gen.taxonomy(seed, **size)
        return Inputs(
            target=text,
            seeds=tuple(gen.small_seeds(seed, cs, rs, 4 if tiny else 40)),
            compared=(text,),
            modes=("t1a",),
            sampling={
                "sample_count": 2 if tiny else 100,
                "inclusion_probability": _density(cs, rs, 4),
                "rng_seed": seed,
            },
            order=("extract", "genuine", "compare"),
        )
    if workload == "count-compare":
        text, cs, rs = gen.counting(seed, blocks=1 if tiny else 8)
        fixtures = tuple(
            (FIXTURES / f"{n}.ofs").read_text(encoding="utf-8") for n in FIXTURE_NAMES
        )
        return Inputs(
            target=text,
            seeds=tuple(gen.dense_seeds(seed, cs, rs, 2 if tiny else 20)),
            compared=fixtures + (text,),
            modes=("t1a", "t1b", "t2"),
            sampling={
                "sample_count": 4 if tiny else 40,
                "inclusion_probability": gen.DENSE_INCLUSION,
                "rng_seed": seed,
            },
            order=("compare", "extract"),
        )
    if workload == "synth10k-extract":
        text, cs, rs = gen.synthetic(300 if tiny else 10_000)
        terms = 10 if tiny else 50
        return Inputs(
            target=text,
            seeds=tuple(gen.wide_seeds(seed, cs, rs, 1, terms=terms)),
            compared=(text,),
            modes=("t1a",),
            sampling={
                "sample_count": 1,
                "inclusion_probability": _density(cs, rs, terms),
                "rng_seed": seed,
            },
            order=("extract", "compare"),
        )
    raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")
