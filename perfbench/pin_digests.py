"""Write digests.json: the compare report digest of each workload for
seeds 0 to 99, which every full-size session then checks. A run on
another seed says that its report digest is not pinned.

    python3 perfbench/pin_digests.py

Re-pin only when the benchmark's inputs change, never to make a program
change pass: reports must stay byte-identical.
"""

from __future__ import annotations

import json

import session  # also puts the checkout's src/ on sys.path
import workloads
from locmod import parse_ontology
from locmod.tableau import Budget

SEEDS = range(100)


def main():
    budget = Budget(workloads.MAX_STEPS, workloads.MAX_SECONDS)
    pinned = {}
    for name in workloads.NAMES:
        pinned[name] = {}
        for seed in SEEDS:
            inputs = workloads.make(name, seed)
            ontologies = [parse_ontology(text) for text in inputs.compared]
            _, csv, md = session.compare(ontologies, inputs, budget)
            pinned[name][str(seed)] = session.report_digest(csv, md)
            print(name, seed, pinned[name][str(seed)], flush=True)
    session.DIGESTS.write_text(json.dumps(pinned, indent=2) + "\n")


if __name__ == "__main__":
    main()
