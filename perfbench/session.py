"""One benchmark session, in a fresh interpreter.

Generates the workload's inputs from the seed (untimed), then times the
set-up (importing locmod from the checkout's `src/` and parsing every
input), then runs the workload's operations in order, each timed and
divided by the machine's slowdown at the time, and checks their outputs
after all timed work. Prints one JSON object on the last line of standard
output. `run.py` starts one session at a time and aggregates them; run
this file directly only to debug a session:

    python3 perfbench/session.py --workload taxo-extract --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))  # the program under test, from source

import workloads  # noqa: E402  (perfbench/ is on sys.path as the script's directory)

DIGESTS = HERE / "digests.json"
FLAVORS = ("bot", "sem", "star")

# Time of `reference_loop` on a quiet machine (2-vCPU Xeon VM, CPython 3.11).
REF_NOMINAL_S = 0.00075


def reference_loop():
    """Fixed pure-Python work of the kind locmod does (tuples, strings,
    dict and frozenset building). Its time tracks how fast the machine runs
    Python at the moment; it never touches locmod."""
    d = {}
    for i in range(1500):
        d[(i, str(i), i * 2)] = frozenset((i, i + 1, i % 7))
    return sum(len(v) for v in d.values())


def slowdown() -> float:
    """The machine's current slowdown: median time of three reference
    loops over `REF_NOMINAL_S`. The garbage collector is off meanwhile, so
    the size of the program's heap does not leak into the measurement."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times) / REF_NOMINAL_S


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def compare(ontologies, inputs, budget):
    """The compare step, as `locmod compare` runs it: every mode on every
    ontology, then both renders. Returns `(records, csv, markdown)`."""
    from locmod import harness as H

    cfg = H.SamplingConfig(**inputs.sampling)
    records = []
    for onto in ontologies:
        for mode in inputs.modes:
            records += H.run_comparison(onto, mode, cfg, budget=budget, jobs=1)
    return records, H.render_report(records, "csv"), H.render_report(records, "markdown")


def report_digest(csv, md):
    return hashlib.sha256((csv + md).encode()).hexdigest()


class Session:
    """Runs timed operations, keeps their outputs for the checks, and
    counts attempted and failed operations."""

    def __init__(self, tracer, slowdown_now):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = {}
        self.raw_s = 0.0
        self.slowdowns = [slowdown_now]
        self.pending: list[tuple] = []
        self.outputs = hashlib.sha256()

    def op(self, name, run, check):
        """Time `run()`; keep `check` to call on its result in `verify`.
        An exception counts as a failed operation; the session goes on.

        The time is kept raw and divided by the machine's slowdown, the
        mean of the measurements just before and just after the operation.
        """
        self.attempted += 1
        token = self.tracer.begin_op(name) if self.tracer else None
        try:
            start = time.perf_counter()
            result = run()
            elapsed = time.perf_counter() - start
        except Exception:
            self._fail(name)
            return None
        finally:
            if token:
                self.tracer.end_op(token)
            self.slowdowns.append(slowdown())
        factor = (self.slowdowns[-2] + self.slowdowns[-1]) / 2
        self.raw_s += elapsed
        self.times.setdefault(name, []).append(elapsed / factor)
        self.pending.append((name, check, result))
        return result

    def verify(self, full: bool):
        """Run every kept check, after all timed work so no check warms a
        cache a later operation reads. `full` adds the comparisons with
        naive extraction, the expensive part."""
        for name, check, result in self.pending:
            try:
                check(result, full)
            except Exception:
                self._fail(name)
        self.pending.clear()

    def _fail(self, name):
        self.failed += 1
        print(f"operation {name} failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument(
        "--naive-checks",
        action="store_true",
        help="also compare every module with the naive extraction",
    )
    ap.add_argument("--spans", help="write the traced spans here (JSON lines)")
    args = ap.parse_args(argv)

    inputs = workloads.make(args.workload, args.seed, args.tiny)

    reference_loop()  # the first loops of a fresh interpreter run slow
    reference_loop()
    before = slowdown()
    started = time.perf_counter()
    from locmod import extractor as X
    from locmod import harness as H
    from locmod import model as M
    from locmod import parser as P
    from locmod.tableau import Budget

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    target = P.parse_ontology(inputs.target)
    compared = [
        target if text == inputs.target else P.parse_ontology(text)
        for text in inputs.compared
    ]
    seeds = [P.parse_signature(text, target) for text in inputs.seeds]
    setup_raw_s = time.perf_counter() - started
    after = slowdown()
    setup_s = setup_raw_s / ((before + after) / 2)

    budget = Budget(workloads.MAX_STEPS, workloads.MAX_SECONDS)
    session = Session(tracer, after)
    module_sizes: list[int] = []

    def extract(sig, flavor, naive=False):
        if flavor == "star":
            return X.extract_star(target, sig, budget=budget, naive=naive)
        loc = M.LocalityFlavor.SYN_BOT if flavor == "bot" else M.LocalityFlavor.SEM_BOT
        return X.extract_module(target, sig, loc, budget=budget, naive=naive)

    def run_extractions():
        for sig in seeds:
            kept = {}
            for flavor in FLAVORS:

                def run(flavor=flavor, sig=sig):
                    result = extract(sig, flavor)
                    return result, P.serialize_ontology(result.module)

                def check(out, full, flavor=flavor, sig=sig, kept=kept):
                    result, text = out
                    session.outputs.update(text.encode())
                    module = set(result.module.axioms)
                    if flavor != "bot" and "bot" in kept:
                        expect(module <= kept["bot"], f"{flavor} module exceeds SYN_BOT module")
                    kept[flavor] = module
                    if not full:
                        return
                    naive = extract(sig, flavor, naive=True)
                    expect(
                        result.module.axioms == naive.module.axioms,
                        f"{flavor} module differs from the naive extraction",
                    )
                    expect(
                        text == P.serialize_ontology(naive.module),
                        f"{flavor} module serializes differently from the naive one",
                    )

                out = session.op(flavor, run, check)
                if out:
                    module_sizes.append(len(out[0].module))

    def run_genuine():
        def run():
            found = X.genuine_modules(target, M.LocalityFlavor.SYN_BOT, budget=budget)
            return found, [P.serialize_ontology(r.module) for _, r in found]

        def check(out, full):
            found, texts = out
            for text in texts:
                session.outputs.update(text.encode())
            expect(found and len(texts) == len(found), "no genuine modules")
            keys = {frozenset(r.module.axioms) for _, r in found}
            expect(len(keys) == len(found), "genuine modules are not distinct")
            if not full:
                return
            for axiom, result in found[:: max(1, len(found) // 12)]:
                naive = X.extract_module(
                    target, M.signature_of(axiom), M.LocalityFlavor.SYN_BOT, naive=True
                )
                expect(
                    result.module.axioms == naive.module.axioms,
                    "genuine module differs from the naive extraction",
                )

        session.op("genuine", run, check)

    # the pinned report digest; none at tiny size or for a seed not in
    # digests.json, where the report is checked for stability only
    want = None
    if not args.tiny:
        want = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed))

    def run_compare():
        def run():
            return compare(compared, inputs, budget)

        def check(out, full):
            records, csv, md = out
            session.outputs.update((csv + md).encode())
            expect(
                csv == H.render_report(records, "csv")
                and md == H.render_report(records, "markdown"),
                "compare report is not byte-stable across renders",
            )
            if want is not None:
                expect(
                    want == report_digest(csv, md),
                    "compare report digest differs from the pinned one",
                )

        session.op("compare", run, check)

    steps = {"extract": run_extractions, "genuine": run_genuine, "compare": run_compare}
    for step in inputs.order:
        steps[step]()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    session.verify(args.naive_checks)

    out = {
        "setup_s": setup_s,
        "ops_ms": {f: [t * 1000 for t in session.times.get(f, [])] for f in FLAVORS},
        "compare_s": sum(session.times.get("compare", [])),
        "session_s": sum(sum(ts) for ts in session.times.values()),
        "raw": {
            "setup_s": setup_raw_s,
            "session_s": session.raw_s,
            "slowdown": statistics.median(session.slowdowns),
        },
        "peak_rss_mb": peak_rss_mb,
        "module_sizes": module_sizes,
        "axioms": len(target),
        "outputs": session.outputs.hexdigest(),
        "digest_pinned": want is not None,
        "attempted": session.attempted,
        "failed": session.failed,
    }
    if tracer:
        slow = out["raw"]["slowdown"]
        out["layers"] = {
            k: v / slow if k.endswith(("_s", "_ms")) else v
            for k, v in tracer.layer_metrics().items()
        }
        out["silent"] = tracer.silent()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
