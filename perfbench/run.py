"""Benchmark entry point.

    python3 perfbench/run.py --workload taxo-extract --seed 1 --seconds 32 --trace 0

Run from the root of a checkout. Starts one session (`session.py`, a
fresh interpreter, so the verdict cache starts cold as it does for a
command-line user) after another until `--seconds` have passed, never
two at once, then prints each metric by name with its unit and sample
count, and as the last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
the run alternates untraced and traced sessions on the same inputs and
reports the per-layer metrics of the traced ones, plus the tracing
overhead (traced minus untraced session time). All timings are divided
by the machine's slowdown, measured by a reference loop (see session.py
and README.md).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SESSION_TIMEOUT_S = 170  # the whole run must end within 180 s

SPEC = ROOT / "BENCHMARK.json"  # metric names and units
FLAVORS = ("bot", "sem", "star")


def run_session(args, trace: bool, naive_checks: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "session.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", "1" if trace else "0",
    ]
    if args.tiny:
        cmd.append("--tiny")
    if naive_checks:
        cmd.append("--naive-checks")
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
    timeout = max(5.0, deadline - time.monotonic())
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=False
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"session exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(sessions) -> tuple[dict, dict]:
    """Metric values and, per metric, a note with its sample count.

    Timings come normalized by each session (see `session.slowdown`):
    the machine this was written on runs the same code up to 1.8x slower
    in phases of seconds to minutes, which no run length averages out.
    """
    values, notes = {}, {}
    n = len(sessions)
    for key in ("setup_s", "compare_s", "session_s", "peak_rss_mb"):
        values[key] = statistics.median(s[key] for s in sessions)
        notes[key] = f"median of {n} sessions"
    for key in ("setup_s", "session_s"):
        raw = statistics.median(s["raw"][key] for s in sessions)
        notes[key] += f"; unnormalized {raw:.6g} s"
    for flavor in FLAVORS:
        samples = [t for s in sessions for t in s["ops_ms"][flavor]]
        key = f"extract_{flavor}_p50_ms"
        values[key] = statistics.median(samples) if samples else None
        notes[key] = f"n={len(samples)} operations"
        # a p95 only where at least ten samples lie beyond it
        if len(samples) >= 200:
            notes[key] += f"; p95 {percentile(samples, 95):.6g} ms"
    return values, notes


def per_layer(traced, untraced) -> tuple[dict, dict]:
    n = len(traced)
    keys = traced[0]["layers"]
    values = {k: statistics.median(s["layers"][k] for s in traced) for k in keys}
    sizes = traced[0]["module_sizes"]
    values["extractor.module_frac"] = sum(sizes) / len(sizes) / traced[0]["axioms"]
    values["trace.overhead_s"] = statistics.median(
        s["session_s"] for s in traced
    ) - statistics.median(s["session_s"] for s in untraced)
    notes = {k: f"median of {n} traced sessions" for k in values}
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="locmod benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "locmod" / "__init__.py").is_file():
        print(f"no locmod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"no {SPEC.name} at {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + SESSION_TIMEOUT_S
    # compile the program's bytecode once, so no session pays for it
    subprocess.run([sys.executable, "-c", "import locmod"], cwd=ROOT / "src", check=False)
    untraced, traced = [], []
    try:
        while True:
            # the first session also checks every module against naive
            # extraction; all sessions must then produce the same outputs
            untraced.append(run_session(args, False, not untraced, deadline))
            if args.trace:
                traced.append(run_session(args, True, False, deadline))
            if time.monotonic() - started >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    sessions = untraced + traced
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    if len({s["outputs"] for s in sessions}) != 1:
        print("sessions produced different outputs", file=sys.stderr)
        attempted += 1
        failed += 1
    for s in traced:
        if s["silent"]:
            print(f"traced functions recorded no call: {s['silent']}", file=sys.stderr)
            attempted += 1
            failed += 1

    if not args.tiny and not untraced[0]["digest_pinned"]:
        print(f"note: no compare report digest is pinned for seed {args.seed}; "
              "the report is checked for byte-stability and across sessions only")

    if args.trace:
        values, notes = per_layer(traced, untraced)
    else:
        values, notes = end_to_end(sessions)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"metrics differ from {SPEC.name}: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 1
    sizes = [n for s in sessions for n in s["module_sizes"]]
    slow = statistics.median(s["raw"]["slowdown"] for s in sessions)
    print(
        f"{args.workload} seed {args.seed}: {len(sessions)} sessions in "
        f"{time.monotonic() - started:.1f} s, trace {args.trace}; ontology of "
        f"{sessions[0]['axioms']} axioms, modules of {min(sizes)}-{max(sizes)} axioms; "
        f"machine slowdown {slow:.3f} (timings below are divided by it)"
    )
    for key, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:36} {shown:>14} {units[key]:12} ({notes[key]})")
    print(f"  {'failed_frac':36} {failed / attempted:>14.6g} {'ratio':12} "
          f"({failed} of {attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
