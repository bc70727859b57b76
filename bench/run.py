"""Benchmark of the emduality command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  The workload's inputs are generated from
the seed into a scratch directory under ``.bench_out/``, then the process
calls ``emduality.cli.run`` in-process on the workload's fixed command list,
one round after another, while the next round should end within S seconds
(at least one round).
Every report is checked (see ``workloads.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (operations are CLI reports) and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  A human-readable summary goes to stderr.

With ``--trace 1`` the process spends the first half of S on untraced rounds
(at least one), then installs spans around each module's entry points
(``spans.py``) and runs traced rounds; per-layer metrics are per-round
medians, and ``trace.overhead_s`` is the median traced round's wall time
minus the median untraced one's.  The aggregated spans
are written to ``.bench_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import workloads
from report import ReportFormatError, parse

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds() -> float:
    """Fresh interpreter to ``import emduality.cli`` done.  CLOCK_MONOTONIC
    is system-wide, so the child's clock reading after the import is
    comparable with the parent's reading before the spawn."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            "import emduality.cli; print(time.monotonic())")
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True)
    return float(out.stdout.split()[-1]) - start


class Round:
    """One pass over the workload's command list."""

    def __init__(self, cli, workload):
        outputs = []
        self.ops = {}
        t0, c0 = time.perf_counter(), time.process_time()
        for op in workload.ops:
            t = time.perf_counter()
            try:
                code, text = cli.run(op.argv)
            except Exception:  # a traceback is a failed operation, not a stop
                code, text = None, traceback.format_exc()
            self.ops[op.key] = time.perf_counter() - t
            outputs.append((op, code, text))
        self.wall = time.perf_counter() - t0
        self.cpu = time.process_time() - c0

        reports, self.failed, self.problems = {}, [], []
        for op, code, text in outputs:
            try:
                rep = parse(text) if code == 0 else None
            except ReportFormatError as err:
                self.problems.append(f"{op.key}: {err}")
                continue
            if rep is not None and rep.passed:
                reports[op.key] = rep
            else:
                self.failed.append(op.key)
        self.problems += workload.problems(reports)


def per_layer(name: str, rounds: list[dict], overhead: float):
    """Median over traced rounds of one per-layer metric."""
    if name == "trace.overhead_s":
        return overhead
    if name == "cli.reports":
        span, field = "cli", "calls"
    elif name == "grids.nodes":
        span, field = name, "counters"
    else:
        span, _, field = name.rpartition(".")
    if field not in ("calls", "self_s", "counters") or not span:
        raise KeyError(f"no per-layer source for metric {name!r}")
    values = [r[field].get(span, 0) for r in rounds]
    # a count stays a whole number: every round does the same work
    return statistics.median(values) if field == "self_s" else statistics.median_low(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "emduality" / "cli.py").is_file():
        print(f"bench: no emduality sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from emduality import cli

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"{args.workload}-") as tmp:
        workload = workloads.build(args.workload, args.seed, tmp)
        setup = [setup_seconds() for _ in range(SETUP_PROBES)]

        start = time.perf_counter()
        rounds, snapshots, untraced = [], [], []

        def another_round(done: list, limit: float) -> bool:
            """At least one round; then another only if it should end by limit."""
            if not done:
                return True
            return time.perf_counter() - start + done[-1].wall <= limit

        if args.trace:
            # the first half untraced, as the baseline of the overhead
            while another_round(untraced, args.seconds / 2):
                untraced.append(Round(cli, workload))
            tracer = spans.Tracer()
            with spans.installed(tracer, spans.targets()):
                while another_round(rounds, args.seconds):
                    before = tracer.snapshot()
                    rounds.append(Round(cli, workload))
                    snapshots.append(spans.delta(tracer.snapshot(), before))
            tracer.dump(str(out_dir / f"trace-{args.workload}-{args.seed}.json"),
                        {"workload": args.workload, "seed": args.seed,
                         "traced_rounds": len(rounds)})
        else:
            while another_round(rounds, args.seconds):
                rounds.append(Round(cli, workload))

    done = rounds + untraced
    attempted = len(done) * len(workload.ops)
    failed = sum(len(r.failed) for r in done)
    problems = [p for r in done for p in r.problems]
    wall = statistics.median(r.wall for r in rounds)

    if args.trace:
        overhead = wall - statistics.median(r.wall for r in untraced)
        metrics = {m["name"]: {"value": per_layer(m["name"], snapshots, overhead),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = {"wall_s": wall,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    per_op = {op.key: statistics.median(r.ops[op.key] for r in rounds) for op in workload.ops}
    print(f"bench: {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} round(s), wall_s {wall:.4f} (rounds "
          f"{', '.join(f'{r.wall:.3f}' for r in rounds)}), cpu_s "
          f"{statistics.median(r.cpu for r in rounds):.4f}, setup_s "
          f"{', '.join(f'{s:.3f}' for s in setup)}"
          + (f", untraced rounds {', '.join(f'{r.wall:.3f}' for r in untraced)}"
             if untraced else ""), file=sys.stderr)
    for key, seconds in per_op.items():
        print(f"bench:   {seconds:9.4f} s  {key}", file=sys.stderr)
    for key in sorted({k for r in done for k in r.failed}):
        print(f"bench: failed: {key}", file=sys.stderr)
    for problem in problems:
        print(f"bench: incorrect: {problem}", file=sys.stderr)

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
