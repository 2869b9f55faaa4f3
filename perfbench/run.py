"""termrw benchmark: one seeded workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
One client sends requests back-to-back on one worker thread whose stack
the harness sets up once.  The last line of stdout is a JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it repeat
the metrics with units and sample counts.  BENCHMARK.json names the
metrics and their units; the workloads are described in perfbench/README.md.

--trace 0 gives the end-to-end metrics from a fixed amount of work: one
warm-up cycle of the workload, then a fixed number of measured cycles,
--seconds over the workload's nominal cycle time (workloads.CYCLE_SECONDS),
so a run takes about S seconds on the host the benchmark was defined on
and does the same work on any host.  Request latency is each request's
fastest repetition over the measured cycles, or its pool's (trees of one
depth): the host's speed drifts in phases of seconds, and the fastest
repetition is the one least disturbed by it.  setup_s comes from child
processes started between cycles.

--trace 1 gives the per-layer metrics from a fixed amount of work, so that
counts repeat exactly: setup SETUP_REPEATS times under the tracer, then
the seeded cycle three times, untraced, untraced, traced.  --seconds does
not apply.  Per-layer times are totals over the traced cycle; the tracing
overhead is the traced cycle's time over the second untraced cycle's.

Every answer is checked.  A request fails when its answer is wrong, it
raises, or it hits the step limit; the result's `failed` counts them over
all measured requests, so `attempted` and `failed` repeat exactly.
`correct` is false when a request other than a known ROADMAP defect fails,
or when the program's counters differ between two cycles of one seed.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import engines

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_CYCLES = 3
STACK_BYTES = 256 << 20
RECURSION_LIMIT = 200_000


@dataclass
class Record:
    req: object
    seconds: float
    rewrite_s: float
    ok: bool
    counters: dict
    nodes: int = 0
    spans: dict = None


class Cycles:
    """Runs whole cycles of one workload and checks every answer."""

    def __init__(self, workload):
        self.wl = workload
        self.reference = None
        self.unexpected = []  # (kind, reason) of failures that are not known defects
        self.nondeterministic = []  # request kinds whose counters changed between cycles
        self._reported = set()

    def run(self, tracer=None, count_nodes=False):
        """One whole cycle."""
        from termrw import terms

        wl = self.wl
        wl.start_cycle()
        out = []
        for req in wl.requests:
            before = tracer.snapshot() if tracer else None
            t0 = time.perf_counter()
            try:
                answer = wl.run(req)
            except Exception as exc:
                out.append(Record(req, time.perf_counter() - t0, 0.0, False, None))
                self._fail(req, f"raised {type(exc).__name__}: {exc}", traceback.format_exc())
                continue
            seconds = time.perf_counter() - t0
            spans = _delta(before, tracer.snapshot()) if tracer else None
            ok = wl.check(req, answer)
            if answer.counters.get("step_limit_hit"):
                ok = False
                self._fail(req, "hit the step limit")
            elif not ok:
                self._fail(req, "wrong answer")
            nodes = terms.node_count(answer.term) if count_nodes else 0
            out.append(Record(req, seconds, answer.rewrite_s, ok, answer.counters, nodes, spans))
        if self.reference is None:
            self.reference = out
        else:
            for a, b in zip(self.reference, out):
                if a.counters != b.counters and a.req.kind not in self.nondeterministic:
                    self.nondeterministic.append(a.req.kind)
        return out

    def _fail(self, req, reason, detail=""):
        if not req.known_defect:
            self.unexpected.append((req.kind, reason))
        if (req.kind, reason) not in self._reported:
            self._reported.add((req.kind, reason))
            note = "known defect" if req.known_defect else "UNEXPECTED"
            print(f"# {note}: {req.kind} request {reason}", file=sys.stderr)
            if detail:
                print(detail, file=sys.stderr)

    @property
    def correct(self):
        return not self.unexpected and not self.nondeterministic

    def digest(self):
        data = json.dumps([r.counters for r in self.reference], sort_keys=True)
        return hashlib.sha256(data.encode()).hexdigest()[:16]


def _delta(before, after):
    return {k: tuple(b - a for a, b in zip(before[k], after[k])) for k in after}


def on_worker(fn):
    """Run fn on one thread with a large stack; the engine recurses on
    term structure."""
    out = {}

    def body():
        try:
            out["value"] = fn()
        except BaseException as exc:
            out["error"] = exc

    sys.setrecursionlimit(RECURSION_LIMIT)
    old = threading.stack_size(STACK_BYTES)
    try:
        worker = threading.Thread(target=body, name="bench-worker")
        worker.start()
    finally:
        threading.stack_size(old)
    worker.join()
    if "error" in out:
        raise out["error"]
    return out["value"]


def probe_setup(workload):
    """Seconds one fresh process takes to import termrw, compile the
    workload's rules and construct its rewriters."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=engines.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def quantiles(values):
    """(p50, p90, samples at or above p90)."""
    p90 = statistics.quantiles(values, n=10)[8]
    return statistics.median(values), p90, sum(v >= p90 for v in values)


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(args, spec):
    from workloads import CYCLE_SECONDS, MAX_CYCLES, WORKLOADS

    cls = WORKLOADS[args.workload]
    n_cycles = max(MIN_CYCLES, round(args.seconds / CYCLE_SECONDS[args.workload]))
    n_cycles = min(n_cycles, MAX_CYCLES.get(args.workload, n_cycles))
    setup_times = []

    def probe(count=1):
        setup_times.extend(probe_setup(args.workload) for _ in range(count))

    def loop():
        probe(2)
        setup = engines.build(args.workload)
        cycles = Cycles(cls(args.workload, args.seed, setup))
        cycles.run()  # warm-up, and the reference for the determinism check
        runs, walls = [], []
        for _ in range(n_cycles):
            probe()
            t0 = time.perf_counter()
            runs.append(cycles.run())
            walls.append(time.perf_counter() - t0)
        return cycles, runs, walls

    cycles, runs, walls = on_worker(loop)
    records = [r for run in runs for r in run]
    # A request's time is the fastest repetition of it, or of any request
    # in its pool: trees of one depth differ only in their leaf keys.
    fastest = {}
    for i, reps in enumerate(zip(*runs)):
        key = reps[0].req.pool or i
        fastest[key] = min(fastest.get(key, math.inf), *(r.seconds for r in reps))
    best = [fastest[r.req.pool or i] for i, r in enumerate(runs[0])]
    p50, p90, above = quantiles([t * 1e3 for t in best])
    failed = sum(not r.ok for r in records)
    n = f"n={len(best)} requests, fastest over {n_cycles} cycles"
    rows = [
        ("setup_s", statistics.median(setup_times), f"median of {len(setup_times)} processes"),
        ("request_ms.p50", p50, n),
        ("request_ms.p90", p90, f"{n}, {above} at or above"),
        ("requests_per_s", len(best) / sum(best),
         f"{len(best)} requests back-to-back, each at its fastest"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "getrusage, this process"),
    ]
    print(f"workload {args.workload} seed {args.seed}: {n_cycles} measured cycles of {len(best)} requests"
          f" after one warm-up cycle, counters digest {cycles.digest()}")
    print("  cycle seconds: " + " ".join(f"{w:.3f}" for w in walls))
    _print_rows(rows, spec["end_to_end"])
    print(f"  {'failed_frac':<40} {failed / len(records):<14.6g} ratio  ({failed} of {len(records)} requests;"
          f" the JSON's failed/attempted)")
    _print_kinds(runs[0], best)
    return cycles, records, failed, {name: value for name, value, _ in rows}


# ---------------------------------------------------------------------------
# traced run


def per_layer(args, spec):
    from tracer import CALLS, HITS, SELF, TOTAL, Tracer
    from workloads import WORKLOADS

    tracer = Tracer()

    def traced():
        tracer.install()
        try:
            for _ in range(SETUP_REPEATS):
                setup = engines.build(args.workload)
        finally:
            tracer.uninstall()
        setup_acc = {k: list(v) for k, v in tracer.acc.items()}
        tracer.reset()
        cycles = Cycles(WORKLOADS[args.workload](args.workload, args.seed, setup))
        warm = cycles.run(count_nodes=True)
        untraced = cycles.run(count_nodes=True)
        tracer.install()
        try:
            traced = cycles.run(tracer, count_nodes=True)
        finally:
            tracer.uninstall()
        return cycles, setup, setup_acc, warm + untraced, untraced, traced

    cycles, setup, setup_acc, both_untraced, untraced, traced = on_worker(traced)
    acc = tracer.acc
    ms = lambda name, field=TOTAL: acc[name][field] * 1e3  # noqa: E731
    calls = lambda name: acc[name][CALLS]  # noqa: E731
    total = _sum_counters(traced)
    traced_s = sum(r.seconds for r in traced)
    untraced_s = sum(r.seconds for r in untraced)
    nodes = sum(r.nodes for r in traced)
    drawn = total["samples_accepted"] + total["samples_skipped"] + total["samples_failed"]

    m = {
        "terms.parse_term.ms": ms("terms.parse_term"),
        "terms.parse_term.nodes_per_s": nodes / acc["terms.parse_term"][TOTAL],
        "terms.strip_rp_deep.calls": calls("terms.strip_rp_deep"),
        "terms.strip_rp_deep.ms": ms("terms.strip_rp_deep"),
        "rules.parse_rule_file.ms": setup_acc["rules.parse_rule_file"][TOTAL] * 1e3 / SETUP_REPEATS,
        "rules.build_ruleset.ms": setup_acc["rules.build_ruleset"][TOTAL] * 1e3 / SETUP_REPEATS,
        "rules.rules_compiled": setup["rules_compiled"],
        "rewriter.rewrite.self_ms": ms("rewriter.rewrite", SELF),
        "rewriter.rewrite_calls": total["rewrite_calls"],
        "rewriter.rule_attempts": total["rule_attempts"],
        "rewriter.rule_applications": total["rule_applications"],
        "rewriter.attempt_yield": _ratio(total["rule_applications"], total["rule_attempts"]),
        "rewriter.hyp_relief_failures": total["hyp_relief_failures"],
        "rewriter.nodes_created": total["nodes_created"],
        "rewriter.step_limit_hits": total["step_limit_hit"],
        "rewriter.unify.calls": calls("rewriter.unify"),
        "rewriter.unify.ms": ms("rewriter.unify"),
        "rewriter.unify.match_ratio": _ratio(acc["rewriter.unify"][HITS], calls("rewriter.unify")),
        "rewriter.instantiate.calls": calls("rewriter.instantiate"),
        "rewriter.instantiate.ms": ms("rewriter.instantiate"),
        "rewriter.us_per_input_node.spread": _depth_spread(both_untraced),
        "falist.fa_acons.calls": calls("falist.fa_acons"),
        "falist.fa_acons.us_per_call": _per_call_us(acc["falist.fa_acons"]),
        "falist.fa_acons.us_per_call.spread": _acons_spread(traced),
        "falist.fa_get.calls": calls("falist.fa_get"),
        "falist.fa_get.ms": ms("falist.fa_get"),
        "falist.fa_probes": total["fa_probes"],
        "falist.fa_node_visits": total["fa_node_visits"],
        "falist.fa_free.calls": calls("falist.fa_free"),
        "meta.apply.calls": calls("meta.apply"),
        "meta.apply.ms": ms("meta.apply"),
        "meta.applications": total["meta_applications"],
        "meta.rejections": total["meta_rejections"],
        "evaluator.eval_term.calls": calls("evaluator.eval_term"),
        "evaluator.eval_term.ms": ms("evaluator.eval_term"),
        "evaluator.exec_evals": total["exec_evals"],
        "evaluator.exec_domain_errors": total["exec_domain_errors"],
        "validate.check_run.self_ms": ms("validate.check_run", SELF),
        "validate.samples_accepted": total["samples_accepted"],
        "validate.samples_skipped": total["samples_skipped"],
        "validate.accept_ratio": _ratio(total["samples_accepted"], drawn),
        "validate.starved": total["starved"],
        "bench.requests": len(traced),
        "bench.traced_ms": traced_s * 1e3,
        "bench.trace_overhead_frac": traced_s / untraced_s - 1,
    }

    print(f"workload {args.workload} seed {args.seed}: traced cycle of {len(traced)} requests, "
          f"counters digest {cycles.digest()}")
    _print_rows([(k, v, "") for k, v in m.items()], spec["per_layer"])
    print("  bases: attempt_yield over rewriter.rule_attempts; match_ratio over rewriter.unify.calls;"
          f" accept_ratio over {drawn} sampled environments")
    print(f"  time per layer, share of the traced cycle's {traced_s * 1e3:.1f} ms:")
    for name in acc:
        if acc[name][CALLS] and not name.startswith("rules."):
            print(f"    {name:<24} self {acc[name][SELF] / traced_s:7.2%}  total {acc[name][TOTAL] / traced_s:7.2%}")
    _print_size_tables(both_untraced, traced)
    _write_spans(args, acc, setup_acc, traced)
    failed = sum(not r.ok for r in traced)
    return cycles, traced, failed, m


def _sum_counters(records):
    total = {}
    for r in records:
        for k, v in (r.counters or {}).items():
            total[k] = total.get(k, 0) + int(v)
    for k in ("samples_accepted", "samples_skipped", "samples_failed", "starved"):
        total.setdefault(k, 0)
    return total


def _ratio(num, den):
    """num/den, or 0 where the workload has no base for the ratio."""
    return num / den if den else 0.0


def _per_call_us(a):
    return a[1] * 1e6 / a[0] if a[0] else 0.0


def _depth_groups(records):
    """Rewrite µs per input node by tree depth, the least of each depth's
    samples, which is the one least disturbed by other work on the host."""
    groups = {}
    for r in records:
        if r.req.kind.startswith("depth-") and r.ok:
            groups.setdefault(r.req.size, []).append(r.rewrite_s * 1e6 / r.nodes)
    return {d: min(v) for d, v in sorted(groups.items())}


def _depth_spread(records):
    """Rewrite µs per input node at the largest depth over the smallest;
    0 where the workload has no depth mix."""
    g = _depth_groups(records)
    return g[max(g)] / g[min(g)] if len(g) > 1 else 0.0


def _acons_points(records):
    """(alist size a write starts from, µs per fa_acons call in it)."""
    return [
        (r.req.size, _per_call_us(r.spans["falist.fa_acons"]))
        for r in records
        if r.req.kind == "write" and r.spans and r.spans["falist.fa_acons"][0]
    ]


def _acons_spread(records):
    """µs per fa_acons call in the largest-size quarter of writes over the
    smallest-size quarter; 0 where the workload makes no writes."""
    points = sorted(_acons_points(records))
    q = len(points) // 4
    if not q:
        return 0.0
    return statistics.fmean(v for _, v in points[-q:]) / statistics.fmean(v for _, v in points[:q])


def _print_size_tables(untraced, traced):
    g = _depth_groups(untraced)
    if g:
        print("  least rewrite µs per input node by depth, two untraced cycles: "
              + "  ".join(f"d{d}={v:.2f}" for d, v in g.items()))
    points = sorted(_acons_points(traced))
    if points:
        step = max(1, len(points) // 6)
        print("  fa_acons µs per call by starting alist size: "
              + "  ".join(f"{s}={v:.1f}" for s, v in points[::step]))


def _write_spans(args, acc, setup_acc, traced):
    """Write the traced cycle's spans, per layer and per request."""
    out = engines.ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    fields = ("calls", "total_s", "self_s", "non_none")
    data = {
        "workload": args.workload,
        "seed": args.seed,
        "setup": {k: dict(zip(fields, v)) for k, v in setup_acc.items() if k.startswith("rules.")},
        "layers": {k: dict(zip(fields, v)) for k, v in acc.items()},
        "requests": [
            {"kind": r.req.kind, "size": r.req.size, "seconds": r.seconds, "ok": r.ok,
             "spans": {k: v[:3] for k, v in r.spans.items() if v[0]}}
            for r in traced if r.spans is not None
        ],
    }
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(f"  spans written to {path.relative_to(engines.ROOT)}")


# ---------------------------------------------------------------------------


def _print_rows(rows, declared):
    units = {m["name"]: m["unit"] for m in declared}
    for name, value, note in rows:
        print(f"  {name:<40} {value:<14.6g} {units[name]:<6} {note}")


def _print_kinds(records, best):
    kinds = {}
    for r, t in zip(records, best):
        kinds.setdefault(r.req.kind, []).append(t * 1e3)
    for kind, ms in sorted(kinds.items()):
        print(f"    {kind:<24} n={len(ms):<6} median fastest {statistics.median(ms):9.3f} ms")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(engines.RULE_FILES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    engines.import_program()
    spec = json.loads((engines.ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    cycles, records, failed, metrics = (per_layer if args.trace else end_to_end)(args, spec)

    units = {m["name"]: m["unit"] for m in spec[key]}
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for reason in sorted(set(cycles.unexpected)):
        print(f"# UNEXPECTED failure: {reason[0]}: {reason[1]}")
    if cycles.nondeterministic:
        print(f"# counters differ between cycles of one seed: {cycles.nondeterministic}")
    result = {
        "correct": cycles.correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
