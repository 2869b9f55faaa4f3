"""Command-line front end: rule checking, proving, and the two benchmarks.

Exit codes: 0 proved/ok, 1 not-proved/violations, 2 usage and I/O errors.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from .demo import TREE_RULES, TREE_RULES_BACKCHAIN, chain_term, lookup_keys, lookups_term, tree_conjecture
from .evaluator import default_registry
from .reader import ParseError, parse_term
from .rewriter import RewriteConfig, Rewriter
from .rules import RuleFileError, build_ruleset, parse_rule_file, rule_violations
from .terms import format_term, node_count
from .validate import check_run, sample_rule_soundness

BENCH_STEP_LIMIT = 1 << 28

# the seed of every sampling run: check-rules --strict, prove --verify
SEED = 7

CSV_COLUMNS = ["param", "mode", "rewrite_calls", "rule_attempts", "rule_applications", "nodes_created", "wall_ms"]


def _read_file(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _load_ruleset(path):
    """(ruleset, exitcode).  Parse errors are usage-level (2); semantic
    problems in otherwise well-formed files are violations (1)."""
    text = _read_file(path)
    if text is None:
        return None, 2
    try:
        decls = parse_rule_file(text)
    except (ParseError, RuleFileError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, 2
    try:
        return build_ruleset(decls), 0
    except RuleFileError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return None, 1


def _skip_reason(report, what):
    """Why report skipped every draw: an unregistered function, or no draw defining what."""
    if report.unknown is not None:
        return f"(unregistered functions): {report.unknown}"
    return f"(no draw defined the {what})"


# ---------------------------------------------------------------------------
# check-rules


def cmd_check_rules(args):
    if args.strict and args.samples < 1:
        print("error: samples must be >= 1", file=sys.stderr)
        return 2
    ruleset, err = _load_ruleset(args.rule_file)
    if ruleset is None:
        return err
    lines = rule_violations(ruleset)
    for line in lines:
        print(line)
    violations = len(lines)
    user_rules = [r for r in ruleset.rules.values() if not r.internal]
    if args.strict:
        reg = default_registry()
        for rule in user_rules:
            if not rule.enabled:
                continue
            report = sample_rule_soundness(rule, reg, env_samples=args.samples, seed=SEED)
            if not report.ok:
                violations += 1
                _path, what, digest = report.failures[0]
                print(f"{rule.name}: soundness sample failed: {what}  witness: {digest}")
            elif report.skipped >= args.samples:
                print(f"{rule.name}: soundness sampling skipped {_skip_reason(report, 'lhs')}", file=sys.stderr)
            elif report.starved:
                print(f"{rule.name}: soundness sampling starved (hypotheses too restrictive)", file=sys.stderr)
    if violations:
        print(f"{violations} violation(s) in {len(user_rules)} rule(s)")
        return 1
    print(f"checked {len(user_rules)} rule(s): ok")
    return 0


# ---------------------------------------------------------------------------
# prove


def cmd_prove(args):
    if args.verify is not None and args.verify < 1:
        print("error: verify samples must be >= 1", file=sys.stderr)
        return 2
    if args.step_limit < 1:
        print("error: step limit must be >= 1", file=sys.stderr)
        return 2
    ruleset, err = _load_ruleset(args.rules)
    if ruleset is None:
        return err
    text = _read_file(args.conjecture)
    if text is None:
        return 2
    try:
        conjecture = parse_term(text)
    except ParseError as exc:
        print(f"error: {args.conjecture}: {exc}", file=sys.stderr)
        return 2

    cfg = RewriteConfig(
        step_limit=args.step_limit,
        side_conditions_enabled=not args.no_side_conditions,
        fast_alist_enabled=not args.no_fast_alist,
    )
    try:
        rw = Rewriter(ruleset, cfg=cfg)
    except RuleFileError as exc:
        print("\n".join(f"{args.rules}: {line}" for line in str(exc).splitlines()), file=sys.stderr)
        return 1
    if args.trace:
        rw.trace = []
    t0 = time.perf_counter()
    proved, out = rw.proved(conjecture)
    stats = {**rw.stats.as_dict(), "rewrite_s": time.perf_counter() - t0}

    if args.trace:
        for path, rule_name, before, after in rw.trace:
            loc = "/".join(str(i) for i in path) or "top"
            print(f"trace: {rule_name} at {loc} ({before} -> {after} nodes)", file=sys.stderr)

    status = 0
    if proved:
        print("proved")
        if rw.stats.step_limit_hit:
            print(f"note: step limit ({cfg.step_limit}) exceeded; proved from an incomplete rewrite", file=sys.stderr)
    elif rw.stats.step_limit_hit:
        print(f"step limit ({cfg.step_limit}) exceeded; rewriting is incomplete")
        print(f"final term: {format_term(out)}")
        status = 1
    else:
        print("not proved")
        print(f"final term: {format_term(out)}")
        status = 1

    if args.verify:
        t0 = time.perf_counter()
        report = check_run(conjecture, out, [], args.verify, rw.registry, mode="iff", seed=SEED)
        stats.update(
            verify_s=time.perf_counter() - t0, samples_accepted=report.accepted, samples_skipped=report.skipped
        )
        if not report.ok:
            for line in report.lines():
                print(f"verify: {line}", file=sys.stderr)
            print("verification FAILED")
            status = 1
        elif report.skipped >= args.verify:
            print(f"verification skipped {_skip_reason(report, 'conjecture')}", file=sys.stderr)
        else:
            note = " (starved)" if report.starved else ""
            print(f"verified on {report.accepted} sample(s){note}")
    if args.stats:
        import json  # here, so that a run without --stats never imports it
        try:
            with open(args.stats, "w") as f:
                json.dump(stats, f, indent=2, sort_keys=True)
                f.write("\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return status


# ---------------------------------------------------------------------------
# benchmarks


def _emit_csv(rows, columns):
    import csv  # here, so that prove and check-rules never import it
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([row[c] for c in columns])


def _stats_cells(stats, wall_s):
    return {
        "rewrite_calls": stats.rewrite_calls,
        "rule_attempts": stats.rule_attempts,
        "rule_applications": stats.rule_applications,
        "nodes_created": stats.nodes_created,
        "wall_ms": f"{wall_s * 1000:.1f}",
    }


def _ints(text):
    """The comma-separated integers of text, or None if an item is not one."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        return None


def cmd_bench_tree(args):
    depths = _ints(args.depths)
    modes = args.modes.split(",")
    if depths is None or any(d < 2 for d in depths):
        print("error: depths must be integers >= 2", file=sys.stderr)
        return 2
    if any(m not in ("enabled", "disabled") for m in modes):
        print("error: modes are enabled,disabled", file=sys.stderr)
        return 2
    # each mode's rules are read and compiled once, before any clock read
    texts = {"enabled": TREE_RULES, "disabled": TREE_RULES_BACKCHAIN}
    rulesets = {m: build_ruleset(parse_rule_file(texts[m])) for m in modes}
    for rule in [r for rs in rulesets.values() for r in rs.rules.values()]:
        rule.compile()
    rows = []
    for depth in depths:
        conjecture = tree_conjecture(depth)
        nodes = node_count(conjecture)
        for mode in modes:
            cfg = RewriteConfig(step_limit=BENCH_STEP_LIMIT, side_conditions_enabled=(mode == "enabled"))
            rw = Rewriter(rulesets[mode], cfg=cfg)
            t0 = time.perf_counter()
            proved, _out = rw.proved(conjecture)
            wall = time.perf_counter() - t0
            print(
                f"# tree depth={depth} mode={mode} nodes={nodes} wall_ms={wall*1000:.1f}"
                f" us_per_node={wall*1e6/nodes:.2f} us_per_call={wall*1e6/max(rw.stats.rewrite_calls, 1):.2f}",
                file=sys.stderr,
            )
            row = {"param": depth, "mode": mode, **_stats_cells(rw.stats, wall)}
            row["status"] = "ok" if proved else ("step-limit" if rw.stats.step_limit_hit else "not-proved")
            rows.append(row)
    _emit_csv(rows, CSV_COLUMNS + ["status"])
    return 0


def cmd_bench_falist(args):
    sizes = _ints(args.sizes)
    modes = args.modes.split(",")
    if sizes is None or any(n < 1 for n in sizes):
        print("error: sizes must be integers >= 1", file=sys.stderr)
        return 2
    if any(m not in ("on", "off") for m in modes):
        print("error: modes are on,off", file=sys.stderr)
        return 2
    rows = []
    for n in sizes:
        keys = lookup_keys(n)
        for mode in modes:
            cfg = RewriteConfig(step_limit=BENCH_STEP_LIMIT, fast_alist_enabled=(mode == "on"))
            rw = Rewriter(build_ruleset([]), cfg=cfg)
            t0 = time.perf_counter()
            fal = rw.rewrite(chain_term(n), iff=False)
            t_build = time.perf_counter() - t0
            t0 = time.perf_counter()
            rw.rewrite(lookups_term(fal, keys), iff=False)
            t_look = time.perf_counter() - t0
            print(
                f"# falist N={n} M={n} mode={mode} build_ms={t_build*1000:.1f}"
                f" build_us_per_entry={t_build*1e6/n:.1f} lookups_ms={t_look*1000:.1f}",
                file=sys.stderr,
            )
            row = {"param": n, "mode": mode, **_stats_cells(rw.stats, t_build + t_look)}
            row["fa_probes"] = rw.stats.fa_probes
            row["fa_node_visits"] = rw.stats.fa_node_visits
            row["status"] = "step-limit" if rw.stats.step_limit_hit else "ok"
            rows.append(row)
    _emit_csv(rows, CSV_COLUMNS + ["fa_probes", "fa_node_visits", "status"])
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="termrw", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check-rules", help="validate a rule file")
    c.add_argument("rule_file")
    c.add_argument("--strict", action="store_true", help="sample rule soundness on random environments")
    c.add_argument("--samples", type=int, default=1000, help="environments per rule under --strict, drawn from seed 7")
    c.set_defaults(fn=cmd_check_rules)

    c = sub.add_parser("prove", help="rewrite a conjecture to 't")
    c.add_argument("--rules", required=True)
    c.add_argument("--conjecture", required=True)
    c.add_argument("--no-side-conditions", action="store_true")
    c.add_argument("--no-fast-alist", action="store_true")
    c.add_argument("--step-limit", type=int, default=RewriteConfig.step_limit)
    c.add_argument("--trace", action="store_true")
    c.add_argument("--stats", metavar="FILE", help="dump rewrite statistics, with seconds spent rewriting and verifying, as JSON")
    c.add_argument("--verify", type=int, metavar="N", help="sample N environments, drawn from seed 7, to cross-check the run")
    c.set_defaults(fn=cmd_prove)

    c = sub.add_parser("bench-tree", help="tree-of-bitands benchmark: one timed proof per depth and mode")
    c.add_argument("--depths", default="6,8,10,12")
    c.add_argument("--modes", default="enabled,disabled")
    c.set_defaults(fn=cmd_bench_tree)

    c = sub.add_parser("bench-falist", help="fast-alist lookup benchmark: N lookups in an N-entry alist")
    c.add_argument("--sizes", default="100,300,1000")
    c.add_argument("--modes", default="on,off")
    c.set_defaults(fn=cmd_bench_falist)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    # terms make no reference cycles, so the cyclic collector would only
    # pay for passes over a large term heap: it is off for the command
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
