"""Command-line front end: rule checking, proving, and the two benchmarks.

Exit codes: 0 proved/ok, 1 not-proved/violations, 2 usage and I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .demo import TREE_RULES, TREE_RULES_BACKCHAIN, chain_term, lookup_keys, lookups_term, tree_conjecture
from .evaluator import default_registry
from .rewriter import RewriteConfig, Rewriter
from .rules import AttachError, RuleFileError, UnboundRuleVariableError, build_ruleset, parse_rule_file, validate_rule
from .terms import ParseError, format_term, node_count, parse_term
from .validate import check_run, sample_rule_soundness

BENCH_STEP_LIMIT = 1 << 28

CSV_COLUMNS = ["param", "mode", "rewrite_calls", "rule_attempts", "rule_applications", "nodes_created", "wall_ms"]


def _read_file(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _below_least(args, **least):
    """Report the first numeric flag of args below its least value as a
    usage error; whether there is one."""
    for name, low in least.items():
        if getattr(args, name) < low:
            print(f"error: {name.replace('_', ' ')} must be >= {low}", file=sys.stderr)
            return True
    return False


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
    except (RuleFileError, AttachError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return None, 1


# ---------------------------------------------------------------------------
# check-rules


def cmd_check_rules(args):
    if args.strict and args.samples < 1:
        print("error: samples must be >= 1", file=sys.stderr)
        return 2
    ruleset, err = _load_ruleset(args.rule_file)
    if ruleset is None:
        return err
    violations = 0
    user_rules = [r for r in ruleset.rules.values() if not r.internal]
    for rule in user_rules:
        for msg in validate_rule(rule):
            violations += 1
            print(f"{rule.name}: {msg}")
    if args.strict:
        reg = default_registry()
        for rule in user_rules:
            if not rule.enabled:
                continue
            report = sample_rule_soundness(rule, reg, env_samples=args.samples, seed=args.seed)
            if not report.ok:
                violations += 1
                _path, what, digest = report.failures[0]
                print(f"{rule.name}: soundness sample failed: {what}  witness: {digest}")
            elif report.skipped >= args.samples:
                print(f"{rule.name}: soundness sampling skipped (unregistered functions)", file=sys.stderr)
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
    if _below_least(args, step_limit=1, backchain_depth=0):
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
        backchain_depth=args.backchain_depth,
        side_conditions_enabled=not args.no_side_conditions,
        fast_alist_enabled=not args.no_fast_alist,
        trace=args.trace,
    )
    try:
        rw = Rewriter(ruleset, cfg=cfg)
    except UnboundRuleVariableError as exc:
        print(f"{args.rules}: {exc}", file=sys.stderr)
        return 1
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
        report = check_run(conjecture, out, [], args.verify, rw.registry, mode="iff", seed=args.seed)
        stats.update(
            verify_s=time.perf_counter() - t0, samples_accepted=report.accepted, samples_skipped=report.skipped
        )
        if not report.ok:
            for line in report.lines():
                print(f"verify: {line}", file=sys.stderr)
            print("verification FAILED")
            status = 1
        elif report.skipped >= args.verify:
            print("verification skipped (unregistered functions)", file=sys.stderr)
        else:
            note = " (starved)" if report.starved else ""
            print(f"verified on {report.accepted} sample(s){note}")
    if args.stats:
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
    if _below_least(args, repetitions=1, step_limit=1, backchain_depth=0):
        return 2
    rows = []
    for depth in depths:
        conjecture = tree_conjecture(depth)
        nodes = node_count(conjecture)
        for mode in modes:
            text = TREE_RULES if mode == "enabled" else TREE_RULES_BACKCHAIN
            ruleset = build_ruleset(parse_rule_file(text))
            cfg = RewriteConfig(
                step_limit=args.step_limit,
                backchain_depth=args.backchain_depth,
                side_conditions_enabled=(mode == "enabled"),
            )
            wall = None
            for _ in range(args.repetitions):
                rw = Rewriter(ruleset, cfg=cfg)
                t0 = time.perf_counter()
                proved, _out = rw.proved(conjecture)
                dt = time.perf_counter() - t0
                wall = dt if wall is None else min(wall, dt)
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
    if _below_least(args, lookups=0, step_limit=1):
        return 2
    rows = []
    for n in sizes:
        m = args.lookups if args.lookups else n
        keys = lookup_keys(n, m, seed=args.seed)
        for mode in modes:
            cfg = RewriteConfig(step_limit=args.step_limit, fast_alist_enabled=(mode == "on"))
            rw = Rewriter(build_ruleset([]), cfg=cfg)
            t0 = time.perf_counter()
            fal = rw.rewrite(chain_term(n), iff=False)
            t_build = time.perf_counter() - t0
            t0 = time.perf_counter()
            rw.rewrite(lookups_term(fal, keys), iff=False)
            t_look = time.perf_counter() - t0
            print(
                f"# falist N={n} M={m} mode={mode} build_ms={t_build*1000:.1f}"
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
    c.add_argument("--samples", type=int, default=1000)
    c.add_argument("--seed", type=int, default=7)
    c.set_defaults(fn=cmd_check_rules)

    c = sub.add_parser("prove", help="rewrite a conjecture to 't")
    c.add_argument("--rules", required=True)
    c.add_argument("--conjecture", required=True)
    c.add_argument("--no-side-conditions", action="store_true")
    c.add_argument("--no-fast-alist", action="store_true")
    c.add_argument("--step-limit", type=int, default=RewriteConfig.step_limit)
    c.add_argument("--backchain-depth", type=int, default=RewriteConfig.backchain_depth)
    c.add_argument("--trace", action="store_true")
    c.add_argument("--stats", metavar="FILE", help="dump rewrite statistics, with seconds spent rewriting and verifying, as JSON")
    c.add_argument("--verify", type=int, metavar="N", help="sample N environments to cross-check the run")
    c.add_argument("--seed", type=int, default=7)
    c.set_defaults(fn=cmd_prove)

    c = sub.add_parser("bench-tree", help="tree-of-bitands benchmark")
    c.add_argument("--depths", default="6,8,10,12")
    c.add_argument("--modes", default="enabled,disabled")
    c.add_argument("--repetitions", type=int, default=1)
    c.add_argument("--step-limit", type=int, default=BENCH_STEP_LIMIT)
    c.add_argument("--backchain-depth", type=int, default=RewriteConfig.backchain_depth)
    c.set_defaults(fn=cmd_bench_tree)

    c = sub.add_parser("bench-falist", help="fast-alist lookup benchmark")
    c.add_argument("--sizes", default="100,300,1000")
    c.add_argument("--lookups", type=int, default=0, help="lookup count M (default: M = N)")
    c.add_argument("--modes", default="on,off")
    c.add_argument("--step-limit", type=int, default=BENCH_STEP_LIMIT)
    c.add_argument("--seed", type=int, default=7)
    c.set_defaults(fn=cmd_bench_falist)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
