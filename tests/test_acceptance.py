"""Acceptance gate: one test per shipped guarantee, each printing a
PASS/FAIL line and enforcing its own wall-clock budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import random
import threading
import time

import pytest

from termrw.cli import BENCH_STEP_LIMIT, main
from termrw.demo import (
    SHIPPED_RULESETS,
    TREE_RULES,
    TREE_RULES_BACKCHAIN,
    chain_term,
    four_round_to_evens,
    lookup_keys,
    lookups_term,
    three_round_to_evens,
    tree_conjecture,
)
from termrw.evaluator import EvalDomainError, default_registry, eval_term
from termrw.falist import check_falist_term, falist_shadow
from termrw.meta import fold_plus
from termrw.rewriter import RewriteConfig, Rewriter
from termrw.rules import build_ruleset, parse_rule_file
from termrw.terms import (
    OPEN,
    STOP,
    App,
    Quote,
    Var,
    contains_head,
    format_term,
    free_vars,
    mk_rp,
    node_count,
    parse_term,
    rp_termp,
    strip_rp_deep,
    substitute,
    term_to_value,
    values_equal,
)
from termrw.validate import check_run, check_syntax_preserved, random_term, sample_env, valid_sc_failure

P = parse_term


class Budget:
    """Asserts the block finished inside `seconds` and remembers elapsed."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.elapsed = 0.0

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.seconds, f"took {self.elapsed:.2f}s, budget {self.seconds}s"
        return False


def report(n, text, budget):
    print(f"PASS criterion {n}: {text} [{budget.elapsed:.2f}s]")


def test_criterion_1_integerp_context_wraps_every_bitand():
    with Budget(1.0) as b:
        rs = build_ruleset(parse_rule_file(SHIPPED_RULESETS["bitand"]))
        rw = Rewriter(rs)
        ctx = [P(s) for s in ("(integerp x)", "(integerp y)", "(integerp a)", "(integerp b)")]
        out = rw.rewrite(P("(logand (logand x y) (logand a b))"), ctx=ctx, iff=False)
        assert out == P(
            "(rp 'integerp (4vec-bitand (rp 'integerp (4vec-bitand x y))"
            " (rp 'integerp (4vec-bitand a b))))"
        )
    report(1, "nested logand rewrite carries integerp on all three results", b)


def test_criterion_2_round_to_even_needs_side_conditions():
    with Budget(5.0) as b:
        rs = build_ruleset(parse_rule_file(SHIPPED_RULESETS["arith"]))
        proved3, _ = Rewriter(rs).proved(three_round_to_evens())
        proved4, _ = Rewriter(rs).proved(four_round_to_evens())
        assert proved3 and proved4
        off = RewriteConfig(side_conditions_enabled=False)
        proved3_off, _ = Rewriter(rs, cfg=off).proved(three_round_to_evens())
        assert not proved3_off
    report(2, "three/four variants prove; three fails without side conditions", b)


def test_criterion_3_three_key_chain_and_single_probe_lookup():
    with Budget(1.0) as b:
        rw = Rewriter(build_ruleset([]))
        chain = P("(hons-acons 'key1 val1 (hons-acons 'key2 val2 (hons-acons 'key3 val3 'nil)))")
        fal = rw.rewrite(chain, iff=False)
        assert format_term(fal) == (
            "(falist '((key1 . val1) (key2 . val2) (key3 . val3))"
            " (cons (cons 'key1 val1) (cons (cons 'key2 val2) (cons (cons 'key3 val3) 'nil))))"
        )
        rw2 = Rewriter(build_ruleset([]))
        got = rw2.rewrite(App("hons-get", (Quote("key2"), fal)), iff=False)
        assert got == P("(cons 'key2 val2)")
        assert rw2.stats.fa_probes == 1
        assert rw2.stats.fa_node_visits == 0
    report(3, "3-key chain builds the shadowed form; lookup costs one probe", b)


def test_criterion_4_tree_attempts_linear_with_conditions_superlinear_without():
    with Budget(60.0) as b:
        enabled_rs = build_ruleset(parse_rule_file(TREE_RULES))
        disabled_rs = build_ruleset(parse_rule_file(TREE_RULES_BACKCHAIN))
        depths = (6, 8, 10, 12)
        per_node = []
        mode_ratios = []
        for depth in depths:
            conjecture = tree_conjecture(depth)
            cfg_on = RewriteConfig(step_limit=BENCH_STEP_LIMIT)
            rw_on = Rewriter(enabled_rs, cfg=cfg_on)
            proved_on, _ = rw_on.proved(conjecture)
            cfg_off = RewriteConfig(step_limit=BENCH_STEP_LIMIT, side_conditions_enabled=False)
            rw_off = Rewriter(disabled_rs, cfg=cfg_off)
            proved_off, _ = rw_off.proved(conjecture)
            assert proved_on and proved_off, f"depth {depth} must prove in both modes"
            per_node.append(rw_on.stats.rule_attempts / node_count(conjecture))
            mode_ratios.append(rw_off.stats.rule_attempts / rw_on.stats.rule_attempts)
        assert max(per_node) <= 1.2 * min(per_node), f"enabled attempts not linear: {per_node}"
        assert all(a < bb for a, bb in zip(mode_ratios, mode_ratios[1:])), (
            f"disabled/enabled ratio not strictly increasing: {mode_ratios}"
        )
    report(
        4,
        f"depths 6..12 prove both ways; attempts/node spread "
        f"{max(per_node) / min(per_node):.3f}x, mode ratios {[f'{r:.1f}' for r in mode_ratios]}",
        b,
    )


def test_criterion_5_lookup_cost_flat_with_shadow_linear_without():
    with Budget(60.0) as b:
        sizes = (100, 300, 1000)
        wall_ratios = []
        visits = {}
        probes = {}
        for n in sizes:
            keys = lookup_keys(n, n, seed=7)
            lookups_wall = {}
            for mode in ("on", "off"):
                cfg = RewriteConfig(step_limit=BENCH_STEP_LIMIT, fast_alist_enabled=(mode == "on"))
                rw = Rewriter(build_ruleset([]), cfg=cfg)
                fal = rw.rewrite(chain_term(n), iff=False)
                t0 = time.perf_counter()
                rw.rewrite(lookups_term(fal, keys), iff=False)
                lookups_wall[mode] = time.perf_counter() - t0
                visits[n, mode] = rw.stats.fa_node_visits
                probes[n, mode] = rw.stats.fa_probes
            wall_ratios.append(lookups_wall["off"] / lookups_wall["on"])
        assert probes[1000, "on"] == 1000 and visits[1000, "on"] == 0
        assert visits[1000, "off"] >= 10 * visits[1000, "on"]
        assert visits[1000, "off"] >= 10 * probes[1000, "on"]  # non-vacuous margin
        assert wall_ratios == sorted(wall_ratios), f"off/on wall ratio not non-decreasing: {wall_ratios}"
    report(
        5,
        f"visits off/on at N=1000: {visits[1000, 'off']}/{visits[1000, 'on']}; "
        f"wall ratios {[f'{r:.0f}x' for r in wall_ratios]}",
        b,
    )


def test_criterion_6_let_chain_compiles_to_openers_and_main_rule():
    with Budget(1.0) as b:
        text = """
        (defthm-lambda foo-redef
          (implies (p x)
                   (equal (foo x)
                          (let* ((a (f1 x))
                                 (b (f2 x)))
                            (f4 a a b)))))
        """
        rs = build_ruleset(parse_rule_file(text))
        main_rule = rs.rules["foo-redef"]
        op1 = rs.rules["foo-redef_lambda-opener"]
        op2 = rs.rules["foo-redef_lambda-opener_2"]
        assert main_rule.lhs == P("(foo x)")
        assert main_rule.rhs == P("(foo-redef_lambda-fnc_0 (f1 x) x)")
        assert list(main_rule.hyps) == [P("(p x)")]
        assert op1.lhs == P("(foo-redef_lambda-fnc_1 b a)")
        assert op1.rhs == P("(f4 a a b)")
        assert op2.lhs == P("(foo-redef_lambda-fnc_0 a x)")
        assert op2.rhs == P("(foo-redef_lambda-fnc_1 (f2 x) a)")
        assert op1.hyps == () and op2.hyps == ()
    report(6, "foo-redef yields two hypothesis-free openers plus the guarded main rule", b)


def test_criterion_7_every_ruleset_preserves_random_conjectures():
    with Budget(120.0) as b:
        reg = default_registry()
        for name, text in sorted(SHIPPED_RULESETS.items()):
            rs = build_ruleset(parse_rule_file(text))
            rng = random.Random(1234)
            for i in range(50):
                conjecture = random_term(rng, depth=4)
                rw = Rewriter(rs)
                out = rw.rewrite(conjecture, iff=True)
                assert check_syntax_preserved(conjecture, out), f"{name} #{i} broke term syntax"
                rep = check_run(conjecture, out, [], 1000, reg, mode="iff", seed=i)
                assert rep.ok, f"{name} #{i}: " + "; ".join(rep.lines())

        # a deliberately corrupted rule must get past the static checks and
        # be caught only by strict sampling
        mutated = SHIPPED_RULESETS["arith"].replace("(+ a b c))", "(+ a b b))", 1)
        assert mutated != SHIPPED_RULESETS["arith"]
        import tempfile, os

        fd, path = tempfile.mkstemp(suffix=".lsp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(mutated)
            assert main(["check-rules", path]) == 0
            assert main(["check-rules", path, "--strict", "--samples", "1000"]) == 1
        finally:
            os.unlink(path)
    report(7, "4 rule sets x 50 conjectures x 1000 envs preserved; mutant caught by --strict", b)


def random_dont_rw(rng, t):
    """A random guard over the shape of t: stops, opens, and occasional
    shape mismatches (which the engine must treat as fully open)."""
    roll = rng.random()
    if roll < 0.25:
        return STOP
    if roll < 0.45:
        return OPEN
    if isinstance(t, App):
        if rng.random() < 0.10:
            return tuple(rng.random() < 0.5 for _ in range(rng.randint(1, 2)))
        head = STOP if rng.random() < 0.5 else OPEN
        return (head,) + tuple(random_dont_rw(rng, a) for a in t.args)
    return OPEN


def test_criterion_8_guarded_rewrites_agree_with_full_rewrites():
    with Budget(60.0) as b:
        reg = default_registry()
        rs = build_ruleset(parse_rule_file(SHIPPED_RULESETS["arith"]))
        rng = random.Random(99)
        checked_envs = 0
        for i in range(200):
            t = random_term(rng, depth=4)
            dw = random_dont_rw(rng, t)
            guarded = Rewriter(rs).rewrite(t, dont_rw=dw, iff=False)
            full = Rewriter(rs).rewrite(t, iff=False)
            names = sorted(free_vars(t))
            env_rng = random.Random(i)
            for _ in range(100):
                env = sample_env(env_rng, names)
                try:
                    want = eval_term(t, env, reg)
                except EvalDomainError:
                    continue
                assert values_equal(eval_term(guarded, env, reg), want), (
                    f"#{i} guarded diverged on {env}: {format_term(t)} / {format_term(guarded)}"
                )
                assert values_equal(eval_term(full, env, reg), want), (
                    f"#{i} full rewrite diverged on {env}"
                )
                checked_envs += 1
        assert checked_envs > 10000  # partial heads may skip some envs, not most
    report(8, f"200 guarded/full rewrite pairs agree on {checked_envs} sampled envs", b)


def test_criterion_9_deep_terms_need_no_python_stack():
    # the main thread at the default recursion limit: every walk over a term
    # runs on the heap, so depth is bounded only by memory and step_limit
    assert threading.current_thread() is threading.main_thread()
    n = 100_000
    with Budget(60.0) as b:
        chain = parse_term(format_term(chain_term(n)))
        out = Rewriter(build_ruleset([])).rewrite(chain, iff=True)
        assert len(falist_shadow(out).entries) == n and check_falist_term(out) == []
        assert format_term(out).startswith("(falist '((k1 . v1) (k2 . v2) ")

        # (binary-+ '1 (binary-+ '1 ... a)), wrapped at every level, and
        # with a wrapper on a only
        spine, wrapped, bad = Var("a"), Var("a"), mk_rp("evenp", Var("a"))
        for _ in range(n):
            spine = App("binary-+", (Quote(1), spine))
            wrapped = mk_rp("integerp", App("binary-+", (Quote(1), wrapped)))
            bad = App("binary-+", (Quote(1), bad))
        assert strip_rp_deep(wrapped) == spine and strip_rp_deep(bad) == spine
        v = term_to_value(spine)
        for _ in range(n):
            v = v.cdr.cdr.car
        assert v == "a"
        assert rp_termp(wrapped) == []
        assert rp_termp(substitute(bad, {"a": Var("nil")})) == [((1,) * (n + 1), "nil cannot be a variable")]

        # ((lambda (x) (f x)) ((lambda (x) (f x)) ... '0)) reads as (f (f ... '0))
        reduced = parse_term("((lambda (x) (f x)) " * n + "'0" + ")" * n)
        assert node_count(reduced) == n + 1 and not contains_head(reduced, "lambda")

        folded, _guard = fold_plus(spine)
        assert folded == App("binary-+", (Quote(n), Var("a")))
        reg = default_registry()
        assert check_run(spine, wrapped, [], 2, reg, mode="equal").ok
        assert valid_sc_failure(bad, {"a": 3}, reg) == ((2,) * n, App("evenp", (Var("a"),)))
    report(9, f"{n:,}-deep terms parse, rewrite, print, strip, reduce and check on the main thread", b)
