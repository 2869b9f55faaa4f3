"""Sampling oracles: wrapper validity, preservation, soundness checks."""

import hashlib
import random
import time

import pytest

from termrw.evaluator import EvalDomainError, UnknownFunctionError, eval_term, eval_terms
from termrw.rules import Syntaxp, build_ruleset, parse_rule_file
from termrw.terms import App, Cons, Quote, Var, format_value, free_vars, parse_term, truthy
from termrw.validate import (
    REJECTION_CAP,
    SUPPORT,
    ValidityReport,
    check_preservation,
    check_run,
    env_digest,
    random_term,
    sample_envs,
    sample_rule_soundness,
    valid_sc_failure,
)

P = parse_term


# ---------------------------------------------------------------------------
# valid_sc_failure


def test_valid_sc_atoms(reg):
    assert valid_sc_failure(Var("x"), {"x": 1}, reg) is None
    assert valid_sc_failure(Quote("anything"), {}, reg) is None


def test_valid_sc_wrapper_truth(reg):
    t = P("(rp 'evenp a)")
    assert valid_sc_failure(t, {"a": 4}, reg) is None
    assert valid_sc_failure(t, {"a": 3}, reg) is not None


def test_valid_sc_nested_wrappers(reg):
    t = P("(rp 'integerp (rp 'evenp a))")
    assert valid_sc_failure(t, {"a": 4}, reg) is None
    assert valid_sc_failure(t, {"a": 3}, reg) is not None


def test_valid_sc_follows_taken_branch_only(reg):
    t = P("(if (integerp a) '0 (rp 'evenp a))")
    # integer input takes the then branch; the bad wrapper is never reached
    assert valid_sc_failure(t, {"a": 3}, reg) is None
    t2 = P("(if (consp a) '0 (rp 'evenp a))")
    assert valid_sc_failure(t2, {"a": 3}, reg) is not None


def test_valid_sc_checks_if_test(reg):
    t = P("(if (rp 'evenp a) '0 '1)")
    assert valid_sc_failure(t, {"a": 3}, reg) is not None


def test_valid_sc_failure_reports_position(reg):
    bad = valid_sc_failure(P("(f (rp 'evenp a))"), {"a": 3}, reg)
    path, prop = bad
    assert path == (1,)
    assert prop == P("(evenp a)")


def test_valid_sc_evaluates_the_whole_term(reg):
    # an error outside every wrapper propagates, even next to a valid one
    t = P("(cons (rp 'integerp a) (mystery a))")
    with pytest.raises(UnknownFunctionError):
        valid_sc_failure(t, {"a": 4}, reg)
    # a failing wrapper evaluated before the error is reported instead
    assert valid_sc_failure(P("(cons (rp 'evenp a) (mystery a))"), {"a": 3}, reg) == ((1,), P("(evenp a)"))
    # an error applying the first failing wrapper's property is raised
    with pytest.raises(EvalDomainError):
        valid_sc_failure(P("(cons (rp 'd2 a) (mystery a))"), {"a": 3}, reg)
    with pytest.raises(UnknownFunctionError):
        valid_sc_failure(P("(rp 'foo a)"), {"a": 3}, reg)


def test_valid_sc_wrapper_prop_is_evaluated(reg):
    # the wrapped property is an application of the prop symbol to the payload
    t = P("(rp 'consp (cons a b))")
    assert valid_sc_failure(t, {"a": 1, "b": 2}, reg) is None


# ---------------------------------------------------------------------------
# sampling


def test_sample_value_mixes_scales():
    rng = random.Random(0)
    values = [env["v"] for env in sample_envs(rng, ("v",), 2000)]
    small = sum(1 for v in values if isinstance(v, int) and -8 <= v <= 8)
    huge = sum(1 for v in values if isinstance(v, int) and abs(v) > 2**60)
    structured = sum(1 for v in values if isinstance(v, (str, Cons)))
    assert small + huge + structured == 2000
    # rough halves and quarters
    assert 800 < small < 1200
    assert 350 < huge < 650
    assert 350 < structured < 650


def test_sample_env_covers_names():
    env = sample_envs(random.Random(1), {"b", "a"}, 1)[0]
    assert set(env) == {"a", "b"}


# sha256 of the env_digest lines of the environments drawn one at a time,
# 500 per seed 0-4 over {a, b, c} and over {x}: the one-at-a-time reference
# tests draw that way themselves, so only this catches a stream that drifts
DRAW_STREAM_SHA256 = "44328c08662c2782196e8e36559f12d2200a3763fc41f516390f19f2474ba8bb"


def test_sample_env_stream_is_pinned():
    h = hashlib.sha256()
    for seed in range(5):
        for names in ({"a", "b", "c"}, {"x"}):
            rng = random.Random(seed)
            for _ in range(500):
                h.update(env_digest(sample_envs(rng, names, 1)[0]).encode() + b"\n")
    assert h.hexdigest() == DRAW_STREAM_SHA256
    # one chunk draws the same stream, and leaves the rng where single draws do
    chunked = hashlib.sha256()
    for seed in range(5):
        for names in ({"a", "b", "c"}, {"x"}):
            rng, single = random.Random(seed), random.Random(seed)
            for env in sample_envs(rng, names, 500):
                chunked.update(env_digest(env).encode() + b"\n")
            for _ in range(500):
                sample_envs(single, names, 1)
            assert rng.getstate() == single.getstate()
    assert chunked.hexdigest() == DRAW_STREAM_SHA256


def test_env_digest_is_stable():
    assert env_digest({"b": 1, "a": "nil"}) == "a=nil b=1"


# ---------------------------------------------------------------------------
# preservation


def test_report_lines_print_each_distinct_failure_once():
    rep = ValidityReport()
    changed, prop = ((), "changed"), ((1,), P("(evenp a)"))
    for (path, what), a in [(changed, 1), (prop, 1), (changed, 1), (changed, 2), (prop, 1), (changed, 1)]:
        rep.fail(path, what, {"a": a})
    assert len(rep.failures) == 6
    assert rep.lines() == [
        "ok=False accepted=0 skipped=0 starved=False",
        "  FAIL at []: changed  [a=1]  (3 draws)",
        "  FAIL at [1]: (evenp a)  [a=1]  (2 draws)",
        "  FAIL at []: changed  [a=2]  (1 draw)",
    ]


def test_preservation_accepts_sound_rewrite(reg):
    rep = check_preservation(P("(binary-+ a '0)"), P("(binary-+ '0 a)"), "equal", 300, reg, seed=5)
    assert rep.ok and rep.accepted == 300


def test_preservation_catches_value_change(reg):
    # dropping the coercion is only sound for integers
    rep = check_preservation(P("(binary-+ a '0)"), Var("a"), "equal", 300, reg, seed=5)
    assert not rep.ok


def test_preservation_iff_mode_is_coarser(reg):
    rep = check_preservation(P("(consp (cons a b))"), Quote("t"), "iff", 200, reg, seed=2)
    assert rep.ok


def test_preservation_skips_undefined_inputs(reg):
    rep = check_preservation(P("(d2 a)"), P("(d2 a)"), "equal", 200, reg, seed=3)
    assert rep.ok and rep.skipped > 0 and rep.accepted + rep.skipped == 200


def test_preservation_flags_newly_undefined(reg):
    rep = check_preservation(P("(f2 a)"), P("(d2 a)"), "equal", 300, reg, seed=3)
    assert not rep.ok
    assert any("undefined" in str(what) for _p, what, _e in rep.failures)


# ---------------------------------------------------------------------------
# full-run check


def test_check_run_happy_path(reg):
    rep = check_run(P("(evenp a)"), Quote("t"), [P("(evenp a)")], 200, reg, mode="iff", seed=1)
    assert rep.ok and rep.accepted == 200 and not rep.starved


def test_check_run_validates_wrappers(reg):
    rep = check_run(Var("a"), P("(rp 'evenp a)"), [], 200, reg, mode="equal", seed=5)
    assert not rep.ok


def test_check_run_starves_on_unsatisfiable_ctx(reg):
    rep = check_run(Var("a"), Var("a"), [P("(equal a (binary-+ '1 a))")], 50, reg, seed=1)
    assert rep.starved and rep.accepted == 0


def test_check_run_ctx_filters_envs(reg):
    # under ctx (integerp a), +0 elimination is value-preserving
    rep = check_run(P("(binary-+ a '0)"), Var("a"), [P("(integerp a)")], 200, reg, mode="equal", seed=9)
    assert rep.ok and rep.accepted == 200


def _doubling_chain(depth):
    """(equal x<depth> (binary-+ x<depth-1> x<depth-1>)) under a let* that
    doubles x<k-1> into x<k>: read, each x<k> is one node, shared."""
    binds = " ".join(f"(x{k} (binary-+ x{k - 1} x{k - 1}))" for k in range(2, depth + 1))
    return P(f"(let* ((x1 (binary-+ a a)) {binds}) (equal x{depth} (binary-+ x{depth - 1} x{depth - 1})))")


def test_sampling_a_shared_term_costs_its_distinct_nodes(reg):
    # about 2^40 nodes as a tree, 41 distinct applications
    t = _doubling_chain(40)
    for check in (lambda: check_preservation(t, t, "equal", 250, reg), lambda: check_run(t, Quote("t"), [], 250, reg)):
        start = time.perf_counter()
        rep = check()
        assert time.perf_counter() - start < 1.0
        assert rep.ok and rep.accepted == 250


def test_a_shared_node_runs_once_per_environment(reg):
    calls = []
    plus = reg.fn("binary-+", 2)
    counting = reg.copy().register("binary-+", 2, lambda a, b: calls.append(1) or plus(a, b))
    before, after = P("(let* ((s (binary-+ a b))) (list (cons s s) (cons s (rp 'integerp s))))").args
    # every draw is accepted, so each check is one chunk of the 50 draws of
    # seed 0, evaluated once per distinct environment among them
    distinct = len({env_digest(env) for env in sample_envs(random.Random(0), {"a", "b"}, 50)})
    assert check_preservation(before, before, "equal", 50, counting).accepted == 50
    assert len(calls) == distinct
    assert check_run(before, after, [], 50, counting, mode="equal").accepted == 50
    assert len(calls) == 2 * distinct
    # a ground term has one environment, however many draws take it
    calls.clear()
    ground = P("(binary-+ '1 '2)")
    assert check_run(ground, Quote(3), [], 250, counting, mode="equal").accepted == 250
    assert len(calls) == 1


def test_the_support_holds_73_distinct_values_and_draws_share_them():
    assert len(SUPPORT) == 73 and len(set(map(env_digest, ({"v": v} for v in SUPPORT)))) == 73
    envs = sample_envs(random.Random(0), {"a"}, 5000)
    # every value drawn is a support value itself, so a repeated pair is one Cons
    assert all(any(env["a"] is v for v in SUPPORT) for env in envs)
    assert {env_digest(env) for env in envs} == {f"a={format_value(v)}" for v in SUPPORT}
    # each environment is a dict of its own
    assert len({id(env) for env in envs}) == 5000


# ---------------------------------------------------------------------------
# rule soundness sampling


def test_soundness_passes_true_rule(reg):
    rs = build_ruleset(parse_rule_file("(def-rp-rule r (equal (binary-+ x y) (binary-+ y x)))"))
    rep = sample_rule_soundness(rs.rules["r"], reg, 300, seed=11)
    assert rep.ok and rep.accepted == 300


def test_soundness_catches_false_rule(reg):
    rs = build_ruleset(parse_rule_file("(def-rp-rule r (equal (binary-+ x y) (binary-+ x x)))"))
    rep = sample_rule_soundness(rs.rules["r"], reg, 300, seed=11)
    assert not rep.ok
    assert rep.failures[0][2]  # witness env digest present


def test_soundness_respects_hyps(reg):
    text = "(def-rp-rule r (implies (and (evenp x) (integerp x)) (equal (d2 x) (f2 x))))"
    rs = build_ruleset(parse_rule_file(text))
    rep = sample_rule_soundness(rs.rules["r"], reg, 300, seed=11)
    assert rep.ok and rep.accepted == 300


def test_soundness_skips_unknown_functions(reg):
    rs = build_ruleset(parse_rule_file("(def-rp-rule r (equal (iassoc x y) (iassoc x y)))"))
    rep = sample_rule_soundness(rs.rules["r"], reg, 300, seed=11)
    assert rep.ok and rep.skipped == 300


def test_soundness_iff_rule(reg):
    rs = build_ruleset(parse_rule_file("(def-rp-rule r (iff (consp (cons x y)) 't))"))
    rep = sample_rule_soundness(rs.rules["r"], reg, 200, seed=4)
    assert rep.ok


def test_soundness_ignores_syntaxp(reg):
    text = """
    (def-rp-rule r (implies (syntaxp (not (lexorder y x)))
                            (equal (binary-+ y x) (binary-+ x y))))
    """
    rs = build_ruleset(parse_rule_file(text))
    rep = sample_rule_soundness(rs.rules["r"], reg, 200, seed=4)
    assert rep.ok and rep.accepted == 200


# ---------------------------------------------------------------------------
# random conjectures


def test_random_conjectures_always_evaluable(reg):
    from termrw.evaluator import EvalDomainError, eval_term

    rng = random.Random(42)
    defined = 0
    for i in range(300):
        c = random_term(rng, 4)
        env = sample_envs(random.Random(i), ("a", "b", "c"), 1)[0]
        try:
            eval_term(c, env, reg)
            defined += 1
        except EvalDomainError:
            pass  # partial heads are allowed to reject
    assert defined > 200


def test_random_conjectures_deterministic():
    a = [random_term(random.Random(5), 4) for _ in range(10)]
    b = [random_term(random.Random(5), 4) for _ in range(10)]
    assert a == b


# ---------------------------------------------------------------------------
# the batched sampling loop against one environment at a time


def _reference_sample(terms, facts, n, reg, seed, judge):
    """Draw one environment at a time, as the module docstring states the
    policy; judge(env, report) is None to skip, True to accept."""
    rng = random.Random(seed)
    names = set().union(*map(free_vars, (*terms, *facts)))
    report = ValidityReport()
    draws = 0
    try:
        while report.accepted + report.skipped < n and draws < n * REJECTION_CAP:
            draws += 1
            env = sample_envs(rng, names, 1)[0]
            try:
                if not all(truthy(eval_term(f, env, reg)) for f in facts):
                    continue
            except EvalDomainError:
                continue
            verdict = judge(env, report)
            if verdict is None:
                report.skipped += 1
            elif verdict:
                report.accepted += 1
    except UnknownFunctionError:
        report.skipped = n
    report.starved = report.accepted + report.skipped < n
    return report


def _reference_judge(before, after, mode, reg, label="", check_wrappers=False):
    def judge(env, report):
        try:
            v_before = eval_term(before, env, reg)
        except EvalDomainError:
            return None
        failures = {} if check_wrappers else None
        values, errors = eval_terms(after, (env,), reg, failures)
        if errors:
            if not isinstance(errors[0], EvalDomainError):
                raise errors[0]
            report.fail((), f"{label}rewritten term undefined where input is defined", env)
            return False
        v_after = values[0]
        if mode == "equal":
            if v_before != v_after:
                report.fail((), f"{label}value changed by rewriting", env)
        elif truthy(v_before) != truthy(v_after):
            report.fail((), f"{label}truthiness changed by rewriting", env)
        if failures:
            path, prop, error = failures[0]
            report.fail(path, prop if error is None else f"side-condition evaluation error: {error}", env)
            return False
        return True

    return judge


def _reference_check_run(before, after, ctx, n, reg, mode, seed):
    return _reference_sample((before, after), ctx, n, reg, seed, _reference_judge(before, after, mode, reg, check_wrappers=True))


# (before, after, ctx, mode, samples), each with the trait it is here for
SAMPLING_CASES = {
    "ctx rejects most draws": ("(binary-+ a '0)", "a", ["(integerp a)", "(evenp a)"], "equal", 60),
    "unsatisfiable ctx starves": ("a", "a", ["(equal a (binary-+ '1 a))"], "iff", 20),
    "ctx fact undefined on odd integers": ("a", "(rp 'integerp a)", ["(evenp (d2 a))"], "equal", 60),
    "input undefined on odd integers is skipped": ("(d2 a)", "(f2 a)", [], "equal", 80),
    "output undefined where input is defined": ("(f2 a)", "(d2 a)", [], "equal", 80),
    # an after evaluated where before is undefined would reach mystery
    "after only where before is defined": ("(d2 a)", "(if (evenp a) (f2 a) (mystery a))", [], "iff", 80),
    "wrapper fails or raises": ("(cons a b)", "(cons (rp 'evenp a) (rp 'd2 b))", [], "equal", 80),
    "value change and wrapper failure on one draw": ("a", "(rp 'consp (binary-+ a '0))", [], "equal", 40),
    "wrapper property unregistered": ("a", "(rp 'foo a)", [], "equal", 20),
    # earlier draws fail a wrapper; a later one reaches mystery and skips all
    "unknown function after earlier failures": (
        "a", "(if (equal a '5) (mystery a) (rp 'evenp a))", ["(integerp a)"], "iff", 200),
    "unknown function in a fact": ("a", "a", ["(if (equal a '3) (mystery a) 't)"], "iff", 200),
    "unknown function everywhere": ("(iassoc a b)", "a", [], "iff", 20),
    "truthiness flips on some draws only": ("(consp a)", "(integerp a)", [], "iff", 60),
    "values compared as pairs": ("(cons a b)", "(cons b a)", [], "equal", 60),
    # no variable or one: most of a chunk's draws repeat an environment
    "ground sound rewrite": ("(binary-+ '1 '2)", "'3", [], "equal", 250),
    "ground term with an unregistered function": ("(iassoc '1 '2)", "'nil", [], "iff", 250),
    "one variable with d2 skips": ("(binary-+ (d2 a) (d2 a))", "a", [], "equal", 250),
    "one variable with a wrapper failure": ("(binary-+ a '0)", "(rp 'evenp (binary-+ a '0))", [], "equal", 250),
}


def _sharing(text):
    """(before, after, ctx) read as one list form (before after . ctx), so
    that they share every node its let* binds."""
    before, after, *ctx = P(text).args
    return before, after, ctx


# cases whose terms share nodes, given as terms
SAMPLING_CASES.update({
    "after is before": (*_sharing("(let* ((x (cons (binary-+ a b) (d2 a)))) (list x x))"), "equal", 60),
    # y sits under an rp in after; x holds a wrapper, which after must check
    "shared node under an rp in after": (
        *_sharing("(let* ((y (binary-+ a b)) (x (cons (rp 'evenp y) b))) (list (cons x y) (cons x (rp 'integerp y))))"),
        "equal", 60),
    "shared partial d2 node": (
        *_sharing("(let* ((h (d2 a))) (list (cons h (f2 a)) (if (evenp b) (cons h (d2 a)) (cons (d2 h) h))))"),
        "equal", 80),
    "ctx fact shares a node with before": (
        *_sharing("(let* ((x (binary-+ a b))) (list (binary-+ x '0) (binary-+ b a) (integerp x) (evenp x)))"),
        "equal", 60),
})


def _term(t):
    """A case's term, read if it is given as text."""
    return P(t) if isinstance(t, str) else t


@pytest.mark.parametrize("case", sorted(SAMPLING_CASES))
def test_sampling_oracles_match_one_environment_at_a_time(reg, case):
    before, after, ctx, mode, n = SAMPLING_CASES[case]
    before, after, ctx = _term(before), _term(after), [_term(f) for f in ctx]
    for seed in range(3):
        want = _reference_check_run(before, after, ctx, n, reg, mode, seed)
        assert check_run(before, after, ctx, n, reg, mode=mode, seed=seed) == want
        judge = _reference_judge(before, after, mode, reg)
        assert check_preservation(before, after, mode, n, reg, seed=seed) == _reference_sample(
            (before, after), (), n, reg, seed, judge)


def test_sampling_cases_show_their_traits(reg):
    def run(case, seed=0):
        before, after, ctx, mode, n = SAMPLING_CASES[case]
        return check_run(_term(before), _term(after), [_term(f) for f in ctx], n, reg, mode=mode, seed=seed)

    assert run("unsatisfiable ctx starves").starved
    skipped = run("input undefined on odd integers is skipped")
    assert 0 < skipped.skipped < 80 and skipped.ok
    ordered = run("after only where before is defined")
    assert 0 < ordered.skipped < 80 and ordered.ok
    late = run("unknown function after earlier failures")
    assert late.skipped == 200 and late.failures and not late.ok
    assert run("unknown function everywhere").skipped == 20
    ground = run("ground sound rewrite")
    assert ground.ok and ground.accepted == 250
    ground = run("ground term with an unregistered function")
    assert ground.skipped == 250 and ground.unknown == "iassoc"
    halves = run("one variable with d2 skips")
    # odd integers skip; non-integers halve to 0 and fail, each value many times over
    assert 0 < halves.skipped < 250 and not halves.ok
    assert len(halves.failures) > len(set(halves.failures))
    wrapped = run("one variable with a wrapper failure")
    # a failing draw is not counted, so draws go on until 250 pass
    assert wrapped.accepted == 250 and not wrapped.starved
    assert len(wrapped.failures) > len(set(wrapped.failures))
    unregistered = run("wrapper property unregistered")
    # a failing draw is not counted, so every draw up to the cap fails
    assert unregistered.starved and unregistered.accepted == 0
    assert {what for _p, what, _e in unregistered.failures} == {"side-condition evaluation error: foo"}
    before, after, ctx, _mode, _n = SAMPLING_CASES["after is before"]
    assert before is after
    before, after, ctx, _mode, _n = SAMPLING_CASES["shared node under an rp in after"]
    assert after.args[0] is before.args[0] and after.args[1].args[1] is before.args[1]
    wrapped = run("shared node under an rp in after")
    assert wrapped.failures and all(what == P("(evenp (binary-+ a b))") for _p, what, _e in wrapped.failures)
    before, after, ctx, _mode, _n = SAMPLING_CASES["shared partial d2 node"]
    assert after.args[1].args[0] is before.args[0]
    partial = run("shared partial d2 node")
    assert 0 < partial.skipped < 80 and not partial.ok
    before, after, ctx, _mode, _n = SAMPLING_CASES["ctx fact shares a node with before"]
    assert ctx[0].args[0] is ctx[1].args[0] is before.args[0]
    assert run("ctx fact shares a node with before").ok


RULE_TEXTS = [
    "(def-rp-rule comm (equal (binary-+ x y) (binary-+ y x)))",
    "(def-rp-rule wrong (equal (binary-+ x y) (binary-+ x x)))",
    "(def-rp-rule halves (implies (and (evenp x) (integerp x)) (equal (d2 x) (f2 x))))",
    "(def-rp-rule unguarded (equal (f2 x) (d2 x)))",
    "(def-rp-rule unknown (equal (iassoc x y) (iassoc x y)))",
    "(def-rp-rule truthy (iff (consp (cons x y)) 't))",
    "(def-rp-rule ordered (implies (syntaxp (not (lexorder y x))) (equal (binary-+ y x) (binary-+ x y))))",
]


@pytest.mark.parametrize("text", RULE_TEXTS)
def test_rule_soundness_matches_one_environment_at_a_time(reg, text):
    rule = next(iter(build_ruleset(parse_rule_file(text)).rules.values()))
    hyps = [h for h in rule.hyps if not isinstance(h, Syntaxp)]
    label = f"rule {rule.name}: "
    judge = _reference_judge(rule.lhs, rule.rhs, rule.equiv, reg, label)
    for seed in range(3):
        want = _reference_sample((rule.lhs, rule.rhs), hyps, 150, reg, seed, judge)
        assert sample_rule_soundness(rule, reg, 150, seed=seed) == want


def test_check_run_matches_one_environment_at_a_time_on_random_terms(reg):
    rng = random.Random(7)
    for i in range(30):
        before = random_term(rng, 3)
        after = random_term(rng, 3)
        if rng.random() < 0.5:
            after = App("rp", (Quote(rng.choice(("integerp", "evenp", "consp", "d2"))), after))
        ctx = [random_term(rng, 2)] if rng.random() < 0.3 else []
        mode = rng.choice(("iff", "equal"))
        want = _reference_check_run(before, after, ctx, 30, reg, mode, i)
        assert check_run(before, after, ctx, 30, reg, mode=mode, seed=i) == want
