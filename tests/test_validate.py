"""Sampling oracles: wrapper validity, preservation, soundness checks."""

import random

import pytest

from termrw.evaluator import UnknownFunctionError
from termrw.rules import build_ruleset, parse_rule_file
from termrw.terms import Cons, Quote, Var, parse_term
from termrw.validate import (
    check_preservation,
    check_run,
    check_syntax_preserved,
    env_digest,
    random_term,
    sample_env,
    sample_rule_soundness,
    sample_value,
    valid_sc,
    valid_sc_failure,
)

P = parse_term


# ---------------------------------------------------------------------------
# valid_sc


def test_valid_sc_atoms(reg):
    assert valid_sc(Var("x"), {"x": 1}, reg)
    assert valid_sc(Quote("anything"), {}, reg)


def test_valid_sc_wrapper_truth(reg):
    t = P("(rp 'evenp a)")
    assert valid_sc(t, {"a": 4}, reg)
    assert not valid_sc(t, {"a": 3}, reg)


def test_valid_sc_nested_wrappers(reg):
    t = P("(rp 'integerp (rp 'evenp a))")
    assert valid_sc(t, {"a": 4}, reg)
    assert not valid_sc(t, {"a": 3}, reg)


def test_valid_sc_follows_taken_branch_only(reg):
    t = P("(if (integerp a) '0 (rp 'evenp a))")
    # integer input takes the then branch; the bad wrapper is never reached
    assert valid_sc(t, {"a": 3}, reg)
    t2 = P("(if (consp a) '0 (rp 'evenp a))")
    assert not valid_sc(t2, {"a": 3}, reg)


def test_valid_sc_checks_if_test(reg):
    t = P("(if (rp 'evenp a) '0 '1)")
    assert not valid_sc(t, {"a": 3}, reg)


def test_valid_sc_failure_reports_position(reg):
    bad = valid_sc_failure(P("(f (rp 'evenp a))"), {"a": 3}, reg)
    path, prop = bad
    assert path == (1,)
    assert prop == P("(evenp a)")


def test_valid_sc_evaluates_the_whole_term(reg):
    # an error outside every wrapper propagates, even next to a valid one
    t = P("(cons (rp 'integerp a) (mystery a))")
    with pytest.raises(UnknownFunctionError):
        valid_sc(t, {"a": 4}, reg)
    with pytest.raises(UnknownFunctionError):
        valid_sc_failure(t, {"a": 4}, reg)
    # a failing wrapper evaluated before the error is reported instead
    assert valid_sc_failure(P("(cons (rp 'evenp a) (mystery a))"), {"a": 3}, reg) == ((1,), P("(evenp a)"))


def test_valid_sc_wrapper_prop_is_evaluated(reg):
    # the wrapped property is an application of the prop symbol to the payload
    t = P("(rp 'consp (cons a b))")
    assert valid_sc(t, {"a": 1, "b": 2}, reg)


# ---------------------------------------------------------------------------
# sampling


def test_sample_value_mixes_scales():
    rng = random.Random(0)
    values = [sample_value(rng) for _ in range(2000)]
    small = sum(1 for v in values if isinstance(v, int) and -8 <= v <= 8)
    huge = sum(1 for v in values if isinstance(v, int) and abs(v) > 2**60)
    structured = sum(1 for v in values if isinstance(v, (str, Cons)))
    assert small + huge + structured == 2000
    # rough halves and quarters
    assert 800 < small < 1200
    assert 350 < huge < 650
    assert 350 < structured < 650


def test_sample_env_covers_names():
    env = sample_env(random.Random(1), {"b", "a"})
    assert set(env) == {"a", "b"}


def test_env_digest_is_stable():
    assert env_digest({"b": 1, "a": "nil"}) == "a=nil b=1"


# ---------------------------------------------------------------------------
# preservation


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


def test_check_syntax_preserved():
    from termrw.terms import App

    good = P("(rp 'integerp (f x))")
    assert check_syntax_preserved(good, good)
    # the reader refuses this shape, so build it directly
    bad = App("rp", (Quote("nil"), Var("x")))
    assert not check_syntax_preserved(good, bad)


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
        env = sample_env(random.Random(i), ("a", "b", "c"))
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
