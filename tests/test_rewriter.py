"""The rewriting engine: unification, contexts, dont-rw, the step loop."""

import gc
import hashlib
import pathlib
import sys
import weakref

import pytest

from termrw.demo import TREE_RULES, TREE_RULES_BACKCHAIN, chain_term, lookups_term, tree_conjecture
from termrw.meta import MetaRegistry, MetaRule, demo_metas
from termrw.rewriter import Context, RewriteConfig, Rewriter, RewriteStats, conjuncts_of, instantiate, negate, unify
from termrw.rules import Syntaxp, UnboundRuleVariableError, build_ruleset, parse_rule_file, syntaxp_eval
from termrw.terms import (
    OPEN,
    STOP,
    App,
    Quote,
    Var,
    arg_dont_rws,
    dont_rw_from_value,
    format_term,
    mk_rp,
    parse_term,
    read_value,
    substitute,
    template_info,
    wrapper_props,
)
from termrw.validate import check_run

P = parse_term


def ruleset(text):
    return build_ruleset(parse_rule_file(text))


def rewriter(text="", **cfg):
    rs = ruleset(text) if text else build_ruleset([])
    return Rewriter(rs, cfg=RewriteConfig(**cfg)) if cfg else Rewriter(rs)


# ---------------------------------------------------------------------------
# unification


def test_unify_plain():
    got = unify(P("(f x y)"), P("(f a '1)"))
    assert got is not None
    bindings, extracted = got
    assert bindings == {"x": Var("a"), "y": Quote(1)}
    assert extracted == []


def test_unify_keeps_wrapper_in_binding():
    t = P("(f (rp 'integerp a))")
    bindings, extracted = unify(P("(f x)"), t)
    # at a variable position the wrapper travels inside the binding, so an
    # instantiated hyp like (integerp x) still sees it; nothing to extract
    assert bindings["x"] == P("(rp 'integerp a)")
    assert extracted == []


def test_unify_wrapper_at_function_position():
    t = mk_rp("integerp", P("(f a)"))
    bindings, extracted = unify(P("(f x)"), t)
    assert bindings == {"x": Var("a")}
    assert [prop for _t, prop in extracted] == ["integerp"]


def test_unify_nonlinear_modulo_wrappers():
    assert unify(P("(f x x)"), P("(f (rp 'integerp a) a)")) is not None
    assert unify(P("(f x x)"), P("(f a b)")) is None


def test_unify_does_not_look_through_an_rp_call():
    # only (rp 'prop x) is a wrapper; (rp p x) is an ordinary call
    assert unify(P("(g (f y))"), P("(g (rp p (f a)))")) is None
    bindings, extracted = unify(P("(g y)"), P("(g (rp p a))"))
    assert bindings == {"y": P("(rp p a)")} and extracted == []


def test_unify_mismatches():
    assert unify(P("(f x)"), P("(g a)")) is None
    assert unify(P("(f '1)"), P("(f '2)")) is None
    assert unify(P("(f x y)"), P("(f a)")) is None


def test_failed_unify_keeps_no_frames_alive():
    class Bindings(dict):
        pass

    bindings = Bindings()
    ref = weakref.ref(bindings)
    assert unify(P("(f x x)"), P("(f '1 '2)"), bindings) is None
    del bindings
    gc.collect()
    assert ref() is None


def test_instantiate():
    bindings, _ = unify(P("(f x)"), P("(f (g a))"))
    assert instantiate(P("(h x x)"), bindings) == P("(h (g a) (g a))")
    # terms bind no names, so rule instances use the one substitution
    assert instantiate is substitute


# ---------------------------------------------------------------------------
# dont-rw structures


def test_dont_rw_from_value():
    dw = dont_rw_from_value(read_value("(f1 stop (f2 x))"))
    assert dw == (STOP, STOP, (STOP, STOP))


def test_dont_rw_nil_is_open():
    assert dont_rw_from_value("nil") is OPEN
    assert dont_rw_from_value(read_value("(f nil)")) == (STOP, OPEN)


def test_template_guard_stops_at_variables_and_constants():
    # variable slots hold already-rewritten bindings and constants need no
    # rewrite; the template's applications stay open.  An instantiation
    # builds every node but the variables.
    size, dw = template_info(P("(g x '1 (h y))"))
    assert dw == (STOP, STOP, STOP, (STOP, STOP))
    assert size == 3


def test_arg_dont_rws_shape_mismatch_degrades_open():
    dw = dont_rw_from_value(read_value("(f a)"))
    assert arg_dont_rws(dw, 3) == (OPEN, OPEN, OPEN)
    assert arg_dont_rws(STOP, 2) == (OPEN, OPEN)
    assert arg_dont_rws(dw, 1) == (STOP,)


def test_dont_rw_guards_marked_subterms():
    # the marked argument positions survive; open positions rewrite
    rs = "(def-rp-rule f3-gone (equal (f3 u v) 'folded)) (def-rp-rule f4-open (equal (f4 z) (f5 z)))"
    t = P("(f1 (f2 a (f3 b c)) (f4 (f3 b c)))")
    dw = dont_rw_from_value(read_value("(f1 (f2 x y) (f4 z))"))
    guarded = rewriter(rs).rewrite(t, dont_rw=dw, iff=False)
    assert guarded == P("(f1 (f2 a (f3 b c)) (f5 (f3 b c)))")
    open_out = rewriter(rs).rewrite(t, iff=False)
    assert open_out == P("(f1 (f2 a 'folded) (f5 'folded))")


# ---------------------------------------------------------------------------
# contexts


def test_context_membership_and_negation():
    c = Context.from_terms([P("(p a)"), P("(not (q b))")])
    assert c.contains(P("(p a)"))
    assert c.contains_negation(P("(q b)"))
    assert not c.contains(P("(q b)"))


def test_context_drops_truthy_quotes_and_dedupes():
    c = Context.from_terms([P("'t"), P("(p a)"), P("(p a)")])
    assert len(c.facts) == 1


def test_context_strips_wrappers():
    c = Context.from_terms([P("(integerp (rp 'evenp x))")])
    assert c.contains(P("(integerp x)"))


def test_conjuncts_and_negate():
    assert [format_term(x) for x in conjuncts_of(P("(if p (if q r 'nil) 'nil)"))] == ["p", "q", "r"]
    assert negate(P("(not x)")) == Var("x")
    assert negate(P("(p x)")) == P("(not (p x))")


# ---------------------------------------------------------------------------
# context reduction in iff positions


def test_reduce_membership():
    assert rewriter().rewrite(P("(p a)"), ctx=[P("(p a)")], iff=True) == Quote("t")


def test_reduce_negation():
    assert rewriter().rewrite(P("(p a)"), ctx=[P("(not (p a))")], iff=True) == Quote("nil")
    assert rewriter().rewrite(P("(not (p a))"), ctx=[P("(p a)")], iff=True) == Quote("nil")


def test_reduce_wrapped_prop_no_rules_needed():
    rw = rewriter()
    out = rw.rewrite(P("(integerp (rp 'integerp (f a)))"), iff=True)
    assert out == Quote("t")
    assert rw.stats.rule_attempts == 0


def test_no_reduction_in_equal_position():
    # (p a) under ctx is only 't in truth-value positions
    assert rewriter().rewrite(P("(f (p a))"), ctx=[P("(p a)")], iff=False) == P("(f (p a))")


def test_reduction_after_arg_rewrite():
    rs = "(def-rp-rule r (equal (g x) (p x)))"
    out = rewriter(rs).rewrite(P("(g b)"), ctx=[P("(p b)")], iff=True)
    assert out == Quote("t")


def test_context_decides_a_term_once_an_argument_rewrites():
    # (p (f a)) becomes (p a) after its argument rewrites, and the context
    # then decides it with no further step
    rs = ruleset("(defthm r (equal (f x) x))")
    cases = [
        ("(p (f a))", ["(p a)"], "'t", 4),
        ("(p (f a))", ["(not (p a))"], "'nil", 4),
        ("(if (p a) (p (f a)) (q b))", [], "(if (p a) 't (q b))", 9),
    ]
    for t, ctx, out, calls in cases:
        rw = Rewriter(rs)
        assert rw.rewrite(P(t), ctx=[P(c) for c in ctx]) == P(out)
        assert (rw.stats.rewrite_calls, rw.stats.rule_applications) == (calls, 1)


# ---------------------------------------------------------------------------
# if handling


def test_if_quoted_test_selects_branch():
    assert rewriter().rewrite(P("(if 't (f a) (g b))"), iff=False) == P("(f a)")
    assert rewriter().rewrite(P("(if 'nil (f a) (g b))"), iff=False) == P("(g b)")
    assert rewriter().rewrite(P("(if '7 x y)"), iff=False) == Var("x")


def test_if_wrapped_constant_test_selects_branch():
    assert rewriter().rewrite(P("(if (rp 'integerp (binary-+ '1 '2)) a b)")) == Var("a")
    assert rewriter().rewrite(P("(if (rp 'symbolp (car '(nil))) a b)")) == Var("b")


def test_if_branches_extend_context():
    rs = "(def-rp-rule r (implies (p x) (equal (f x) 'fired)))"
    out = rewriter(rs).rewrite(P("(if (p a) (f a) (f a))"), iff=False)
    # hyp (p a) holds only inside the then branch
    assert out == P("(if (p a) 'fired (f a))")


def test_if_test_is_iff_position():
    out = rewriter().rewrite(P("(if (p a) x y)"), ctx=[P("(p a)")], iff=False)
    assert out == Var("x")


def test_branch_facts_do_not_leak_to_siblings():
    rs = "(def-rp-rule s (implies (integerp y) (equal (g y) 'int)))"
    out = rewriter(rs).rewrite(P("(h (rp 'integerp a) (g b))"), iff=False)
    assert out == P("(h (rp 'integerp a) (g b))")


def test_extracted_wrapper_facts_relieve_hyps():
    rs = "(def-rp-rule s (implies (integerp y) (equal (g y) 'int)))"
    rw = rewriter(rs)
    out = rw.rewrite(P("(g (rp 'integerp a))"), iff=False)
    assert out == Quote("int")
    # relief came from the extracted fact, not from backchaining on a rule
    assert rw.stats.rule_attempts == 1


# ---------------------------------------------------------------------------
# executable counterparts


def test_exec_on_quoted_args():
    rw = rewriter()
    assert rw.rewrite(P("(binary-+ '1 '2)"), iff=False) == Quote(3)
    assert rw.stats.exec_evals == 1


def test_exec_skipped_on_open_args():
    assert rewriter().rewrite(P("(binary-+ '1 x)"), iff=False) == P("(binary-+ '1 x)")


def test_exec_domain_error_leaves_term():
    rw = rewriter()
    out = rw.rewrite(P("(d2 '7)"), iff=False)
    assert out == P("(d2 '7)")
    assert rw.stats.exec_domain_errors == 1


def test_disable_exec_declaration():
    rw = rewriter("(disable-exec binary-+)")
    assert rw.rewrite(P("(binary-+ '1 '2)"), iff=False) == P("(binary-+ '1 '2)")


def test_exec_of_unknown_head_is_skipped():
    assert rewriter().rewrite(P("(mystery '1)"), iff=False) == P("(mystery '1)")


# ---------------------------------------------------------------------------
# rules and hypothesis relief


def test_rule_application_counters():
    rw = rewriter("(def-rp-rule r (equal (f x) (g x)))")
    out = rw.rewrite(P("(f a)"), iff=False)
    assert out == P("(g a)")
    assert rw.stats.rule_attempts == 1
    assert rw.stats.rule_applications == 1


def test_hyp_relief_failure_counted():
    rw = rewriter("(def-rp-rule r (implies (p x) (equal (f x) 'fired)))")
    assert rw.rewrite(P("(f a)"), iff=False) == P("(f a)")
    assert rw.stats.hyp_relief_failures == 1


def test_hyps_relieve_through_rules():
    rs = """
    (def-rp-rule pa (equal (p a) 't))
    (def-rp-rule r (implies (p x) (equal (f x) 'fired)))
    """
    assert rewriter(rs).rewrite(P("(f a)"), iff=False) == Quote("fired")


def test_backchain_depth_bounds_recursion():
    # relieving the hyp spawns the same rule on a bigger argument forever
    rs = "(def-rp-rule loop (implies (p (f (g x))) (equal (p (f x)) 't)))"
    rw = Rewriter(ruleset(rs), cfg=RewriteConfig(backchain_depth=12))
    out = rw.rewrite(P("(p (f a))"), iff=True)
    assert out == P("(p (f a))")
    assert rw.stats.hyp_relief_failures > 0


def test_step_limit_flag():
    rw = rewriter("", step_limit=3)
    rw.rewrite(P("(f (g (h (k a))))"), iff=False)
    assert rw.stats.step_limit_hit


# The work each shipped conjecture takes: (rewrite_calls, rule_attempts,
# rule_applications, hyp_relief_failures, step_limit_hit).  How the loop
# runs its steps (generators, wrapper relief at the binding, reused
# wrappers) must not change any of them; only nodes_created may move.
TREE_WORK = {
    (6, True): (955, 128, 128, 0, False),
    (6, False): (2627, 1090, 706, 0, False),
    (8, True): (3835, 512, 512, 0, False),
    (8, False): (13571, 5890, 3842, 0, False),
}
ROUND_TO_EVEN_WORK = {
    "three-round-to-evens": (113, 146, 19, 50, False),
    "four-round-to-evens": (182, 248, 31, 89, False),
}
DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def _work(rw):
    s = rw.stats
    return (s.rewrite_calls, s.rule_attempts, s.rule_applications, s.hyp_relief_failures, s.step_limit_hit)


def _tree_rewriter(side_conditions, **cfg):
    rs = ruleset(TREE_RULES if side_conditions else TREE_RULES_BACKCHAIN)
    return Rewriter(rs, cfg=RewriteConfig(side_conditions_enabled=side_conditions, **cfg))


@pytest.mark.parametrize("depth,side_conditions", sorted(TREE_WORK))
def test_tree_conjecture_work_is_pinned(depth, side_conditions):
    rw = _tree_rewriter(side_conditions)
    assert rw.proved(tree_conjecture(depth))[0]
    assert _work(rw) == TREE_WORK[depth, side_conditions]


def test_round_to_even_work_is_pinned():
    rs = ruleset((DEMOS / "rules" / "arith.lsp").read_text())
    paths = sorted((DEMOS / "conjectures").glob("*-round-to-evens.lsp"))
    assert [p.name[: -len(".lsp")] for p in paths] == sorted(ROUND_TO_EVEN_WORK)
    for path in paths:
        rw = Rewriter(rs)
        assert rw.proved(P(path.read_text()))[0]
        assert _work(rw) == ROUND_TO_EVEN_WORK[path.name[: -len(".lsp")]]


# Every step limit from 1 to the full call count on the depth-3 tree: the
# limits where the output changes, and a digest of the distinct outputs in
# order.  The sweep stops the loop at every kind of call, an argument only
# counted and a hypothesis relieved by a wrapper at the binding included.
STEP_LIMIT_SWEEP = {
    True: (115, [1, 14, 30, 37, 52, 68, 75, 80], "5cf02bc485796086"),
    False: (187, [1, 14, 30, 50, 68, 84, 104, 148], "207a82ad4924f562"),
}


@pytest.mark.parametrize("side_conditions", [True, False])
def test_every_step_limit_stops_the_tree_where_it_did(side_conditions):
    full, changes, digest = STEP_LIMIT_SWEEP[side_conditions]
    conjecture = tree_conjecture(3)
    outputs = []
    for limit in range(1, full + 1):
        rw = _tree_rewriter(side_conditions, step_limit=limit)
        outputs.append(format_term(rw.proved(conjecture)[1]))
        assert (rw.stats.rewrite_calls, rw.stats.step_limit_hit) == (limit, limit < full)
    assert outputs[0] == format_term(conjecture)
    assert outputs[-1] == "'t"
    at = [i + 1 for i, out in enumerate(outputs) if i == 0 or out != outputs[i - 1]]
    assert at == changes
    distinct = "\n".join(outputs[i - 1] for i in at)
    assert hashlib.sha256(distinct.encode()).hexdigest()[:16] == digest


def test_step_limit_bounds_each_rewrite_not_the_rewriter():
    # every rewrite gets the whole limit; the stats go on accumulating
    rw = _tree_rewriter(True, step_limit=5000)
    for k in range(1, 8):
        assert rw.proved(tree_conjecture(6))[0], k
        assert (rw.stats.rewrite_calls, rw.stats.step_limit_hit) == (955 * k, False)
    rw.cfg.step_limit = 100
    assert not rw.proved(tree_conjecture(6))[0]
    assert (rw.stats.rewrite_calls, rw.stats.step_limit_hit) == (955 * 7 + 100, True)


def test_wrapper_relief_takes_no_generator(monkeypatch):
    # a rule whose hypotheses all hold by the wrappers on its bindings is
    # relieved by plain calls; the generator runs only at the bottom level,
    # whose bindings are unwrapped (iassoc ...) leaves
    relieve = Rewriter._relieve_hyps
    ran = []

    def watched(self, *args):
        bindings = next(a for a in args if isinstance(a, dict))
        if all("integerp" in wrapper_props(b) for b in bindings.values()):
            raise AssertionError("the hypotheses of a wrapped match took a generator")
        ran.append(bindings)
        return relieve(self, *args)

    monkeypatch.setattr(Rewriter, "_relieve_hyps", watched)
    assert _tree_rewriter(True).proved(tree_conjecture(6))[0]
    assert len(ran) == 32


def _python_calls(fn):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_a_tree_proof_makes_few_python_calls():
    # "call" events, generator resumptions included, per depth-6 proof;
    # the bound is two thirds of the 8,348 of a loop with a frame per step
    rw = _tree_rewriter(True)
    conjecture = tree_conjecture(6)
    assert _python_calls(lambda: rw.proved(conjecture)) <= 5565
    assert _work(rw) == TREE_WORK[6, True]


# A rule whose hypotheses mix relief at the binding, a syntaxp test and a
# rewritten instance, tried before a rule without hypotheses.  For each
# term: the full call count, hyp_relief_failures at each step limit from 1,
# the limits where the output changes, and the full output, all read before
# hypotheses were relieved by plain calls.
MIXED_HYP_RULES = """\
(def-rp-rule r2 (equal (f x y z) (h x)))
(def-rp-rule r (implies (and (integerp x) (syntaxp (not (equal (car y) 'm))) (p y) (integerp z))
                        (equal (f x y z) (g x y z))))
(def-rp-rule p-of-n (p (n x)))
"""
MIXED_HYP_TERMS = {
    "(k (f (rp 'integerp a) (n b) (rp 'integerp c)))": (
        15,
        "011111111100000",
        [1, 2, 11],
        "(k (g (rp 'integerp a) (n b) (rp 'integerp c)))",
    ),
    "(k (f (rp 'integerp a) (q b) (rp 'integerp c)))": (11, "01111111111", [1, 2], "(k (h (rp 'integerp a)))"),
    "(k (f (rp 'integerp a) (m b) (rp 'integerp c)))": (9, "011111111", [1, 2], "(k (h (rp 'integerp a)))"),
    "(k (f (rp 'integerp a) (n b) c))": (14, "01111111111111", [1, 2], "(k (h (rp 'integerp a)))"),
}


@pytest.mark.parametrize("text", sorted(MIXED_HYP_TERMS))
def test_mixed_hypotheses_stop_where_they_did(text):
    full, failures, changes, final = MIXED_HYP_TERMS[text]
    outputs = []
    for limit in range(1, full + 1):
        rw = rewriter(MIXED_HYP_RULES, step_limit=limit)
        outputs.append(format_term(rw.rewrite(P(text), iff=False)))
        assert (rw.stats.rewrite_calls, rw.stats.step_limit_hit) == (limit, limit < full)
        assert rw.stats.hyp_relief_failures == int(failures[limit - 1]), limit
    assert [i + 1 for i, out in enumerate(outputs) if i == 0 or out != outputs[i - 1]] == changes
    assert outputs[-1] == final


def test_wrapper_relief_at_the_binding_defers_to_a_negated_fact():
    # (integerp x) is relieved by x's wrapper, unless the context holds its
    # negation: the hyp's rewrite reduces it to 'nil first
    rs = "(def-rp-rule r (implies (integerp x) (equal (f x) (g x))))"
    t = P("(f (rp 'integerp a))")
    assert rewriter(rs).rewrite(t, iff=False) == P("(g (rp 'integerp a))")
    rw = rewriter(rs)
    assert rw.rewrite(t, ctx=[P("(not (integerp a))")], iff=False) == t
    assert rw.stats.hyp_relief_failures == 1
    assert rewriter(rs, side_conditions_enabled=False).rewrite(t, iff=False) == t


def test_variable_result_in_an_iff_position_is_still_reduced_by_the_context():
    # a meta result, or a lambda form read as its body, that is a variable
    # is rewritten, not passed through, when it stands in an iff position
    metas = MetaRegistry([MetaRule("first-arg", "p", lambda t: t.args[0])])
    rw = Rewriter(metas=metas)
    assert rw.rewrite(P("(p a)"), ctx=[Var("a")], iff=True) == Quote("t")
    assert rw.rewrite(P("(p a)"), ctx=[Var("a")], iff=False) == Var("a")
    assert rewriter().rewrite(P("((lambda (x) x) a)"), ctx=[Var("a")], iff=True) == Quote("t")


def test_unchanged_wrapped_term_is_returned_as_is():
    t = P("(rp 'integerp (f a 'k))")
    assert rewriter().rewrite(t, iff=False) is t
    # a wrapper named twice is rewrapped once, as before
    twice = P("(rp 'integerp (rp 'integerp (f a)))")
    assert rewriter().rewrite(twice, iff=False) == P("(rp 'integerp (f a))")


def test_iff_only_rule_gated_by_position():
    rs = "(def-rp-rule r (iff (p x) 't))"
    rw = rewriter(rs)
    assert rw.rewrite(P("(if (p a) x y)"), iff=False) == Var("x")
    assert rewriter(rs).rewrite(P("(f (p a))"), iff=False) == P("(f (p a))")


def test_iff_rule_under_a_wrapper_keeps_the_payload_value():
    # the wrapper's property is about (+ a b)'s value, so the iff-only rule
    # must not turn the payload into 't
    rw = rewriter("(def-rp-rule plus-truthy (iff (+ x y) 't))")
    before = P("(if (rp 'integerp (+ a b)) a b)")
    out = rw.rewrite(before)
    assert out == P("(if (rp 'integerp (binary-+ a b)) a b)")
    assert check_run(before, out, [], 250, rw.registry, mode="iff", seed=7).ok


def test_loop_rule_set_ends_at_backchain_depth():
    # each relief of (q x) rewrites (q x) again; the loop runs on the heap,
    # so backchain_depth, not the Python stack, ends it on the main thread
    rs = """
    (def-rp-rule loop (implies (q x) (equal (q x) (q2 x))))
    (def-rp-rule uses-q (implies (q x) (equal (f x) 'fired)))
    """
    rw = rewriter(rs)
    assert rw.rewrite(P("(f a)"), iff=False) == P("(f a)")
    assert rw.stats.hyp_relief_failures == RewriteConfig.backchain_depth + 1
    assert rw._backchain == 0
    assert rw.rewrite(P("(binary-+ '1 '2)"), iff=False) == Quote(3)


class MetaFailure(Exception):
    pass


def test_meta_error_in_backchain_propagates_and_leaves_rewriter_usable():
    # the error leaves through every generator waiting on the hypothesis
    def explode(t):
        raise MetaFailure(format_term(t))

    rw = rewriter("(def-rp-rule r (implies (p x) (equal (f x) 'fired)))")
    rw.metas.register(MetaRule("explode", "p", explode))
    with pytest.raises(MetaFailure, match=r"\(p a\)"):
        rw.rewrite(P("(g (f a))"), iff=False)
    assert rw._backchain == 0
    assert rw.rewrite(P("(binary-+ '1 '2)"), iff=False) == Quote(3)


def test_disabled_rule_not_tried():
    rs = "(def-rp-rule r (equal (f x) 'no)) (enable-rule r nil)"
    rw = rewriter(rs)
    assert rw.rewrite(P("(f a)"), iff=False) == P("(f a)")
    assert rw.stats.rule_attempts == 0


def test_rhs_rewritten_after_application():
    rs = """
    (def-rp-rule inner (equal (g x) 'done))
    (def-rp-rule outer (equal (f x) (g x)))
    """
    assert rewriter(rs).rewrite(P("(f a)"), iff=False) == Quote("done")


def test_bindings_not_rewritten_again():
    # the binding position is STOP in the rhs template dont-rw; arguments are
    # normalized before the rule fires, so nothing is lost
    rs = """
    (def-rp-rule once (equal (wrap x) (unwrap x)))
    (def-rp-rule arg (equal (k a) 'normal))
    """
    rw = rewriter(rs)
    out = rw.rewrite(P("(wrap (k a))"), iff=False)
    assert out == P("(unwrap 'normal)")


def test_proved_entry():
    ok, out = rewriter().proved(P("(implies (p a) (p a))"))
    assert ok and out == Quote("t")
    ok2, _ = rewriter().proved(P("(p a)"))
    assert not ok2


def test_if_identical_branches_merge():
    assert rewriter().rewrite(P("(if (p a) (f b) (f b))"), iff=False) == P("(f b)")


def test_equal_self_through_wrappers():
    assert rewriter().rewrite(P("(equal (rp 'integerp (f a)) (f a))"), iff=True) == Quote("t")


def test_hide_stops_rewriting_of_contents():
    rs = "(def-rp-rule r (equal (f x) 'fired))"
    out = rewriter(rs).rewrite(P("(hide (f a))"), iff=False)
    assert out == P("(f a)")
    assert rewriter(rs).rewrite(P("(g (hide (f a)))"), iff=False) == P("(g (f a))")


def test_no_guard_is_built_while_rewriting(monkeypatch):
    """Each rule carries the size and guard of its rhs, wrapped rhs and
    hyps, built with the rule: rewriters sharing its rule set build none."""
    import termrw.terms

    built = []
    real_walk = termrw.terms._info_of_template

    def counting_walk(template):
        built.append(template)
        return real_walk(template)

    # every caller of terms.template_info, under any name, reaches this walk
    monkeypatch.setattr(termrw.terms, "_info_of_template", counting_walk)
    for text, sc in ((TREE_RULES, True), (TREE_RULES_BACKCHAIN, False)):
        rs = ruleset(text)
        assert built
        built.clear()
        for _ in range(2):
            rw = Rewriter(rs, cfg=RewriteConfig(side_conditions_enabled=sc))
            proved, _ = rw.proved(tree_conjecture(6))
            assert proved and rw.stats.rule_applications > 0
        assert built == []


def test_an_rp_without_a_quoted_property_is_rewritten_as_a_call():
    # only (rp 'prop x) is a wrapper: any other rp is an ordinary call, whose
    # arguments rewrite and which no rule on rp matches
    t = App("rp", (Var("p"), Var("x")))
    assert Rewriter().rewrite(t) == t
    rs = "(defthm r (equal (f x) x))"
    assert rewriter(rs).rewrite(P("(equal (f (rp p x)) x)")) == P("(equal (rp p x) x)")
    assert rewriter(rs).rewrite(P("(rp (f p) (f (rp 'integerp x)))"), iff=False) == P("(rp p (rp 'integerp x))")


@pytest.mark.parametrize(
    "text",
    [
        "(def-rp-rule r (equal (f x) (g y)))",
        "(def-rp-rule r (implies (p y) (equal (f x) (g x))))",
        "(def-rp-rule r (implies (and (p y) (q z)) (equal (f x) (g x y))))",
    ],
)
def test_rule_with_unbound_variables_is_refused(text):
    rs = ruleset(text)  # compiled and validated as before
    expected = "y, z" if "z" in text else "y"
    with pytest.raises(UnboundRuleVariableError, match=f"^rule r uses variables its lhs does not bind: {expected}$"):
        Rewriter(rs)


def test_unbound_syntaxp_variable_only_fails_the_hyp():
    rw = rewriter("(def-rp-rule r (implies (syntaxp (atom z)) (equal (f x) 'fired)))")
    assert rw.rewrite(P("(f a)"), iff=False) == P("(f a)")


# ---------------------------------------------------------------------------
# syntaxp


def test_syntaxp_eval_predicates():
    bindings = {"x": Var("a"), "y": Quote(1)}
    assert syntaxp_eval(Syntaxp(P("(atom x)")), bindings)
    assert syntaxp_eval(Syntaxp(P("(quotep y)")), bindings)
    assert not syntaxp_eval(Syntaxp(P("(quotep x)")), bindings)
    assert syntaxp_eval(Syntaxp(P("(not (consp x))")), bindings)
    assert syntaxp_eval(Syntaxp(P("(equal (car y) 'quote)")), {"y": Quote(Quote("quote").value)}) in (True, False)


def test_syntaxp_orders_fast_alists(arith_ruleset):
    # +-comm's lexorder ranks a fast alist by its logical alist; its shadow
    # is a lookup table that lexorder cannot rank
    a, b = "(hons-acons 'a v 'nil)", "(hons-acons 'b w 'nil)"
    rw = Rewriter(arith_ruleset)
    fa, fb = rw.rewrite(P(a), iff=False), rw.rewrite(P(b), iff=False)
    for x, y in ((a, b), (b, a)):
        out = Rewriter(arith_ruleset).rewrite(P(f"(binary-+ {x} {y})"), iff=False)
        assert out.head == "binary-+" and out.args == (fa, fb)


def test_syntaxp_orders_commutative_rule(arith_ruleset):
    rw = Rewriter(arith_ruleset)
    assert rw.rewrite(P("(binary-+ b a)"), iff=False) == P("(binary-+ a b)")
    # already sorted input is left alone
    rw2 = Rewriter(arith_ruleset)
    assert rw2.rewrite(P("(binary-+ a b)"), iff=False) == P("(binary-+ a b)")


def test_syntaxp_predicates_are_walked_once_when_read(arith_ruleset, monkeypatch):
    import termrw.rules

    calls = []
    real = termrw.rules._syntaxp_walk
    monkeypatch.setattr(termrw.rules, "_syntaxp_walk", lambda pred: calls.append(pred) or real(pred))
    rw = Rewriter(arith_ruleset)
    assert rw.rewrite(P("(binary-+ b a)"), iff=False) == P("(binary-+ a b)")
    assert calls == []


def test_syntaxp_sorts_through_wrappers(arith_ruleset):
    rw = Rewriter(arith_ruleset)
    out = rw.rewrite(P("(binary-+ (rp 'integerp b) a)"), iff=False)
    # both sides sort the same whether or not wrappers are present
    assert format_term(out) == "(binary-+ a (rp 'integerp b))"


# ---------------------------------------------------------------------------
# strengthening and wrapper maintenance


def test_strengthen_from_context_wraps_apps():
    out = rewriter().rewrite(P("(g (f a))"), ctx=[P("(integerp (f a))")], iff=False)
    assert out == P("(g (rp 'integerp (f a)))")


def test_strengthen_skips_vars():
    out = rewriter().rewrite(P("(g a)"), ctx=[P("(integerp a)")], iff=False)
    assert out == P("(g a)")


def test_wrappers_not_duplicated(bitand_ruleset):
    rw = Rewriter(bitand_ruleset)
    ctx = [P("(integerp x)"), P("(integerp y)")]
    out = rw.rewrite(P("(logand x y)"), ctx=ctx, iff=False)
    assert format_term(out) == "(rp 'integerp (4vec-bitand x y))"
    # rewriting the wrapped output again is stable
    rw2 = Rewriter(bitand_ruleset)
    assert rw2.rewrite(out, ctx=ctx, iff=False) == out


def test_example_golden_triple_wrap(bitand_ruleset):
    rw = Rewriter(bitand_ruleset)
    ctx = [P(s) for s in ("(integerp x)", "(integerp y)", "(integerp a)", "(integerp b)")]
    out = rw.rewrite(P("(logand (logand x y) (logand a b))"), ctx=ctx, iff=False)
    assert format_term(out) == (
        "(rp 'integerp (4vec-bitand (rp 'integerp (4vec-bitand x y))"
        " (rp 'integerp (4vec-bitand a b))))"
    )
    assert rw.stats.rule_attempts == 3
    assert rw.stats.rule_applications == 3


# ---------------------------------------------------------------------------
# meta rules in the loop


def test_meta_folds_constants():
    rw = rewriter()
    for meta in demo_metas():
        if meta.name == "fold-plus":
            rw.metas.register(meta)
    out = rw.rewrite(P("(binary-+ '1 (binary-+ '2 x))"), iff=False)
    assert out == P("(binary-+ '3 x)")
    assert rw.stats.meta_applications == 1


def test_untrusted_meta_output_rejected():
    bad = MetaRule("bad", "f", lambda t: App("rp", (Quote("nil"), Var("x"))))
    rw = rewriter()
    rw.metas.register(bad)
    out = rw.rewrite(P("(f a)"), iff=False)
    assert out == P("(f a)")
    assert rw.stats.meta_rejections == 1
    assert rw.meta_diagnostics


def test_meta_applies_through_wrappers():
    rw = rewriter()
    for meta in demo_metas():
        if meta.name == "fold-plus":
            rw.metas.register(meta)
    out = rw.rewrite(P("(rp 'integerp (binary-+ '1 (rp 'evenp (binary-+ '2 x))))"), iff=False)
    assert format_term(out) == "(rp 'integerp (binary-+ '3 x))"


# ---------------------------------------------------------------------------
# fast-alists in the loop


def test_chain_builds_falist():
    rw = rewriter()
    out = rw.rewrite(P("(hons-acons 'k1 v1 (hons-acons 'k2 v2 'nil))"), iff=False)
    assert out.head == "falist"
    assert format_term(out.args[1]) == "(cons (cons 'k1 v1) (cons (cons 'k2 v2) 'nil))"


def test_lookup_via_shadow_and_miss():
    rw = rewriter()
    fal = rw.rewrite(P("(hons-acons 'k1 v1 (hons-acons 'k2 v2 'nil))"), iff=False)
    hit = rw.rewrite(App("hons-get", (Quote("k2"), fal)), iff=False)
    assert format_term(hit) == "(cons 'k2 v2)"
    miss = rw.rewrite(App("hons-get", (Quote("zz"), fal)), iff=False)
    assert miss == Quote("nil")
    assert rw.stats.fa_probes == 2


def test_lookup_with_open_key_stays():
    rw = rewriter()
    fal = rw.rewrite(P("(hons-acons 'k1 v1 'nil)"), iff=False)
    out = rw.rewrite(App("hons-get", (Var("k"), fal)), iff=False)
    assert out.head == "hons-get"


def test_falist_args_never_descended():
    rs = "(def-rp-rule r (equal (f x) 'fired))"
    rw = rewriter(rs)
    fal = rw.rewrite(P("(hons-acons 'k (f a) 'nil)"), iff=False)
    # the stored value is the argument as it was when the chain was built
    out = rw.rewrite(fal, iff=False)
    assert out == fal


def test_fast_alist_free_in_loop():
    rw = rewriter()
    fal = rw.rewrite(P("(hons-acons 'k1 v1 'nil)"), iff=False)
    freed = rw.rewrite(App("fast-alist-free", (fal,)), iff=False)
    assert format_term(freed) == "(cons (cons 'k1 v1) 'nil)"


def test_fast_alist_disabled_mode():
    rw = rewriter("", fast_alist_enabled=False)
    out = rw.rewrite(P("(hons-acons 'k1 v1 'nil)"), iff=False)
    assert out.head == "hons-acons"


def _falist60():
    return rewriter().rewrite(chain_term(60), iff=False)


# The work of a 50-lookup read batch and of a 50-binding write onto a
# 60-entry falist, as RewriteStats.as_dict(): the falist argument of each
# hons-get, and of the innermost hons-acons, is one rewrite call that
# returns it as it is.
FALIST_BATCH_WORK = {
    "read": dict(rewrite_calls=151, nodes_created=51, fa_probes=50),
    "write": dict(rewrite_calls=151, nodes_created=249, fa_probes=0),
}


@pytest.mark.parametrize("kind", sorted(FALIST_BATCH_WORK))
def test_falist_batches_keep_their_work(kind):
    fal = _falist60()
    if kind == "read":
        t = lookups_term(fal, [f"k{i}" for i in range(1, 101, 2)])  # 30 hits, 20 misses
    else:
        t = fal
        for i in range(50):
            t = App("hons-acons", (Quote(f"w{i}"), Var(f"x{i}"), t))
    rw = rewriter()
    out = rw.rewrite(t, iff=False)
    work = dict(RewriteStats().as_dict(), **FALIST_BATCH_WORK[kind])
    assert rw.stats.as_dict() == work
    if kind == "read":
        assert format_term(out.args[0]) == "(cons 'k1 v1)" and out.args[-1] == Quote("nil")
    else:
        assert out.head == "falist" and len(out.args[0].value.entries) == 110


def test_a_falist_argument_is_counted_not_entered(monkeypatch):
    fal = _falist60()

    def forbidden(*args):
        raise AssertionError("the falist argument was rewritten in a generator")

    monkeypatch.setattr(Rewriter, "_args_then_5_to_7", forbidden)
    for text, calls, printed in (
        ("(hons-get 'k3 fal)", 3, "(cons 'k3 v3)"),
        ("(hons-acons 'w x fal)", 4, "(falist '((w . x) (k1 . v1)"),
    ):
        rw = rewriter()
        out = rw.rewrite(substitute(P(text), {"fal": fal}), iff=False)
        assert rw.stats.rewrite_calls == calls and format_term(out).startswith(printed)


def test_a_falist_in_an_iff_position_is_decided_by_the_context():
    fal = _falist60()
    for text, want in (("fal", "'t"), ("(if fal a b)", "a")):
        out = rewriter().rewrite(substitute(P(text), {"fal": fal}), ctx=[fal], iff=True)
        assert format_term(out) == want
    assert rewriter().rewrite(fal, ctx=[fal], iff=False) is fal
    # a meta result is rewritten in its call's position, here an iff one
    metas = MetaRegistry([MetaRule("g-arg", "g", lambda t: t.args[0])])
    rw = Rewriter(build_ruleset([]), metas=metas)
    assert format_term(rw.rewrite(App("g", (fal,)), ctx=[fal], iff=True)) == "'t"


# (rewrite_calls, step_limit_hit, nodes_created) at each step limit from 1,
# for a lookup and for a write of two bindings onto a falist.  The falist
# argument is the last call of each, so a limit of 2 on the lookup and of 6
# on the write stops that call.
FALIST_STEP_LIMITS = {
    "(hons-get 'k3 fal)": [(1, True, 1), (2, True, 1), (3, False, 1), (3, False, 1)],
    "(hons-acons 'w x (hons-acons 'z y fal))": [
        (1, True, 4),
        (2, True, 4),
        (3, True, 4),
        (4, True, 9),
        (5, True, 9),
        (6, True, 9),
        (7, False, 9),
        (7, False, 9),
    ],
}


@pytest.mark.parametrize("text", sorted(FALIST_STEP_LIMITS))
def test_a_step_limit_on_a_falist_argument_stops_where_it_did(text):
    fal = _falist60()
    for limit, want in enumerate(FALIST_STEP_LIMITS[text], 1):
        rw = rewriter("", step_limit=limit)
        rw.rewrite(substitute(P(text), {"fal": fal}), iff=False)
        assert (rw.stats.rewrite_calls, rw.stats.step_limit_hit, rw.stats.nodes_created) == want, limit


# ---------------------------------------------------------------------------
# trace


def test_trace_records_applications():
    rw = rewriter("(def-rp-rule r (equal (f x) (g x)))", trace=True)
    rw.rewrite(P("(h (f a))"), iff=False)
    assert any(name == "r" for _path, name, _b, _a in rw.trace)


def test_trace_records_the_argument_path_of_each_application():
    rw = rewriter("(def-rp-rule r (equal (f x) (g x)))", trace=True)
    rw.rewrite(P("(h (k a (m (f b))) (if c (f d) (n (f e))))"), iff=False)
    assert [path for path, name, _b, _a in rw.trace if name == "r"] == [(1, 2, 1), (2, 2), (2, 3, 1)]
