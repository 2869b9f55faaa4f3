"""The rewriting engine: unification, contexts, dont-rw, the step loop."""

import gc
import hashlib
import pathlib
import weakref

import pytest

from termrw.demo import TREE_RULES, TREE_RULES_BACKCHAIN, tree_conjecture
from termrw.meta import MetaRegistry, MetaRule, demo_metas
from termrw.rewriter import (
    OPEN,
    STOP,
    Context,
    Leaf,
    Node,
    RewriteConfig,
    Rewriter,
    arg_dont_rws,
    conjuncts_of,
    dont_rw_from_template,
    dont_rw_from_value,
    instantiate,
    negate,
    unify,
)
from termrw.rules import UnboundRuleVariableError, build_ruleset, parse_rule_file, syntaxp_eval
from termrw.terms import App, Quote, Var, format_term, mk_rp, parse_term, read_value, substitute
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
    assert isinstance(dw, Node)
    assert isinstance(dw.children[1], Leaf) and dw.children[1].stop
    assert isinstance(dw.children[2], Node)


def test_dont_rw_nil_is_open():
    dw = dont_rw_from_value("nil")
    assert isinstance(dw, Leaf) and not dw.stop


def test_dont_rw_from_template():
    dw = dont_rw_from_template(P("(g x '1)"))
    assert isinstance(dw, Node)
    assert dw.children[1].stop  # variable slot: already rewritten
    assert dw.children[2].stop  # quoted constant


def test_arg_dont_rws_shape_mismatch_degrades_open():
    dw = dont_rw_from_value(read_value("(f a)"))
    args = arg_dont_rws(dw, 3)
    assert len(args) == 3
    assert all(isinstance(a, Leaf) and not a.stop for a in args)


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
    rw.metas.register(MetaRule("explode", "p", explode, trusted_syntax=True))
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


def test_template_lookups_compare_no_terms(monkeypatch):
    """Templates are looked up by identity: the equal (integerp x) hyps of
    two rules do not meet in one dict slot and cost no terms_equal walk."""
    import termrw.terms

    inside = [False]
    counts = {"lookups": 0, "terms_equal": 0}
    real_terms_equal = termrw.terms.terms_equal
    real_template_info = Rewriter._template_info

    def counting_terms_equal(a, b):
        counts["terms_equal"] += inside[0]
        return real_terms_equal(a, b)

    def counting_template_info(self, template):
        counts["lookups"] += 1
        inside[0] = True
        try:
            return real_template_info(self, template)
        finally:
            inside[0] = False

    monkeypatch.setattr(termrw.terms, "terms_equal", counting_terms_equal)
    monkeypatch.setattr(Rewriter, "_template_info", counting_template_info)
    rw = Rewriter(ruleset(TREE_RULES_BACKCHAIN), cfg=RewriteConfig(side_conditions_enabled=False))
    proved, _ = rw.proved(tree_conjecture(6))
    assert proved
    assert counts["lookups"] > 500
    assert counts["terms_equal"] == 0


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
    assert syntaxp_eval(P("(atom x)"), bindings)
    assert syntaxp_eval(P("(quotep y)"), bindings)
    assert not syntaxp_eval(P("(quotep x)"), bindings)
    assert syntaxp_eval(P("(not (consp x))"), bindings)
    assert syntaxp_eval(P("(equal (car y) 'quote)"), {"y": Quote(Quote("quote").value)}) in (True, False)


def test_syntaxp_outside_lexorder_domain_only_fails_the_hyp(arith_ruleset):
    # +-comm's lexorder meets two fast alists, whose shadows it cannot order
    a, b = "(hons-acons 'a v 'nil)", "(hons-acons 'b w 'nil)"
    for x, y in ((a, b), (b, a)):
        rw = Rewriter(arith_ruleset)
        out = rw.rewrite(P(f"(binary-+ {x} {y})"), iff=False)
        assert out.head == "binary-+"
        assert out.args == (rw.rewrite(P(x), iff=False), rw.rewrite(P(y), iff=False))


def test_syntaxp_orders_commutative_rule(arith_ruleset):
    rw = Rewriter(arith_ruleset)
    assert rw.rewrite(P("(binary-+ b a)"), iff=False) == P("(binary-+ a b)")
    # already sorted input is left alone
    rw2 = Rewriter(arith_ruleset)
    assert rw2.rewrite(P("(binary-+ a b)"), iff=False) == P("(binary-+ a b)")


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
    bad = MetaRule("bad", "f", lambda t: App("rp", (Quote("nil"), Var("x"))), trusted_syntax=False)
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
