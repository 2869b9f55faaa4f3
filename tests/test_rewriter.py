"""The rewriting engine: unification, contexts, dont-rw, the step loop."""

import ast
import hashlib
import pathlib
import pickle
import random
import sys
import threading
import time
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import RULE_FAULTS, tree_copy
from reference import unify_loop
import termrw.rewriter
import termrw.rules
import termrw.terms
from termrw.demo import (
    ARITH_RULES,
    SHIPPED_RULESETS,
    TREE_RULES,
    TREE_RULES_BACKCHAIN,
    chain_term,
    lookup_keys,
    lookups_term,
    three_round_to_evens,
    tree_conjecture,
)
from termrw.meta import MetaRegistry, MetaRule, demo_metas, fold_plus
from termrw.reader import ParseError, parse_term
from termrw.rewriter import BACKCHAIN_DEPTH, Context, RewriteConfig, Rewriter, RewriteStats, conjuncts_of, instantiate, negate, unify
from termrw.rules import (
    Rule,
    RuleFileError,
    Syntaxp,
    build_ruleset,
    compile_template,
    parse_rule_file,
    syntaxp_eval,
)
from termrw.terms import (
    OPEN,
    STOP,
    App,
    Cons,
    FalistShadow,
    Quote,
    Shared,
    Var,
    arg_dont_rws,
    format_term,
    has_wrapper,
    mk_rp,
    postorder,
    strip_rp,
    substitute,
)
from termrw.validate import check_run, random_term

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
    # a subterm bound, and one peeled, before the match fails are freed with
    # the term, with no collection
    class Held(Var):
        pass

    held = Held("a")
    ref = weakref.ref(held)
    assert unify(P("(f x (g y))"), App("f", (held, mk_rp("p", App("h", (held,)))))) is None
    del held
    assert ref() is None


def test_instantiate():
    bindings, _ = unify(P("(f x)"), P("(f (g a))"))
    assert instantiate(P("(h x x)"), bindings) == P("(h (g a) (g a))")
    # terms bind no names, so rule instances use the one substitution
    assert instantiate is substitute


_NAMES = st.sampled_from(["x", "y"])
_VALUES = st.recursive(
    st.integers(-2, 2) | st.sampled_from(["a", "nil"]), lambda v: st.builds(Cons, v, v), max_leaves=3
)
_ATOMS = st.builds(Var, _NAMES) | st.builds(Quote, _VALUES)


def _apps(heads, c):
    """Applications of heads, and a quarter as many 2-argument rp forms:
    wrappers when the first argument is quoted."""
    plain = st.builds(App, st.sampled_from(heads), st.lists(c, max_size=3))
    return st.one_of(plain, plain, plain, st.builds(lambda a, b: App("rp", (a, b)), c, c))


# patterns as an admitted lhs has them: no rp
_PATTERNS = st.recursive(
    _ATOMS, lambda c: st.builds(App, st.sampled_from(["f", "g"]), st.lists(c, max_size=3)), max_leaves=8
)
_TERMS = st.recursive(_ATOMS, lambda c: _apps(["f", "g", "h"], c), max_leaves=6)
# templates as rules have them: rp wrappers only as an attachment puts them
_TEMPLATES = st.recursive(
    _ATOMS,
    lambda c: st.builds(App, st.sampled_from(["f", "g"]), st.lists(c, max_size=3)) | st.builds(mk_rp, _NAMES, c),
    max_leaves=8,
)


@st.composite
def _dag_template(draw, heads=("f", "g"), props=_NAMES):
    """Templates whose applications share nodes: each application takes its
    arguments from the atoms and the applications made before it, and the
    last one made is the template.  An if takes three."""
    nodes = draw(st.lists(_ATOMS, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 8))):
        made = st.sampled_from(tuple(nodes))
        if draw(st.integers(0, 4)):
            head = draw(st.sampled_from(heads))
            args = [draw(made) for _ in range(3)] if head == "if" else draw(st.lists(made, max_size=3))
            nodes.append(App(head, args))
        else:
            nodes.append(mk_rp(draw(props), draw(made)))
    return nodes[-1]


_DAG_TEMPLATES = _dag_template()


@st.composite
def _dag_pattern(draw):
    """Patterns whose applications share nodes, as a let-bound name in an
    lhs makes them: each application takes the one made before it and up
    to two more arguments from the atoms and the applications made before
    it, and the last one made is the pattern."""
    nodes = draw(st.lists(_ATOMS, min_size=1, max_size=3))
    for _ in range(draw(st.integers(2, 6))):
        args = draw(st.lists(st.sampled_from(tuple(nodes)), max_size=2))
        args.insert(draw(st.integers(0, len(args))), nodes[-1])
        nodes.append(App(draw(st.sampled_from(["f", "g"])), args))
    return nodes[-1]


def _term_like(data, pattern, seen, props=st.sampled_from(["p", "q", "p", None])):
    """A term drawn to match pattern often: each node follows the pattern or
    is drawn at random, a repeated variable may meet its first binding
    again, a repeated application node its first term under wrappers of
    its own, and any node may sit under rp wrappers, each with a property
    drawn from props, or, where that draws None, in an (rp p x) call,
    which is no wrapper."""
    cls = pattern.__class__
    if cls is Var:
        t = seen[pattern.name] if pattern.name in seen and data.draw(st.integers(0, 3)) else data.draw(_TERMS)
        seen.setdefault(pattern.name, t)
    elif cls is App and id(pattern) in seen and data.draw(st.integers(0, 3)):
        t = strip_rp(seen[id(pattern)])
    elif data.draw(st.integers(0, 9)) == 0:
        t = data.draw(_TERMS)
    elif cls is Quote:
        t = Quote(pattern.value)
    else:
        t = App(pattern.head, [_term_like(data, a, seen, props) for a in pattern.args])
    for _ in range(data.draw(st.integers(0, 2))):
        prop = data.draw(props)
        t = App("rp", (Var("p"), t)) if prop is None else mk_rp(prop, t)
    if cls is App:
        seen.setdefault(id(pattern), t)
    return t


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compiled_matchers_and_builders_agree_with_the_loop(data):
    pattern = data.draw(_PATTERNS)
    t = _term_like(data, pattern, {})
    got, want = unify(pattern, t), unify_loop(pattern, t)
    if want is None:
        assert got is None
    else:
        # the same bindings, in the same order, bound to the same objects,
        # and the same wrappers looked through, in preorder
        assert [(k, id(v)) for k, v in got[0].items()] == [(k, id(v)) for k, v in want[0].items()]
        assert [(id(u), p) for u, p in got[1]] == [(id(u), p) for u, p in want[1]]
    bindings = {name: data.draw(_TERMS) for name in ("x", "y")}
    bindings.update(got[0] if got else {})
    tree = data.draw(_TEMPLATES)
    build, size, guard = compile_template(tree)
    assert build(bindings) == substitute(tree, bindings)
    assert (size, guard) == _tree_info(tree)
    dag = data.draw(_DAG_TEMPLATES)
    instance = compile_template(dag)[0](bindings)
    assert instance == substitute(dag, bindings)
    # each distinct application of the template is built once
    assert all(len(built) == 1 for built in _instances_of_apps(dag, instance).values())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_shared_pattern_node_matches_as_a_repeated_variable_does(data):
    pattern = data.draw(_dag_pattern())
    # wrappers only: an (rp p x) call in place of an application is a miss
    t = _term_like(data, pattern, {}, st.sampled_from(["p", "q"]))
    got, want = unify(pattern, t), unify_loop(pattern, t)
    assert (got is None) == (want is None)
    if want is not None:
        assert [(k, id(v)) for k, v in got[0].items()] == [(k, id(v)) for k, v in want[0].items()]
        # a repeat is compared through its wrappers, which it does not add:
        # the wrappers extracted are the loop's, less those of each repeat
        extracted = iter([(id(u), p) for u, p in want[1]])
        assert all(w in extracted for w in [(id(u), p) for u, p in got[1]])


def _tree_info(t):
    """compile_template's size and guard, by a walk over t as a tree."""
    if t.__class__ is not App:
        return int(t.__class__ is Quote), STOP
    infos = [_tree_info(a) for a in t.args]
    return 1 + sum(n for n, _ in infos), (STOP, *(g for _, g in infos))


def _instances_of_apps(template, instance):
    """{id of each application of template: the ids of the instance's nodes
    at its positions}.  A template node met again is not entered again."""
    found = {}
    stack = [(template, instance)]
    while stack:
        u, v = stack.pop()
        if u.__class__ is App:
            if id(u) not in found:
                stack.extend(zip(u.args, v.args))
            found.setdefault(id(u), set()).add(id(v))
    return found


def test_deep_formulas_compile_match_and_instantiate_flat(monkeypatch):
    # a 5,000-deep lhs and rhs each compile to one statement per node, never
    # a nested expression, and their walks take no Python stack
    def chain(leaf):
        for _ in range(5000):
            leaf = App("+", (Var("x"), leaf))
        return leaf

    sources = []
    real_define = termrw.rules._define
    monkeypatch.setattr(termrw.rules, "_define", lambda src, consts: sources.append(src) or real_define(src, consts))
    lhs, rhs = App("g", (chain(Var("y")),)), chain(Quote(3))
    rule = Rule("deep", (), lhs, App("k", (chain(Var("y")),)), "equal")
    x = mk_rp("integerp", Var("a"))
    t = App("g", (mk_rp("p", substitute(lhs.args[0], {"x": x, "y": Quote(1)})),))
    bindings, extracted = rule.compile()(t)
    # the matcher, compiled last: a test and an unpacking per application,
    # a check per repeat of x, and ex = [] and return, each on one line
    matcher = sources[-1]
    statements = len(ast.parse(matcher).body[0].body)
    assert statements == len(matcher.splitlines()) - 1 == 5001 * 2 + 4999 + 2
    assert bindings == {"x": x, "y": Quote(1)} and extracted == [(t.args[0], "p")]
    assert rule.results[False][0](bindings) == substitute(rule.rhs, bindings)
    assert compile_template(rhs)[0](bindings) == substitute(rhs, bindings)


def _doubling_rule(n):
    """A defthm whose rhs is an n-binding let* doubling chain: n + 2
    distinct nodes, which a tree walk would meet about 3 * 2^n times."""
    bindings = " ".join(f"(a{i} (h a{i - 1} a{i - 1}))" for i in range(1, n + 1))
    return f"(defthm dbl (equal (f x) (let* ((a0 (g x)) {bindings}) a{n})))"


def test_a_doubling_let_chain_rule_reads_and_compiles_its_distinct_nodes():
    start = time.perf_counter()
    rule = ruleset(_doubling_rule(40)).rules["dbl"]
    rule.compile()
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"reading, building and compiling took {elapsed:.3f} s"
    build, size, guard, _, _ = rule.results[False]
    instance = build({"x": Var("y")})
    # outside the assert, whose report would print the terms as trees
    shared = instance.args[0] is instance.args[1] and guard[1] is guard[2]
    assert shared and size == 41
    # one application builds each distinct node once, and rewrites it once:
    # a tree walk of the instance would make 49,153 calls at n = 14
    for n in (14, 40):
        rw = rewriter(_doubling_rule(n))
        head = rw.rewrite(P("(f y)"), iff=False).head
        assert head == "h" and rw.stats.nodes_created == n + 1 and rw.stats.rewrite_calls <= 2 * n + 5


def test_a_rule_whose_lhs_shares_subterms_compiles_and_matches_its_distinct_nodes():
    # a 40-binding doubling chain in an lhs: each repeat of a node is one
    # check, as a repeated variable is, where a tree walk would write a
    # statement for each of 2^41 - 1 nodes
    def binds(name, leaf):
        return " ".join([f"({name}0 (g x {leaf}))"] + [f"({name}{i} (g {name}{i - 1} {name}{i - 1}))" for i in range(1, 39)])

    start = time.perf_counter()
    match = ruleset(f"(defthm r (equal (f (let* ({binds('a', 'x')}) (g a38 a38))) x))").rules["r"].compile()
    elapsed = time.perf_counter() - start
    assert elapsed < 1, f"reading, building and compiling took {elapsed:.3f} s"
    assert match(P(f"(f (let* ({binds('a', 'x')}) (g a38 a38)))")) == ({"x": Var("x")}, [])
    # a repeat that differs only at its deepest node is refused
    assert match(P(f"(f (let* ({binds('a', 'x')} {binds('b', 'y')}) (g a38 b38)))")) is None
    # the first occurrence's wrappers are extracted, a repeat's looked through
    t = P(f"(f (let* ({binds('a', 'x')}) (g (rp 'p a38) (rp 'q a38))))")
    assert match(t) == ({"x": Var("x")}, [(t.args[0].args[0], "p")])


def test_the_guards_of_a_let_chain_rule_print_in_one_line_each():
    # each Shared guard of the 40-binding rule holds the next one twice, so
    # printing one as a tuple would walk 2^40 paths
    rules = ruleset((DEMOS / "rules" / "let-chain.lsp").read_text()).rules.values()
    builders = [b for rule in rules if rule.compile() for b in (*rule.results, *rule.build_hyps) if b]
    start = time.perf_counter()
    texts = [repr(b[2]) for b in builders]
    elapsed = time.perf_counter() - start
    assert "(True, Shared(<3 guards>), Shared(<3 guards>))" in texts
    assert elapsed < 0.5


# ---------------------------------------------------------------------------
# the shared-node memo

# rules whose results turn on the context, the iff position, wrappers and
# backchaining
MEMO_RULES = """
(defthm p-of-g (p (g x)))
(defthm f-when-p (implies (p x) (equal (f x y) (g y x))))
(defthm f-when-g (implies (g x) (equal (f x) x)))
(defthm g-of-self (equal (g x x) (f x)))
(defthm f-of-f (equal (f (f x)) (f x)))
(defthm g-in-iff (iff (g x 'nil) (f x)))
"""


def _rewrite_both(rules, template, bindings, ctx, iff, sc):
    """The rewrites of template's instance and of an instance of its
    unshared tree copy, each by a fresh Rewriter: (result, stats) each."""
    out = []
    for t in (template, tree_copy(template)):
        build, _, guard = compile_template(t)
        rw = Rewriter(rules, cfg=RewriteConfig(side_conditions_enabled=sc))
        out.append((rw.rewrite(build(bindings), guard, ctx, iff), rw.stats))
    return out


@settings(max_examples=200, deadline=None)
@given(_dag_template(heads=("f", "g", "if"), props=st.sampled_from(["p", "q"])), st.data())
def test_a_shared_instance_rewrites_as_its_tree_copy(template, data):
    assume(termrw.terms.node_count(template) <= 2000)
    rules = ruleset(MEMO_RULES)
    bindings = {name: data.draw(_TERMS) for name in ("x", "y")}
    x, y = bindings["x"], bindings["y"]
    ctx = data.draw(st.lists(st.sampled_from([App("g", (x,)), App("p", (y,)), App("g", (y, x))]), max_size=2))
    iff = data.draw(st.booleans())
    for sc in (True, False):
        (got, shared), (want, tree) = _rewrite_both(rules, template, bindings, ctx, iff, sc)
        assert not tree.step_limit_hit
        assert got == want
        assert shared.rewrite_calls <= tree.rewrite_calls


def test_a_shared_node_under_both_branches_of_an_if_gets_each_context():
    # (f x) is one node in both branches: (g x) holds in the first only
    template = P("(let ((s (f x))) (if (g x) (h s) (k s)))")
    assert isinstance(compile_template(template)[2][2][1], Shared)
    for sc in (True, False):
        (got, _), (want, _) = _rewrite_both(ruleset(MEMO_RULES), template, {"x": Var("y")}, (), False, sc)
        assert got == want == P("(if (g y) (h y) (k (f y)))")


def test_a_shared_node_under_a_wrapper_keeps_its_guard():
    # the wrapper's payload is rewritten in place, under the Shared guard,
    # whose variable slots must still stop
    s = P("(f x)")
    template = App("f", (mk_rp("p", s), App("f", (P("x"), s))))
    bindings = {"x": P("(f)"), "y": P("x")}
    for sc in (True, False):
        (got, _), (want, _) = _rewrite_both(ruleset(MEMO_RULES), template, bindings, [P("(g (f))")], False, sc)
        assert got == want


def test_a_step_limit_exit_stores_no_cut_rewrite():
    rules = build_ruleset(parse_rule_file((DEMOS / "rules" / "let-chain.lsp").read_text()))
    conjecture = P((DEMOS / "conjectures" / "let-chain.lsp").read_text())
    full = Rewriter(rules)
    assert full.proved(conjecture)[0]
    stored, cut = 0, []
    for limit in range(1, full.stats.rewrite_calls, 5):
        rw = Rewriter(rules, cfg=RewriteConfig(step_limit=limit))
        rw.rewrite(conjecture)
        assert rw.stats.step_limit_hit
        # every rewrite kept is the one an unlimited rewrite gives; the
        # entries stay out of the asserts, as a guard prints as a tree
        for (_, _, _, iff, _), (t, dw, ctx, out) in rw._memo.items():
            stored += 1
            if out != Rewriter(rules).rewrite(t, dw, ctx, iff):
                cut.append(limit)
    assert stored and cut == []


def test_a_let_chain_hypothesis_is_relieved_as_its_tree_copy_is():
    chain = "(let* ((a0 (g x)) (a1 (h a0 a0)) (a2 (h a1 a1)) (a3 (h a2 a2)) (a4 (h a3 a3))) a4)"
    rules = ruleset(f"""
        (defthm p-of-g (implies (q x) (p (g x))))
        (defthm p-of-h (implies (p a) (p (h a b))))
        (defthm f-when-p (implies (p {chain}) (equal (f x) x)))
    """)
    rule = rules.rules["f-when-p"]
    tree_rule = rule.replace(hyps=(tree_copy(rule.hyps[0]),))
    tree_rules = build_ruleset([r for r in rules.rules.values() if not r.internal and r is not rule] + [tree_rule])
    for sc in (True, False):
        for ctx in ([P("(q y)")], []):
            runs = []
            for rs in (rules, tree_rules):
                rw = Rewriter(rs, cfg=RewriteConfig(side_conditions_enabled=sc))
                out = rw.rewrite(P("(f y)"), ctx=ctx, iff=False)
                runs.append((out, rw.stats.hyp_relief_failures, rw.stats.rewrite_calls))
            (got, failures, calls), (want, tree_failures, tree_calls) = runs
            assert got == want == (P("y") if ctx else P("(f y)")) and failures == tree_failures
            assert calls < tree_calls


# ---------------------------------------------------------------------------
# dont-rw structures


def test_template_guard_stops_at_variables_and_constants():
    # variable slots hold already-rewritten bindings and constants need no
    # rewrite; the template's applications stay open.  An instantiation
    # builds every node but the variables.
    _, size, dw = compile_template(P("(g x '1 (h y))"))
    assert dw == (STOP, STOP, STOP, (STOP, STOP))
    assert size == 3


def test_arg_dont_rws_shape_mismatch_degrades_open():
    dw = (STOP, STOP)
    assert arg_dont_rws(dw, 3) == (OPEN, OPEN, OPEN)
    assert arg_dont_rws(STOP, 2) == (OPEN, OPEN)
    assert arg_dont_rws(dw, 1) == (STOP,)


def test_dont_rw_guards_marked_subterms():
    # the marked argument positions survive; open positions rewrite
    rs = "(def-rp-rule f3-gone (equal (f3 u v) 'folded)) (def-rp-rule f4-open (equal (f4 z) (f5 z)))"
    t = P("(f1 (f2 a (f3 b c)) (f4 (f3 b c)))")
    # the guard of (f1 (f2 x y) (f4 z)) with every head and variable stopped
    dw = (STOP, (STOP, STOP, STOP), (STOP, STOP))
    guarded = rewriter(rs).rewrite(t, dont_rw=dw, iff=False)
    assert guarded == P("(f1 (f2 a (f3 b c)) (f5 (f3 b c)))")
    open_out = rewriter(rs).rewrite(t, iff=False)
    assert open_out == P("(f1 (f2 a 'folded) (f5 'folded))")


# ---------------------------------------------------------------------------
# contexts


def test_context_membership_and_negation():
    c = Context([P("(p a)"), P("(not (q b))")])
    assert P("(p a)") in c.members
    assert P("(q b)") in c.negs
    assert P("(q b)") not in c.members
    assert c.props == {Var("a"): ["p"]}


def test_context_drops_truthy_quotes_and_dedupes():
    c = Context([P("'t"), P("(p a)"), P("(p a)")])
    assert len(c.facts) == 1


def test_context_strips_wrappers():
    assert P("(integerp x)") in Context().extend([P("(integerp (rp 'evenp x))")]).members
    # rewrite strips the facts it is given
    assert rewriter().rewrite(P("(integerp x)"), ctx=[P("(integerp (rp 'evenp x))")]) == Quote("t")


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


def test_a_huge_loghead_size_is_a_domain_error_not_a_crash():
    rw = rewriter(ARITH_RULES)
    t = P("(equal x (loghead '100000000000000000000 '5))")
    assert rw.proved(t) == (False, t)
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
    rw = Rewriter(ruleset(rs))
    out = rw.rewrite(P("(p (f a))"), iff=True)
    assert out == P("(p (f a))")
    assert rw.stats.hyp_relief_failures > 0


def test_rewrite_config_has_three_settings():
    cfg = RewriteConfig()
    assert sorted(vars(cfg)) == ["fast_alist_enabled", "side_conditions_enabled", "step_limit"]
    # the backchain bound is the module's constant, not a setting
    with pytest.raises(TypeError):
        RewriteConfig(backchain_depth=1)


def test_step_limit_flag():
    rw = rewriter("", step_limit=3)
    rw.rewrite(P("(f (g (h (k a))))"), iff=False)
    assert rw.stats.step_limit_hit


@pytest.mark.parametrize("limit", [0, -5])
def test_a_step_limit_below_one_refuses_the_first_call_and_keeps_the_count(limit):
    rw = rewriter(F_TO_G)
    t = P("(f a)")
    assert format_term(rw.rewrite(t, iff=False)) == "(g a)"
    calls = rw.stats.rewrite_calls
    rw.cfg.step_limit = limit
    assert rw.rewrite(t, iff=False) is t
    assert (rw.stats.rewrite_calls, rw.stats.step_limit_hit) == (calls, True)


# The work each round-to-even conjecture takes: (rewrite_calls,
# rule_attempts, rule_applications, hyp_relief_failures, step_limit_hit).
# How the loop runs its steps must not change any of them; only
# nodes_created may move.  The tree conjecture's work is in CLOSED_FORMS.
ROUND_TO_EVEN_WORK = {
    "three-round-to-evens": (113, 146, 19, 50, False),
    "four-round-to-evens": (182, 248, 31, 89, False),
}
DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def _work(rw):
    s = rw.stats
    return (s.rewrite_calls, s.rule_attempts, s.rule_applications, s.hyp_relief_failures, s.step_limit_hit)


def _tree_rewriter(side_conditions, cls=Rewriter, **cfg):
    rs = ruleset(TREE_RULES if side_conditions else TREE_RULES_BACKCHAIN)
    return cls(rs, cfg=RewriteConfig(side_conditions_enabled=side_conditions, **cfg))


def test_round_to_even_work_is_pinned():
    rs = ruleset((DEMOS / "rules" / "arith.lsp").read_text())
    paths = sorted((DEMOS / "conjectures").glob("*-round-to-evens.lsp"))
    assert [p.name[: -len(".lsp")] for p in paths] == sorted(ROUND_TO_EVEN_WORK)
    for path in paths:
        rw = Rewriter(rs)
        assert rw.proved(P(path.read_text()))[0]
        assert _work(rw) == ROUND_TO_EVEN_WORK[path.name[: -len(".lsp")]]


class _OpenGuards(Rewriter):
    """The loop with every rule's dont-rw guard OPEN: each rule's result is
    rewritten whole."""

    opened = 0

    def _rule_result(self, rule, core, bindings, path):
        self.opened += 1
        result, _, wrappers = super()._rule_result(rule, core, bindings, path)
        return result, OPEN, wrappers


class _Unmemoized(Rewriter):
    """The loop with no memo: the instance of a node its rule template
    shares is rewritten at each of its occurrences."""

    rewritten = 0

    def _memoized(self, t, dw, ctx, iff, path):
        self.rewritten += 1
        return self._rw(t, tuple(dw), ctx, iff, path)


class _OpenMetaGuards(MetaRegistry):
    """The meta step with every meta's dont-rw guard OPEN: each meta's
    result is rewritten whole."""

    opened = 0

    def apply(self, t, stats):
        m = super().apply(t, stats)
        if m is None:
            return None
        self.opened += 1
        return m[0], OPEN


def _let_chain_rewriter(n, memo):
    """(logapp 'n '0 x) to a let* doubling chain of n bindings: its rhs
    shares each binding but the last, so each is built under a Shared guard."""
    binds = " ".join(f"(a{i} (binary-+ {v} {v}))" for i, v in enumerate(["x"] + [f"a{i}" for i in range(n - 1)]))
    rs = ruleset(f"(defthm logapp-doubling (equal (logapp '{n} '0 x) (let* ({binds}) a{n - 1})))")
    return (Rewriter if memo else _Unmemoized)(rs)


def _plus_spine(k):
    """(binary-+ '1 (binary-+ x0 (binary-+ '1 ... (binary-+ '1 x<k-1>)))),
    which fold_plus folds at each of its k - 1 inner '1 addends."""
    t = App("binary-+", (Quote(1), Var(f"x{k - 1}")))
    for i in reversed(range(k - 1)):
        t = App("binary-+", (Quote(1), App("binary-+", (Var(f"x{i}"), t))))
    return t


# The closed forms of the cost model (ROADMAP item 2), at every size: the
# depth-d tree conjecture with side conditions on and off, with the rules'
# dont-rw guards and with every guard OPEN, and an N-entry falist built and
# then read by N lookups on one Rewriter, with fast alists on and off.  With
# side conditions, rule attempts are linear in the tree's nodes; the guards
# save (4d - 4) * 2**d + 4 rewrite calls in either mode, and no rule attempt
# or node; with fast alists, a lookup is one probe.  The two other guard
# kinds, with the guard kept and bypassed: the rule of an n-binding let*
# chain on (logapp 'n '0 y), whose Shared guards let the memo rewrite each
# shared node once, so its calls are linear, not exponential, in n; and
# fold_plus on the k-addend spine, whose STOP keeps each fold's calls
# linear in k, where an OPEN fold is rewritten whole, quadratic in k.
CLOSED_FORMS = {
    ("tree", True): (
        range(1, 11),
        lambda d: dict(
            rewrite_calls=15 * 2**d - 5,
            rule_attempts=2 ** (d + 1),
            rule_applications=2 ** (d + 1),
            hyp_relief_failures=0,
            nodes_created=11 * 2 ** (d - 1) - 2,
        ),
    ),
    ("tree", False): (
        range(1, 11),
        lambda d: dict(
            rewrite_calls=(6 * d + 5) * 2**d + 3,
            rule_attempts=(3 * d - 1) * 2**d + 2,
            rule_applications=(2 * d - 1) * 2**d + 2,
            hyp_relief_failures=0,
        ),
    ),
    ("tree-open-guards", True): (
        range(1, 11),
        lambda d: dict(
            rewrite_calls=(4 * d + 11) * 2**d - 1,
            rule_attempts=2 ** (d + 1),
            rule_applications=2 ** (d + 1),
            nodes_created=11 * 2 ** (d - 1) - 2,
        ),
    ),
    ("tree-open-guards", False): (
        range(1, 11),
        lambda d: dict(
            rewrite_calls=(10 * d + 1) * 2**d + 7,
            rule_attempts=(3 * d - 1) * 2**d + 2,
            rule_applications=(2 * d - 1) * 2**d + 2,
        ),
    ),
    ("falist", True): ((*range(1, 21), 100, 1000), lambda n: dict(rewrite_calls=6 * n + 2, fa_probes=n)),
    ("falist", False): ((*range(1, 21), 100), lambda n: dict(rewrite_calls=3 * n * n + 6 * n + 2, fa_probes=0)),
    ("let-chain", True): (
        range(1, 13),
        lambda n: dict(rewrite_calls=2 * n + 5, rule_attempts=1, rule_applications=1, nodes_created=n),
    ),
    ("let-chain", False): (
        range(1, 13),
        lambda n: dict(rewrite_calls=2 ** (n + 1) + 3, rule_attempts=1, rule_applications=1, nodes_created=n),
    ),
    ("fold-plus", True): (range(1, 11), lambda k: dict(rewrite_calls=5 * k - 2, meta_applications=k - 1)),
    ("fold-plus", False): (range(1, 11), lambda k: dict(rewrite_calls=k * k + 6 * k - 4, meta_applications=k - 1)),
}


@pytest.mark.parametrize("family,on", sorted(CLOSED_FORMS))
def test_the_cost_model_has_its_closed_forms_at_every_size(family, on):
    sizes, form = CLOSED_FORMS[family, on]
    for n in sizes:
        if family == "falist":
            rw = Rewriter(build_ruleset([]), cfg=RewriteConfig(fast_alist_enabled=on))
            fal = rw.rewrite(chain_term(n), iff=False)
            rw.rewrite(lookups_term(fal, lookup_keys(n)), iff=False)
        elif family == "let-chain":
            rw = _let_chain_rewriter(n, on)
            rw.rewrite(P(f"(logapp '{n} '0 y)"), iff=False)
        elif family == "fold-plus":
            rw = Rewriter(build_ruleset([]), metas=(MetaRegistry if on else _OpenMetaGuards)([MetaRule("fold-plus", "binary-+", fold_plus)]))
            rw.rewrite(_plus_spine(n), iff=False)
        else:
            rw = _tree_rewriter(on, _OpenGuards if family == "tree-open-guards" else Rewriter)
            assert rw.proved(tree_conjecture(n))[0]
        assert _has_closed_form(rw, family, on, n), n
        stats = rw.stats.as_dict()
        if family == "tree-open-guards":
            # the override ran: every rule that applied had its guard opened
            assert rw.opened == stats["rule_applications"] > 0, n
        elif (family, on) == ("let-chain", False):
            # the override ran at each of the 2**n - 2 occurrences of a
            # shared node, where the memo rewrites n - 1 and hits n - 1
            assert rw.rewritten == 2**n - 2, n
        elif (family, on) == ("fold-plus", False):
            # the override ran: every fold had its guard opened
            assert rw.metas.opened == stats["meta_applications"], n


def _has_closed_form(rw, family, on, n):
    """Whether rw's counters are CLOSED_FORMS' at size n, with no step limit hit."""
    form = CLOSED_FORMS[family, on][1](n)
    stats = rw.stats.as_dict()
    return {k: stats[k] for k in form} == form and not stats["step_limit_hit"]


# Every counter of one rewrite down each kind of path through the loop:
# name -> (rewriter, term, dont-rw, iff), the output, and the nonzero
# counters.  However the loop runs its steps, none of them may move.
F_TO_G = "(def-rp-rule f-to-g (equal (f x) (g x)))"
PINNED_PATHS = {
    "tree-sc-6": (
        lambda: (_tree_rewriter(True), tree_conjecture(6), OPEN, True),
        "'t",
        dict(rewrite_calls=955, rule_attempts=128, rule_applications=128, nodes_created=350),
    ),
    "tree-backchain-6": (
        lambda: (_tree_rewriter(False), tree_conjecture(6), OPEN, True),
        "'t",
        dict(rewrite_calls=2627, rule_attempts=1090, rule_applications=706, nodes_created=1380),
    ),
    "three-round-to-evens": (
        lambda: (rewriter(ARITH_RULES), three_round_to_evens(), OPEN, True),
        "'t",
        dict(rewrite_calls=113, rule_attempts=146, rule_applications=19, hyp_relief_failures=50, nodes_created=69),
    ),
    "fold-plus": (
        lambda: (
            Rewriter(ruleset(F_TO_G), metas=MetaRegistry([MetaRule("fold-plus", "binary-+", fold_plus)])),
            P("(h (binary-+ '1 (binary-+ (f x) '2)) (binary-+ (f y) '5))"),
            OPEN,
            False,
        ),
        "(h (binary-+ '3 (g x)) (binary-+ (g y) '5))",
        dict(rewrite_calls=16, rule_attempts=2, rule_applications=2, meta_applications=1, nodes_created=10),
    ),
    "tuple-guard": (
        lambda: (rewriter(F_TO_G), P("(h (f a) (f b) (k (f c) (f d)))"), (OPEN, STOP, OPEN, (OPEN, OPEN, STOP)), False),
        "(h (f a) (g b) (k (g c) (f d)))",
        dict(rewrite_calls=12, rule_attempts=2, rule_applications=2, nodes_created=4),
    ),
    "if-from-context": (
        lambda: (rewriter(F_TO_G), P("(if (p a) (if (p a) (f a) b) (if (not (p a)) c (f b)))"), OPEN, False),
        "(if (p a) (g a) c)",
        dict(rewrite_calls=12, rule_attempts=1, rule_applications=1, nodes_created=2),
    ),
    # the limit falls among arguments counted, not made, at one node
    "limit-in-counted-args": (
        lambda: (rewriter(F_TO_G, step_limit=3), P("(f a b c d e)"), OPEN, False),
        "(f a b c d e)",
        dict(rewrite_calls=3, rule_attempts=1, step_limit_hit=True),
    ),
    "limit-before-a-made-arg": (
        lambda: (rewriter(F_TO_G, step_limit=2), P("(f a b (f c) d e)"), OPEN, False),
        "(f a b (f c) d e)",
        dict(rewrite_calls=2, rule_attempts=1, step_limit_hit=True),
    ),
    # a call past the limit returns its term, but the node entered before
    # finishes steps 5-7 on the arguments it has: equal-self still fires
    "limit-then-equal-self": (
        lambda: (rewriter(F_TO_G, step_limit=2), P("(equal (k a b c) (k a b c))"), OPEN, False),
        "'t",
        dict(rewrite_calls=2, rule_attempts=1, rule_applications=1, nodes_created=1, step_limit_hit=True),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_PATHS))
def test_every_counter_of_each_loop_path_is_pinned(name):
    make, printed, counters = PINNED_PATHS[name]
    rw, t, dw, iff = make()
    assert format_term(rw.rewrite(t, dw, iff=iff)) == printed
    assert rw.stats.as_dict() == dict(RewriteStats().as_dict(), **counters)


def test_each_rewrite_follows_changes_made_since_the_last():
    # one Rewriter, one term, rewritten again after each change to the
    # rules, metas and executable counterparts it uses
    rw = rewriter(F_TO_G)
    t = P("(h (f a) (k '2))")
    assert format_term(rw.rewrite(t, iff=False)) == "(h (g a) (k '2))"
    rw.ruleset.rules["f-to-g"].enabled = False
    assert format_term(rw.rewrite(t, iff=False)) == "(h (f a) (k '2))"
    rw.metas.register(MetaRule("h-to-m", "h", lambda u: App("m", u.args)))
    assert format_term(rw.rewrite(t, iff=False)) == "(m (f a) (k '2))"
    rw.registry.register("k", 1, lambda x: x + 1)
    assert format_term(rw.rewrite(t, iff=False)) == "(m (f a) '3)"
    rw = _tree_rewriter(True)
    t = P("(binary-logand (iassoc 'a e) (iassoc 'b e))")
    assert format_term(rw.rewrite(t, iff=False)) == "(rp 'integerp (4vec-bitand (iassoc 'a e) (iassoc 'b e)))"
    rw.cfg.side_conditions_enabled = False
    assert format_term(rw.rewrite(t, iff=False)) == "(4vec-bitand (iassoc 'a e) (iassoc 'b e))"


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


def test_a_step_limit_hit_leaves_later_rewrites_their_memo():
    # the memo keeps a rewrite unless this rewrite's limit stopped it, so
    # an earlier hit leaves the template's shared nodes rewritten once
    rules = build_ruleset(parse_rule_file((DEMOS / "rules" / "let-chain.lsp").read_text()))
    conjecture = P((DEMOS / "conjectures" / "let-chain.lsp").read_text())
    rw = Rewriter(rules, cfg=RewriteConfig(step_limit=100_000))
    doubling = " ".join(f"(a{i} (binary-+ a{i - 1} a{i - 1}))" for i in range(1, 30))
    rw.rewrite(P(f"(let* ((a0 (binary-+ x x)) {doubling}) a29)"))
    calls = rw.stats.rewrite_calls
    assert rw.stats.step_limit_hit and calls == 100_000
    assert rw.proved(conjecture)[0]
    assert (rw.stats.rewrite_calls - calls, rw.stats.step_limit_hit) == (368, True)


def test_wrapper_relief_takes_no_generator(monkeypatch):
    # a rule whose hypotheses all hold by the wrappers on its bindings is
    # relieved by plain calls; so is the bottom level, whose bindings are
    # unwrapped (iassoc ...) leaves that integerp-of-iassoc relieves at the
    # binding: no generator runs
    relieve = Rewriter._relieve_hyps
    ran = []

    def watched(self, *args):
        bindings = next(a for a in args if isinstance(a, dict))
        if all(has_wrapper(b, "integerp") for b in bindings.values()):
            raise AssertionError("the hypotheses of a wrapped match took a generator")
        ran.append(bindings)
        return relieve(self, *args)

    monkeypatch.setattr(Rewriter, "_relieve_hyps", watched)
    assert _tree_rewriter(True).proved(tree_conjecture(6))[0]
    assert len(ran) == 0


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
    assert _has_closed_form(rw, "tree", True, 6)


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


def test_every_step_limit_on_random_terms_counts_and_flags_the_stop():
    # random terms in a frame where a meta, an iff rule and a syntaxp
    # hypothesis fire, which the sweeps above do not reach: at each limit L
    # the count is min(L, full), the limit is hit when L < full, and from
    # full on the output is the unlimited one
    rs = ruleset(ARITH_RULES + "(def-rp-rule integerp-of-+ (iff (integerp (+ x y)) 't))")
    frame = P("(if (integerp (binary-+ x y)) (binary-+ '1 (binary-+ z '2)) (binary-+ y x))")
    rng = random.Random(11)
    fired, rewrites = set(), 0
    for _ in range(12):
        t = substitute(frame, {v: random_term(rng, 3) for v in "xyz"})
        for metas in ((), demo_metas()):
            for iff in (True, False):
                rw = Rewriter(rs, metas=MetaRegistry(metas))
                rw.trace = []
                full_out = rw.rewrite(t, iff=iff)
                full = rw.stats.rewrite_calls
                fired.update(name for _, name, _, _ in rw.trace)
                fired.update(["meta"] * rw.stats.meta_applications)
                for limit in range(1, min(full, 300) + 2):
                    rw = Rewriter(rs, metas=MetaRegistry(metas), cfg=RewriteConfig(step_limit=limit))
                    out = rw.rewrite(t, iff=iff)
                    assert (rw.stats.rewrite_calls, rw.stats.step_limit_hit) == (min(limit, full), limit < full), (t, limit)
                    assert limit < full or out == full_out, (t, limit)
                    rewrites += 1
    assert {"meta", "integerp-of-+", "+-comm"} <= fired and rewrites > 1000


def _agrees_at_every_limit(override, make, run):
    """The loop against itself with one shortcut off: run gives the same on
    make(Rewriter, limit) as on make(override, limit), where override is a
    Rewriter that counts in `declined` each shortcut it refuses, with no
    step limit and at every limit up to one past a full rewrite's calls.
    Returns the full run, the shortcuts refused under those limits, and
    the number of limits."""
    full = make(Rewriter, 1 << 20)
    out = run(full)
    assert out == run(make(override, 1 << 20))
    declined = 0
    limits = range(1, full.stats.rewrite_calls + 2)
    for limit in limits:
        off = make(override, limit)
        assert run(make(Rewriter, limit)) == run(off), limit
        declined += off.declined
    return out, declined, len(limits)


class _Unsettled(Rewriter):
    """The loop with no argument settled: each is rewritten by a call."""

    declined = 0

    def _settled(self, t, height):
        self.declined += 1
        return 0


# Inert heads (f, g, iassoc), heads with only an executable counterpart
# (4vec-bitand, unary--, binary-+, which folds quoted arguments), heads
# with rules (binary-logand, h, k, integerp, p by an iff rule), a meta
# (n) or a fast-alist step (hons-acons), and the heads whose arguments
# _settled does not enter or whose _rw does more.
SETTLE_RULES = TREE_RULES + """\
(def-rp-rule h-to-g (equal (h x) (g x)))
(def-rp-rule k-when-integerp (implies (integerp x) (equal (k x y) (f y x))))
(def-rp-rule integerp-of-m (integerp (m x)))
(def-rp-rule p-is-q (iff (p x) (q x)))
"""
# head -> (weight, least and most arguments); an rp is a wrapper
_SETTLE_HEADS = {
    "f": (4, 1, 3),
    "g": (4, 0, 2),
    "iassoc": (4, 2, 2),
    "4vec-bitand": (4, 2, 2),
    "unary--": (4, 1, 1),
    "binary-+": (4, 2, 2),
    **dict.fromkeys(["binary-logand", "k"], (1, 2, 2)),
    "hons-acons": (1, 3, 3),
    **dict.fromkeys(["h", "integerp", "m", "n", "p", "not", "hide", "rp"], (1, 1, 1)),
    "if": (1, 3, 3),
}


# one term for each condition _settled checks, each given where it holds
# and where it fails; fal stands for a falist
SETTLE_TEXTS = (
    "(g (f x) (iassoc 'k1 y))",
    "(g (if '1 x y) (if x y '2))",
    "(g (hide (f x)) (hide x))",
    "(g (rp 'integerp (f x)) (rp x (f y)))",
    "(g (f fal) (iassoc fal x))",
    "(g (unary-- '2) (unary-- x) (4vec-bitand x '1) (4vec-bitand '1 '2))",
    "(g (binary-logand x y) (h x) (integerp (f x)))",
    "(g (h x) (f y (g x)) (h y) (f x))",
    "(g (n x) (hons-acons 'k1 x 'nil) (hons-acons 'k1 x y))",
    "(not (f (g x (f y))))",
    "(g (f (g (f (g x)))) (f (g (f (g (iassoc 'k1 (h x)))))))",
    "(g (f) (g) (f (f)))",
    # own heads at another arity, which step (4) treats as any head
    "(g (if x y) (rp (f x)) (hide x y))",
)


def _settle_term(rng, depth, fal):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice((Var("x"), Var("y"), Var("x"), Quote(1), Quote(2), Quote("k1"), fal))
    head = rng.choices(list(_SETTLE_HEADS), [w for w, _, _ in _SETTLE_HEADS.values()])[0]
    if head == "rp":
        return mk_rp(rng.choice(("integerp", "p")), _settle_term(rng, depth - 1, fal))
    _, lo, hi = _SETTLE_HEADS[head]
    return App(head, tuple(_settle_term(rng, depth - 1, fal) for _ in range(rng.randint(lo, hi))))


def _settle_guard(rng, t, depth):
    r = rng.random()
    if depth == 0 or t.__class__ is not App or r < 0.5:
        return OPEN
    if r < 0.6:
        return STOP
    return (OPEN, *(_settle_guard(rng, a, depth - 1) for a in t.args))


def test_a_settled_argument_counts_as_the_calls_it_stands_for(monkeypatch):
    # the loop against itself with no argument settled, on random terms
    # under context facts, guards, side conditions on and off, in iff and
    # value positions: at every step limit the same output and counters
    settled = Rewriter._settled
    sizes = []

    def recorded(self, t, height):
        sizes.append(settled(self, t, height))
        return sizes[-1]

    monkeypatch.setattr(Rewriter, "_settled", recorded)
    rs = ruleset(SETTLE_RULES)
    metas = [MetaRule("n-to-g", "n", lambda u: App("g", u.args))]
    fal = rewriter().rewrite(chain_term(2), iff=False)
    contexts = [
        Context(),
        Context([P("(integerp x)")]),
        Context([P("(equal x y)"), P("(not (p y))")]),
        Context([P("(integerp (f x))"), P("(q (iassoc 'k1 y))"), P("(p (g x))")]),
    ]
    rng = random.Random(37)
    cases = [(substitute(P(text), {"fal": fal}), OPEN) for text in SETTLE_TEXTS]
    # a guard on a subterm that would settle: a stop inside it, and a shared
    # node, whose second call is a memo hit
    sub, shared = P("(f (f x))"), Shared((OPEN, OPEN))
    cases += [(P("(g (f (f x)) (f (f y)))"), (OPEN, (OPEN, STOP), (OPEN, (OPEN, OPEN)))), (App("g", (sub, sub)), (OPEN, shared, shared))]
    for _ in range(16):
        t = _settle_term(rng, 4, fal)
        cases.append((t, _settle_guard(rng, t, 2)))
    rewrites = declined = 0
    for t, dw in cases:
        for sc in (True, False):
            for ctx in contexts:
                for iff in (True, False):
                    _, off, limits = _agrees_at_every_limit(
                        _Unsettled,
                        lambda cls, limit: cls(rs, metas=MetaRegistry(metas), cfg=RewriteConfig(side_conditions_enabled=sc, step_limit=limit)),
                        lambda rw: (rw.rewrite(t, dw, ctx, iff), rw.stats.as_dict()),
                    )
                    declined += off
                    rewrites += limits
    assert sum(s > 1 for s in sizes) > 1000 and max(sizes) >= 5 and rewrites > 4000 and declined > 0

    # a depth-6 tree proof makes fewer _rw calls, and counts the same; the
    # loop with no argument settled still counts guard-settled rule results
    # and hypotheses relieved at the binding
    made = 0
    rw_step = Rewriter._rw

    def counted(self, *args):
        nonlocal made
        made += 1
        return rw_step(self, *args)

    monkeypatch.setattr(Rewriter, "_rw", counted)
    tree_rules = ruleset((DEMOS / "rules" / "tree.lsp").read_text())
    for cls, calls in ((Rewriter, 71), (_Unsettled, 255)):
        made = 0
        rw = cls(tree_rules)
        assert rw.proved(tree_conjecture(6))[0]
        assert made == calls and _has_closed_form(rw, "tree", True, 6)


class _Reentered(Rewriter):
    """The loop with no rule result settled by its guard: each result of a
    guard-settled shape re-enters the loop by a call."""

    declined = 0

    def _guard_settled(self, result, wrappers):
        self.declined += 1
        return 0


# Rule results of each kind the guard-settled count must refuse, beside
# ones it takes: an rhs head with a rule of its own (h), an executable
# counterpart on quoted bindings (binary-+), one wrapper twice and two
# distinct wrappers (w2, w3 with side conditions), the hide head, a head a
# meta triggers (m), a relieved hypothesis, a result of no arguments, and
# a settled result whose binding is an application.  The terms put results
# in iff positions, and the context fact (p (g u)) strengthens one.
GUARD_SETTLE_RULES = """\
(def-rp-rule a-to-g (equal (a x) (g x)))
(def-rp-rule b-to-h (equal (b x) (h x)))
(def-rp-rule h-to-g (equal (h x) (g x)))
(def-rp-rule c-to-plus (equal (c x y) (binary-+ x y)))
(def-rp-rule d-to-m (equal (d x) (m x)))
(def-rp-rule j-to-hide (equal (j x) (hide x)))
(def-rp-rule z-to-g (equal (z x) (g)))
(def-rp-rule e-when-q2 (implies (q2 x) (equal (e x) (g x '1))))
(def-rp-rule q2-of-f (q2 (f x)))
(def-rp-rule w2 (equal (w2 x) (g x)))
(def-rp-rule w3 (equal (w3 x) (g x)))
(defthmd p-of-g (p (g x)))
(defthmd q-of-g (q (g x)))
(rp-attach-sc w2 p-of-g)
(rp-attach-sc w2 p-of-g)
(rp-attach-sc w3 p-of-g)
(rp-attach-sc w3 q-of-g)
"""
GUARD_SETTLE_TERMS = (
    "(k (a u) (b u) (c '1 '2) (c u '2) (d u) (j u) (z u) (a (f u)))",
    "(k (w2 u) (w3 u) (w3 (rp 'p (f u))) (e (f u)) (e u))",
    "(if (a u) (w3 u) (not (b u)))",
    "(if (c '1 '2) (d u) (e (f u)))",
)


def test_a_guard_settled_rule_result_counts_as_the_calls_it_stands_for(monkeypatch):
    # the loop against itself with every rule result rewritten by a call,
    # at every step limit: the same output and counters
    settled = Rewriter._guard_settled
    counts = []

    def recorded(self, result, wrappers):
        counts.append(settled(self, result, wrappers))
        return counts[-1]

    monkeypatch.setattr(Rewriter, "_guard_settled", recorded)
    declined = 0
    for depth in range(1, 5):
        for sc in (True, False):
            # tree.lsp with side conditions, tree-backchain.lsp without
            out, off, _ = _agrees_at_every_limit(
                _Reentered,
                lambda cls, limit: _tree_rewriter(sc, cls, step_limit=limit),
                lambda rw: (rw.rewrite(tree_conjecture(depth)), rw.stats.as_dict()),
            )
            declined += off
            assert out[0] == Quote("t")

    rs = ruleset(GUARD_SETTLE_RULES)
    for rule in rs.rules.values():
        rule.compile()
    # one wrapper twice is no settled shape, though its rhs without side conditions is
    assert [rs.rules[n].results[True][3] for n in ("a-to-g", "w2", "w3", "e-when-q2")] == [0, None, 2, 0]
    assert rs.rules["w2"].results[False][3] == 0
    metas = [MetaRule("m-to-g", "m", lambda u: App("g", u.args))]
    outputs = set()
    for text in GUARD_SETTLE_TERMS:
        for sc in (True, False):
            for ctx in (Context(), Context([P("(p (g u))")])):
                for iff in (True, False):
                    out, off, _ = _agrees_at_every_limit(
                        _Reentered,
                        lambda cls, limit: cls(rs, metas=MetaRegistry(metas), cfg=RewriteConfig(side_conditions_enabled=sc, step_limit=limit)),
                        lambda rw: (rw.rewrite(P(text), ctx=ctx, iff=iff), rw.stats.as_dict()),
                    )
                    declined += off
                    outputs.add(format_term(out[0]))
    # each refused kind reached the loop and came out rewritten: a context
    # fact wraps what step (3) strengthens, and one wrapper twice is one
    assert "(k (g u) (g u) '3 (binary-+ u '2) (g u) u (g) (g (f u)))" in outputs
    assert "(k (rp 'p (g u)) (rp 'p (g u)) '3 (binary-+ u '2) (rp 'p (g u)) u (g) (g (f u)))" in outputs
    assert "(k (rp 'p (g u)) (rp 'q (rp 'p (g u))) (rp 'q (rp 'p (g (rp 'p (f u))))) (g (f u) '1) (e u))" in outputs
    assert "(if (rp 'p (g u)) (rp 'q (rp 'p (g u))) (not (rp 'p (g u))))" in outputs
    assert declined > 0 and 0 in counts and 3 in counts and max(counts) >= 3


class _NoRuleRelief(Rewriter):
    """The loop with no hypothesis relieved at the binding by a rule of its
    predicate: each instance that no wrapper relieves is rewritten."""

    declined = 0

    def _relief_rule(self, key):
        self.declined += 1
        return ()


# One hypothesis (p x), which a hypothesis-free rule of p may relieve at
# x's binding.  p's rules are tried from the last declared up: a rule of
# another arity (p-of-two), of a quoted argument (p-of-3), and one of
# another head each fail by the binding's head and arity alone; a disabled
# rule is not tried; an iff rule (p-of-y) is, as the instance is rewritten
# in an iff position.  A lemma wraps p-of-s's 't with side conditions on.
HYP_FREE_RULES = """\
(def-rp-rule p-of-any (p x))
(def-rp-rule p-of-h (p (h x y)))
(def-rp-rule p-of-h-off (equal (p (h x y)) 'nil))
(enable-rule p-of-h-off nil)
(def-rp-rule p-of-y (iff (p (y x)) 't))
(def-rp-rule p-of-n-nil (equal (p (n 'nil y)) 'nil))
(def-rp-rule p-of-j-twice (equal (p (j x x)) 'nil))
(def-rp-rule p-of-k (implies (q x) (p (k x))))
(def-rp-rule p-of-m (equal (p (m x)) 'nil))
(def-rp-rule p-of-s (p (s x)))
(defthmd r-of-t (r 't))
(rp-attach-sc p-of-s r-of-t)
(def-rp-rule p-of-two (equal (p x y) 'nil))
(def-rp-rule p-of-3 (equal (p '3) 'nil))
(def-rp-rule f-when-p (implies (p x) (equal (f x) (g x))))
(def-rp-rule e-when-p (implies (p x) (equal (e (c x)) 'yes)))
(def-rp-rule d-when-p (implies (p x) (equal (d (p x)) 'yes)))
"""
# term -> the hypothesis instances rewritten with side conditions on and
# off, where 0 is a relief at the binding
HYP_FREE_TERMS = {
    # p-of-h, past the disabled p-of-h-off; p-of-any, by a variable; p-of-y
    "(f (h u v))": (0, 0),
    "(f (z u))": (0, 0),
    "(f (y u))": (0, 0),
    # an earlier rule whose argument has the binding's head, with a constant
    # or a repeated variable inside: the instance decides
    "(f (n 'nil u))": (1, 1),
    "(f (n u v))": (1, 1),
    "(f (j u u))": (1, 1),
    "(f (j u v))": (1, 1),
    # the rule that applies has a hypothesis, whose binding is a variable
    "(f (k u))": (2, 2),
    # the rule that applies gives 'nil; with side conditions p-of-s gives
    # (rp 'r 't), which relieves as its payload does
    "(f (m u))": (1, 1),
    "(f (s u))": (0, 0),
    # a context fact from an if test
    "(if (r u) (f (h u v)) u)": (1, 1),
    # a wrapped binding, which a wrapper 'p relieves with side conditions on
    "(f (rp 'q (h u v)))": (1, 1),
    "(f (rp 'p (h u v)))": (0, 1),
    # a wrapper the match extracts, with side conditions on: a fact of the
    # instance's context, which a matched 'not decides
    "(e (rp 'q (c (h u v))))": (1, 0),
    "(d (rp 'not (p (rp 'p (h u v)))))": (1, 1),
    # a binding that is no application
    "(f u)": (1, 1),
    "(f '3)": (1, 1),
}


def test_a_hypothesis_a_rule_proves_at_the_binding_counts_as_that_rewrite(monkeypatch):
    # the loop against itself with that relief off, at every step limit:
    # the same output, counters and trace
    relieve = Rewriter._relieve_hyps
    rewritten = 0

    def counted(self, *args):
        nonlocal rewritten
        rewritten += 1
        return relieve(self, *args)

    monkeypatch.setattr(Rewriter, "_relieve_hyps", counted)
    declined = 0

    def traced(t, **kw):
        def run(rw):
            rw.trace = []
            return rw.rewrite(t, **kw), rw.stats.as_dict(), rw.trace

        return run

    for depth in range(1, 5):
        for text in (TREE_RULES, TREE_RULES_BACKCHAIN):
            rs = ruleset(text)
            for sc in (True, False):
                out, off, _ = _agrees_at_every_limit(
                    _NoRuleRelief,
                    lambda cls, limit: cls(rs, cfg=RewriteConfig(side_conditions_enabled=sc, step_limit=limit)),
                    traced(tree_conjecture(depth)),
                )
                declined += off
                # without side conditions tree.lsp proves the depth-1 tree alone
                assert (out[0] == Quote("t")) == (sc or text == TREE_RULES_BACKCHAIN or depth == 1)
    rs = ruleset(HYP_FREE_RULES)
    p_meta = MetaRule("p-unchanged", "p", lambda u: None)
    for text, counts in HYP_FREE_TERMS.items():
        for sc in (True, False):
            for metas in ((), (p_meta,)):
                make = lambda cls, limit: cls(rs, metas=MetaRegistry(metas), cfg=RewriteConfig(side_conditions_enabled=sc, step_limit=limit))
                declined += _agrees_at_every_limit(_NoRuleRelief, make, traced(P(text), iff=False))[1]
                seen = []
                for cls in (Rewriter, _NoRuleRelief):
                    rewritten = 0
                    make(cls, 1 << 20).rewrite(P(text), iff=False)
                    seen.append(rewritten)
                # a meta on p refuses every relief by a rule
                assert seen == [seen[1] if metas else counts[not sc], seen[1]], (text, sc, metas)
    assert declined > 0


def test_deep_settled_chains_rewrite_on_the_main_thread():
    # (f (f ... x)) and (f (f ... (binary-+ '1 '2))), no rules: each level
    # looks at most SETTLED_HEIGHT levels below it, with no Python recursion
    # past that
    assert threading.current_thread() is threading.main_thread()
    n = 100_000
    x = Var("x")
    for bottom, folded, calls, evals in ((x, x, n + 1, 0), (P("(binary-+ '1 '2)"), Quote(3), n + 3, 1)):
        t, expected = bottom, folded
        for _ in range(n):
            t, expected = App("f", (t,)), App("f", (expected,))
        rw = rewriter()
        out = rw.rewrite(t)
        assert out is t if bottom is folded else out == expected
        assert (rw.stats.rewrite_calls, rw.stats.exec_evals) == (calls, evals)


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


def test_wrapper_relief_at_the_binding_is_off_under_a_matched_not_wrapper():
    # x's 'integerp wrapper relieves (integerp x), unless the match looked
    # through a 'not wrapper: then the hyp is rewritten with (not (integerp
    # a)) among the wrapper facts and fails, as under that context fact
    rs = "(def-rp-rule r (implies (integerp x) (equal (f (integerp x)) 'yes)))"
    core = P("(f (integerp (rp 'integerp a)))")
    assert rewriter(rs).rewrite(core, iff=False) == Quote("yes")
    for t, ctx in [(P("(f (rp 'not (integerp (rp 'integerp a))))"), []), (core, [P("(not (integerp a))")])]:
        rw = rewriter(rs)
        assert rw.rewrite(t, ctx=ctx, iff=False) == t
        assert rw.stats.hyp_relief_failures == 1


def test_each_hypothesis_records_how_it_is_relieved_at_the_binding(monkeypatch):
    # a syntaxp test, (p x) by a wrapper on x's binding, or a rewrite
    rw = rewriter("(def-rp-rule r (implies (and (syntaxp (atom x)) (integerp x) (not x) (p (f x))) (equal (g x) (h x))))")
    rule = rw.ruleset.rules["r"]
    rule.compile()
    assert rule.hyp_relief == (rule.hyps[0], ("integerp", "x"), None, None)
    rw.rewrite(P("(k y)"))  # sets the step limit the relief counts against
    for binding, by_wrapper, first_to_rewrite in [
        ("(rp 'q (rp 'integerp y))", True, 2),
        ("(rp 'q (rp 'integerp y))", False, 1),
        ("(rp 'q y)", True, 1),
        ("(rp 'integerp (k y))", True, None),  # not an atom: the syntaxp test fails
    ]:
        assert rw._relieve_at_binding(rule, 0, {"x": P(binding)}, by_wrapper, False, ()) == first_to_rewrite, binding
    # the wrapper chain is walked past another property, with no instance built
    monkeypatch.setattr(Rewriter, "_relieve_hyps", lambda self, *args: pytest.fail("a hypothesis was rewritten"))
    rw = rewriter("(def-rp-rule r (implies (integerp x) (equal (g x) (h x))))")
    assert format_term(rw.rewrite(P("(g (rp 'q (rp 'integerp y)))"), iff=False)) == "(h (rp 'q (rp 'integerp y)))"
    assert (rw.stats.rule_applications, rw.stats.nodes_created) == (1, 1)


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
    assert rw.stats.hyp_relief_failures == BACKCHAIN_DEPTH + 1
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
    hyps, built with its builders when it compiles: rewriters sharing its
    rule set build none."""
    built = []
    real_compile_template = termrw.rules.compile_template

    def counting_compile_template(template):
        built.append(template)
        return real_compile_template(template)

    # every size and guard comes from compile_template, called by Rule.compile
    monkeypatch.setattr(termrw.rules, "compile_template", counting_compile_template)
    for text, sc in ((TREE_RULES, True), (TREE_RULES_BACKCHAIN, False)):
        rs = ruleset(text)
        for rule in rs.rules.values():
            rule.compile()
        assert built
        built.clear()
        for _ in range(2):
            rw = Rewriter(rs, cfg=RewriteConfig(side_conditions_enabled=sc))
            proved, _ = rw.proved(tree_conjecture(6))
            assert proved and rw.stats.rule_applications > 0
        assert built == []


BENCHMARK_RULE_FILES = ("arith", "bitand", "tree", "tree-backchain", "plus-truthy")


def _count_compiles(monkeypatch):
    """The sources the code generator defines from now on."""
    made = []
    real_define = termrw.rules._define

    def counting_define(source, consts):
        made.append(source)
        return real_define(source, consts)

    monkeypatch.setattr(termrw.rules, "_define", counting_define)
    return made


def test_building_rule_sets_and_rewriters_compiles_nothing(monkeypatch):
    made = _count_compiles(monkeypatch)
    inputs = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
    texts = list(SHIPPED_RULESETS.values()) + [(inputs / f"{name}.lsp").read_text() for name in BENCHMARK_RULE_FILES]
    for text in texts:
        rs = ruleset(text)
        for sc in (True, False):
            Rewriter(rs, metas=MetaRegistry(demo_metas()), cfg=RewriteConfig(side_conditions_enabled=sc))
        assert all(rule.match is None for rule in rs.rules.values())
    assert made == []


def test_a_second_tree_proof_compiles_and_substitutes_nothing(monkeypatch):
    # a rule compiles the first time it is tried and keeps what it made, its
    # builders' sizes and guards too; instances come from its builders,
    # never from the substitution
    made = _count_compiles(monkeypatch)
    templates = []
    real_compile_template = termrw.rules.compile_template

    def counting_compile_template(template):
        templates.append(template)
        return real_compile_template(template)

    monkeypatch.setattr(termrw.rules, "compile_template", counting_compile_template)
    substituted = []

    def counting_substitute(t, sub):
        substituted.append(t)
        return substitute(t, sub)

    monkeypatch.setattr(termrw.terms, "substitute", counting_substitute)
    monkeypatch.setattr(termrw.rewriter, "substitute", counting_substitute)
    monkeypatch.setattr(termrw.rewriter, "instantiate", counting_substitute)
    for text, sc in ((TREE_RULES, True), (TREE_RULES_BACKCHAIN, False)):
        rs = ruleset(text)
        for proof in range(2):
            made.clear()
            templates.clear()
            rw = Rewriter(rs, cfg=RewriteConfig(side_conditions_enabled=sc))
            proved, _ = rw.proved(tree_conjecture(6))
            assert proved and rw.stats.rule_applications > 0
            assert bool(made) == bool(templates) == (proof == 0)
    assert substituted == []


def test_a_tried_rule_set_pickles_and_its_copy_compiles_its_own():
    rs = ruleset(TREE_RULES_BACKCHAIN)
    first = Rewriter(rs, cfg=RewriteConfig(side_conditions_enabled=False))
    assert first.proved(tree_conjecture(4))[0]
    twin = pickle.loads(pickle.dumps(rs))
    assert all(rule.match is None for rule in twin.rules.values())
    again = Rewriter(twin, cfg=RewriteConfig(side_conditions_enabled=False))
    assert again.proved(tree_conjecture(4))[0] and _work(again) == _work(first)


def test_an_rp_without_a_quoted_property_rewrites_to_its_payload():
    # only (rp 'prop x) is a wrapper: any other rp is the identity on its
    # payload, which it rewrites to, whatever its first argument
    assert Rewriter().rewrite(App("rp", (Var("p"), Var("x"))), iff=False) == Var("x")
    rs = "(defthm r (equal (f x) x))"
    assert rewriter(rs).rewrite(P("(equal (f (rp p x)) x)")) == P("'t")
    assert rewriter(rs).rewrite(P("(rp (f p) (f (rp 'integerp x)))"), iff=False) == P("(rp 'integerp x)")
    # a wrapper around such an rp stays, around the payload
    assert Rewriter().rewrite(P("(rp 'integerp (rp p (f x)))"), iff=False) == P("(rp 'integerp (f x))")
    # under a dont-rw guard that stops it, it stays as it is
    t = P("(rp (f p) x)")
    assert Rewriter().rewrite(t, STOP, iff=False) is t


@pytest.mark.parametrize(
    "conjecture, verdict",
    [("(integerp (rp (if 't 'integerp 'x) 'k1))", "'nil"), ("(not (integerp (rp (if 't 'integerp 'x) 'k1)))", "'t")],
    ids=["integerp", "its-negation"],
)
def test_an_rp_whose_property_rewrites_to_a_quote_makes_no_wrapper(conjecture, verdict):
    # rewriting the first argument of a call (rp X 'k1) to 'integerp must
    # not make a wrapper (rp 'integerp 'k1) that nothing proved
    for sc in (True, False):
        rw = rewriter(TREE_RULES, side_conditions_enabled=sc)
        out = rw.rewrite(P(conjecture))
        assert out == P(verdict)
        assert check_run(P(conjecture), out, [], 50, rw.registry, mode="iff").ok


_SWEEP_HEADS = (
    *("rp", "if", "hons-acons", "hons-get", "falist", "hide", "not", "integerp"),
    *("binary-+", "unary--", "binary-logand", "floor"),
)
_SWEEP_LEAVES = ("x", "y", "nil", "t", "'0", "'3", "'-2", "'k1", "'integerp", "'nil", "'t", "'((a . 1))")


def _sweep_text(rng, depth):
    """A random term text over _SWEEP_HEADS, each with 0 to 3 arguments.  No
    text holds a wrapper: an rp's first argument is a variable or an
    application, such as (if 't 'integerp 'x), that may rewrite to a
    quotation, never a quotation or a symbol the reader quotes."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_SWEEP_LEAVES)
    head = rng.choice(_SWEEP_HEADS)
    args = [_sweep_text(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    if head == "rp" and args:
        inner = _sweep_text(rng, depth - 1)
        apps = ("(if 't 'integerp 'x)", f"(not {inner})", f"({rng.choice(_SWEEP_HEADS)} {inner})")
        args[0] = rng.choice(("x", "y", *apps))
    return f"({' '.join([head, *args])})"


def test_random_texts_over_the_special_heads_rewrite_soundly():
    # under every shipped rule set and the empty one, side conditions on and
    # off, in iff and in value positions, each result keeps the text's value
    # and holds no wrapper whose property fails
    rule_files = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos" / "rules").glob("*.lsp"))
    rulesets = [build_ruleset([])] + [ruleset(f.read_text()) for f in rule_files]
    rws = [Rewriter(rs, cfg=RewriteConfig(side_conditions_enabled=sc)) for rs in rulesets for sc in (True, False)]
    rng = random.Random(2026)
    checked = 0
    for i in range(3000):
        text = _sweep_text(rng, 4)
        try:
            t = P(text)
        except ParseError:  # a falist the reader refuses
            continue
        checked += 1
        for rw in rws:
            for iff in (True, False):
                out = rw.rewrite(t, iff=iff)
                rep = check_run(t, out, [], 20, rw.registry, mode="iff" if iff else "equal", seed=i)
                assert rep.ok, f"{text} -> {format_term(out)}: {rep.lines()}"
    assert checked > 2000


@pytest.mark.parametrize("text", sorted(RULE_FAULTS))
def test_rule_with_unbound_variables_is_refused(text):
    # every fault check-rules reports refuses the rule set, with its lines
    rs = ruleset(text)
    with pytest.raises(RuleFileError) as exc:
        Rewriter(rs)
    assert str(exc.value).splitlines() == RULE_FAULTS[text]


def test_unbound_syntaxp_variable_refuses_the_rule():
    rs = ruleset("(def-rp-rule r (implies (syntaxp (atom z)) (equal (f x) 'fired)))")
    with pytest.raises(RuleFileError, match="^r: free variables not bound by lhs: z$"):
        Rewriter(rs)


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


def test_a_syntaxp_test_that_raises_fails_its_hypothesis():
    # lexorder cannot rank the lookup table quoted in x's binding
    rule = Rule("r", (Syntaxp(P("(lexorder x y)")),), P("(f x y)"), P("(g x y)"), "equal")
    rw = Rewriter(build_ruleset([rule]))
    t = App("f", (Quote(FalistShadow()), Quote(5)))
    assert rw.rewrite(t, iff=False) is t
    assert rw.stats.hyp_relief_failures == 1 and rw.stats.rule_applications == 0


def test_syntaxp_orders_commutative_rule(arith_ruleset):
    rw = Rewriter(arith_ruleset)
    assert rw.rewrite(P("(binary-+ b a)"), iff=False) == P("(binary-+ a b)")
    # already sorted input is left alone
    rw2 = Rewriter(arith_ruleset)
    assert rw2.rewrite(P("(binary-+ a b)"), iff=False) == P("(binary-+ a b)")


def test_syntaxp_predicates_are_walked_once_when_read(arith_ruleset, monkeypatch):
    calls = []
    preds = {id(h.pred) for r in arith_ruleset.rules.values() for h in r.hyps if isinstance(h, Syntaxp)}
    real = termrw.rules.postorder
    monkeypatch.setattr(termrw.rules, "postorder", lambda *roots: calls.extend(u for u in roots if id(u) in preds) or real(*roots))
    assert preds
    rw = Rewriter(arith_ruleset)
    assert rw.rewrite(P("(binary-+ b a)"), iff=False) == P("(binary-+ a b)")
    assert calls == []


@pytest.mark.parametrize("n", [22, 40])
def test_a_syntaxp_predicate_that_shares_its_subterms_costs_its_distinct_nodes(n):
    # each binding names the one before twice: 2^(n + 1) - 1 nodes as a tree
    binds = " ".join(f"(p{i} (equal p{i - 1} p{i - 1}))" for i in range(1, n + 1))
    text = f"(def-rp-rule r (implies (syntaxp (let* ((p0 (atom x)) {binds}) p{n})) (equal (f x) (g x))))"
    start = time.perf_counter()
    rw = Rewriter(build_ruleset(parse_rule_file(text)))
    (hyp,) = rw.ruleset.rules["r"].hyps
    assert hyp.names == {"x"} and hyp.unsupported == () and len(hyp.shared) == n
    assert rw.rewrite(P("(f a)"), iff=False) == P("(g a)")
    assert time.perf_counter() - start < 1.0


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


def _unhashed(*roots):
    """Whether no App reachable from roots has had its hash computed."""
    return all(u._hash is None for u in postorder(*roots) if u.__class__ is App)


def test_proving_a_tree_and_reading_a_falist_hash_no_application():
    # an App's hash is computed on first use; the tree and falist workloads
    # never ask for one, so hashing on their path shows here first
    rules = (pathlib.Path(__file__).resolve().parent.parent / "demos" / "rules" / "tree.lsp").read_text()
    t = P(format_term(tree_conjecture(6)))
    proved, out = rewriter(rules).proved(t)
    assert proved and _unhashed(t, out)

    write = P(format_term(chain_term(60)))
    fal = rewriter().rewrite(write, iff=False)
    read = substitute(P("(list " + " ".join(f"(hons-get 'k{i} fal)" for i in range(1, 101, 2)) + ")"), {"fal": fal})
    out = rewriter().rewrite(read, iff=False)
    assert format_term(out.args[0]) == "(cons 'k1 v1)" and len(out.args) == 50
    assert _unhashed(write, fal, read, out)


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


def test_a_rewriter_keeps_no_trace_unless_its_caller_sets_a_list():
    rw = rewriter("(def-rp-rule r (equal (f x) (g x)))")
    assert format_term(rw.rewrite(P("(h (f a))"), iff=False)) == "(h (g a))"
    assert rw.trace is None


def test_trace_records_applications():
    rw = rewriter("(def-rp-rule r (equal (f x) (g x)))")
    rw.trace = []
    rw.rewrite(P("(h (f a))"), iff=False)
    assert any(name == "r" for _path, name, _b, _a in rw.trace)


def test_trace_records_the_argument_path_of_each_application():
    rw = rewriter("(def-rp-rule r (equal (f x) (g x)))")
    rw.trace = []
    rw.rewrite(P("(h (k a (m (f b))) (if c (f d) (n (f e))))"), iff=False)
    assert [path for path, name, _b, _a in rw.trace if name == "r"] == [(1, 2, 1), (2, 2), (2, 3, 1)]
