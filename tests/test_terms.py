"""Term representation, reader/printer, and structural helpers."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_rng, rand_term, rand_value
from termrw.demo import chain_term
from termrw.rules import expand_boolean_ops
from termrw.terms import (
    NIL_TERM,
    T_TERM,
    App,
    BetaReductionError,
    Cons,
    FalistShadow,
    LambdaApp,
    ParseError,
    Quote,
    Var,
    beta_reduce,
    contains_head,
    format_term,
    format_value,
    free_vars,
    is_rp,
    mk_rp,
    node_count,
    parse_term,
    read_value,
    read_values,
    rp_termp,
    strip_rp,
    strip_rp_deep,
    substitute,
    term_from_value,
    term_to_value,
    terms_equal,
    truthy,
    values_equal,
    vars_in_order,
    wrapper_props,
)


# ---------------------------------------------------------------------------
# reader


def test_read_value_atoms():
    assert read_value("42") == 42
    assert read_value("-7") == -7
    assert read_value("foo") == "foo"
    assert read_value("nil") == "nil"
    assert read_value("()") == "nil"


def test_read_value_lists_and_dots():
    assert read_value("(1 2)") == Cons(1, Cons(2, "nil"))
    assert read_value("(1 . 2)") == Cons(1, 2)
    assert read_value("(a b . c)") == Cons("a", Cons("b", "c"))


def test_read_value_quote_sugar():
    assert read_value("'x") == Cons("quote", Cons("x", "nil"))


def test_read_value_comments_and_whitespace():
    assert read_value("; intro\n ( a ; mid\n b )") == Cons("a", Cons("b", "nil"))


def test_read_values_multiple():
    assert read_values("1 2 (3)") == [1, 2, Cons(3, "nil")]


def test_read_value_errors():
    cases = [
        ("", "empty input (line 1, column 1)"),
        ("(a", "unterminated list (line 1, column 3)"),
        ("((a . b)", "unterminated list (line 1, column 9)"),
        (")", "unexpected ) (line 1, column 1)"),
        ("(a . )", "unexpected ) (line 1, column 6)"),
        ("(a ')", "unexpected ) (line 1, column 5)"),
        ("(a . b c)", "expected ) after dotted tail (line 1, column 8)"),
        ("(a\n . b\n c)", "expected ) after dotted tail (line 3, column 2)"),
        ("'", "unexpected end of input (line 1, column 2)"),
        ("(a .", "unexpected end of input (line 1, column 5)"),
        ("(. a)", "misplaced . (line 1, column 2)"),
        (".", "unexpected . (line 1, column 1)"),
        ("(x '.)", "unexpected . (line 1, column 5)"),
        ("a b", "trailing input after s-expression (line 1, column 3)"),
    ]
    for bad, message in cases:
        with pytest.raises(ParseError) as e:
            read_value(bad)
        assert str(e.value) == message, bad


def test_read_value_deep_nest_needs_no_recursion():
    depth = 100_000
    v = read_value("(" * depth + "x" + ")" * depth)
    for _ in range(depth):
        assert isinstance(v, Cons) and v.cdr == "nil"
        v = v.car
    assert v == "x"


def test_parse_term_deep_chain_needs_no_recursion():
    # a hons-acons chain nested as deep as the recursion limit translates
    # into a term on the heap, not the Python stack
    depth = sys.getrecursionlimit()
    text = "'nil"
    for i in range(depth):
        text = f"(hons-acons '{i} v{i} {text})"
    t = parse_term(text)
    for i in reversed(range(depth)):
        assert t.head == "hons-acons" and t.args[:2] == (Quote(i), Var(f"v{i}"))
        t = t.args[2]
    assert t == NIL_TERM


def test_reader_error_reports_position():
    with pytest.raises(ParseError) as e:
        read_value("(a\n  b))")
    assert "line 2" in str(e.value)


# ---------------------------------------------------------------------------
# value -> term conversion


def test_self_quoting_atoms():
    assert parse_term("5") == Quote(5)
    assert parse_term("t") == T_TERM
    assert parse_term("nil") == NIL_TERM
    assert parse_term("x") == Var("x")


def test_plus_sugar_right_nested():
    assert parse_term("(+ a b c)") == parse_term("(binary-+ a (binary-+ b c))")
    assert parse_term("(+ a b)") == App("binary-+", (Var("a"), Var("b")))


def test_minus_sugar():
    assert parse_term("(- a)") == App("unary--", (Var("a"),))
    assert parse_term("(- a b)") == parse_term("(binary-+ a (unary-- b))")


def test_logand_sugar():
    assert parse_term("(logand x y)") == App("binary-logand", (Var("x"), Var("y")))
    assert parse_term("(logand x y z)") == parse_term("(binary-logand x (binary-logand y z))")


def test_boolean_ops_become_if():
    assert parse_term("(and p q)") == parse_term("(if p q 'nil)")
    assert parse_term("(or p q)") == parse_term("(if p p q)")
    assert parse_term("(implies p q)") == parse_term("(if p (if q 't 'nil) 't)")
    assert parse_term("(and p q r)") == parse_term("(if p (if q r 'nil) 'nil)")
    # the reader and the rule-side expander share one expansion
    for text in ("(and)", "(or)", "(and p)", "(or p q r)", "(implies (and p q) (or q r))", "(f (implies p q))"):
        v = read_value(text)
        assert term_from_value(v) == expand_boolean_ops(term_from_value(v, keep_boolean_ops=True))


def test_keep_boolean_ops_flag():
    v = read_value("(and p q)")
    t = term_from_value(v, keep_boolean_ops=True)
    assert t == App("and", (Var("p"), Var("q")))


def test_let_becomes_lambda():
    t = parse_term("(let ((x '1) (y a)) (binary-+ x y))")
    assert t == LambdaApp(("x", "y"), parse_term("(binary-+ x y)"), (Quote(1), Var("a")))


def test_let_star_nests():
    t = parse_term("(let* ((x '1) (y x)) y)")
    assert t == LambdaApp(("x",), LambdaApp(("y",), Var("y"), (Var("x"),)), (Quote(1),))


def test_falist_literal_builds_shadow():
    t = parse_term("(falist '((k1 . v1) (k2 . '3)) 'nil)")
    assert isinstance(t, App) and t.head == "falist"
    shadow = t.args[0].value
    assert isinstance(shadow, FalistShadow)
    assert shadow.index["k1"] == Var("v1")
    assert shadow.index["k2"] == Quote(3)


def test_term_to_value_round_trip():
    rng = rand_rng(99)
    for _ in range(300):
        t = rand_term(rng)
        assert term_from_value(term_to_value(t)) == t


# ---------------------------------------------------------------------------
# printer


def test_format_value_dotted():
    assert format_value(Cons(1, 2)) == "(1 . 2)"
    assert format_value(Cons("a", Cons("b", "c"))) == "(a b . c)"


def test_format_term_goldens():
    for s in (
        "(binary-+ a '1)",
        "(rp 'integerp x)",
        "'(1 . 2)",
        "((lambda (x) x) 'nil)",
        "(if p q 'nil)",
    ):
        assert format_term(parse_term(s)) == s


def test_print_parse_round_trip_bulk():
    rng = rand_rng(7)
    for _ in range(10_000):
        t = rand_term(rng)
        assert parse_term(format_term(t)) == t


_names = st.text(alphabet="abcxyz-", min_size=1, max_size=6).filter(lambda s: s not in ("t", "nil", "-"))
_values = st.recursive(
    st.integers(-50, 50) | _names | st.just("nil") | st.just("t"),
    lambda kids: st.builds(Cons, kids, kids),
    max_leaves=8,
)
_terms = st.recursive(
    st.builds(Var, _names) | st.builds(Quote, _values),
    lambda kids: st.builds(lambda h, a: App(h, tuple(a)), _names, st.lists(kids, min_size=1, max_size=3)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_terms)
def test_print_parse_round_trip_property(t):
    assert parse_term(format_term(t)) == t


# ---------------------------------------------------------------------------
# structural helpers


def test_values_equal_and_truthy():
    assert values_equal(Cons(1, "nil"), Cons(1, "nil"))
    assert not values_equal(Cons(1, "nil"), Cons(1, "t"))
    assert truthy(0) and truthy("t") and truthy(Cons("nil", "nil"))
    assert not truthy("nil")


def test_terms_equal_deep():
    rng = rand_rng(3)
    t = rand_term(rng, depth=6)
    assert terms_equal(t, parse_term(format_term(t)))


def test_rp_helpers():
    t = mk_rp("integerp", mk_rp("evenp", Var("x")))
    assert is_rp(t)
    assert strip_rp(t) == Var("x")
    assert wrapper_props(t) == ["integerp", "evenp"]
    assert strip_rp_deep(parse_term("(f (rp 'integerp a) b)")) == parse_term("(f a b)")


def _reference_strip(t):
    """strip_rp_deep without the per-node cache: rebuilds every App."""
    if isinstance(t, App):
        if is_rp(t):
            return _reference_strip(t.args[1])
        return App(t.head, [_reference_strip(a) for a in t.args])
    return t


@st.composite
def _wrapped_dags(draw):
    """A term built bottom-up from a pool, so later nodes share earlier ones
    (a DAG), with rp chains at any depth, the root included."""
    pool = draw(st.lists(st.builds(Var, _names) | st.builds(Quote, _values), min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 14))):
        if draw(st.booleans()):
            node = mk_rp(draw(st.sampled_from(("integerp", "bitp", "evenp"))), draw(st.sampled_from(pool)))
        else:
            node = App(draw(_names), draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
        pool.append(node)
    return pool[-1]


@settings(max_examples=300, deadline=None)
@given(_wrapped_dags())
def test_strip_rp_deep_cached_form_is_shared(root):
    stripped = strip_rp_deep(root)
    assert terms_equal(stripped, _reference_strip(root))
    assert strip_rp_deep(root) is stripped
    if not contains_head(root, "rp"):
        assert stripped is root

    def walk(u, v):
        # v is the node standing for u inside the root's stripped form
        assert strip_rp_deep(u) is v
        u = strip_rp(u)
        if isinstance(u, App):
            for a, b in zip(u.args, v.args):
                walk(a, b)

    walk(root, stripped)
    assert terms_equal(strip_rp_deep(pickle.loads(pickle.dumps(root))), stripped)


def test_free_vars_and_order():
    t = parse_term("(f b (g a b) 'c)")
    assert free_vars(t) == {"a", "b"}
    assert vars_in_order(t) == ["b", "a"]
    lam = parse_term("((lambda (x) (binary-+ x y)) z)")
    assert free_vars(lam) == {"y", "z"}


def test_node_count_and_contains_head():
    t = parse_term("(f (g a) 'k)")
    assert node_count(t) == 4
    assert contains_head(t, "g")
    assert not contains_head(t, "h")


# ---------------------------------------------------------------------------
# well-formedness


def test_rp_termp_accepts_good():
    assert rp_termp(parse_term("(rp 'integerp (f x))")) == []


def test_rp_termp_violations():
    bad = App("rp", (Quote("nil"), Var("x")))
    msgs = [m for _p, m in rp_termp(bad)]
    assert any("quoted non-nil symbol" in m for m in msgs)
    assert rp_termp(App("rp", (Var("p"), Var("x"))))
    assert rp_termp(App("rp", (Quote("integerp"),)))


def test_rp_termp_checks_falist_coherence():
    ok = parse_term("(falist '((k . v)) (cons (cons 'k v) 'nil))")
    assert rp_termp(ok) == []
    shadow = FalistShadow(((Var("wrong"), Var("v")),))
    bad = App("falist", (Quote(shadow), parse_term("(cons (cons 'k v) 'nil)")))
    assert rp_termp(bad)


# ---------------------------------------------------------------------------
# substitution and reduction


def test_substitute_basic():
    t = parse_term("(f x (g x y))")
    out = substitute(t, {"x": Quote(1)})
    assert out == parse_term("(f '1 (g '1 y))")


def test_substitute_avoids_capture():
    t = parse_term("((lambda (x) (binary-+ x y)) '1)")
    out = substitute(t, {"y": Var("x")})
    reduced = beta_reduce(out)
    # the outer x must not be captured by the binder
    assert reduced == parse_term("(binary-+ '1 x)")


def test_substitute_shadowed_param_untouched():
    t = parse_term("((lambda (x) x) y)")
    assert substitute(t, {"x": Quote(5)}) == parse_term("((lambda (x) x) y)")


def test_beta_reduce_innermost_first():
    t = parse_term("((lambda (a) ((lambda (b) (f a b)) '2)) '1)")
    assert beta_reduce(t) == parse_term("(f '1 '2)")


def test_beta_reduce_arity_error():
    with pytest.raises(BetaReductionError):
        beta_reduce(LambdaApp(("x", "y"), Var("x"), (Quote(1),)))


# ---------------------------------------------------------------------------
# pickling

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_PICKLED_TERMS = """
from termrw.terms import App, Cons, FalistShadow, LambdaApp, Quote, Var
x, k = Var("x"), Quote("k")
TERMS = (x, k, App("f", (x, k)), Cons("a", "b"), LambdaApp(("y",), App("g", (Var("y"),)), (x,)),
         App("h", (App("f", (x, k)), App("g", ()), Quote(Cons(Cons("a", 1), "b")))), FalistShadow([("k", x)]))
"""


def test_terms_pickled_under_one_hash_seed_load_under_another(tmp_path):
    # str hashes are salted per process, so a loaded term must rehash
    path = tmp_path / "terms.pickle"
    dump = _PICKLED_TERMS + f"import pickle; open({str(path)!r}, 'wb').write(pickle.dumps(TERMS))"
    load = _PICKLED_TERMS + f"""
import pickle
loaded = pickle.loads(open({str(path)!r}, 'rb').read())
for fresh, old in zip(TERMS, loaded, strict=True):
    if not (old == fresh and old in {{fresh}}):
        raise SystemExit(f"{{fresh!r}} does not survive pickling")
if loaded[-1].get("k") != x:
    raise SystemExit("the loaded shadow lost its binding")
"""
    for seed, code in (("1", dump), ("2", load)):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


def test_deep_terms_pickle_and_copy_on_the_main_thread():
    # pickle and deepcopy see one flat table per term, never its depth,
    # which is far past the default recursion limit
    assert threading.current_thread() is threading.main_thread()
    pairs = "nil"
    lam = Quote(0)
    for i in range(5_000):
        pairs = Cons(Cons(i, "v"), pairs)
        lam = LambdaApp(("x",), App("f", (Var("x"),)), (lam,))
    for t in (chain_term(100_000), Quote(pairs), lam):
        twin = pickle.loads(pickle.dumps(t))
        assert twin is not t and twin == t and hash(twin) == hash(t)
        # terms and values are immutable, so a deep copy is the original
        assert copy.deepcopy(t) is t and copy.deepcopy(pairs) is pairs


def test_pickled_terms_keep_shared_nodes_shared():
    shared = App("f", (Var("x"), Quote(Cons(1, 2))))
    dag = App("g", (shared, App("h", (shared,)), shared))
    twin = pickle.loads(pickle.dumps(dag))
    assert twin == dag and twin.args[0] is not shared
    assert twin.args[0] is twin.args[1].args[0] is twin.args[2]
