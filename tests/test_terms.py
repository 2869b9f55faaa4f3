"""Term representation, reader/printer, and structural helpers."""

import copy
import os
import pathlib
import pickle
import re
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contains_head, doubling, free_vars, rand_rng, rand_term, rand_value, tree_copy, value_dag_pairs
from termrw import reader
from termrw.demo import chain_term
from termrw.evaluator import default_registry, eval_terms, shared_nodes
from termrw.reader import ParseError, parse_term, read_value, read_values, term_from_value, term_to_value
from termrw.rules import Syntaxp, syntaxp_eval
from termrw.terms import (
    NIL,
    NIL_TERM,
    T_TERM,
    App,
    Cons,
    FalistShadow,
    Quote,
    Var,
    check_falist_term,
    format_term,
    format_value,
    has_wrapper,
    is_rp,
    mk_rp,
    node_count,
    postorder,
    rp_termp,
    strip_rp,
    strip_rp_deep,
    substitute,
    terms_equal_mod_rp,
    truthy,
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
    ab = Cons("a", Cons("b", "nil"))
    assert read_value("; intro\n ( a ; mid\n b )") == ab
    # a form feed (^L) is whitespace, as Page is in Common Lisp
    assert read_value("\f(a\fb)\f") == ab
    assert read_values("(a b)\f(c d)") == [ab, Cons("c", Cons("d", "nil"))]
    # other control and Unicode spaces are atom characters
    assert read_values("a\x0bb c\xa0d") == ["a\x0bb", "c\xa0d"]


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


# The reader places a fault by its token's index and finds its line and
# column only when it raises: (reader, text, message, line, column).
PLACED_FAULTS = [
    (parse_term, "(f (g (+ a)) b)", "+ expects at least 2 arguments", 1, 7),
    (parse_term, "(f a\n  (g b\n     (- a b c))\n  c)", "- expects 1 or 2 arguments", 3, 6),
    (read_value, "(a\n  (b . c)\n  (d . e f))", "expected ) after dotted tail", 3, 10),
    (parse_term, "(f a) (g b)", "trailing input after s-expression", 1, 7),
    (read_value, "(a b)\n  ;; note\n  c", "trailing input after s-expression", 3, 3),
    (read_value, "(a . 'b) '", "trailing input after s-expression", 1, 10),
    (parse_term, "(f '  ", "unexpected end of input", 1, 7),
    (read_values, "(defthm a (equal x x))\n(defthm b\n  (equal (f . ) x))", "unexpected )", 3, 15),
    (read_values, "; rules\n(defthm a (equal x x))\n\n(defthm b (equal (g x . y z) x))", "expected ) after dotted tail", 4, 27),
    (read_values, "(a b)\f(c . d e)", "expected ) after dotted tail", 1, 14),
    (parse_term, "(f\n  '. x)", "unexpected .", 2, 4),
    (parse_term, "(g ('f x))", "application head must be a symbol or lambda", 1, 4),
    (parse_term, "(g (5 x))", "application head must be a symbol", 1, 4),
]


@pytest.mark.parametrize("reader,text,message,line,col", PLACED_FAULTS)
def test_reader_faults_are_placed_at_their_tokens(reader, text, message, line, col):
    with pytest.raises(ParseError) as e:
        reader(text)
    assert (str(e.value), e.value.line, e.value.col) == (f"{message} (line {line}, column {col})", line, col)


# The reader's token grammar as one regex, with a form feed among the
# whitespace: the reference that reader._tokens keeps to once each quote
# glued to an atom is split off.
_REFERENCE_TOKEN = re.compile(r"[ \t\r\n\f]*(?:;[^\n]*[ \t\r\n\f]*)*(\.(?=[ \t\r\n\f()';]|\Z)|[()']|[^ \t\r\n\f()';]+|\Z)")

_TEXT_PARTS = st.one_of(
    st.sampled_from(["(", ")", "'", ".", ";", "\n", "\t", "\r", "\f", "\x0b", "\xa0", " "]),
    st.sampled_from(["a.b", ".5", "..", "x.", "nil", "f", "k12", "+", "-", "let*", "1+"]),
    st.integers(-999, 999).map(str),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_TEXT_PARTS, max_size=40).map("".join))
def test_tokens_are_the_reference_grammar_s_tokens(text):
    tokens = reader._tokens(text)
    unglued = []
    for tok in tokens:
        unglued += ["'", tok[1:]] if len(tok) > 1 and tok[0] == "'" else [tok]
    reference = _REFERENCE_TOKEN.findall(text)
    # findall may match the end twice, after the last skipped run
    assert unglued == reference[: reference.index("") + 1]
    # the scan that places a fault finds each token where it starts
    for i, tok in enumerate(tokens):
        assert text.startswith(tok, reader._token_start(text, i))


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
    assert parse_term("()") == NIL_TERM
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
    assert parse_term("(and)") == Quote("t")
    assert parse_term("(or)") == Quote("nil")
    assert parse_term("(and p)") == parse_term("(or p)") == Var("p")
    # the one-pass reader and term_from_value share one expansion
    for text in ("(and)", "(or)", "(and p)", "(or p q r)", "(implies (and p q) (or q r))", "(f (implies p q))"):
        assert parse_term(text) == term_from_value(read_value(text))


@pytest.mark.parametrize("text", ["(implies p)", "(implies p q r)", "(f (implies))"])
def test_implies_needs_two_arguments(text):
    with pytest.raises(ParseError, match="implies expects 2 arguments"):
        parse_term(text)
    with pytest.raises(ParseError, match="implies expects 2 arguments"):
        term_from_value(read_value(text))


def test_let_reads_as_its_body():
    t = parse_term("(let ((x '1) (y a)) (binary-+ x y))")
    assert t == parse_term("(binary-+ '1 a)")
    assert parse_term("(let () (f x))") == parse_term("(f x)")
    # a bound name is restored once its form is read
    assert parse_term("(f (let ((x a)) x) x)") == parse_term("(f a x)")
    assert parse_term("(let ((y b)) (f (let ((x a) (y x)) y) x y))") == parse_term("(f x x b)")


def test_let_star_nests():
    t = parse_term("(let* ((x '1) (y x)) y)")
    assert t == Quote(1)
    assert parse_term("(let* ((x (g x)) (x (h x))) (f x))") == parse_term("(f (h (g x)))")


def test_let_names_must_be_plain_symbols():
    # nil and t are constants: as let names they would be ignored
    # and a binding of two items whose first is no symbol is no name either
    for text in ("(let ((nil a)) nil)", "(let* ((t a)) (f t))", "(f (let ((x a) (t b)) x))",
                 "(let ((5 x)) x)", "(let (((a) x)) x)", "(let* ((5 x)) x)"):
        with pytest.raises(ParseError, match="names must be plain symbols"):
            parse_term(text)
        with pytest.raises(ParseError, match="names must be plain symbols"):
            term_from_value(read_value(text))


def test_let_and_lambda_bind_each_name_once():
    # ACL2 refuses a let or a lambda that binds one name twice; read, the
    # last binding would silently win
    for text, message, at in (
        ("(let ((x '1) (x '2)) x)", "let binds x twice", 1),
        ("(f (let ((y a) (x b) (x c)) x))", "let binds x twice", 4),
        ("((lambda (x x) x) '1 '2)", "lambda parameters must be distinct", 1),
        ("(f ((lambda (x y x) y) a b c))", "lambda parameters must be distinct", 4),
    ):
        with pytest.raises(ParseError) as e:
            parse_term(text)
        assert str(e.value) == f"{message} (line 1, column {at})", text
        with pytest.raises(ParseError) as e:
            term_from_value(read_value(text))
        assert str(e.value) == message, text
    # a let* binds one name per layer, so it may rebind
    assert parse_term("(let* ((x '1) (x '2)) x)") == Quote(2)


def test_lambda_parameters_must_be_plain_symbols():
    text = "((lambda (1) x) '2)"
    with pytest.raises(ParseError) as e:
        parse_term(text)
    assert str(e.value) == "lambda parameters must be plain symbols (line 1, column 1)"
    with pytest.raises(ParseError) as e:
        term_from_value(read_value(text))
    assert str(e.value) == "lambda parameters must be plain symbols"


def test_a_value_no_term_reads_as_is_refused():
    # a lookup table is a quoted constant's value only, and a float no value
    with pytest.raises(ParseError) as e:
        term_from_value(FalistShadow([("k", Quote(1))]))
    assert str(e.value) == "lookup-table constant cannot appear as a term"
    with pytest.raises(ParseError) as e:
        term_from_value(1.5)
    assert str(e.value) == "cannot read term from 1.5"


def test_falist_literal_builds_shadow():
    # the shadow is rebuilt from the logical part; the quoted text is not read
    chain = "(cons (cons 'k1 v1) (hons-acons 'k2 '3 '((k3 . 4))))"
    for shadow_text in ("'nil", "'((k1 . wrong))", "'junk", "'((k1 . v1) (k2 . '3) (k3 . '4))"):
        t = parse_term(f"(falist {shadow_text} {chain})")
        assert isinstance(t, App) and t.head == "falist"
        shadow = t.args[0].value
        assert isinstance(shadow, FalistShadow)
        assert shadow.entries == (("k1", Var("v1")), ("k2", Quote(3)), ("k3", Quote(4)))
        assert rp_termp(t) == [] and parse_term(format_term(t)) == t
    # a let-bound name in the logical part reads alike in the shadow
    t = parse_term("(let ((v a)) (falist 'nil (cons (cons 'k v) 'nil)))")
    assert t.args[0].value.get("k") == Var("a") and rp_termp(t) == []


def test_bare_lambda_and_t_heads_are_rejected():
    for text, message in (
        ("(lambda (x) x)", "lambda must be applied, as in ((lambda (x) body) arg) (line 1, column 1)"),
        ("(f (lambda (x) x))", "lambda must be applied, as in ((lambda (x) body) arg) (line 1, column 4)"),
        ("(t x)", "application head must be a symbol (line 1, column 1)"),
        ("(nil x)", "application head must be a symbol (line 1, column 1)"),
    ):
        with pytest.raises(ParseError) as e:
            parse_term(text)
        assert str(e.value) == message, text
        with pytest.raises(ParseError):
            term_from_value(read_value(text))
    assert parse_term("((lambda (x) x) a)") == Var("a")


def test_term_shape_errors_report_their_forms_position():
    cases = [
        ("(f\n  (+ a))", "+ expects at least 2 arguments (line 2, column 3)"),
        ("(f a\n (g (- a b c)))", "- expects 1 or 2 arguments (line 2, column 5)"),
        ("(f (quote a b))", "quote expects exactly one argument (line 1, column 4)"),
        ("(f (1 a))", "application head must be a symbol (line 1, column 4)"),
        ("(f ((g) a))", "application head must be a symbol or lambda (line 1, column 4)"),
        ("\n(f a . b)", "expected a proper list (line 2, column 1)"),
        ("(f (let ((x (implies a))) x))", "implies expects 2 arguments (line 1, column 4)"),
        ("((lambda (x) x))", "lambda applied to the wrong number of arguments (line 1, column 1)"),
        ("(falist 'nil)", "falist expects 2 arguments (line 1, column 1)"),
        ("(falist x 'nil)", "falist shadow must be a quotation (line 1, column 1)"),
        ("(f\n (falist 'nil (g x)))", "falist logical part is not a quoted-key alist chain (line 2, column 2)"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as e:
            parse_term(text)
        assert str(e.value) == message, text


def test_plain_applications_read_without_values(monkeypatch):
    # a plain application's term is built as its ')' is read: no Cons, no
    # read_value, no term_from_value
    def forbidden(*args, **kwargs):
        raise AssertionError("the one-pass reader fell back to values")

    for name in ("Cons", "read_value", "term_from_value", "trampoline"):
        monkeypatch.setattr(reader, name, forbidden)
    # the patch reaches the globals the reader looks up: reading a value,
    # through the unpatched read_value, now builds a forbidden Cons
    with pytest.raises(AssertionError, match="fell back to values"):
        read_value("(a)")
    t = parse_term("(f (+ a 1 -2) (- b) (and p (or q r) (implies p q)) 'k nil t)")
    monkeypatch.undo()
    assert format_term(t) == (
        "(f (binary-+ a (binary-+ '1 '-2)) (unary-- b) (if p (if (if q q r) (if p (if q 't 'nil) 't) 'nil) 'nil)"
        " 'k 'nil 't)"
    )


# Texts for the one-pass reader's property test, built from text pieces so
# that the reader sees signed integers, comments and newlines between tokens.
_gaps = st.sampled_from((" ", "  ", "\n", " ; note (x '.\n", "\t"))
_syms = st.sampled_from(("a", "b", "x1", "foo-bar", "k"))
_ints = st.integers(-40, 40).map(str) | st.integers(0, 9).map(lambda n: f"+{n}")


def _form(gap, items):
    return "(" + gap.join(items) + gap + ")"


_data = st.recursive(
    _ints | _syms | st.sampled_from(("nil", "t", "quote", "lambda", "()")),
    lambda kids: st.one_of(
        st.builds(_form, _gaps, st.lists(kids, max_size=3)),
        st.builds(lambda gap, a, d: _form(gap, [a, ".", d]), _gaps, kids, kids),
        kids.map(lambda d: "'" + d),
    ),
    max_leaves=6,
)


def _lambda_app(gap, params, body, args):
    return _form(gap, [_form(gap, ["lambda", _form(gap, params), body]), *args[: len(params)]])


def _let(gap, head, names, exprs, body):
    return _form(gap, [head, _form(gap, [_form(gap, [n, e]) for n, e in zip(names, exprs)]), body])


def _chain(gap, bindings, tail):
    """An alist chain text that logical_entries decodes: bindings of
    quoted keys, as a cons of a cons, a hons-acons or a cons of a quoted
    pair, over a quoted alist or a falist."""
    text = tail
    for how, k, v in reversed(bindings):
        if how == "cons":
            text = _form(gap, ["cons", _form(gap, ["cons", "'" + k, v]), text])
        elif how == "hons-acons":
            text = _form(gap, ["hons-acons", "'" + k, v, text])
        else:
            text = _form(gap, ["cons", "'" + _form(gap, [k, ".", v]), text])
    return text


def _chains(kids):
    bindings = st.lists(st.tuples(st.sampled_from(("cons", "hons-acons", "pair")), _data, kids), max_size=3)
    tails = st.sampled_from(("nil", "'nil", "'()", "'((k . 1) (a . x))", "(falist 'x (cons (cons 'a b) 'nil))"))
    return st.builds(_chain, _gaps, bindings, tails)


def _term_forms(kids):
    args = st.lists(kids, max_size=3)
    return st.one_of(
        st.builds(lambda gap, h, xs: _form(gap, [h, *xs]), _gaps, st.sampled_from(("f", "g", "if", "rp", "hons-acons")), args),
        st.builds(lambda gap, h, xs: _form(gap, [h, *xs]), _gaps, st.sampled_from(("+", "logand")),
                  st.lists(kids, min_size=2, max_size=4)),
        st.builds(lambda gap, xs: _form(gap, ["-", *xs]), _gaps, st.lists(kids, min_size=1, max_size=2)),
        st.builds(lambda gap, h, xs: _form(gap, [h, *xs]), _gaps, st.sampled_from(("and", "or")), args),
        st.builds(lambda gap, xs: _form(gap, ["implies", *xs]), _gaps, st.lists(kids, min_size=2, max_size=2)),
        st.builds(_let, _gaps, st.sampled_from(("let", "let*")), st.lists(_syms, max_size=2, unique=True), st.lists(kids, min_size=2, max_size=2), kids),
        st.builds(_lambda_app, _gaps, st.lists(_syms, max_size=2, unique=True), kids, st.lists(kids, min_size=2, max_size=2)),
        # a falist's shadow text is any quotation: it is rebuilt from the chain
        st.builds(lambda gap, s, c: _form(gap, ["falist", "'" + s, c]), _gaps, _data, _chains(kids)),
        st.builds(lambda gap, d: _form(gap, ["quote", d]), _gaps, _data),
        # a dotted tail continues the argument list
        st.builds(lambda gap, x, xs: _form(gap, ["f", x, ".", _form(gap, xs)]), _gaps, kids, args),
    )


_valid_texts = st.recursive(_ints | _syms | st.sampled_from(("nil", "t")) | _data.map(lambda d: "'" + d), _term_forms, max_leaves=10)

# Forms with exactly one term-shape fault, over valid parts.
_faulty_forms = st.one_of(
    st.builds(lambda h, x: f"({h} {x})", st.sampled_from(("nil", "t", "7", "-1", "'f", "(g a)")), _valid_texts),
    st.builds(lambda x: f"(lambda (a) {x})", _valid_texts),
    st.builds(lambda h, xs: _form(" ", [h, *xs]), st.sampled_from(("+", "logand")), st.lists(_valid_texts, max_size=1)),
    st.builds(lambda xs: _form(" ", ["-", *xs]), st.lists(_valid_texts, min_size=3, max_size=4) | st.just([])),
    st.builds(lambda xs: _form(" ", ["implies", *xs]), st.lists(_valid_texts, max_size=1) | st.lists(_valid_texts, min_size=3, max_size=3)),
    st.builds(lambda xs: _form(" ", ["quote", *xs]), st.lists(_data, max_size=0) | st.lists(_data, min_size=2, max_size=2)),
    st.builds(lambda x: f"(let ((a {x})))", _valid_texts),
    st.builds(lambda b, x: f"(let* {b} {x})", st.sampled_from(("(a)", "((a))", "((1 b))", "((a b c))", "a")), _valid_texts),
    st.builds(lambda x: f"((lambda (a) {x}))", _valid_texts),
    st.builds(lambda p, x: f"((lambda {p} {x}) b)", st.sampled_from(("(nil)", "(1)", "a", "(a . b)")), _valid_texts),
    st.builds(lambda x: f"((lambda (a)) {x})", _valid_texts),
    st.builds(lambda x: f"(let ((a {x}) (a b)) a)", _valid_texts),
    st.builds(lambda x: f"((lambda (a a) a) {x} b)", _valid_texts),
    st.builds(lambda s, x: f"(falist {s} {x})", st.sampled_from(("a", "(f a)")), _chains(_valid_texts)),
    st.builds(lambda s, x: f"(falist '{s} {x})", _data,
              st.sampled_from(("a", "(f a)", "'(k)", "'((k . a) . b)", "(cons (cons 'k a) b)", "(hons-acons k a 'nil)"))),
    st.builds(lambda x: f"(falist {x})", _valid_texts),
    st.builds(lambda x: f"(f {x} . b)", _valid_texts),
)


def _in_context(kids):
    # a faulty part inside a valid term, in argument, binding, body or tail position
    return st.one_of(
        st.builds(lambda a, bad, b: f"(f {a} {bad} {b})", _valid_texts, kids, _valid_texts),
        st.builds(lambda bad, b: f"(+ {bad} {b})", kids, _valid_texts),
        st.builds(lambda bad, b: f"(let ((a {bad})) {b})", kids, _valid_texts),
        st.builds(lambda a, bad: f"(let* ((a {a})) {bad})", _valid_texts, kids),
        st.builds(lambda bad, b: f"((lambda (a) {bad}) {b})", kids, _valid_texts),
        st.builds(lambda a, bad: f"((lambda (a) {a}) {bad})", _valid_texts, kids),
        st.builds(lambda bad: f"(falist 'nil (cons (cons 'k {bad}) 'nil))", kids),
        st.builds(lambda a, bad: f"(g {a} . ({bad}))", _valid_texts, kids),
    )


_one_term_fault = st.recursive(_faulty_forms, _in_context, max_leaves=3)


@st.composite
def _one_syntax_fault(draw):
    """A valid text with one fault of syntax: cut short, given trailing
    input, or with a dot inserted at a gap between tokens."""
    text = draw(_valid_texts)
    how = draw(st.sampled_from(("cut", "trail", "dot")))
    if how == "cut":
        return text[: draw(st.integers(0, len(text)))]
    if how == "trail":
        return text + draw(st.sampled_from((" )", " x", " (", " '", " .")))
    gaps = [i for i, c in enumerate(text) if c in " \n"] + [1] * (text[:1] == "(")
    i = draw(st.sampled_from(gaps)) if gaps else 0
    return text[:i] + " . " + text[i:]


def _reading(read, text):
    """The term read from text, or the message of the ParseError raised,
    without its position."""
    try:
        return read(text)
    except ParseError as e:
        return re.sub(r" \(line \d+, column \d+\)\Z", "", str(e))


def _two_pass(text):
    return term_from_value(read_value(text))


@settings(max_examples=300, deadline=None)
@given(_valid_texts)
def test_one_pass_reader_agrees_on_valid_texts(text):
    t = parse_term(text)
    assert t == _two_pass(text) and isinstance(t, (Var, Quote, App))


@settings(max_examples=300, deadline=None)
@given(_valid_texts)
def test_every_falist_read_agrees_with_its_chain(text):
    for u in postorder(parse_term(text)):
        if isinstance(u, App) and u.head == "falist":
            assert check_falist_term(u) == []
            assert parse_term(format_term(u)) == u


@settings(max_examples=300, deadline=None)
@given(_one_term_fault | _one_syntax_fault())
def test_one_pass_reader_reports_a_single_fault_as_the_two_pass_reader(text):
    one = _reading(parse_term, text)
    assert one == _reading(_two_pass, text)
    if isinstance(one, str):
        with pytest.raises(ParseError) as e:
            parse_term(text)
        assert e.value.line is not None


def test_two_faults_are_reported_in_text_order_by_the_one_pass_reader():
    # a term-shape fault, then trailing input: the two-pass reader reads the
    # whole text first, so it meets the trailing input first
    text = "(f (+ a)) )"
    with pytest.raises(ParseError) as one:
        parse_term(text)
    assert str(one.value) == "+ expects at least 2 arguments (line 1, column 4)"
    with pytest.raises(ParseError) as two:
        _two_pass(text)
    assert str(two.value) == "trailing input after s-expression (line 1, column 11)"


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
        "(if p q 'nil)",
    ):
        assert format_term(parse_term(s)) == s
    # a lambda form reads as its body, so no term prints one
    assert format_term(parse_term("((lambda (x) x) 'nil)")) == "'nil"


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
    assert Cons(1, "nil") == Cons(1, "nil")
    assert not Cons(1, "nil") == Cons(1, "t")
    assert truthy(0) and truthy("t") and truthy(Cons("nil", "nil"))
    assert not truthy("nil")


def test_terms_equal_deep():
    rng = rand_rng(3)
    t = rand_term(rng, depth=6)
    assert t == parse_term(format_term(t))


def test_rp_helpers():
    t = mk_rp("integerp", mk_rp("evenp", Var("x")))
    assert is_rp(t)
    assert strip_rp(t) == Var("x")
    assert has_wrapper(t, "integerp") and has_wrapper(t, "evenp") and not has_wrapper(t, "x")
    assert strip_rp_deep(parse_term("(f (rp 'integerp a) b)")) == parse_term("(f a b)")


def test_an_rp_without_a_quoted_property_is_not_a_wrapper():
    # a wrapper is a 2-argument rp whose first argument is quoted; every
    # peel keeps any other rp as an ordinary call
    for t in (App("rp", (Var("p"), Var("x"))), parse_term("(rp 'p)"), parse_term("(rp 'p x y)")):
        assert not is_rp(t)
        assert strip_rp(t) is t and strip_rp_deep(t) is t and not has_wrapper(t, "p")
    t = parse_term("(f (rp (g p) (rp 'integerp a)))")
    assert strip_rp_deep(t) == parse_term("(f (rp (g p) a))")
    assert terms_equal_mod_rp(t, parse_term("(f (rp 'bitp (rp (g p) a)))"))
    assert not terms_equal_mod_rp(t, parse_term("(f a)"))


def _reference_strip(t):
    """strip_rp_deep without the per-node cache: rebuilds every App."""
    if isinstance(t, App):
        if is_rp(t):
            return _reference_strip(t.args[1])
        return App(t.head, [_reference_strip(a) for a in t.args])
    return t


@st.composite
def _wrapped_dags(draw, nodes=14):
    """A term built bottom-up from a pool, so later nodes share earlier ones
    (a DAG), with rp chains at any depth, the root included."""
    pool = draw(st.lists(st.builds(Var, _names) | st.builds(Quote, _values), min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, nodes))):
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
    assert stripped == _reference_strip(root)
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
    assert strip_rp_deep(pickle.loads(pickle.dumps(root))) == stripped


@st.composite
def _pairs_mod_rp(draw):
    """(a, b): a wrapped DAG, and b rebuilt from a with rp chains, nested
    ones included, added and dropped at random.  b shares where a shares,
    except that a node may be copied afresh at each of its occurrences,
    and one leaf that b reaches may be changed: so one node of a may meet
    several nodes of b, equal to it or not.  a may be two occurrences of
    one DAG.  Or an independent b."""
    a = draw(_wrapped_dags())
    if draw(st.integers(0, 4)) == 0:
        return a, draw(_wrapped_dags())
    if draw(st.booleans()):
        a = App("k", (a, a))
    change = draw(st.integers(-1, 9))  # the leaf changed, counted as b is built; -1: none
    # per distinct node of a: (whether each occurrence gets its own copy,
    # the wrappers put on it)
    wrappers = st.lists(st.sampled_from(("integerp", "bitp")), max_size=2)
    plan = {id(u): (draw(st.booleans()), draw(wrappers)) for u in postorder(a)}
    built, leaves = {}, [0]

    def rebuild(u):
        if id(u) in built:
            return built[id(u)]
        fresh, props = plan[id(u)]
        core = strip_rp(u)
        if isinstance(core, App):
            v = App(core.head, [rebuild(x) for x in core.args])
        else:
            v = Var("zzz") if leaves[0] == change else core
            leaves[0] += 1
            fresh = True  # so each occurrence of a leaf counts
        for prop in props:
            v = mk_rp(prop, v)
        if not fresh:
            built[id(u)] = v
        return v

    return a, rebuild(a)


@settings(max_examples=200, deadline=None)
@given(_pairs_mod_rp())
def test_terms_equal_mod_rp_agrees_with_stripping_both(pair):
    a, b = pair
    # _reference_strip builds tree copies, where no pair of nodes recurs
    expected = _reference_strip(a) == _reference_strip(b)
    assert terms_equal_mod_rp(a, b) == expected
    assert terms_equal_mod_rp(b, a) == expected
    assert (strip_rp_deep(a) == strip_rp_deep(b)) == expected
    assert terms_equal_mod_rp(a, strip_rp_deep(a))


@settings(max_examples=200, deadline=None)
@given(_pairs_mod_rp())
def test_equality_of_shared_terms_agrees_with_their_tree_copies(pair):
    a, b = pair
    expected = tree_copy(a) == tree_copy(b)
    assert (a == b) == (b == a) == expected
    assert (term_to_value(a) == term_to_value(b)) == (tree_copy(term_to_value(a)) == tree_copy(term_to_value(b)))
    assert a == tree_copy(a) and strip_rp_deep(a) == _reference_strip(a)


@settings(max_examples=200, deadline=None)
@given(value_dag_pairs())
def test_equality_of_shared_values_agrees_with_their_tree_copies(pair):
    a, b = pair
    assert (a == b) == (b == a) == (tree_copy(a) == tree_copy(b))
    assert a == tree_copy(a)


def test_a_node_met_with_two_partners_is_compared_with_each():
    # s meets an equal copy and a differing one, in either order
    s = parse_term("(g x (rp 'bitp (h y)))")
    for same, other in ((0, 1), (1, 0)):
        parts = [None, None]
        parts[same], parts[other] = parse_term("(g x (h y))"), parse_term("(g x (h z))")
        a, b = App("f", (s, s)), App("f", parts)
        assert not terms_equal_mod_rp(a, b) and not terms_equal_mod_rp(b, a)
        assert strip_rp_deep(a) != b and b != strip_rp_deep(a)


def test_two_copies_of_a_shared_term_compare_in_their_distinct_pairs():
    # two 40-binding doubling chains read apart: equal as trees of 2^41 - 1
    # nodes, each 41 distinct nodes; a third differs only in its leaf
    a, b, c = doubling(40), doubling(40), doubling(40, "y")
    assert a is not b and a.args[0] is not b.args[0]
    start = time.perf_counter()
    found = (
        a == b,
        a == c,
        terms_equal_mod_rp(a, b),
        terms_equal_mod_rp(mk_rp("integerp", a), c),
        term_to_value(a) == term_to_value(b),
        term_to_value(a) == term_to_value(c),
    )
    elapsed = time.perf_counter() - start
    assert found == (True, False, True, False, True, False)
    assert elapsed < 0.5


def test_terms_equal_mod_rp_sees_through_nested_wrappers_and_lambdas():
    a = parse_term("(f (rp 'integerp (rp 'bitp (g x (rp 'evenp 'k)))) y)")
    assert terms_equal_mod_rp(a, parse_term("(f (g x 'k) y)"))
    assert not terms_equal_mod_rp(a, parse_term("(f (g x 'j) y)"))
    assert terms_equal_mod_rp(parse_term("((lambda (x) (rp 'integerp x)) (rp 'bitp y))"), Var("y"))


def test_terms_equal_mod_rp_compares_leaf_arguments_where_it_meets_them():
    # a leaf argument meets a partner of its class, or a wrapped one to peel
    a, wrapped = parse_term("(f 'k x)"), parse_term("(f (rp 'integerp 'k) (rp 'p x))")
    assert terms_equal_mod_rp(a, wrapped) and terms_equal_mod_rp(wrapped, a)
    assert not terms_equal_mod_rp(a, parse_term("(f 'j x)"))
    assert not terms_equal_mod_rp(parse_term("(f x)"), parse_term("(f 'x)"))


def _wrapped_chain(n, innermost):
    """chain_term(n) over innermost in place of 'nil, every third node wrapped."""
    out = innermost
    for i in range(n, 0, -1):
        out = App("hons-acons", (Quote(f"k{i}"), Var(f"v{i}"), out))
        if i % 3 == 0:
            out = mk_rp("consp", out)
    return out


def test_terms_equal_mod_rp_on_a_deep_chain_needs_no_recursion():
    wrapped = _wrapped_chain(100_000, T_TERM)
    stripped = strip_rp_deep(wrapped)
    plain = chain_term(100_000)
    assert terms_equal_mod_rp(wrapped, stripped)
    assert not terms_equal_mod_rp(wrapped, plain)
    assert not stripped == strip_rp_deep(plain)


def test_free_vars_and_order():
    t = parse_term("(f b (g a b) 'c)")
    assert free_vars(t) == {"a", "b"}
    lam = parse_term("((lambda (x) (binary-+ x y)) z)")
    assert free_vars(lam) == {"y", "z"}


def test_free_vars_visits_each_shared_node_once():
    # free_vars on a 200-deep chain whose nodes mostly pass one object
    # twice: about 2^200 nodes as a tree
    t = Var("a")
    for k in range(200):
        t = App("binary-+", (t, Var(f"b{k}") if k % 50 == 0 else t))
    # the result is computed outside the assert: a failing assert would
    # print t, walking it as a tree
    names = free_vars(t)
    assert names == {"a"} | {f"b{k}" for k in range(0, 200, 50)}


def test_node_count_and_contains_head():
    t = parse_term("(f (g a) 'k)")
    assert node_count(t) == 4
    assert contains_head(t, "g")
    assert not contains_head(t, "h")


def test_dag_walkers_visit_each_shared_node_once():
    # a 40-deep chain whose nodes pass one object twice: 3 * 2^40 - 1 nodes
    # as a tree, with a bad variable 2^40 times on it and 42 distinct nodes
    t = App("g", (Var("nil"),))
    for _ in range(40):
        t = App("f", (t, t))
    # t stays out of the asserts: printing it would walk the tree
    start = time.perf_counter()
    found = (node_count(t), contains_head(t, "g"), contains_head(t, "h"), rp_termp(t), free_vars(t))
    shared, value = shared_nodes((t,)), term_to_value(t)
    elapsed = time.perf_counter() - start
    assert found == (3 * 2**40 - 1, True, False, [((1,) * 41, "nil cannot be a variable")], {"nil"})
    # a value prints as a tree, so its sharing is checked outside the assert
    value_shares = value.cdr.car is value.cdr.cdr.car
    assert len(shared) == 40 and value_shares
    assert elapsed < 0.5


def test_a_shared_term_is_encoded_as_a_shared_value():
    t = doubling(20)
    start = time.perf_counter()
    v = term_to_value(t)
    elapsed = time.perf_counter() - start
    conses = sum(u.__class__ is Cons for u in postorder(v))
    shares = v.cdr.car is v.cdr.cdr.car  # outside the assert, as v prints as a tree
    assert shares and conses <= 8 * 20 and elapsed < 0.5
    start = time.perf_counter()
    holds = syntaxp_eval(Syntaxp(parse_term("(consp x)")), {"x": t})
    elapsed = time.perf_counter() - start
    assert holds and elapsed < 0.5


def test_a_large_shared_term_prints_as_a_summary():
    assert repr(parse_term("(f x '3 (g y))")) == "(f x '3 (g y))"
    assert repr(doubling(40)) == "<(binary-+ ...): 41 distinct nodes, 2199023255551 as a tree>"


def test_a_large_shared_value_prints_as_a_summary():
    assert repr(read_value("(f x '3 (g y))")) == "(f x '3 (g y))"
    v = "x"
    for _ in range(40):
        v = Cons(v, Cons(v, "nil"))
    assert repr(v) == "<(... ...): 82 distinct nodes, 4398046511101 as a tree>"


def test_a_value_reads_each_free_name_as_one_var():
    t = term_from_value(read_value("(f x (g x y) (let ((y x)) (h y y)))"))
    x, (gx, y), (hx, hx2) = t.args[0], t.args[1].args, t.args[2].args
    assert x is gx is hx is hx2 and y.name == "y" and len(postorder(t)) == 5


# ---------------------------------------------------------------------------
# distinct-node walks, against recursive references


def _parts(u):
    if u.__class__ is App:
        return u.args
    if u.__class__ is Cons:
        return (u.car, u.cdr)
    return ()


def _tree_listing(u):
    """The nodes of u as a tree, each after its parts, parts left to right."""
    return [x for p in _parts(u) for x in _tree_listing(p)] + [u]


def _reference_postorder(roots):
    """The nodes reachable from roots, each once by identity, in the order
    a recursive walk that enters each node once finishes them."""
    order, seen = [], set()

    def visit(u):
        if id(u) not in seen:
            seen.add(id(u))
            for p in _parts(u):
                visit(p)
            order.append(u)

    for r in roots:
        visit(r)
    return order


@st.composite
def _value_dags(draw):
    """A value built bottom-up from a pool, so later conses share earlier
    ones and an atom may recur."""
    pool = draw(st.lists(st.integers(-3, 3) | _names, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 10))):
        pool.append(Cons(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    return pool[-1]


@settings(max_examples=300, deadline=None)
@given(st.lists(_wrapped_dags() | _value_dags() | _values, min_size=1, max_size=3), st.data())
def test_postorder_lists_each_reachable_node_once_after_its_parts(roots, data):
    roots.append(data.draw(st.sampled_from(_reference_postorder(roots))))
    order = postorder(*roots)
    place = {id(u): i for i, u in enumerate(order)}
    assert len(place) == len(order)
    assert all(place[id(p)] < i for i, u in enumerate(order) for p in _parts(u))
    assert [id(u) for u in order] == [id(u) for u in _reference_postorder(roots)]


@settings(max_examples=300, deadline=None)
@given(st.lists(_terms, min_size=1, max_size=3))
def test_postorder_of_trees_is_their_listing(roots):
    assert [id(u) for u in postorder(*roots)] == [id(u) for r in roots for u in _tree_listing(r)]


def _reference_value(t):
    if t.__class__ is Var:
        return t.name
    if t.__class__ is Quote:
        return Cons("quote", Cons(t.value, NIL))
    out = NIL
    for a in reversed(t.args):
        out = Cons(_reference_value(a), out)
    return Cons(t.head, out)


def _reference_shared(roots):
    """shared_nodes(roots), by a recursive walk that enters each node once
    and counts each root and each argument of an entered node as reached."""
    reached = {}
    for u in roots:
        reached[id(u)] = reached.get(id(u), 0) + 1
    for u in _reference_postorder(roots):
        for a in _parts(u):
            reached[id(a)] = reached.get(id(a), 0) + 1
    return {
        id(u)
        for u in _reference_postorder(roots)
        if u.__class__ is App and u.args and reached[id(u)] > 1 and _reference_strip(u) == u
    }


@settings(max_examples=300, deadline=None)
@given(_wrapped_dags(8), st.data())
def test_walks_over_distinct_nodes_agree_with_tree_walks(t, data):
    tree = _tree_listing(t)
    names = [u.name for u in tree if u.__class__ is Var]
    assert free_vars(t) == set(names)
    assert node_count(t) == len(tree)
    assert term_to_value(t) == _reference_value(t)
    roots = (t, *data.draw(st.lists(st.sampled_from(tree), max_size=2)))
    assert shared_nodes(roots) == _reference_shared(roots)


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


def test_rp_termp_places_a_node_where_eval_terms_does():
    # an rp with the property nil: rp_termp refuses it and eval_terms, which
    # applies the property, fails it, both at the path (2, 2)
    t = parse_term("(f '1 (g '2 (rp 'nil x)))")
    wrappers = {}
    eval_terms(t, [{"x": 5}], default_registry(), wrappers)
    assert [w[0] for w in wrappers.values()] == [(2, 2)]
    assert rp_termp(t) == [((2, 2), "rp first argument must be a quoted non-nil symbol")]


def test_a_non_term_argument_is_reported_by_rp_termp_and_raised_by_eval_terms():
    t = App("f", (5,))
    assert rp_termp(t) == [((1,), "not a term: 5")]
    with pytest.raises(TypeError):
        eval_terms(t, [{}], default_registry())


def test_rp_termp_checks_falist_coherence():
    ok = parse_term("(falist '((k . v)) (cons (cons 'k v) 'nil))")
    assert rp_termp(ok) == []
    shadow = FalistShadow(((Var("wrong"), Var("v")),))
    bad = App("falist", (Quote(shadow), parse_term("(cons (cons 'k v) 'nil)")))
    assert rp_termp(bad)


# ---------------------------------------------------------------------------
# substitution, and reading let as substitution


def test_substitute_basic():
    t = parse_term("(f x (g x y))")
    out = substitute(t, {"x": Quote(1)})
    # y, which the map does not name, stays a variable
    assert out == parse_term("(f '1 (g '1 y))")


def test_substitute_of_a_shared_term_costs_its_distinct_nodes():
    # 40 distinct applications, 2^41 - 1 nodes as a tree
    t = doubling(40)
    start = time.perf_counter()
    out = substitute(t, {"x": Var("y")})
    assert time.perf_counter() - start < 1
    assert sum(u.__class__ is App for u in postorder(out)) == 40
    assert out == doubling(40, "y")


def test_substitute_avoids_capture():
    # the x bound to y is not captured by the inner binding of y
    assert parse_term("(let ((x y)) (let ((y '1)) (+ x y)))") == parse_term("(binary-+ y '1)")


def test_substitute_shadowed_param_untouched():
    # a let's arguments are read before any of its names is bound
    assert parse_term("(let ((x y) (y x)) (f x y))") == parse_term("(f y x)")


def test_nested_lambdas_read_innermost_first():
    t = parse_term("((lambda (a) ((lambda (b) (f a b)) '2)) '1)")
    assert t == parse_term("(f '1 '2)")


# ---------------------------------------------------------------------------
# pickling

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_PICKLED_TERMS = """
from termrw.terms import App, Cons, FalistShadow, Quote, Var
x, k = Var("x"), Quote("k")
TERMS = (x, k, App("f", (x, k)), Cons("a", "b"),
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
    for i in range(5_000):
        pairs = Cons(Cons(i, "v"), pairs)
    for t in (chain_term(100_000), Quote(pairs)):
        twin = pickle.loads(pickle.dumps(t))
        assert twin is not t and twin == t and hash(twin) == hash(t)
        # terms and values are immutable, so a deep copy is the original
        assert copy.deepcopy(t) is t and copy.deepcopy(pairs) is pairs


def _app_chain(n, leaf):
    t = leaf
    for _ in range(n):
        t = App("f", (t, Var("y")))
    return t


def _cons_chain(n, leaf):
    v = leaf
    for i in range(n):
        v = Cons(i, v)
    return v


def test_deep_fresh_terms_hash_and_compare_without_recursion():
    # An App or Cons is hashed on first use, with the nodes below it that
    # have no hash yet, from an explicit stack.  The call-graph test does
    # not see the implicit __hash__ and __eq__ calls, so this is their guard.
    n = 100_000
    assert sys.getrecursionlimit() < n
    for build, leaf, other in ((_app_chain, Quote(0), Quote(1)), (_cons_chain, NIL, 0)):
        a, b, c = build(n, leaf), build(n, leaf), build(n, other)
        twin = pickle.loads(pickle.dumps(a))
        assert a._hash is b._hash is c._hash is twin._hash is None
        h = hash(twin)
        assert a == b and a != c
        assert hash(a) == hash(b) == h


def _built_hash(x):
    """x's hash by the formulas App and Cons applied when they were built,
    before hashing moved to first use."""
    cls = x.__class__
    if cls is App:
        h = hash(x.head) ^ 0x415050
        for a in x.args:
            h = (h * 1000003 ^ _built_hash(a)) & 0x7FFFFFFFFFFFFFFF
        return h
    if cls is Cons:
        return (_built_hash(x.car) * 1000003 ^ _built_hash(x.cdr) * 8191 ^ 0x436F) & 0x7FFFFFFFFFFFFFFF
    if cls is Quote:
        return _built_hash(x.value) ^ 0x51554F
    if cls is Var:
        return hash(x.name) ^ 0x564152
    return hash(x)


def test_a_hash_on_first_use_is_the_hash_a_node_got_when_built():
    hashed = parse_term("(g x '(1 . 2))")
    hash(hashed)
    for x in (
        parse_term("(f x '3 (g y (h)) 'nil)"),
        parse_term("(f '(a (b . 7) nil) (g '(1 2)))"),
        App("k", (hashed, App("m", (hashed, Var("z"))))),
        App("c", ()),
        Cons(Cons(1, "a"), Cons(NIL, NIL)),
        Cons(-5, FalistShadow([(1, Var("v"))])),
    ):
        assert hash(x) == _built_hash(x)


def test_pickled_terms_keep_shared_nodes_shared():
    shared = App("f", (Var("x"), Quote(Cons(1, 2))))
    dag = App("g", (shared, App("h", (shared,)), shared))
    twin = pickle.loads(pickle.dumps(dag))
    assert twin == dag and twin.args[0] is not shared
    assert twin.args[0] is twin.args[1].args[0] is twin.args[2]
