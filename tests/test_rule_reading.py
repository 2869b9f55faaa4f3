"""Rule formulas are split on their values and each piece is read as a term
once, with and/or/implies expanded as in conjectures.

The reference below is the earlier reading, kept here to check the new one
against: the whole formula read as a term with and/or/implies kept as
applications, split on that term, and each piece expanded afterwards.
Syntaxp predicates were kept unexpanded and interpreted with and/or cases.
The reference keeps let and let* forms as applications too and expands
each piece's by its own substitution, so it does not lean on the reader's.
"""

import hashlib
import itertools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termrw.demo import SHIPPED_RULESETS
from termrw.evaluator import EvalError, default_registry, lexorder_le
from termrw.rules import (
    SYNTAXP_REGISTRY,
    Rule,
    Syntaxp,
    build_ruleset,
    parse_rule_file,
    syntaxp_eval,
    validate_rule,
)
from termrw.terms import (
    NIL,
    NIL_TERM,
    T_TERM,
    App,
    Cons,
    Quote,
    Var,
    format_term,
    list_items,
    mk_rp,
    parse_term,
    read_value,
    strip_rp_deep,
    term_from_value,
    term_to_value,
    truthy,
    values_equal,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# the reference: keep and/or/implies, split the term, then expand

_HIDDEN = {"and": "%and", "or": "%or", "implies": "%implies"}
_SHOWN = {v: k for k, v in _HIDDEN.items()}


def _list(items):
    out = NIL
    for item in reversed(items):
        out = Cons(item, out)
    return out


def _hide_boolean_ops(v):
    """v with its and/or/implies heads renamed outside quotations, so that
    term_from_value leaves those forms as plain applications.  A let or
    let* form becomes (%let (%bind name arg) ... body), or %let*."""
    if not isinstance(v, Cons) or v.car == "quote":
        return v
    items = list_items(v)
    if items[0] in ("let", "let*"):
        binds = [_list(["%bind", name, _hide_boolean_ops(arg)]) for name, arg in map(list_items, list_items(items[1]))]
        return _list(["%" + items[0], *binds, _hide_boolean_ops(items[2])])
    head = _HIDDEN.get(items[0], items[0]) if isinstance(items[0], str) else _hide_boolean_ops(items[0])
    return _list([head] + [_hide_boolean_ops(i) for i in items[1:]])


def _restore(t):
    if isinstance(t, App):
        return App(_SHOWN.get(t.head, t.head), [_restore(a) for a in t.args])
    return t


def kept_term(v):
    """The term of v with and/or/implies kept as applications."""
    return _restore(term_from_value(_hide_boolean_ops(v)))


def _substitute(t, sub):
    if isinstance(t, Var):
        return sub.get(t.name, t)
    if isinstance(t, App):
        return App(t.head, [_substitute(a, sub) for a in t.args])
    return t


def _expand(t):
    if not isinstance(t, App):
        return t
    args = [_expand(a) for a in t.args]
    if t.head in ("%let", "%let*"):
        # the body is expanded and so binds nothing: substitution cannot capture
        *binds, out = args
        if t.head == "%let":
            return _substitute(out, {b.args[0].name: b.args[1] for b in binds})
        for b in reversed(binds):
            out = _substitute(out, {b.args[0].name: b.args[1]})
        return out
    if t.head == "and":
        out = args[-1] if args else T_TERM
        for a in reversed(args[:-1]):
            out = App("if", (a, out, NIL_TERM))
        return out
    if t.head == "or":
        out = args[-1] if args else NIL_TERM
        for a in reversed(args[:-1]):
            out = App("if", (a, a, out))
        return out
    if t.head == "implies" and len(args) == 2:
        return App("if", (args[0], App("if", (args[1], T_TERM, NIL_TERM)), T_TERM))
    return App(t.head, args)


def _flatten_and(t):
    if isinstance(t, App) and t.head == "and":
        return [c for a in t.args for c in _flatten_and(a)]
    return [t]


def reference_rules(name, v):
    """[(name, hyps, lhs, rhs, equiv)] of the formula value v."""
    hyps = []
    concl = kept_term(v)
    while isinstance(concl, App) and concl.head == "implies" and len(concl.args) == 2:
        hyps.extend(_flatten_and(concl.args[0]))
        concl = concl.args[1]
    out_hyps = []
    for h in hyps:
        if isinstance(h, App) and h.head in ("syntaxp", "synp") and len(h.args) == 1:
            out_hyps.append(Syntaxp(h.args[0]))
        else:
            out_hyps.append(_expand(h))
    out = []
    for i, c in enumerate(_flatten_and(concl)):
        if isinstance(c, App) and c.head in ("equal", "iff") and len(c.args) == 2:
            (lhs, rhs), equiv = c.args, c.head
        else:
            lhs, rhs, equiv = c, T_TERM, "iff"
        rule_name = name if i == 0 else f"{name}_{i + 1}"
        out.append((rule_name, out_hyps, _expand(lhs), _expand(rhs), equiv))
    return out


def reference_syntaxp_eval(pred, bindings):
    """The earlier interpreter of unexpanded syntaxp predicates."""

    def ev(p):
        if isinstance(p, Var):
            return term_to_value(strip_rp_deep(bindings[p.name]))
        if isinstance(p, Quote):
            return p.value
        head, args = p.head, p.args
        if head == "and":
            return "t" if all(truthy(ev(a)) for a in args) else NIL
        if head == "or":
            for a in args:
                v = ev(a)
                if truthy(v):
                    return v
            return NIL
        if head == "not":
            return NIL if truthy(ev(args[0])) else "t"
        if head == "equal":
            return "t" if values_equal(ev(args[0]), ev(args[1])) else NIL
        if head == "atom":
            return NIL if isinstance(ev(args[0]), Cons) else "t"
        if head == "consp":
            return "t" if isinstance(ev(args[0]), Cons) else NIL
        if head == "quotep":
            v = ev(args[0])
            return "t" if isinstance(v, Cons) and v.car == "quote" else NIL
        if head == "lexorder":
            return "t" if lexorder_le(ev(args[0]), ev(args[1])) else NIL
        assert head == "car", head
        v = ev(args[0])
        return v.car if isinstance(v, Cons) else NIL

    return truthy(ev(pred))


# ---------------------------------------------------------------------------
# generators of formula texts and bindings

_VARS = st.sampled_from(["x", "y", "z"])


def _form(head, lo, hi, inner):
    return st.lists(inner, min_size=lo, max_size=hi).map(lambda xs: "(" + " ".join([head, *xs]) + ")")


_TERMS = st.recursive(
    st.one_of(_VARS, st.integers(-3, 3).map(str), st.sampled_from(["t", "nil", "'t", "'nil", "'(a . 1)", "'(and x)"])),
    lambda inner: st.one_of(
        _form("f", 1, 1, inner),
        _form("g", 2, 2, inner),
        _form("+", 2, 3, inner),
        _form("-", 1, 2, inner),
        _form("logand", 2, 3, inner),
        _form("not", 1, 1, inner),
        _form("and", 0, 3, inner),
        _form("or", 0, 3, inner),
        _form("implies", 2, 2, inner),
        st.tuples(_VARS, inner, inner).map(lambda t: f"(let (({t[0]} {t[1]})) {t[2]})"),
        st.tuples(inner, inner, inner).map(lambda t: f"(let ((x {t[0]}) (y {t[1]})) {t[2]})"),
        st.tuples(_VARS, inner, _VARS, inner, inner).map(lambda t: f"(let* (({t[0]} {t[1]}) ({t[2]} {t[3]})) {t[4]})"),
    ),
    max_leaves=8,
)

# syntaxp predicates: and/or only where a truth value is wanted, where the
# earlier and (which gave 't) and the if-form (which gives the last value)
# agree
_SYNTAXP_VALUES = st.recursive(
    st.one_of(_VARS, st.sampled_from(["'binary-+", "'quote", "'1", "'nil", "'(binary-+ a b)"])),
    lambda inner: _form("car", 1, 1, inner),
    max_leaves=3,
)
_SYNTAXP_PREDS = st.recursive(
    st.one_of(
        _form("atom", 1, 1, _SYNTAXP_VALUES),
        _form("consp", 1, 1, _SYNTAXP_VALUES),
        _form("quotep", 1, 1, _SYNTAXP_VALUES),
        _form("equal", 2, 2, _SYNTAXP_VALUES),
        _form("lexorder", 2, 2, _SYNTAXP_VALUES),
    ),
    lambda inner: st.one_of(_form("not", 1, 1, inner), _form("and", 0, 3, inner), _form("or", 0, 3, inner)),
    max_leaves=6,
)

_HYPS = st.recursive(
    st.one_of(_TERMS, _SYNTAXP_PREDS.map(lambda p: f"(syntaxp {p})"), _SYNTAXP_PREDS.map(lambda p: f"(synp {p})")),
    lambda inner: _form("and", 0, 3, inner),
    max_leaves=4,
)
_CONCLUSIONS = st.recursive(
    st.one_of(_form("equal", 2, 2, _TERMS), _form("iff", 2, 2, _TERMS), _TERMS),
    lambda inner: _form("and", 0, 3, inner),
    max_leaves=3,
)


def _implies_chain(hyps_and_concl):
    hyps, concl = hyps_and_concl
    for h in reversed(hyps):
        concl = f"(implies {h} {concl})"
    return concl


_FORMULAS = st.tuples(st.lists(_HYPS, max_size=3), _CONCLUSIONS).map(_implies_chain)

_BOUND = st.recursive(
    st.sampled_from([Var("a"), Var("b"), Quote(1), Quote(2), Quote("binary-+"), Quote("nil")]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: App("binary-+", t)),
        inner.map(lambda t: App("f", (t,))),
        st.tuples(st.sampled_from(["integerp", "evenp"]), inner).map(lambda t: mk_rp(*t)),
    ),
    max_leaves=4,
)
_BINDINGS = st.fixed_dictionaries({"x": _BOUND, "y": _BOUND, "z": _BOUND})


def _same_syntaxp(new_pred, old_pred, bindings):
    return syntaxp_eval(Syntaxp(new_pred), bindings) == reference_syntaxp_eval(old_pred, bindings)


# ---------------------------------------------------------------------------
# the new reading agrees with the reference


@settings(max_examples=300, deadline=None)
@given(_FORMULAS, st.lists(_BINDINGS, min_size=1, max_size=3))
def test_formulas_compile_as_the_reference_reads_them(text, samples):
    decls = parse_rule_file(f"(def-rp-rule r {text})")
    expected = reference_rules("r", read_value(text))
    assert all(isinstance(d, Rule) for d in decls)
    assert len(decls) == len(expected)
    for rule, (name, hyps, lhs, rhs, equiv) in zip(decls, expected):
        assert (rule.name, rule.equiv, rule.lhs, rule.rhs) == (name, equiv, lhs, rhs)
        assert len(rule.hyps) == len(hyps)
        for new, old in zip(rule.hyps, hyps):
            if isinstance(old, Syntaxp):
                assert isinstance(new, Syntaxp)
                assert all(_same_syntaxp(new.pred, old.pred, b) for b in samples)
            else:
                assert new == old


@settings(max_examples=300, deadline=None)
@given(_SYNTAXP_PREDS, _BINDINGS)
def test_syntaxp_eval_agrees_with_the_unexpanded_reading(text, bindings):
    v = read_value(text)
    assert _same_syntaxp(term_from_value(v), kept_term(v), bindings)


def test_or_reads_each_bound_term_once(monkeypatch):
    import termrw.rules

    calls = []
    real = termrw.rules.term_to_value
    monkeypatch.setattr(termrw.rules, "term_to_value", lambda t: calls.append(t) or real(t))
    pred = parse_term("(or (atom x) (atom x) (equal x y) (quotep y))")
    assert syntaxp_eval(Syntaxp(pred), {"x": App("f", (Var("a"),)), "y": mk_rp("integerp", Var("b"))}) is False
    assert len(calls) == 2


@pytest.mark.parametrize(
    "pred,value",
    [
        ("(implies (consp x) (quotep x))", False),
        ("(implies (consp x) (atom y))", True),
        ("(if (atom x) 'nil (atom y))", True),
        # and gives its last conjunct's value, as (if a b 'nil) does
        ("(equal (and (atom y) (car x)) 'f)", True),
        # a let reads as its body, as in any other term
        ("(let ((a x)) (atom a))", False),
    ],
)
def test_syntaxp_predicates_are_ordinary_terms(pred, value):
    bindings = {"x": App("f", (Var("a"),)), "y": mk_rp("integerp", Var("b"))}
    assert syntaxp_eval(Syntaxp(parse_term(pred)), bindings) is value


@pytest.mark.parametrize(
    "pred", ["(if (atom x) 't)", "(not)", "(car x y)", "(binary-+ x y)", "(hide x)", "(list x)", "(rp 'p x)"]
)
def test_syntaxp_eval_rejects_unsupported_predicates(pred):
    # the evaluator alone would evaluate hide, list and rp: one accepted set
    # decides both the rule check and the evaluation
    with pytest.raises(EvalError, match="unsupported syntaxp predicate"):
        syntaxp_eval(Syntaxp(term_from_value(read_value(pred))), {"x": Var("a"), "y": Var("b")})
    (rule,) = parse_rule_file(f"(def-rp-rule r (implies (syntaxp {pred}) (equal (f x y) x)))")
    assert any(p.startswith("syntaxp predicate outside the supported set") for p in validate_rule(rule))


def test_syntaxp_registry_shares_the_default_functions():
    default = default_registry()
    names = set(SYNTAXP_REGISTRY._fns) - {"quotep"}
    assert names == {"not", "equal", "atom", "consp", "car", "lexorder"}
    for name in names:
        arity = default.arity(name)
        assert SYNTAXP_REGISTRY.arity(name) == arity
        assert SYNTAXP_REGISTRY.fn(name, arity) is default.fn(name, arity)


# ---------------------------------------------------------------------------
# the shipped and benchmark rule files compile as at the earlier reading


def compiled_rules_digest(ruleset):
    """A digest of every rule and lemma in ruleset, syntaxp predicates left
    out (they are checked by evaluation)."""
    records = []
    for r in ruleset.rules.values():
        hyps = ["(syntaxp)" if isinstance(h, Syntaxp) else format_term(h) for h in r.hyps]
        records.append(
            (r.name, r.equiv, r.group, r.enabled, hyps, format_term(r.lhs), format_term(r.rhs), format_term(r.sc_wrapped_rhs))
        )
    for name, lem in ruleset.lemmas.items():
        records.append((name, lem.name, [format_term(h) for h in lem.hyps], lem.prop, format_term(lem.subject)))
    records.append(sorted((head, [r.name for r in rules]) for head, rules in ruleset.buckets.items()))
    records.append(sorted(ruleset.exec_disabled))
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


_PLUS_COMM_PRED = "(and (not (lexorder y x)) (or (atom x) (not (equal (car x) 'binary-+))))"
_ARITH = ("853a09f30586f0e8", {"+-comm": _PLUS_COMM_PRED, "+-comm_2": _PLUS_COMM_PRED})

# taken with the earlier reading
PINNED = {
    "demo:bitand": ("b98a1bb20d88df9e", {}),
    "demo:tree": ("68abebc50f525571", {}),
    "demo:tree-backchain": ("5297ff62f939cf27", {}),
    "demo:arith": _ARITH,
    "demos/rules/arith.lsp": _ARITH,
    "demos/rules/bitand.lsp": ("b98a1bb20d88df9e", {}),
    "demos/rules/tree-backchain.lsp": ("5297ff62f939cf27", {}),
    "demos/rules/tree.lsp": ("68abebc50f525571", {}),
    "perfbench/inputs/arith.lsp": _ARITH,
    "perfbench/inputs/bitand.lsp": ("b98a1bb20d88df9e", {}),
    "perfbench/inputs/plus-truthy.lsp": ("9e4f5c1a1c3bc012", {}),
    "perfbench/inputs/tree.lsp": ("68abebc50f525571", {}),
    "perfbench/inputs/tree-backchain.lsp": ("5297ff62f939cf27", {}),
}

_SAMPLE_TERMS = [
    Var("a"),
    Var("b"),
    Quote(1),
    Quote("binary-+"),
    parse_term("(binary-+ a b)"),
    parse_term("(binary-+ (rp 'integerp b) a)"),
    parse_term("(rp 'evenp (f a))"),
    parse_term("(rp 'integerp a)"),
]


def _rule_text(key):
    if key.startswith("demo:"):
        return SHIPPED_RULESETS[key[len("demo:") :]]
    return (ROOT / key).read_text()


def test_every_shipped_rule_file_is_pinned():
    shipped = {f"demo:{k}" for k in SHIPPED_RULESETS}
    shipped |= {str(p.relative_to(ROOT)) for p in (ROOT / "demos" / "rules").glob("*.lsp")}
    assert shipped <= set(PINNED)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_compiled_rules_are_unchanged(key):
    digest, preds = PINNED[key]
    ruleset = build_ruleset(parse_rule_file(_rule_text(key)))
    assert compiled_rules_digest(ruleset) == digest
    syntaxp = {r.name: [h.pred for h in r.hyps if isinstance(h, Syntaxp)] for r in ruleset.rules.values()}
    assert {name: len(p) for name, p in syntaxp.items() if p} == {name: 1 for name in preds}
    for name, old_text in preds.items():
        old = kept_term(read_value(old_text))
        (new,) = syntaxp[name]
        for x, y in itertools.product(_SAMPLE_TERMS, repeat=2):
            assert _same_syntaxp(new, old, {"x": x, "y": y})
