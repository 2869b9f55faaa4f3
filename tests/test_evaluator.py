"""Ground evaluation semantics.

The integer coercion rules are the load-bearing part: every arithmetic head
treats non-integers as 0, division-like heads are total except d2, and the
term-order predicate ranks atoms before pairs.  Frozen cases below were
computed by hand from those clauses, then asserted against the code.
"""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import doubling, rand_rng, rand_term, tree_copy, value_dag_pairs
from termrw.evaluator import (
    MAX_LOG_BITS,
    EvalDomainError,
    EvalError,
    ExecRegistry,
    UnboundVariableError,
    UnknownFunctionError,
    default_registry,
    eval_term,
    eval_terms,
    ifix,
    lexorder_cmp,
    lexorder_le,
    nfix,
    shared_nodes,
    to_boolean,
)
from termrw.rules import _SYNTAXP_ARITY, SYNTAXP_REGISTRY
from termrw.terms import App, Cons, FalistShadow, Quote, Var, mk_rp, parse_term, term_to_value, truthy


@pytest.fixture
def ev(reg):
    def run(text, **env):
        return eval_term(parse_term(text), env, reg)

    return run


def test_ifix_nfix():
    assert ifix(5) == 5
    assert ifix("nil") == 0
    assert ifix(Cons(1, 2)) == 0
    assert nfix(-3) == 0
    assert nfix(3) == 3


def test_to_boolean():
    assert to_boolean(True) == "t"
    assert to_boolean(False) == "nil"


# frozen from the coercion clauses: floor/mod follow Python's flooring
# division on the coerced inputs, with a zero divisor short-circuited
FLOOR_MOD_CASES = [
    ("(floor '7 '2)", 3),
    ("(floor '-7 '2)", -4),
    ("(mod '7 '2)", 1),
    ("(mod '-7 '2)", 1),
    ("(floor '7 '0)", 0),
    ("(mod '7 '0)", 7),
    ("(floor 'x '2)", 0),
    ("(mod '9 'y)", 9),
]


@pytest.mark.parametrize("text,expected", FLOOR_MOD_CASES)
def test_floor_mod_frozen(ev, text, expected):
    assert ev(text) == expected


def test_arith_coercion(ev):
    assert ev("(binary-+ '3 '4)") == 7
    assert ev("(binary-+ 'foo '4)") == 4
    assert ev("(unary-- 'foo)") == 0
    assert ev("(binary-logand '12 '10)") == 8
    assert ev("(4vec-bitand '12 '10)") == 8
    assert ev("(binary-logand '-1 '6)") == 6


def test_loghead_logapp(ev):
    assert ev("(loghead '4 '255)") == 15
    assert ev("(loghead '4 '-1)") == 15
    assert ev("(logapp '4 '15 '2)") == 47
    assert ev("(logapp '0 '9 '5)") == 5


def test_a_loghead_or_logapp_size_past_the_bound_is_outside_the_domain(ev):
    # 1 << size would take size/8 bytes, or overflow, so such a size is refused
    for size in (MAX_LOG_BITS + 1, 10**11, 10**20):
        for text in (f"(loghead '{size} '5)", f"(logapp '{size} '5 '1)"):
            with pytest.raises(EvalDomainError):
                ev(text)
    # at the bound and below, the values are as they were
    assert ev(f"(loghead '{MAX_LOG_BITS} '-1)") == (1 << MAX_LOG_BITS) - 1
    assert ev(f"(logapp '{MAX_LOG_BITS} '-1 '1)") == (1 << (MAX_LOG_BITS + 1)) - 1
    assert ev("(loghead '-3 '7)") == 0 and ev("(logapp 'x '9 '5)") == 5


def test_evenp_uses_coercion(ev):
    assert ev("(evenp '4)") == "t"
    assert ev("(evenp '3)") == "nil"
    assert ev("(evenp 'foo)") == "t"


def test_halving_heads(ev):
    assert ev("(f2 '7)") == 3
    assert ev("(neg-m2 '7)") == -1
    assert ev("(round-to-even '7)") == 6
    assert ev("(round-to-even '8)") == 8
    assert ev("(d2 '8)") == 4
    with pytest.raises(EvalDomainError):
        ev("(d2 '7)")
    # round-to-even composes as addition with neg-m2
    assert ev("(binary-+ '7 (neg-m2 '7))") == ev("(round-to-even '7)")


def test_inlined_coercions_act_as_ifix(reg):
    # the hot arithmetic entries inline ifix; each must equal its ifix form
    # on integers of both signs, big ones, and every kind of non-integer
    reference = {
        "evenp": lambda v: to_boolean(ifix(v) % 2 == 0),
        "binary-+": lambda a, b: ifix(a) + ifix(b),
        "unary--": lambda a: -ifix(a),
        "binary-logand": lambda a, b: ifix(a) & ifix(b),
        "4vec-bitand": lambda a, b: ifix(a) & ifix(b),
        "f2": lambda x: ifix(x) // 2,
        "neg-m2": lambda x: -(ifix(x) % 2),
        "round-to-even": lambda x: ifix(x) - (ifix(x) % 2),
    }
    values = [-7, -2, -1, 0, 1, 6, 2**70 + 1, -(2**70) - 1, "nil", "t", "foo", Cons(3, "nil"), Cons(1, 2)]
    for name, ref in reference.items():
        for args in itertools.product(values, repeat=reg.arity(name)):
            assert reg.call(name, list(args)) == ref(*args), (name, args)


# The scalar meanings the default registry's builtins had as one function
# per value, kept as the reference their column kernels are checked against.


def _ref_rank(v):
    if isinstance(v, Cons):
        return 4
    if isinstance(v, int):
        return 2
    if isinstance(v, str):
        if v == "nil":
            return 0
        if v == "t":
            return 1
        return 3
    raise EvalDomainError(f"lexorder undefined for {v!r}")


def _ref_lexorder_le(a, b):
    paired = {}
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        ra, rb = _ref_rank(a), _ref_rank(b)
        if ra != rb:
            return ra < rb
        if ra in (2, 3) and a != b:
            return a < b
        if ra == 4 and paired.get(id(a)) is not b:
            paired[id(a)] = b
            stack.append((a.cdr, b.cdr))
            stack.append((a.car, b.car))
    return True


def _car(v):
    return v.car if isinstance(v, Cons) else "nil"


def _cdr(v):
    return v.cdr if isinstance(v, Cons) else "nil"


def _floor(a, b):
    a, b = ifix(a), ifix(b)
    return 0 if b == 0 else a // b


def _mod(a, b):
    a, b = ifix(a), ifix(b)
    return a if b == 0 else a % b


def _bits(size):
    n = nfix(size)
    if n > MAX_LOG_BITS:
        raise EvalDomainError(f"a loghead or logapp size above {MAX_LOG_BITS} bits")
    return n


def _loghead(size, i):
    return ifix(i) % (1 << _bits(size))


def _logapp(size, i, j):
    return _loghead(size, i) + (ifix(j) << _bits(size))


def _d2(x):
    x = ifix(x)
    if x % 2:
        raise EvalDomainError("d2 applied to an odd integer")
    return x // 2


def _assoc_equal(key, alist):
    while isinstance(alist, Cons):
        pair = alist.car
        if isinstance(pair, Cons) and pair.car == key:
            return pair
        alist = alist.cdr
    return "nil"


_SCALARS = {
    "cons": (2, Cons),
    "car": (1, _car),
    "cdr": (1, _cdr),
    "consp": (1, lambda v: to_boolean(isinstance(v, Cons))),
    "atom": (1, lambda v: to_boolean(not isinstance(v, Cons))),
    "equal": (2, lambda a, b: to_boolean(a == b)),
    "not": (1, lambda v: to_boolean(isinstance(v, str) and v == "nil")),
    "integerp": (1, lambda v: to_boolean(isinstance(v, int))),
    "bitp": (1, lambda v: to_boolean(isinstance(v, int) and v in (0, 1))),
    "evenp": (1, lambda v: "nil" if isinstance(v, int) and v % 2 else "t"),
    "binary-+": (2, lambda a, b: (a if isinstance(a, int) else 0) + (b if isinstance(b, int) else 0)),
    "unary--": (1, lambda a: -a if isinstance(a, int) else 0),
    "binary-logand": (2, lambda a, b: a & b if isinstance(a, int) and isinstance(b, int) else 0),
    "4vec-bitand": (2, lambda a, b: a & b if isinstance(a, int) and isinstance(b, int) else 0),
    "floor": (2, _floor),
    "mod": (2, _mod),
    "loghead": (2, _loghead),
    "logapp": (3, _logapp),
    "lexorder": (2, lambda a, b: to_boolean(_ref_lexorder_le(a, b))),
    "d2": (1, _d2),
    "f2": (1, lambda x: x // 2 if isinstance(x, int) else 0),
    "neg-m2": (1, lambda x: -(x % 2) if isinstance(x, int) else 0),
    "round-to-even": (1, lambda x: x - x % 2 if isinstance(x, int) else 0),
    "hons-acons": (3, lambda k, v, l: Cons(Cons(k, v), l)),
    "hons-get": (2, _assoc_equal),
    "fast-alist-free": (1, lambda l: l),
}

# integers of both signs, big ones, every kind of non-integer, and alists
# for hons-get; the grid's odd numbers are outside d2's domain and its
# big ones outside loghead's and logapp's
_GRID = [-7, -2, -1, 0, 1, 6, 2**70 + 1, -(2**70) - 1, "nil", "t", "foo", Cons(3, "nil"),
         Cons(Cons(1, 2), Cons("foo", "nil"))]
# rows off a builtin's domain that the grid lacks
_RAISING = {
    "d2": [(3,)],
    "loghead": [(MAX_LOG_BITS + 1, 5)],
    "logapp": [(MAX_LOG_BITS + 1, 5, 1), (-1, 5, 1)],
    "lexorder": [(FalistShadow(), 1), (Cons(1, 2), Cons(FalistShadow(), 2)), (1, FalistShadow())],
}


def _outcome(fn, row):
    """("value", fn(*row)), or ("raised", its EvalError's type and text)."""
    try:
        return "value", fn(*row)
    except EvalError as exc:
        return "raised", (type(exc), str(exc))


def _rows(name):
    arity = _SCALARS[name][0]
    return [*itertools.product(_GRID, repeat=arity), *_RAISING.get(name, ())]


def test_the_default_registry_holds_the_reference_builtins(reg):
    assert set(reg._fns) == set(_SCALARS)
    assert {name: reg.arity(name) for name in _SCALARS} == {name: arity for name, (arity, _) in _SCALARS.items()}


@pytest.mark.parametrize("name", sorted(_SCALARS))
def test_each_builtin_agrees_with_its_scalar_reference_row_by_row(reg, name):
    arity, ref = _SCALARS[name]
    fn = reg.fn(name, arity)
    for row in _rows(name):
        assert _outcome(fn, row) == _outcome(ref, row), (name, row)
        assert _outcome(reg.kernel(name, arity), [[v] for v in row]) == _outcome(lambda *r: [ref(*r)], row)


@pytest.mark.parametrize("name", sorted(_SCALARS))
def test_each_builtin_kernel_agrees_with_its_scalar_reference_on_one_column(reg, name):
    arity, ref = _SCALARS[name]
    kernel = reg.kernel(name, arity)
    rows = _rows(name)
    defined = [row for row in rows if _outcome(ref, row)[0] == "value"]
    assert kernel(*map(list, zip(*defined))) == [ref(*row) for row in defined]
    if len(defined) < len(rows):
        # a row off the domain raises for the whole column
        with pytest.raises(EvalError):
            kernel(*map(list, zip(*rows)))


@pytest.mark.parametrize("name", sorted(_SCALARS))
def test_rows_off_a_builtins_domain_drop_out_of_its_column_with_their_errors(reg, name):
    arity, ref = _SCALARS[name]
    names = ("a", "b", "c")[:arity]
    t = App(name, tuple(map(Var, names)))
    rows = _rows(name)
    # the raising rows first, last and among the others
    rows = rows[-1:] + rows + rows[:1]
    envs = [dict(zip(names, row)) for row in rows]
    values, errors = eval_terms(t, envs, reg)
    got = [("value", values[i]) if i in values else ("raised", (type(errors[i]), str(errors[i])))
           for i in range(len(rows))]
    assert got == [_outcome(ref, row) for row in rows]


def test_a_re_registered_builtin_runs_once_per_environment():
    calls = []
    reg = default_registry().register("floor", 2, lambda a, b: calls.append((a, b)) or 7)
    envs = [{"a": i, "b": 2} for i in range(4)]
    values, errors = eval_terms(parse_term("(floor a b)"), envs, reg)
    assert errors == {} and values == dict.fromkeys(range(4), 7)
    assert calls == [(i, 2) for i in range(4)]
    assert reg.kernel("floor", 2)([1], [2]) == [7] and len(calls) == 5
    # the registry it was copied from keeps the builtin
    assert default_registry().kernel("floor", 2)([7], [2]) == [3]


def test_the_syntaxp_registry_evaluates_its_default_heads_as_the_reference():
    default = default_registry()
    assert _SYNTAXP_ARITY == {"if": 3, "not": 1, "equal": 2, "atom": 1, "consp": 1, "car": 1, "lexorder": 2,
                              "quotep": 1}
    for name, arity in _SYNTAXP_ARITY.items():
        if name in ("if", "quotep"):
            continue
        assert SYNTAXP_REGISTRY.kernel(name, arity) is default.kernel(name, arity)
        ref = _SCALARS[name][1]
        for row in _rows(name):
            assert _outcome(SYNTAXP_REGISTRY.fn(name, arity), row) == _outcome(ref, row), (name, row)
    quoted = Cons("quote", Cons(1, "nil"))
    values, errors = eval_terms(parse_term("(quotep x)"), [{"x": quoted}, {"x": Cons(1, 2)}, {"x": 3}],
                                SYNTAXP_REGISTRY)
    assert errors == {} and values == {0: "t", 1: "nil", 2: "nil"}


def test_an_application_of_a_registered_function_at_another_arity_names_both():
    with pytest.raises(EvalDomainError, match="^not expects 1 argument, got 2$"):
        eval_term(parse_term("(not a b)"), {"a": 1, "b": 2}, default_registry())
    with pytest.raises(EvalDomainError, match="^binary-\\+ expects 2 arguments, got 1$"):
        eval_term(parse_term("(binary-+ a)"), {"a": 1}, default_registry())


def test_structural_heads(ev):
    assert ev("(cons '1 '2)") == Cons(1, 2)
    assert ev("(car '(1 2))") == 1
    assert ev("(cdr '(1 2))") == Cons(2, "nil")
    assert ev("(car '5)") == "nil"
    assert ev("(cdr 'nil)") == "nil"
    assert ev("(consp '(1))") == "t"
    assert ev("(atom '(1))") == "nil"
    assert ev("(not 'nil)") == "t"
    assert ev("(not '0)") == "nil"


# frozen rank order: nil < t < integers < other symbols < pairs
LEXORDER_CASES = [
    (("nil", "t"), True),
    (("t", "nil"), False),
    (("t", -5), True),
    ((3, "apple"), True),
    (("apple", 3), False),
    (("apple", "banana"), True),
    ((Cons(1, 2), "zzz"), False),
    ((Cons(1, 2), Cons(1, 3)), True),
    ((Cons(1, 2), Cons(1, 2)), True),
    ((2, 10), True),
]


@pytest.mark.parametrize("pair,expected", LEXORDER_CASES)
def test_lexorder_frozen(pair, expected):
    assert lexorder_le(*pair) is expected


@settings(max_examples=300, deadline=None)
@given(value_dag_pairs())
def test_lexorder_of_shared_values_agrees_with_their_tree_copies(pair):
    a, b = pair
    trees = tree_copy(a), tree_copy(b)
    assert lexorder_cmp(a, b) == lexorder_cmp(*trees) == -lexorder_cmp(b, a)


def test_lexorder_compares_a_cons_with_each_of_its_partners():
    # s meets an equal copy and a greater one, in either order
    s = Cons(1, Cons("a", "nil"))
    for same, other in ((0, 1), (1, 0)):
        parts = [None, None]
        parts[same], parts[other] = Cons(1, Cons("a", "nil")), Cons(1, Cons("b", "nil"))
        a, b = Cons(s, s), Cons(*parts)
        assert lexorder_cmp(a, b) == -1 and lexorder_cmp(b, a) == 1


def test_the_lexorder_kernel_ranks_bools_and_integers_as_before(reg):
    # the kernel compares two integers at once; a bool is one to the old walk too
    values = [True, False, -1, 0, 1, 2, 2**70, "nil", "t", "foo", Cons(True, 2), Cons(1, 2)]
    pairs = list(itertools.product(values, repeat=2))
    xs, ys = (list(c) for c in zip(*pairs))
    want = ["t" if _ref_lexorder_le(a, b) else "nil" for a, b in pairs]
    assert reg.kernel("lexorder", 2)(xs, ys) == want


def test_lexorder_of_a_value_it_cannot_rank_is_a_domain_error(reg):
    # a lookup table is no symbol, integer or pair
    with pytest.raises(EvalDomainError, match="^lexorder undefined for "):
        eval_term(parse_term("(lexorder x '1)"), {"x": FalistShadow()}, reg)


def test_lexorder_of_two_copies_of_a_shared_value_costs_their_distinct_pairs():
    # the values of two 40-binding doubling chains read apart, 2^41 - 1
    # term nodes as trees, and of a third that differs only in its leaf
    a, b, c = (term_to_value(doubling(40, leaf)) for leaf in ("x", "x", "y"))
    start = time.perf_counter()
    found = (lexorder_le(a, b), lexorder_le(b, a), lexorder_le(a, c), lexorder_le(c, a))
    elapsed = time.perf_counter() - start
    assert found == (True, True, True, False)
    assert elapsed < 0.5


def test_eval_term_of_a_shared_term_costs_its_distinct_nodes(reg):
    # a 40-binding doubling chain, 2^41 - 1 nodes as a tree
    t = doubling(40)
    start = time.perf_counter()
    value = eval_term(t, {"x": 3}, reg)
    elapsed = time.perf_counter() - start
    assert value == 3 << 40
    assert elapsed < 0.5


def test_hons_heads(ev):
    al = ev("(hons-acons 'k1 '1 (hons-acons 'k2 '2 'nil))")
    assert al == Cons(Cons("k1", 1), Cons(Cons("k2", 2), "nil"))
    assert ev("(hons-get 'k2 (hons-acons 'k1 '1 (hons-acons 'k2 '2 'nil)))") == Cons("k2", 2)
    assert ev("(hons-get 'zz (hons-acons 'k1 '1 'nil))") == "nil"
    assert ev("(fast-alist-free '(1 2))") == Cons(1, Cons(2, "nil"))


def test_if_is_lazy(reg):
    # the untaken branch may contain an unknown function
    t = parse_term("(if 't '1 (mystery x))")
    assert eval_term(t, {}, reg) == 1
    with pytest.raises(UnknownFunctionError):
        eval_term(parse_term("(if 'nil '1 (mystery x))"), {"x": 1}, reg)


def test_env_and_errors(reg):
    assert eval_term(Var("v"), {"v": 9}, reg) == 9
    with pytest.raises(UnboundVariableError):
        eval_term(Var("v"), {}, reg)
    with pytest.raises(UnknownFunctionError):
        eval_term(parse_term("(frobnicate '1)"), {}, reg)


def test_wrappers_are_identity(reg):
    rng = rand_rng(13)
    for _ in range(300):
        t = rand_term(rng, 3)
        env = {v: rng.randint(-9, 9) for v in ("a", "b", "c")}
        try:
            base = eval_term(t, env, reg)
        except (UnknownFunctionError, EvalDomainError):
            continue
        assert eval_term(mk_rp("integerp", t), env, reg) == base
        assert eval_term(App("hide", (t,)), env, reg) == base


def test_falist_evals_as_payload(reg):
    t = parse_term("(falist '((k . '1)) (cons (cons 'k '1) 'nil))")
    assert eval_term(t, {}, reg) == Cons(Cons("k", 1), "nil")


def test_list_head(reg):
    assert eval_term(parse_term("(list '1 '2)"), {}, reg) == Cons(1, Cons(2, "nil"))
    assert eval_term(parse_term("(list)"), {}, reg) == "nil"


def test_lambda_app_eval(reg):
    t = parse_term("((lambda (x y) (binary-+ x y)) '3 a)")
    assert eval_term(t, {"a": 4}, reg) == 7


def test_registry_register_and_arity():
    reg = ExecRegistry()
    reg.register("twice", 1, lambda v: ifix(v) * 2)
    assert reg.has("twice")
    assert reg.arity("twice") == 1
    assert reg.call("twice", [21]) == 42


def test_a_nullary_function_runs_once_per_environment_of_a_batch():
    calls = []
    reg = default_registry().register("tick", 0, lambda: calls.append(1) or len(calls))
    envs = [{"a": i} for i in range(3)]
    values, errors = eval_terms(parse_term("(cons (tick) a)"), envs, reg)
    assert errors == {} and values == {0: Cons(1, 0), 1: Cons(2, 1), 2: Cons(3, 2)}
    # one that raises drops each environment with its error
    reg.register("tick", 0, lambda: reg.fn("d2", 1)(1))
    values, errors = eval_terms(parse_term("(cons (tick) a)"), envs, reg)
    assert values == {} and sorted(errors) == [0, 1, 2]
    assert all(isinstance(e, EvalDomainError) for e in errors.values())


# ---------------------------------------------------------------------------
# batch evaluation against one environment at a time

_OWN_ARITY = {"if": 3, "rp": 2, "falist": 2, "hide": 1}


def _reference(t, env, reg, failures=None, path=()):
    """t's value under env, straight from the evaluation clauses.  With a
    list `failures`, the first rp wrapper whose property fails or raises is
    appended as (path, property term, error or None)."""
    if isinstance(t, Var):
        if t.name not in env:
            raise UnboundVariableError(t.name)
        return env[t.name]
    if isinstance(t, Quote):
        return t.value
    head, args = t.head, t.args
    arity = _OWN_ARITY.get(head)
    if arity is not None and len(args) != arity:
        raise EvalDomainError(f"{head} expects {arity} argument{'s' if arity > 1 else ''}")
    if head == "if":
        k = 2 if truthy(_reference(args[0], env, reg, failures, path + (1,))) else 3
        return _reference(args[k - 1], env, reg, failures, path + (k,))
    if head == "hide":
        return _reference(args[0], env, reg, failures, path + (1,))
    if head in ("rp", "falist"):
        value = _reference(args[1], env, reg, failures, path + (2,))
        if head == "rp" and failures == [] and isinstance(args[0], Quote):
            error = None
            try:
                holds = truthy(reg.call(args[0].value, [value]))
            except EvalError as exc:
                holds, error = False, exc
            if not holds:
                failures.append((path, App(args[0].value, (args[1],)), error))
        return value
    vals = [_reference(a, env, reg, failures, path + (k + 1,)) for k, a in enumerate(args)]
    if head == "list":
        out = "nil"
        for v in reversed(vals):
            out = Cons(v, out)
        return out
    return reg.call(head, vals)


def _error_key(exc):
    return None if exc is None else (type(exc), str(exc))


def _failure_key(failure):
    return None if failure is None else (failure[0], failure[1], _error_key(failure[2]))


_leaf_terms = st.one_of(
    st.sampled_from((Var("a"), Var("b"), Var("c"))),
    st.integers(-5, 5).map(Quote),
    st.sampled_from(("t", "nil", "foo")).map(Quote),
)


def _wrap(props, t):
    for prop in props:
        t = App("rp", (Quote(prop), t))
    return t


def _compound_terms(sub):
    return st.one_of(
        st.tuples(sub, sub, sub).map(lambda p: App("if", p)),
        # an unregistered head on one branch only
        st.tuples(sub, sub).map(lambda p: App("if", (p[0], p[1], App("mystery", (p[1],))))),
        st.lists(sub, max_size=3).map(lambda xs: App("list", tuple(xs))),
        sub.map(lambda x: App("hide", (x,))),
        sub.map(lambda x: App("falist", (Quote("nil"), x))),
        # d2 is partial: odd integers have no half
        sub.map(lambda x: App("d2", (x,))),
        st.tuples(st.sampled_from(("unary--", "evenp", "consp", "car", "f2")), sub).map(lambda p: App(p[0], (p[1],))),
        st.tuples(st.sampled_from(("binary-+", "cons", "equal", "lexorder")), sub, sub).map(
            lambda p: App(p[0], p[1:])
        ),
        # properties that hold, fail, or raise (d2, and mystery, which is
        # unregistered), often nested so that an inner and an outer one fail
        st.tuples(st.lists(st.sampled_from(("integerp", "evenp", "consp", "d2", "mystery")), min_size=1, max_size=3),
                  sub).map(lambda p: _wrap(p[0], p[1])),
        sub.map(lambda x: App("hide", (x, x))),
        st.tuples(st.integers(0, 2), sub).map(lambda p: _share(*p)),
    )


def _share(k, x):
    """A term whose arguments are one object x, so x's nodes are shared: met
    again under the same environments, or under an if's part of them."""
    if k == 0:
        return App("binary-+", (x, x))
    if k == 1:
        return App("cons", (x, App("d2", (x,))))
    return App("if", (x, App("cons", (x, x)), x))


_batch_terms = st.recursive(_leaf_terms, _compound_terms, max_leaves=16)
_env_values = st.one_of(
    st.integers(-6, 6),
    st.sampled_from(("nil", "t", "foo")),
    st.tuples(st.integers(-2, 2), st.sampled_from(("nil", 3))).map(lambda p: Cons(*p)),
)
# c is sometimes unbound
_envs = st.lists(st.fixed_dictionaries({"a": _env_values, "b": _env_values}, optional={"c": _env_values}),
                 min_size=1, max_size=8)
_REG = default_registry()


def _assert_matches_reference(t, envs, live, values, errors, wrappers):
    assert values.keys() | errors.keys() == set(live) and not values.keys() & errors.keys()
    for i in live:
        failures = [] if wrappers is not None else None
        try:
            want, error = _reference(t, envs[i], _REG, failures), None
        except EvalError as exc:
            want, error = None, exc
        assert _error_key(errors.get(i)) == _error_key(error)
        if error is None:
            assert values[i] == want
        if wrappers is not None:
            assert _failure_key(wrappers.get(i)) == _failure_key(failures[0] if failures else None)


@settings(max_examples=150, deadline=None)
@given(_batch_terms, _envs, st.booleans(), st.sampled_from((None, 1, 2)))
def test_eval_terms_matches_each_environment_alone(t, envs, check, step):
    """Without a memo, one call over every environment.  With one, a call
    over every step-th environment without wrapper checks, as check_run
    evaluates before, and then one over all, so that the second replays
    what the first remembered."""
    calls = [(range(len(envs)), check)]
    memo = None
    if step is not None:
        memo = dict.fromkeys(shared_nodes((t, t)))
        calls.insert(0, (range(0, len(envs), step), False))
    for live, checked in calls:
        wrappers = {} if checked else None
        values, errors = eval_terms(t, envs, _REG, wrappers, live=list(live), memo=memo)
        _assert_matches_reference(t, envs, live, values, errors, wrappers)


def test_memo_evaluates_each_shared_node_once_per_live_list():
    calls = []
    reg = default_registry().register("binary-+", 2, lambda a, b: calls.append(1) or a + b)
    x = parse_term("(binary-+ a b)")
    t = App("cons", (x, App("if", (App("consp", (x,)), x, App("cons", (x, x))))))
    envs = [{"a": i, "b": 1} for i in range(5)]
    memo = dict.fromkeys(shared_nodes((t, x)))
    values, errors = eval_terms(t, envs, reg, memo=memo)
    assert errors == {} and values[4] == Cons(5, Cons(5, 5))
    # x runs at the cons's first argument; consp's argument and the else
    # branch meet it under the same live list and replay it
    assert len(calls) == 5
    # another live list runs it again, and is remembered in turn
    values, _errors = eval_terms(x, envs, reg, live=[1, 2, 3, 4], memo=memo)
    assert values == {1: 2, 2: 3, 3: 4, 4: 5} and len(calls) == 9
    values, _errors = eval_terms(x, envs, reg, live=[1, 2, 3, 4], memo=memo)
    assert values == {1: 2, 2: 3, 3: 4, 4: 5} and len(calls) == 9


def test_memo_replays_the_errors_raised_inside_a_node():
    calls = []
    reg = default_registry()
    d2 = reg.fn("d2", 1)
    reg.register("d2", 1, lambda x: calls.append(1) or d2(x))
    t = parse_term("(cons (d2 a) b)")
    envs = [{"a": i, "b": 1} for i in range(4)]
    memo = dict.fromkeys(shared_nodes((t, t)))
    values, errors = eval_terms(t, envs, reg, memo=memo)
    assert values == {0: Cons(0, 1), 2: Cons(1, 1)} and sorted(errors) == [1, 3]
    ran = len(calls)
    assert eval_terms(t, envs, reg, memo=memo) == (values, errors) and len(calls) == ran


def test_eval_terms_keeps_each_environments_first_wrapper_failure():
    # inner before outer, and a wrapper that only some environments reach
    t = parse_term("(cons (rp 'consp (rp 'evenp a)) (if (consp b) (rp 'd2 (car b)) b))")
    pair = Cons(5, 1)
    envs = [{"a": pair, "b": 1}, {"a": 3, "b": 1}, {"a": 4, "b": 1}, {"a": pair, "b": pair}, {"a": 3, "b": pair}]
    wrappers = {}
    values, errors = eval_terms(t, envs, _REG, wrappers)
    assert errors == {} and values[0] == Cons(pair, 1)
    assert 0 not in wrappers
    inner = ((1, 2), parse_term("(evenp a)"), None)
    assert wrappers[1] == wrappers[4] == inner
    assert wrappers[2] == ((1,), parse_term("(consp (rp 'evenp a))"), None)
    path, prop, error = wrappers[3]
    assert (path, prop) == ((2, 2), parse_term("(d2 (car b))")) and isinstance(error, EvalDomainError)
