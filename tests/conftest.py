import random
import sys

import pytest
from hypothesis import strategies as st

from termrw.evaluator import default_registry
from termrw.reader import parse_term
from termrw.rules import build_ruleset, parse_rule_file
from termrw.terms import App, Cons, Quote, Var, postorder


@pytest.fixture(autouse=True)
def recursion_limit_unchanged():
    before = sys.getrecursionlimit()
    yield
    assert sys.getrecursionlimit() == before


@pytest.fixture
def reg():
    return default_registry()


@pytest.fixture(scope="session")
def arith_ruleset():
    from termrw.demo import ARITH_RULES

    return build_ruleset(parse_rule_file(ARITH_RULES))


@pytest.fixture(scope="session")
def bitand_ruleset():
    from termrw.demo import BITAND_RULES

    return build_ruleset(parse_rule_file(BITAND_RULES))


# one rule file for each fault validate_rule reports, with the lines that
# check-rules prints for it: each must keep Rewriter and prove from the rules
RULE_FAULTS = {
    # an unbound variable, in the rhs or an ordinary hyp
    "(def-rp-rule r (equal (f x) (g y)))": ["r: free variables not bound by lhs: y"],
    "(def-rp-rule r (implies (p y) (equal (f x) (g x))))": ["r: free variables not bound by lhs: y"],
    "(def-rp-rule r (implies (and (p y) (q z)) (equal (f x) (g x y))))": ["r: free variables not bound by lhs: y, z"],
    # rp or falist in the rhs, a hyp or the lhs
    "(defthm f-is-rp (equal (f p x) (rp p x)))": [
        "f-is-rp: rhs cannot contain rp or falist",
        "f-is-rp: rhs: rp first argument must be a quoted non-nil symbol",
    ],
    "(defthm r (implies (rp 'integerp x) (equal (f x) x)))": ["r: hyp cannot contain rp or falist"],
    "(defthm r (equal (f (rp 'integerp x)) x))": ["r: lhs cannot contain rp or falist"],
    "(defthm r (equal (f x) (falist 'nil 'nil)))": ["r: rhs cannot contain rp or falist"],
    "(defthm r (implies (equal (falist 'nil 'nil) x) (equal (f x) x)))": ["r: hyp cannot contain rp or falist"],
    "(defthm r (equal (f (falist 'nil 'nil)) 'nil))": ["r: lhs cannot contain rp or falist"],
    # if in the lhs, and a reserved lhs head
    "(defthm r (equal (f (if x y z)) x))": ["r: lhs cannot contain if"],
    "(defthm r (equal (if x y z) x))": ["r: lhs head if is reserved", "r: lhs cannot contain if"],
    "(defthm r (equal (hide x) x))": ["r: lhs head hide is reserved"],
    # an lhs that is not an application
    "(defthm r (equal x (f x)))": ["r: lhs must be a function application"],
    # a syntaxp predicate outside the supported set, or over a variable the
    # lhs does not bind
    "(defthm r (implies (syntaxp (integerp x)) (equal (f x) x)))": [
        "r: syntaxp predicate outside the supported set: (integerp x)"
    ],
    "(defthm r (implies (syntaxp (atom z)) (equal (f x) 'fired)))": ["r: free variables not bound by lhs: z"],
}


# ---------------------------------------------------------------------------
# seeded structural generators, shared by round-trip and safety suites

_SYMS = ("a", "b", "foo", "k1", "nil", "t", "x-y", "<=")


def rand_value(rng, depth=3):
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return rng.randint(-30, 30)
    if roll < 0.7:
        return rng.choice(_SYMS)
    return Cons(rand_value(rng, depth - 1), rand_value(rng, depth - 1))


_HEADS = ("f", "g", "binary-+", "cons", "equal", "not", "h3")


def rand_term(rng, depth=4):
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        return rng.choice((Var("a"), Var("b"), Var("c"), Quote(rand_value(rng, 2))))
    if roll < 0.3:
        return App("rp", (Quote(rng.choice(("integerp", "evenp", "consp"))), rand_term(rng, depth - 1)))
    if roll < 0.4:
        return App("if", tuple(rand_term(rng, depth - 1) for _ in range(3)))
    if roll < 0.5:
        return App("hide", (rand_term(rng, depth - 1),))
    head = rng.choice(_HEADS)
    nargs = rng.randint(1, 3)
    return App(head, tuple(rand_term(rng, depth - 1) for _ in range(nargs)))


def free_vars(t):
    """The variable names of a term, off one walk of its distinct nodes."""
    return {u.name for u in postorder(t) if u.__class__ is Var}


def contains_head(t, head):
    return any(u.__class__ is App and u.head == head for u in postorder(t))


def rand_rng(seed):
    return random.Random(seed)


def doubling(n, leaf="x"):
    """The rhs of demos/rules/let-chain.lsp with n bindings over leaf: n
    distinct applications, 2^(n + 1) - 1 nodes as a tree.  Each call reads
    a copy of its own."""
    binds = " ".join(f"(a{i} (binary-+ a{i - 1} a{i - 1}))" for i in range(1, n))
    return parse_term(f"(let* ((a0 (binary-+ {leaf} {leaf})) {binds}) a{n - 1})")


def tree_copy(x):
    """x, a term or a value, rebuilt so that no application or cons in it
    is reached twice."""
    if x.__class__ is App:
        return App(x.head, [tree_copy(a) for a in x.args])
    if x.__class__ is Quote:
        return Quote(tree_copy(x.value))
    if x.__class__ is Cons:
        return Cons(tree_copy(x.car), tree_copy(x.cdr))
    return x


_ATOMS = (-1, 0, 1, 2, "a", "b", "nil", "t")


@st.composite
def value_dag_pairs(draw):
    """(a, b): a value built bottom-up from a pool, so later conses share
    earlier ones, and b rebuilt from a.  b shares where a shares, except
    that a cons may be copied afresh at each of its occurrences, and one
    atom that b reaches may be changed: so one node of a may meet several
    nodes of b, equal to it or not."""
    pool = draw(st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 10))):
        pool.append(Cons(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    a = pool[-1]
    change = draw(st.integers(-1, 9))  # the atom changed, counted as b is built; -1: none
    other = draw(st.sampled_from(_ATOMS))
    # per distinct cons of a: whether each occurrence gets its own copy
    plan = {id(u): draw(st.booleans()) for u in postorder(a) if u.__class__ is Cons}
    built, atoms = {}, [0]

    def rebuild(u):
        if u.__class__ is not Cons:
            atoms[0] += 1
            return other if atoms[0] - 1 == change else u
        if id(u) not in built:
            v = Cons(rebuild(u.car), rebuild(u.cdr))
            if plan[id(u)]:
                return v
            built[id(u)] = v
        return built[id(u)]

    return a, rebuild(a)
