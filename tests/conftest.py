import random
import sys

import pytest

from termrw.evaluator import default_registry
from termrw.rules import build_ruleset, parse_rule_file
from termrw.terms import App, Cons, Quote, Var


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


def rand_rng(seed):
    return random.Random(seed)
