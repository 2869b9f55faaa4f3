"""Executable oracles for the engine's invariants.

valid_sc_failure finds the first rp wrapper whose property fails under an
environment; check_preservation samples environments and compares values
before and after rewriting; check_run combines both under a context;
sample_rule_soundness compares a rule's sides under its hypotheses.  These
stand in for mechanized proof: rules are trusted inputs whose soundness is
sampled, not proved.

All three samplers share one rejection-sampling policy.  Environments are
drawn until n of them are accepted or skipped, or 100·n have been drawn.
A draw is rejected, and not counted, when a fact or hypothesis is false or
undefined under it.  It is skipped when the input term is undefined there
(a partial function applied off its domain).  It fails, and is not
counted, when the output is undefined where the input is defined, or when
a wrapper's property does not hold or cannot be evaluated.  A changed
value (truthiness in iff mode) fails but still counts as accepted.  A
function without an executable counterpart in a fact, the input or the
output makes the whole check skipped (skipped = n), and the report names
it (unknown).  A report is starved when fewer than n draws were accepted
or skipped.

Draws come in chunks.  A chunk's draws are taken in one loop (_draw) from
the stream that single draws would take, each value from one table of 73
(SUPPORT), and a draw is keyed by its values' positions there, so the
chunk is kept as its distinct environments, first seen first, and the
position of each draw's among them.  Registered functions are ground
evaluators, so a term's value, its errors and its wrapper failures are a
function of the environment: the facts, before and after are evaluated
over the distinct environments only, and their outcomes are expanded back
to the draws.  Each term is evaluated once per node per chunk
(evaluator.eval_terms), not once per node per environment: a node applies
its function's column kernel to its argument columns in one call.  The
facts, before and after share one memo, so a node they share (after is
often mostly before) is evaluated once per chunk where it meets the same
live environments.  Each compared environment's verdict is decided as the
columns of before and after join.  The chunk's outcomes are then tallied
in draw order, so every report is the one single draws would give.
"""

from __future__ import annotations

import random
from collections import Counter

# nothing here calls eval_term: perfbench's tracer wraps validate.eval_term
from .evaluator import EvalDomainError, EvalError, UnknownFunctionError, eval_term, eval_terms, shared_nodes
from .rules import Syntaxp
from .terms import (
    App,
    Cons,
    Quote,
    Var,
    format_value,
    postorder,
    truthy,
)


class ValidityReport:
    def __init__(self):
        self.ok = True
        self.failures = []  # (path, term-or-label, env digest)
        self.accepted = 0
        self.skipped = 0
        self.starved = False
        self.unknown = None  # the unregistered function that skipped the check, not compared by ==

    def __eq__(self, other):
        if other.__class__ is not ValidityReport:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in ("ok", "failures", "accepted", "skipped", "starved"))

    def __repr__(self):
        return f"ValidityReport({', '.join(f'{k}={v!r}' for k, v in self.__dict__.items())})"

    def fail(self, path, what, env):
        self.ok = False
        self.failures.append((path, what, env_digest(env)))

    def lines(self):
        """A summary line, then each distinct failure once, first seen
        first, with the number of draws that met it; at most 50."""
        out = [f"ok={self.ok} accepted={self.accepted} skipped={self.skipped} starved={self.starved}"]
        for (path, what, digest), draws in list(Counter(self.failures).items())[:50]:
            out.append(f"  FAIL at {list(path)}: {what}  [{digest}]  ({draws} draw{'s' * (draws != 1)})")
        return out


def env_digest(env):
    return " ".join(f"{k}={format_value(v)}" for k, v in sorted(env.items()))


# ---------------------------------------------------------------------------
# side-condition validity


def valid_sc_failure(t, env, reg):
    """The (path, property term) of the first rp wrapper whose property
    fails as t is evaluated under env, if branches followed the way
    evaluation takes them (see eval_terms), or None when every wrapper
    reached holds.  t is evaluated whole, so an evaluation error anywhere
    in it propagates, outside every wrapper too, unless a failing wrapper
    came first; an error applying that wrapper's property propagates."""
    failures = {}
    _values, errors = eval_terms(t, (env,), reg, failures)
    if not failures:
        if errors:
            raise errors[0]
        return None
    path, prop, error = failures[0]
    if error is not None:
        raise error
    return path, prop


# ---------------------------------------------------------------------------
# environment sampling

# The finite support every sampled value comes from, as in SmallCheck's
# bounded enumeration: at SUPPORT[0:17] the small integers v = -8..8, at
# [17:34] 2^64 + v and at [34:51] -(2^64 + v) for the same v, at [51:57]
# six symbols, and at [57:73] the pairs of four cars and four cdrs, car
# major.  Each pair is one Cons, whose hash is kept once computed.
SUPPORT = (
    *range(-8, 9),
    *((1 << 64) + v for v in range(-8, 9)),
    *(-((1 << 64) + v) for v in range(-8, 9)),
    "nil", "t", "foo", "bar", "k1", "key2",
    *(Cons(a, d) for a in (0, 1, "a", "nil") for d in (2, "t", "b", "nil")),
)


def _draw(rng, names, size):
    """size draws of one value per name in sorted order, each from a mixed
    distribution over SUPPORT: half small integers, a quarter near ±2^64, a
    quarter structured (symbols and shallow pairs).  Returns (envs, index):
    the distinct environments drawn, in first-seen order, and for each draw
    the position of its environment in envs.  A draw is keyed by its code,
    its values' positions in SUPPORT read as digits in radix 73, so equal
    codes are the very same value objects, and a repeated draw's dict is
    dropped.  randint(-8, 8) and choice are drawn as CPython's Random
    draws them, getrandbits of the range's bit length until below the
    range, so size draws at once take the stream, and leave rng in the
    state, of size draws of one.  With no names, every draw is the empty
    environment and takes nothing from the stream."""
    if not names:
        return ([{}], [0] * size) if size > 0 else ([], [])
    random_, bits = rng.random, rng.getrandbits
    support = SUPPORT
    names = sorted(names)
    envs, index, codes = [], [], {}
    for _ in range(size):
        env = {}
        code = 0
        for name in names:
            roll = random_()
            if roll < 0.75:
                # a small integer, or one near 2^64 or -2^64 by a further draw
                offset = 0 if roll < 0.50 else 34 if random_() < 0.5 else 17
                r = bits(5)
                while r >= 17:
                    r = bits(5)
            elif roll < 0.875:
                offset = 51
                r = bits(3)
                while r >= 6:
                    r = bits(3)
            else:
                car = bits(3)
                while car >= 4:
                    car = bits(3)
                r = bits(3)
                while r >= 4:
                    r = bits(3)
                offset = 57 + 4 * car
            r += offset
            env[name] = support[r]
            code = code * 73 + r
        position = codes.get(code)
        if position is None:
            position = codes[code] = len(envs)
            envs.append(env)
        index.append(position)
    return envs, index


def sample_envs(rng, names, size):
    """size environments over names, drawn as _draw draws them: the
    stream, and the rng's final state, of size draws of one.  Each is a
    dict of its own."""
    envs, index = _draw(rng, names, size)
    return [envs[i].copy() for i in index]


# ---------------------------------------------------------------------------
# the sampling loop and the oracles built on it

REJECTION_CAP = 100

# outcomes of a draw besides rejection, a failed comparison, or an error
_ACCEPT = "accept"  # before and after agree, and no wrapper fails
_SKIP = "skip"  # the input term is undefined
_UNDEFINED = "undefined"  # only the output term is undefined


def _sample(facts, before, after, mode, n, reg, seed, label="", check_wrappers=False):
    """Draw environments over the free variables of before, after and the
    facts until n are accepted or skipped, or REJECTION_CAP * n have been
    drawn, keeping those where every fact holds, and compare before with
    after under each kept one (see the module docstring).  With
    check_wrappers, a wrapper in after whose property fails also fails the
    draw.

    Draws come in chunks of exactly the draws still needed, so a chunk
    never draws past the point where taking one draw at a time would stop.
    A chunk is kept as its distinct environments and one index per draw
    (_draw), and only the distinct ones are evaluated: a registered
    function is a ground evaluator, so equal environments, which hold the
    very same values, meet the same outcome.  They are evaluated one term
    at a time (eval_terms): the facts, each only where the earlier ones
    hold, then before, then after where before is defined, and an
    environment where both are defined is judged as their values are
    paired.  The terms are walked once beforehand for their variables and
    for the nodes they reach more than once (shared_nodes), and the
    chunk's calls share a memo of those, so each distinct node is
    evaluated once per chunk, across facts, before and after, for each
    list of environments live at it.  The outcomes are then tallied draw
    by draw, in draw order, so the report is the one a loop over single
    environments would give; a failing draw's environment is looked up
    only to be reported.
    """
    terms = (*facts, before, after)
    nodes = postorder(*terms)
    names = {u.name for u in nodes if u.__class__ is Var}
    shared = shared_nodes(terms, nodes)
    rng = random.Random(seed)
    equal = mode == "equal"
    changed = f"{label}{'value' if equal else 'truthiness'} changed by rewriting"
    report = ValidityReport()
    draws = 0
    while True:
        size = min(n - report.accepted - report.skipped, n * REJECTION_CAP - draws)
        if size <= 0:
            break
        draws += size
        envs, index = _draw(rng, names, size)
        outcomes = [None] * len(envs)  # None: rejected by a fact
        memo = dict.fromkeys(shared)
        live = list(range(len(envs)))
        for fact in facts:
            values = _evaluate(fact, envs, live, reg, memo, outcomes, None)
            live = [i for i, v in values.items() if truthy(v)]
        befores = _evaluate(before, envs, live, reg, memo, outcomes, _SKIP)
        failures = {} if check_wrappers else None
        afters = _evaluate(after, envs, list(befores), reg, memo, outcomes, _UNDEFINED, failures)
        # a compared draw that fails: (the changed-value message or "", its
        # first wrapper failure or None)
        for i, v in befores.items():
            if i in afters:
                w = afters[i]
                same = v == w if equal else truthy(v) == truthy(w)
                failure = failures.get(i) if failures else None
                outcomes[i] = _ACCEPT if same and failure is None else ("" if same else changed, failure)
        for i in index:
            outcome = outcomes[i]
            if outcome is _ACCEPT:
                report.accepted += 1
            elif outcome is None:
                continue
            elif outcome is _SKIP:
                report.skipped += 1
            elif outcome is _UNDEFINED:
                report.fail((), f"{label}rewritten term undefined where input is defined", envs[i])
            elif isinstance(outcome, UnknownFunctionError):
                report.skipped = n
                report.unknown = outcome.args[0]
                break
            elif isinstance(outcome, EvalError):
                raise outcome
            else:
                message, failure = outcome
                if message:
                    report.fail((), message, envs[i])
                if failure is None:
                    report.accepted += 1
                else:
                    path, prop, error = failure
                    report.fail(path, prop if error is None else f"side-condition evaluation error: {error}", envs[i])
    report.starved = report.accepted + report.skipped < n
    return report


def _evaluate(t, envs, live, reg, memo, outcomes, undefined, wrappers=None):
    """t's values under envs[i], by i, for each i in live whose evaluation
    succeeds, all evaluated as one batch with the chunk's memo (see
    eval_terms).  The outcome of an i whose evaluation raised becomes
    `undefined` for an EvalDomainError, else the error.  Wrapper failures
    are recorded by i, as in eval_terms."""
    values, errors = eval_terms(t, envs, reg, wrappers, live=live, memo=memo)
    for i, exc in errors.items():
        outcomes[i] = undefined if isinstance(exc, EvalDomainError) else exc
    return values


def check_preservation(before, after, mode, env_samples, reg, seed=0):
    """Sample environments and compare before with after: values in equal
    mode, truthiness in iff mode."""
    return _sample((), before, after, mode, env_samples, reg, seed)


def check_run(before, after, ctx, env_samples, reg, mode="iff", seed=0):
    """Sample environments satisfying every ctx fact; under each, after
    must preserve before's value, and every rp wrapper it reaches must
    hold (see valid_sc_failure)."""
    return _sample(ctx, before, after, mode, env_samples, reg, seed, check_wrappers=True)


def sample_rule_soundness(rule, reg, env_samples=1000, seed=0):
    """Under environments satisfying the hyps, lhs and rhs must agree per
    the rule's equivalence (the strict-mode ingestion check).  Syntaxp hyps
    restrict applicability, not truth, so they are ignored here."""
    hyps = [h for h in rule.hyps if not isinstance(h, Syntaxp)]
    return _sample(hyps, rule.lhs, rule.rhs, rule.equiv, env_samples, reg, seed, label=f"rule {rule.name}: ")


# ---------------------------------------------------------------------------
# random conjecture generation for the invariant suite

_GEN_UNARY = ("unary--", "evenp", "integerp", "not", "consp", "atom", "f2", "neg-m2", "round-to-even")
_GEN_BINARY = ("binary-+", "binary-logand", "4vec-bitand", "floor", "mod", "equal", "cons", "lexorder")


def random_term(rng, depth, var_names=("a", "b", "c")):
    """A random term over registered heads only, so evaluation is total
    modulo partial-function domains."""
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.5:
            return Var(rng.choice(var_names))
        if roll < 0.85:
            return Quote(rng.randint(-6, 6))
        return Quote(rng.choice(("t", "nil", "foo")))
    roll = rng.random()
    if roll < 0.15:
        return App(
            "if",
            (
                random_term(rng, depth - 1, var_names),
                random_term(rng, depth - 1, var_names),
                random_term(rng, depth - 1, var_names),
            ),
        )
    if roll < 0.5:
        return App(rng.choice(_GEN_UNARY), (random_term(rng, depth - 1, var_names),))
    return App(
        rng.choice(_GEN_BINARY),
        (random_term(rng, depth - 1, var_names), random_term(rng, depth - 1, var_names)),
    )
