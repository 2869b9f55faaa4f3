"""Executable oracles for the engine's invariants.

valid_sc checks that every rp wrapper's property actually holds under an
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
output makes the whole check skipped (skipped = n).  A report is starved
when fewer than n draws were accepted or skipped.

Draws come in chunks.  A chunk's environments are drawn in one loop
(sample_envs) from the stream that single draws would take.  Each term is
evaluated once per node per chunk (evaluator.eval_terms), not once per
node per environment, and the facts, before and after share one memo, so
a node they share (after is often mostly before) is evaluated once per
chunk where it meets the same live environments.  Each compared draw's
verdict is decided as the columns of before and after join.  The chunk's
outcomes are then tallied in draw order, so every report is the one
single draws would give.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .evaluator import EvalDomainError, EvalError, UnknownFunctionError, eval_term, eval_terms, shared_nodes
from .rules import Syntaxp
from .terms import (
    NIL,
    App,
    Cons,
    Quote,
    Var,
    free_vars,
    rp_termp,
    truthy,
    values_equal,
)


@dataclass
class ValidityReport:
    ok: bool = True
    failures: list = field(default_factory=list)  # (path, term-or-label, env digest)
    accepted: int = 0
    skipped: int = 0
    starved: bool = False

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
    from .terms import format_value

    return " ".join(f"{k}={format_value(v)}" for k, v in sorted(env.items()))


# ---------------------------------------------------------------------------
# side-condition validity


def valid_sc(t, env, reg):
    """Every rp wrapper that evaluating t under env reaches has a property
    that holds, if branches followed the way evaluation takes them.  t is
    evaluated whole, so an evaluation error anywhere in it propagates,
    outside every wrapper too, unless a failing wrapper came first."""
    return valid_sc_failure(t, env, reg) is None


def valid_sc_failure(t, env, reg):
    """The (path, property term) of the first wrapper whose property fails
    as t is evaluated under env (see eval_term), or None when valid_sc
    holds.  An evaluation error propagates unless a failing wrapper came
    first."""
    wrappers = []
    try:
        eval_term(t, env, reg, wrappers)
    except EvalError:
        if not wrappers:
            raise
    if not wrappers:
        return None
    path, prop, error = wrappers[0]
    if error is not None:
        raise error
    return path, prop


# ---------------------------------------------------------------------------
# environment sampling

_SYMBOL_POOL = ("nil", "t", "foo", "bar", "k1", "key2")


def sample_value(rng):
    """Mixed distribution: half small integers, a quarter near ±2^64, a
    quarter structured (symbols and shallow pairs)."""
    return sample_envs(rng, ("v",), 1)[0]["v"]


def sample_env(rng, names):
    return sample_envs(rng, names, 1)[0]


def sample_envs(rng, names, size):
    """size environments over names, each a value of sample_value's
    distribution per name in sorted order.  randint(-8, 8) and choice are
    drawn as CPython's Random draws them, getrandbits of the range's bit
    length until below the range, so the stream and rng's final state are
    those of size calls of sample_env."""
    random_, bits = rng.random, rng.getrandbits

    def below(n, k):
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    names = sorted(names)
    envs = []
    for _ in range(size):
        env = {}
        for name in names:
            roll = random_()
            if roll < 0.50:
                env[name] = below(17, 5) - 8
            elif roll < 0.75:
                sign = -1 if random_() < 0.5 else 1
                env[name] = sign * ((1 << 64) + below(17, 5) - 8)
            elif roll < 0.875:
                env[name] = _SYMBOL_POOL[below(6, 3)]
            else:
                env[name] = Cons((0, 1, "a", "nil")[below(4, 3)], (2, "t", "b", "nil")[below(4, 3)])
        envs.append(env)
    return envs


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
    A chunk is evaluated one term at a time over all its environments
    (eval_terms): the facts, each only where the earlier ones hold, then
    before, then after where before is defined, and a draw where both are
    defined is judged as their values are paired.  The terms are walked
    once beforehand for the nodes they reach more than once (shared_nodes),
    and the chunk's calls share a memo of those, so each distinct node is
    evaluated once per chunk, across facts, before and after, for each
    list of environments live at it.  The outcomes are then tallied in
    draw order, so the report is the one a loop over single environments
    would give.
    """
    names = set().union(*map(free_vars, (before, after, *facts)))
    shared = shared_nodes((*facts, before, after))
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
        envs = sample_envs(rng, names, size)
        outcomes = [None] * size  # None: rejected by a fact
        memo = dict.fromkeys(shared)
        live = list(range(size))
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
                same = values_equal(v, w) if equal else (v == NIL) == (w == NIL)
                failure = failures.get(i) if failures else None
                outcomes[i] = _ACCEPT if same and failure is None else ("" if same else changed, failure)
        for i, outcome in enumerate(outcomes):
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
    must preserve before's value and satisfy valid_sc."""
    return _sample(ctx, before, after, mode, env_samples, reg, seed, check_wrappers=True)


def check_syntax_preserved(before, after):
    """rp_termp must survive rewriting."""
    return (not rp_termp(before)) and (not rp_termp(after))


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
