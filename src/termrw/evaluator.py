"""Ground evaluation of terms over an environment and an executable registry.

The evaluator is the semantics oracle for the whole engine: rewriting is
correct exactly when it preserves eval_term over every environment binding
the free variables.  An environment is a plain dict from variable name to
value.  Function meanings live in an ExecRegistry; the same registry backs
the rewriter's executable-counterpart step, where per-function enable flags
apply (eval_term itself ignores them, disabling execution must not change
what a function means).
"""

from __future__ import annotations

from .terms import NIL, T, Cons, Quote, Var, App, LambdaApp, values_equal


class EvalError(Exception):
    pass


class UnboundVariableError(EvalError):
    pass


class UnknownFunctionError(EvalError):
    pass


class EvalDomainError(EvalError):
    """A registered function was applied outside its representable domain."""


def ifix(v):
    """Integer coercion: non-integers act as 0, the usual arithmetic default."""
    return v if isinstance(v, int) else 0


def nfix(v):
    return v if isinstance(v, int) and v >= 0 else 0


def to_boolean(flag):
    return T if flag else NIL


# ---------------------------------------------------------------------------
# lexorder: the fixed total order used by ordering hyps in commutativity rules.
# nil < t < integers (numeric) < other symbols (string order) < pairs.


def _rank(v):
    if isinstance(v, Cons):
        return 4
    if isinstance(v, int):
        return 2
    if isinstance(v, str):
        if v == NIL:
            return 0
        if v == T:
            return 1
        return 3
    raise EvalDomainError(f"lexorder undefined for {v!r}")


def lexorder_cmp(a, b):
    ra, rb = _rank(a), _rank(b)
    if ra != rb:
        return -1 if ra < rb else 1
    if ra in (2, 3):
        return (a > b) - (a < b)
    if ra == 4:
        c = lexorder_cmp(a.car, b.car)
        if c:
            return c
        return lexorder_cmp(a.cdr, b.cdr)
    return 0


def lexorder_le(a, b):
    return lexorder_cmp(a, b) <= 0


# ---------------------------------------------------------------------------
# registry


class ExecRegistry:
    """Named ground evaluators, each with a fixed arity and an enable flag.

    The flag gates only the rewriter's executable-counterpart step; see the
    module docstring.
    """

    def __init__(self):
        self._fns = {}
        self._disabled = set()

    def register(self, name, arity, fn):
        self._fns[name] = (arity, fn)
        return self

    def has(self, name):
        return name in self._fns

    def names(self):
        return sorted(self._fns)

    def arity(self, name):
        return self._fns[name][0]

    def set_enabled(self, name, flag):
        if name not in self._fns:
            raise KeyError(f"no executable counterpart registered for {name}")
        if flag:
            self._disabled.discard(name)
        else:
            self._disabled.add(name)

    def is_enabled(self, name):
        return name in self._fns and name not in self._disabled

    def call(self, name, args):
        entry = self._fns.get(name)
        if entry is None:
            raise UnknownFunctionError(name)
        arity, fn = entry
        if len(args) != arity:
            raise EvalDomainError(f"{name} expects {arity} arguments, got {len(args)}")
        return fn(*args)

    def copy(self):
        other = ExecRegistry()
        other._fns = dict(self._fns)
        other._disabled = set(self._disabled)
        return other


def _car(v):
    return v.car if isinstance(v, Cons) else NIL


def _cdr(v):
    return v.cdr if isinstance(v, Cons) else NIL


def _floor(a, b):
    a, b = ifix(a), ifix(b)
    return 0 if b == 0 else a // b


def _mod(a, b):
    a, b = ifix(a), ifix(b)
    return a if b == 0 else a % b


def _loghead(size, i):
    return ifix(i) % (1 << nfix(size))


def _logapp(size, i, j):
    return _loghead(size, i) + (ifix(j) << nfix(size))


def _d2(x):
    # halving under an evenness guard: odd integers have no representable half
    x = ifix(x)
    if x % 2:
        raise EvalDomainError("d2 applied to an odd integer")
    return x // 2


def _assoc_equal(key, alist):
    while isinstance(alist, Cons):
        pair = alist.car
        if isinstance(pair, Cons) and values_equal(pair.car, key):
            return pair
        alist = alist.cdr
    return NIL


def default_registry():
    """Registry with the executable suite the shipped rule files rely on."""
    reg = ExecRegistry()
    reg.register("cons", 2, Cons)
    reg.register("car", 1, _car)
    reg.register("cdr", 1, _cdr)
    reg.register("consp", 1, lambda v: to_boolean(isinstance(v, Cons)))
    reg.register("atom", 1, lambda v: to_boolean(not isinstance(v, Cons)))
    reg.register("equal", 2, lambda a, b: to_boolean(values_equal(a, b)))
    reg.register("not", 1, lambda v: to_boolean(isinstance(v, str) and v == NIL))
    reg.register("integerp", 1, lambda v: to_boolean(isinstance(v, int)))
    reg.register("bitp", 1, lambda v: to_boolean(isinstance(v, int) and v in (0, 1)))
    reg.register("evenp", 1, lambda v: to_boolean(ifix(v) % 2 == 0))
    reg.register("binary-+", 2, lambda a, b: ifix(a) + ifix(b))
    reg.register("unary--", 1, lambda a: -ifix(a))
    reg.register("binary-logand", 2, lambda a, b: ifix(a) & ifix(b))
    reg.register("4vec-bitand", 2, lambda a, b: ifix(a) & ifix(b))
    reg.register("floor", 2, _floor)
    reg.register("mod", 2, _mod)
    reg.register("loghead", 2, _loghead)
    reg.register("logapp", 3, _logapp)
    reg.register("lexorder", 2, lambda a, b: to_boolean(lexorder_le(a, b)))
    # demo arithmetic: halving, flooring-half, negated parity
    reg.register("d2", 1, _d2)
    reg.register("f2", 1, lambda x: ifix(x) // 2)
    reg.register("neg-m2", 1, lambda x: -(ifix(x) % 2))
    reg.register("round-to-even", 1, lambda x: ifix(x) - (ifix(x) % 2))
    # association-list surface ops; the rewriter intercepts these, evaluation
    # uses the plain logical meanings
    reg.register("hons-acons", 3, lambda k, v, l: Cons(Cons(k, v), l))
    reg.register("hons-get", 2, _assoc_equal)
    reg.register("fast-alist-free", 1, lambda l: l)
    # iassoc stays unregistered: benchmark-only constrained function
    return reg


# ---------------------------------------------------------------------------
# evaluation


def eval_term(t, env, registry):
    """Evaluate t under env.  rp/falist/hide are identities on their payload,
    if is lazy, list builds a cons chain.  Raises UnboundVariableError,
    UnknownFunctionError, or EvalDomainError."""
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise UnboundVariableError(t.name) from None
    if isinstance(t, Quote):
        return t.value
    if isinstance(t, App):
        head = t.head
        if head == "if":
            if len(t.args) != 3:
                raise EvalDomainError("if expects 3 arguments")
            test = eval_term(t.args[0], env, registry)
            branch = t.args[1] if not (isinstance(test, str) and test == NIL) else t.args[2]
            return eval_term(branch, env, registry)
        if head == "rp" or head == "falist":
            if len(t.args) != 2:
                raise EvalDomainError(f"{head} expects 2 arguments")
            return eval_term(t.args[1], env, registry)
        if head == "hide":
            if len(t.args) != 1:
                raise EvalDomainError("hide expects 1 argument")
            return eval_term(t.args[0], env, registry)
        if head == "list":
            out = NIL
            for a in reversed(t.args):
                out = Cons(eval_term(a, env, registry), out)
            return out
        args = [eval_term(a, env, registry) for a in t.args]
        return registry.call(head, args)
    if isinstance(t, LambdaApp):
        args = [eval_term(a, env, registry) for a in t.args]
        inner = dict(env)
        inner.update(zip(t.params, args))
        return eval_term(t.body, inner, registry)
    raise TypeError(t)
