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

from .terms import NIL, T, Cons, Quote, Var, App, LambdaApp, truthy, values_equal


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
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        ra, rb = _rank(a), _rank(b)
        if ra != rb:
            return -1 if ra < rb else 1
        if ra in (2, 3) and a != b:
            return -1 if a < b else 1
        if ra == 4:
            stack.append((a.cdr, b.cdr))
            stack.append((a.car, b.car))
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

# heads evaluation treats itself, with their arities
_OWN_HEADS = {"if": 3, "rp": 2, "falist": 2, "hide": 1}


def eval_term(t, env, registry, wrappers=None):
    """Evaluate t under env.  rp/falist/hide are identities on their payload,
    if is lazy, list builds a cons chain.  Raises UnboundVariableError,
    UnknownFunctionError, or EvalDomainError.

    Given a list `wrappers`, each rp wrapper that evaluation reaches also
    applies its property to its payload's value.  The first to fail, in
    evaluation order (so an inner wrapper before an outer one), is appended
    as (path, property term, None), or with the EvalError that applying the
    property raised in place of None; later wrappers go unchecked.  A path
    holds 1-based argument positions; a lambda's body is position 0.

    Waiting applications sit on an explicit stack, so depth costs no
    recursion.
    """
    frames = []  # (node, its env, the values of its arguments so far)
    while True:
        # descend until t has a value
        cls = t.__class__
        if cls is Var:
            try:
                value = env[t.name]
            except KeyError:
                raise UnboundVariableError(t.name) from None
        elif cls is Quote:
            value = t.value
        elif cls is App:
            head = t.head
            args = t.args
            arity = _OWN_HEADS.get(head)
            if arity is not None and len(args) != arity:
                raise EvalDomainError(f"{head} expects {arity} argument{'s' if arity > 1 else ''}")
            if args:
                frames.append((t, env, []))
                t = args[1] if arity == 2 else args[0]
                continue
            value = NIL if head == "list" else registry.call(head, [])
        elif cls is LambdaApp:
            frames.append((t, env, []))
            t = t.args[0] if t.args else t.body
            continue
        else:
            raise TypeError(t)

        # hand the value up until a frame has more to evaluate
        while frames:
            node, env, vals = frames[-1]
            if node.__class__ is LambdaApp:
                vals.append(value)
                n = len(vals)
                if n <= len(node.args):
                    if n < len(node.args):
                        t = node.args[n]
                    else:
                        t = node.body
                        env = dict(env)
                        env.update(zip(node.params, vals))
                    break
                frames.pop()
                continue
            head = node.head
            arity = _OWN_HEADS.get(head)
            if arity is None:
                vals.append(value)
                n = len(vals)
                if n < len(node.args):
                    t = node.args[n]
                    break
                frames.pop()
                if head == "list":
                    value = NIL
                    for v in reversed(vals):
                        value = Cons(v, value)
                else:
                    value = registry.call(head, vals)
                continue
            if arity == 3 and not vals:
                # the test's value picks the branch, whose value is the if's
                vals.append(value)
                t = node.args[2 if isinstance(value, str) and value == NIL else 1]
                break
            frames.pop()
            if wrappers is not None and not wrappers and head == "rp" and node.args[0].__class__ is Quote:
                _check_wrapper(node, value, registry, frames, wrappers)
        else:
            return value


def _check_wrapper(node, value, registry, frames, wrappers):
    """Apply the property of rp node to its payload's value; on failure,
    append (path, property term, error or None) to wrappers, the path read
    off the frames of the applications waiting above the node."""
    prop = node.args[0].value
    error = None
    try:
        if truthy(registry.call(prop, [value])):
            return
    except EvalError as exc:
        error = exc
    path = []
    for parent, _env, vals in frames:
        if parent.__class__ is LambdaApp:
            path.append(len(vals) + 1 if len(vals) < len(parent.args) else 0)
        elif parent.head == "if":
            path.append(1 if not vals else 3 if isinstance(vals[0], str) and vals[0] == NIL else 2)
        else:
            path.append(2 if parent.head in ("rp", "falist") else len(vals) + 1)
    wrappers.append((tuple(path), App(prop, (node.args[1],)), error))
