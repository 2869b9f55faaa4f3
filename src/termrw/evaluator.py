"""Ground evaluation of terms over an environment and an executable registry.

The evaluator is the semantics oracle for the whole engine: rewriting is
correct exactly when it preserves eval_term over every environment binding
the free variables.  An environment is a plain dict from variable name to
value; no term binds a name (the reader expands let, let* and lambda
forms), so every node is evaluated under the environments given.
Function meanings live in an ExecRegistry; the same registry backs the
rewriter's executable-counterpart step.

Evaluation is batched: eval_terms walks a term once for a whole list of
environments, so the interpretive work of a node (its dispatch, its frame,
its registry lookup) is paid once per node per batch.  Each node applies
its function once too, as a column kernel: a function from its argument
columns, lists over the live environments, to its result column.  Each
builtin is written once, as one comprehension with its coercions inline;
a function given to ExecRegistry.register is mapped over the columns,
once per environment.  Only where a kernel raises does the node run again
one environment at a time, so each environment meets the error it would
alone.  eval_term is a batch of one, with a memo of its term's shared
nodes.  Only eval_terms checks rp wrappers: given a dict, it records each
environment's first failing wrapper, which validate's oracles report.

Terms may share nodes: the reader binds a let name to one node, and the
rewriter returns a subterm it leaves alone as the same object.  Calls over
one batch may share a memo keyed by node identity (shared_nodes), so that
a node reached again, in one term or in another, under the same live
environments is evaluated once: its column and the errors raised inside it
are replayed.  Only nodes with no rp wrapper inside are remembered, so
every wrapper is still checked where evaluation reaches it.
"""

from __future__ import annotations

from itertools import compress

from .terms import NIL, OWN_HEADS, T, App, Cons, Quote, Var, flat_path, is_rp, shared_apps, strip_rp_deep, truthy


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
    """-1, 0 or 1 as a is below, equal to or above b.  Two atoms, or an
    atom and a pair, are ranked at once.  Two pairs are walked depth first
    to the first difference, so a pair of conses met again has been found
    equal and is passed over."""
    paired = stack = None  # id of a cons entered -> its partner; pairs to come
    while True:
        if isinstance(a, Cons) and isinstance(b, Cons):
            if paired is None:
                paired, stack = {}, []
            if paired.get(id(a)) is not b:
                paired[id(a)] = b
                stack.append((a.cdr, b.cdr))
                a, b = a.car, b.car
                continue
        else:
            ra, rb = _rank(a), _rank(b)
            if ra != rb:
                return -1 if ra < rb else 1
            if a != b:
                return -1 if a < b else 1
        if not stack:
            return 0
        a, b = stack.pop()


def lexorder_le(a, b):
    return lexorder_cmp(a, b) <= 0


# ---------------------------------------------------------------------------
# registry


def _expects(name, arity):
    return f"{name} expects {arity} argument{'s' * (arity != 1)}"


class ExecRegistry:
    """Named ground evaluators, each with a fixed arity.  An entry is
    (arity, scalar, kernel): the scalar takes one environment's argument
    values, the kernel takes argument columns, lists over the environments
    live at a node, and returns the column of results."""

    def __init__(self):
        self._fns = {}

    def register(self, name, arity, fn):
        """Register fn, applied to arity argument values, under name, in
        place of any earlier entry.  Its kernel maps fn over the columns,
        one call per environment."""
        self._fns[name] = (arity, fn, lambda *cols: list(map(fn, *cols)))
        return self

    def _builtin(self, name, arity, kernel):
        # a builtin is written once, as its kernel; its scalar is the
        # kernel applied to columns of one
        self._fns[name] = (arity, lambda *row: kernel(*([v] for v in row))[0], kernel)

    def has(self, name):
        return name in self._fns

    def arity(self, name):
        return self._fns[name][0]

    def call(self, name, args):
        return self.fn(name, len(args))(*args)

    def _entry(self, name, nargs):
        entry = self._fns.get(name)
        if entry is None:
            raise UnknownFunctionError(name)
        if nargs != entry[0]:
            raise EvalDomainError(f"{_expects(name, entry[0])}, got {nargs}")
        return entry

    def fn(self, name, nargs):
        """The function registered for name, to be applied to nargs
        argument values."""
        return self._entry(name, nargs)[1]

    def kernel(self, name, nargs):
        """name's kernel, to be applied to nargs argument columns."""
        return self._entry(name, nargs)[2]

    def copy(self, names=None):
        """A registry of the entries of names, by default of all."""
        other = ExecRegistry()
        other._fns = dict(self._fns) if names is None else {name: self._fns[name] for name in names}
        return other


# the widest loghead or logapp size evaluated: 1 << size takes size/8 bytes
MAX_LOG_BITS = 1 << 20


def _bits(size):
    n = nfix(size)
    if n > MAX_LOG_BITS:
        raise EvalDomainError(f"a loghead or logapp size above {MAX_LOG_BITS} bits")
    return n


def _loghead(size, i):
    return ifix(i) % (1 << _bits(size))


def _d2(xs):
    # halving under an evenness guard: odd integers have no representable half
    xs = [x if isinstance(x, int) else 0 for x in xs]
    if any(x % 2 for x in xs):
        raise EvalDomainError("d2 applied to an odd integer")
    return [x // 2 for x in xs]


def _assoc_equal(key, alist):
    while isinstance(alist, Cons):
        pair = alist.car
        if isinstance(pair, Cons) and pair.car == key:
            return pair
        alist = alist.cdr
    return NIL


def _logand(xs, ys):
    return [a & b if isinstance(a, int) and isinstance(b, int) else 0 for a, b in zip(xs, ys)]


def _build_default_registry():
    # Each kernel inlines its coercions: ifix makes a non-integer 0, and
    # nil is the one false value.
    reg = ExecRegistry()
    builtin = reg._builtin
    builtin("cons", 2, lambda xs, ys: list(map(Cons, xs, ys)))
    builtin("car", 1, lambda xs: [v.car if isinstance(v, Cons) else NIL for v in xs])
    builtin("cdr", 1, lambda xs: [v.cdr if isinstance(v, Cons) else NIL for v in xs])
    builtin("consp", 1, lambda xs: [T if isinstance(v, Cons) else NIL for v in xs])
    builtin("atom", 1, lambda xs: [NIL if isinstance(v, Cons) else T for v in xs])
    builtin("equal", 2, lambda xs, ys: [T if a == b else NIL for a, b in zip(xs, ys)])
    builtin("not", 1, lambda xs: [T if isinstance(v, str) and v == NIL else NIL for v in xs])
    builtin("integerp", 1, lambda xs: [T if isinstance(v, int) else NIL for v in xs])
    builtin("bitp", 1, lambda xs: [T if isinstance(v, int) and v in (0, 1) else NIL for v in xs])
    builtin("evenp", 1, lambda xs: [NIL if isinstance(v, int) and v % 2 else T for v in xs])
    builtin("binary-+", 2, lambda xs, ys: [
        (a if isinstance(a, int) else 0) + (b if isinstance(b, int) else 0) for a, b in zip(xs, ys)])
    builtin("unary--", 1, lambda xs: [-a if isinstance(a, int) else 0 for a in xs])
    builtin("binary-logand", 2, _logand)
    builtin("4vec-bitand", 2, _logand)
    # a zero divisor: floor is 0, mod its dividend
    builtin("floor", 2, lambda xs, ys: [
        a // b if isinstance(a, int) and isinstance(b, int) and b else 0 for a, b in zip(xs, ys)])
    builtin("mod", 2, lambda xs, ys: [
        (a % b if isinstance(b, int) and b else a) if isinstance(a, int) else 0 for a, b in zip(xs, ys)])
    builtin("loghead", 2, lambda ss, xs: list(map(_loghead, ss, xs)))
    builtin("logapp", 3, lambda ss, xs, ys: [_loghead(s, i) + (ifix(j) << _bits(s)) for s, i, j in zip(ss, xs, ys)])
    # two integers are ranked alike and compared as numbers, bools too
    builtin("lexorder", 2, lambda xs, ys: [
        T if (a <= b if isinstance(a, int) and isinstance(b, int) else lexorder_cmp(a, b) <= 0) else NIL
        for a, b in zip(xs, ys)])
    # demo arithmetic: halving, flooring-half, negated parity
    builtin("d2", 1, _d2)
    builtin("f2", 1, lambda xs: [x // 2 if isinstance(x, int) else 0 for x in xs])
    builtin("neg-m2", 1, lambda xs: [-(x % 2) if isinstance(x, int) else 0 for x in xs])
    builtin("round-to-even", 1, lambda xs: [x - x % 2 if isinstance(x, int) else 0 for x in xs])
    # association-list surface ops; the rewriter intercepts these, evaluation
    # uses the plain logical meanings
    builtin("hons-acons", 3, lambda ks, vs, ls: [Cons(Cons(k, v), l) for k, v, l in zip(ks, vs, ls)])
    builtin("hons-get", 2, lambda ks, ls: list(map(_assoc_equal, ks, ls)))
    builtin("fast-alist-free", 1, list)
    # iassoc stays unregistered: benchmark-only constrained function
    return reg


_DEFAULT = _build_default_registry()


def default_registry():
    """A fresh copy of the registry of the executable suite the shipped rule files rely on."""
    return _DEFAULT.copy()


# ---------------------------------------------------------------------------
# evaluation

def eval_term(t, env, registry, shared=None):
    """Evaluate t under env.  rp/falist/hide are identities on their payload,
    if is lazy, list builds a cons chain.  Raises UnboundVariableError,
    UnknownFunctionError, or EvalDomainError.  A batch of one environment,
    with a memo of t's shared nodes, so that a shared term costs its
    distinct nodes: see eval_terms.  shared is shared_nodes((t,)), walked
    here unless a caller that evaluates t often has kept it."""
    memo = dict.fromkeys(shared_nodes((t,)) if shared is None else shared)
    values, errors = eval_terms(t, (env,), registry, memo=memo)
    if errors:
        raise errors[0]
    return values[0]


def shared_nodes(terms, nodes=None):
    """The ids of the applications reached more than once from terms (see
    terms.shared_apps) that have arguments and hold no rp wrapper: the
    nodes an eval_terms memo remembers.  nodes is postorder(*terms), walked
    here unless the caller has walked it."""
    return {i for i, u in shared_apps(terms, nodes).items() if u.args and strip_rp_deep(u) is u}


def eval_terms(t, envs, registry, wrappers=None, live=None, memo=None):
    """Evaluate t under envs[i] for each position i of live (by default,
    every environment) in one walk over t.

    Returns (values, errors), two dicts that split live: errors maps each
    position whose evaluation raised an EvalError to the first one it
    raised, and values maps every other position to t's value there.

    Each node is visited once per batch.  It computes a column: its values
    over the environments still live at it, in order.  An environment that
    raises drops out of every later node, and an if splits its live
    environments by their test's values, so each takes only its own
    branch.  Every environment thus meets the nodes, in the order, that
    evaluating t under it alone would, and raises the same first error.

    Given a dict `wrappers`, each rp wrapper that an environment's
    evaluation reaches also applies its property to its payload's value.
    wrappers[i] holds environment i's first failure in evaluation order (so
    an inner wrapper before an outer one): (path, property term, None), or
    with the EvalError that applying the property raised in place of None.
    Later wrappers, and an environment already in wrappers, go unchecked.
    A path is as flat_path gives it; a node's path is passed as linked
    pairs and flattened only when a wrapper fails.

    Given a dict `memo` keyed by ids from shared_nodes, calls over one
    envs that pass it evaluate each such node once per live list: a node
    that finishes stores (node, its starting live list, its final live
    list, its column, the errors raised inside it) under its id, and a
    later visit with an equal starting live list, in this call or another,
    takes that column and those errors instead of walking the node again.
    The entry holds the node so that its id names no other object while
    the memo lives.  A remembered node holds no wrapper, so no wrapper
    check is skipped.

    Waiting nodes sit on an explicit stack, so depth costs no recursion.
    """
    errors = {}
    # [node, its path, the envs live at it, its argument columns so far],
    # or [node, None, the envs live at it, None] below a node to remember
    frames = []
    live = list(range(len(envs)) if live is None else live)
    path = ()
    while True:
        # descend until t has a column
        cls = t.__class__
        if not live:
            col = []
        elif cls is Var:
            name = t.name
            try:
                col = [envs[i][name] for i in live]
            except KeyError:
                live, col = _each(_lookup, live, ([envs[i] for i in live], [name] * len(live)), errors)
        elif cls is Quote:
            col = [t.value] * len(live)
        elif cls is App:
            head = t.head
            args = t.args
            arity = OWN_HEADS.get(head)
            entry = memo.get(id(t), _NO_ENTRY) if memo else _NO_ENTRY
            if arity is not None and len(args) != arity:
                exc = EvalDomainError(_expects(head, arity))
                errors.update(dict.fromkeys(live, exc))
                live = col = []
            elif entry is not _NO_ENTRY and entry is not None and entry[1] == live:
                _node, _start, live, col, raised = entry
                errors.update(raised)
            elif args:
                if entry is not _NO_ENTRY:
                    frames.append([t, None, live, None])
                frames.append([t, path, live, []])
                k = 1 if arity == 2 else 0
                t = args[k]
                path = (path, k + 1)
                continue
            elif head == "list":
                col = [NIL] * len(live)
            else:
                live, col = _call(registry, head, live, [], errors)
        else:
            raise TypeError(t)

        # hand the column up until a frame has more to evaluate
        while frames:
            frame = frames[-1]
            node, node_path, node_live, cols = frame
            if cols is None:
                frames.pop()
                raised = {} if len(live) == len(node_live) else {i: errors[i] for i in set(node_live).difference(live)}
                memo[id(node)] = (node, node_live, live, col, raised)
                continue
            head = node.head
            arity = OWN_HEADS.get(head)
            if arity is None:
                n = len(node.args)
                if len(live) < len(node_live):
                    cols[:] = _keep(node_live, live, cols)
                    frame[2] = live
                cols.append(col)
                if len(cols) < n:
                    t = node.args[len(cols)]
                    path = (node_path, len(cols) + 1)
                    break
                frames.pop()
                if head == "list":
                    col = [NIL] * len(live)
                    for c in reversed(cols):
                        col = list(map(Cons, c, col))
                    continue
                live, col = _call(registry, head, live, cols, errors)
                continue
            if arity == 3:
                if not cols:
                    # the test's column splits the live envs between the branches
                    then_live = [i for i, v in zip(live, col) if not (isinstance(v, str) and v == NIL)]
                    else_live = [i for i, v in zip(live, col) if isinstance(v, str) and v == NIL]
                    if then_live and else_live:
                        cols += [live, {}, else_live]
                        live = then_live
                        t = node.args[1]
                        path = (node_path, 2)
                    else:
                        # one branch takes every env: its column is the if's
                        frames.pop()
                        live = then_live or else_live
                        k = 2 if then_live else 3
                        t = node.args[k - 1]
                        path = (node_path, k)
                    break
                test_live, merged, else_live = cols
                merged.update(zip(live, col))
                if else_live is not None:
                    cols[2] = None
                    live = else_live
                    t = node.args[2]
                    path = (node_path, 3)
                    break
                frames.pop()
                live = [i for i in test_live if i in merged]
                col = [merged[i] for i in live]
                continue
            frames.pop()
            if wrappers is not None and is_rp(node):
                _check_wrappers(node, node_path, live, col, registry, wrappers)
        else:
            return dict(zip(live, col)), errors


# memo.get's default for a node that is not remembered
_NO_ENTRY = object()


def _lookup(env, name):
    try:
        return env[name]
    except KeyError:
        raise UnboundVariableError(name) from None


def _each(fn, live, cols, errors):
    """fn applied to each row of cols, columns of argument values over the
    envs of live, one env at a time: (live, column), without the envs where
    fn raised an EvalError, which errors records.  A recorded error drops
    its traceback, whose frames would hold errors in a reference cycle."""
    kept, out = [], []
    for i, row in zip(live, zip(*cols)):
        try:
            out.append(fn(*row))
        except EvalError as exc:
            errors[i] = exc.with_traceback(None)
        else:
            kept.append(i)
    return kept, out


def _call(registry, head, live, cols, errors):
    """head's registered function applied across cols, as in _each: its
    kernel once over the whole columns, or, where that raises, its scalar
    one env at a time, so the same envs drop out with the same errors."""
    n = len(cols)
    try:
        kernel = registry.kernel(head, n)
    except EvalError as exc:
        errors.update(dict.fromkeys(live, exc.with_traceback(None)))
        return [], []
    if n:
        try:
            return live, kernel(*cols)
        except EvalError:
            pass
    # a nullary function, which has no column to size its result, or a
    # kernel that raised: one env at a time, outside the handler, so that
    # no recorded error holds the kernel's as its context
    fn = registry.fn(head, n)
    return _each(fn if n else lambda _i: fn(), live, cols or [live], errors)


def _keep(live, kept, cols):
    """cols, columns over the envs of live, cut down to those of kept."""
    kept = set(kept)
    mask = [i in kept for i in live]
    return [list(compress(c, mask)) for c in cols]


def _check_wrappers(node, path, live, col, registry, wrappers):
    """Apply the property of rp node to each payload value of col; record
    (path, property term, error or None) for each env that fails it and
    has no failure in wrappers yet."""
    if wrappers:
        pairs = [(i, v) for i, v in zip(live, col) if i not in wrappers]
        live = [i for i, _v in pairs]
        col = [v for _i, v in pairs]
    prop = node.args[0].value
    failed = {}
    kept, holds = _call(registry, prop, live, [col], failed)
    failed.update((i, None) for i, h in zip(kept, holds) if not truthy(h))
    if failed:
        where = flat_path(path), App(prop, (node.args[1],))
        for i, error in failed.items():
            wrappers[i] = (*where, error)
