"""Term language core: values, terms, the engine's own heads, the shape of
a falist term, printing, and syntax checks.  Reading is in reader.py.

Values are the ground s-expression universe: unbounded integers, symbols
(plain Python strings, with ``nil`` doubling as false and the empty list),
and pairs.  Terms are the syntax the rewriter works on: variables, quoted
constants, and function applications.  The reader expands each ``let``,
``let*`` and applied ``lambda`` form into its body as it reads it, so no
term holds a binder and substitution cannot capture.  Terms and values may
share nodes; the walks that give one result per node go through postorder,
so they cost a shared term's distinct nodes, not its tree.  Equality, ==
on terms and values and terms_equal_mod_rp, which looks through rp
wrappers, compares each pair of nodes once, so two separately built copies
of a shared term cost their distinct pairs of nodes.  An App or a Cons
computes its hash when something first asks for it and keeps it, as most
nodes are built and dropped without ever being hashed.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from itertools import chain
from types import GeneratorType

NIL = "nil"
T = "t"

# The heads the evaluator and the rewriter interpret themselves, with their arities.
OWN_HEADS = {"if": 3, "rp": 2, "falist": 2, "hide": 1}

# Heads with fixed engine-level meaning.  Rewrite rules may not target them.
SPECIAL_HEADS = frozenset({*OWN_HEADS, "quote", "list", "synp", "syntaxp"})


def trampoline(step):
    """Run a computation written in trampolined style (Ganz, Friedman and
    Wand, ICFP 1999) and return its value.

    A step is a finished value or a generator.  A generator yields the step
    of each call it makes and is sent back that call's value, or has its
    exception thrown in.  What it returns is its own value, unless that is
    a generator: then it is a tail call, run in the returning one's place.
    Generators waiting on a call sit on a list, so a walk's depth costs
    heap, not Python stack.
    """
    if step.__class__ is not GeneratorType:
        return step
    waiting = []
    gen = step
    value = error = None
    while True:
        try:
            if error is None:
                step = gen.send(value)
            else:
                thrown, error = error, None
                step = gen.throw(thrown)
        except StopIteration as stop:
            value = stop.value
            if value.__class__ is GeneratorType:
                gen = value
                value = None
            elif waiting:
                gen = waiting.pop()
            else:
                return value
            continue
        except BaseException as exc:
            if not waiting:
                raise
            error = exc
            gen = waiting.pop()
            continue
        if step.__class__ is GeneratorType:
            waiting.append(gen)
            gen = step
            value = None
        else:
            value = step


# ---------------------------------------------------------------------------
# values


class Cons:
    """A pair of values; proper lists are cons chains ending in nil.  Its
    hash is computed when first asked for and kept (see _node_hash)."""

    __slots__ = ("car", "cdr", "_hash")

    def __init__(self, car, cdr):
        self.car = car
        self.cdr = cdr
        self._hash = None

    def __reduce__(self):
        return _unflatten, (_flatten(self),)

    def __deepcopy__(self, memo):
        return self  # immutable

    def __hash__(self):
        h = self._hash
        return _node_hash(self) if h is None else h

    def __eq__(self, other):
        return self is other or _equal(self, other)

    def __repr__(self):
        return _bounded_repr(self, format_value)


class _FalistLog:
    """Append-only binding log shared by one line of falist versions.

    ``pairs`` holds the (key value, value term) bindings oldest first, and
    ``positions`` maps each key to the ascending positions of its bindings.
    Appending never changes what an existing prefix holds.
    """

    __slots__ = ("pairs", "positions", "lock")

    def __init__(self, pairs=()):
        self.pairs = []
        self.positions = {}
        self.lock = threading.Lock()
        for key, val in pairs:
            self.append(key, val)

    def append(self, key, val):
        n = len(self.pairs)
        self.pairs.append((key, val))
        positions = self.positions.get(key)
        if positions is None:
            # one store, so a concurrent get never finds an empty list
            self.positions[key] = [n]
        else:
            positions.append(n)


class FalistShadow:
    """Lookup table stored inside the quoted first argument of a falist term.

    A version of a fast alist: the first ``size`` bindings of a log shared
    with every version it was extended from or to.  Built from (key value,
    value term) pairs in list order, newest first, as logical_entries
    decodes them from the chain it shadows; on duplicate keys the newest
    binding wins, mirroring lookup in that chain.
    """

    __slots__ = ("log", "size")

    def __init__(self, entries=()):
        self.log = _FalistLog(reversed(tuple(entries)))
        self.size = len(self.log.pairs)

    def __reduce__(self):
        # a copy gets a log of its own: the log's lock cannot be pickled
        return FalistShadow, (self.entries,)

    @classmethod
    def _version(cls, log, size):
        self = cls.__new__(cls)
        self.log = log
        self.size = size
        return self

    def extend(self, key, val):
        """This version with a newest binding of key to val.  O(1) on the
        newest version of its line; an older version forks a fresh log
        holding a copy of its own bindings."""
        log = self.log
        with log.lock:
            if len(log.pairs) != self.size:
                # the fork is private until this returns, so needs no lock
                log = _FalistLog(log.pairs[: self.size])
            log.append(key, val)
        return FalistShadow._version(log, self.size + 1)

    def get(self, key):
        """The value term of key's newest binding in this version, or None."""
        positions = self.log.positions.get(key)
        if positions is None:
            return None
        i = positions[-1]
        if i >= self.size:
            k = bisect_left(positions, self.size)
            if k == 0:
                return None
            i = positions[k - 1]
        return self.log.pairs[i][1]

    @property
    def entries(self):
        """The bindings as a tuple, newest first."""
        return tuple(reversed(self.log.pairs[: self.size]))

    def __hash__(self):
        # by size alone: the falist term around a shadow hashes its chain,
        # which holds the same bindings
        return self.size ^ 0x51AD0

    def __eq__(self, other):
        if not isinstance(other, FalistShadow) or other.size != self.size:
            return False
        return other.log is self.log or other.log.pairs[: other.size] == self.log.pairs[: self.size]

    def __repr__(self):
        return format_value(self)


def truthy(value):
    """Everything except the symbol nil is true."""
    return not (isinstance(value, str) and value == NIL)


def is_name(v):
    """Whether v is a plain name, of a variable, binder or declaration: a
    symbol other than the constants nil and t."""
    return isinstance(v, str) and v not in (NIL, T)


# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = ()

    def __repr__(self):
        return _bounded_repr(self, format_term)

    def __eq__(self, other):
        return self is other or _equal(self, other)

    def __deepcopy__(self, memo):
        return self  # immutable


class Var(Term):
    __slots__ = ("name", "_hash")

    def __init__(self, name):
        self.name = name
        self._hash = hash(name) ^ 0x564152

    def __reduce__(self):
        return Var, (self.name,)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (isinstance(other, Var) and other.name == self.name)


class Quote(Term):
    __slots__ = ("value", "_hash")

    def __init__(self, value):
        self.value = value
        self._hash = hash(value) ^ 0x51554F

    def __reduce__(self):
        return Quote, (self.value,)

    def __hash__(self):
        return self._hash


# App._stripped of a node with no rp wrapper inside: the node itself.  A
# sentinel, not a self-reference, so that no App is a reference cycle.
_SAME = object()


class App(Term):
    """A function application.  Two caches start as None and are filled
    when first asked for: ``_hash``, the node's hash (see _node_hash), and
    ``_stripped``, its wrapper-free form (see strip_rp_deep), _SAME or the
    stripped node."""

    __slots__ = ("head", "args", "_hash", "_stripped")

    def __init__(self, head, args):
        self.head = head
        self.args = tuple(args)
        self._hash = None
        self._stripped = None

    def __reduce__(self):
        # a copy starts with empty caches, as a copied _SAME is not _SAME
        return _unflatten, (_flatten(self),)

    def __hash__(self):
        h = self._hash
        return _node_hash(self) if h is None else h


def _node_hash(t):
    """The hash of t, an App or a Cons, after computing and keeping the
    hash of every App and Cons below it that has none yet, parts first,
    from an explicit stack.  The write is idempotent: threads racing on
    one node at worst compute equal hashes."""
    stack = [t]
    while stack:
        u = stack[-1]
        if u._hash is not None:
            stack.pop()
            continue
        cls = u.__class__
        parts = u.args if cls is App else (u.car, u.cdr)
        pending = [p for p in parts if (p.__class__ is App or p.__class__ is Cons) and p._hash is None]
        if pending:
            stack += pending
            continue
        stack.pop()
        if cls is App:
            h = hash(u.head) ^ 0x415050
            for a in parts:
                h = (h * 1000003 ^ a._hash) & 0x7FFFFFFFFFFFFFFF
        else:
            h = (hash(u.car) * 1000003 ^ hash(u.cdr) * 8191 ^ 0x436F) & 0x7FFFFFFFFFFFFFFF
        u._hash = h
    return t._hash


# Both equality walks pass over a pair of nodes met again: each walk is
# depth first and stops at its first difference, so a pair it entered
# before has been found equal.


def _equal(a, b):
    """Whether a and b, two terms or two values, are equal.  App, Quote
    and Cons compare by hash first, so an App or Cons is hashed at most
    once and a pair that differs deep down is told apart in O(1) after
    that; an atom or a FalistShadow compares by its ==."""
    paired = {}  # id of an App or Cons entered -> its partner
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        cls = x.__class__
        if cls is not y.__class__:
            return False
        if cls is App:
            if hash(x) != hash(y) or x.head != y.head or len(x.args) != len(y.args):
                return False
            if paired.get(id(x)) is not y:
                paired[id(x)] = y
                stack.extend(zip(x.args, y.args))
        elif cls is Var:
            if x.name != y.name:
                return False
        elif cls is Cons:
            if hash(x) != hash(y):
                return False
            if paired.get(id(x)) is not y:
                paired[id(x)] = y
                stack.append((x.cdr, y.cdr))
                stack.append((x.car, y.car))
        elif cls is Quote:
            if x._hash != y._hash:
                return False
            stack.append((x.value, y.value))
        elif x != y:
            return False
    return True


def terms_equal_mod_rp(a, b):
    """strip_rp_deep(a) == strip_rp_deep(b), in one walk that looks through
    rp wrappers and builds neither stripped form.  A variable or quoted
    argument is compared where it is met with a partner of its class; any
    other pair of arguments is pushed, so a wrapped partner is peeled."""
    paired = {}  # id of an App entered -> its partner
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        # is_rp, inlined: this walk runs for every repeated pattern variable
        while x.__class__ is App and x.head == "rp" and len(x.args) == 2 and x.args[0].__class__ is Quote:
            x = x.args[1]
        while y.__class__ is App and y.head == "rp" and len(y.args) == 2 and y.args[0].__class__ is Quote:
            y = y.args[1]
        if x is y:
            continue
        cls = x.__class__
        if cls is not y.__class__:
            return False
        if cls is App:
            if x.head != y.head or len(x.args) != len(y.args):
                return False
            if paired.get(id(x)) is not y:
                paired[id(x)] = y
                for p, q in zip(x.args, y.args):
                    c = p.__class__
                    if c is not q.__class__ or c is App:
                        stack.append((p, q))
                    elif c is Var:
                        if p.name != q.name:
                            return False
                    elif p is not q and (c is not Quote or p._hash != q._hash or p.value != q.value):
                        return False
        elif cls is Var:
            if x.name != y.name:
                return False
        elif cls is not Quote or x._hash != y._hash or x.value != y.value:
            return False
    return True


# ---------------------------------------------------------------------------
# distinct-node walks


def postorder(*roots):
    """The distinct nodes reachable from roots, each once by identity,
    leaves included: each App or Cons after its parts (an App's arguments,
    a Cons's car and cdr), which are walked left to right.  A shared term
    costs its distinct nodes, not its tree, and its depth costs no Python
    stack."""
    order, seen = [], set()
    parents, waiting = [], []  # the nodes being walked, and the parts each interrupted
    parts = iter(roots)
    while True:
        for u in parts:
            if id(u) in seen:
                continue
            seen.add(id(u))
            cls = u.__class__
            if cls is App or cls is Cons:
                parents.append(u)
                waiting.append(parts)
                parts = iter(u.args if cls is App else (u.car, u.cdr))
                break
            order.append(u)
        else:
            if not parents:
                return order
            order.append(parents.pop())
            parts = waiting.pop()


def shared_apps(roots, nodes=None):
    """{id: node} of the applications, nullary ones included, reached more
    than once from roots: each root counts as reached once, and each
    argument once per position of each distinct application it fills.
    nodes is postorder(*roots), walked here unless the caller has."""
    if nodes is None:
        nodes = postorder(*roots)
    reached, shared = set(), {}
    for u in chain(roots, *[u.args for u in nodes if u.__class__ is App]):
        if u.__class__ is App:
            if id(u) in reached:
                shared[id(u)] = u
            else:
                reached.add(id(u))
    return shared


# ---------------------------------------------------------------------------
# pickling and copying


def _flatten(root):
    """root as a flat table, so pickle and copy never recurse on its
    depth: its distinct nodes in postorder, each Cons or App as (class,
    head, positions of its parts in the table) and any other node as
    itself.  A shared node is listed once."""
    table = postorder(root)
    index = {id(u): i for i, u in enumerate(table)}
    for i, u in enumerate(table):
        if u.__class__ is App:
            table[i] = (App, u.head, tuple([index[id(a)] for a in u.args]))
        elif u.__class__ is Cons:
            table[i] = (Cons, None, (index[id(u.car)], index[id(u.cdr)]))
    return table


def _unflatten(table):
    """The node a _flatten table lists last, rebuilt by its constructors,
    so every salted str hash is recomputed in the loading process."""
    nodes = []
    for entry in table:
        if entry.__class__ is tuple:
            cls, extra, positions = entry
            parts = [nodes[i] for i in positions]
            entry = App(extra, parts) if cls is App else Cons(*parts)
        nodes.append(entry)
    return nodes[-1]


NIL_TERM = Quote(NIL)
T_TERM = Quote(T)


def mk_rp(prop, term):
    return App("rp", (Quote(prop), term))


def is_rp(t):
    """Whether t is an rp wrapper: a 2-argument rp whose first argument is
    quoted.  Any other rp is no wrapper, only the identity on its payload."""
    return t.__class__ is App and t.head == "rp" and len(t.args) == 2 and t.args[0].__class__ is Quote


def is_falist(t):
    return isinstance(t, App) and t.head == "falist" and len(t.args) == 2


def logical_entries(t):
    """Decode an alist chain term into its (key, value-term) pairs, newest
    first, or None when t is not such a chain.

    The one decoder of alist chains: every shadow is built from what it
    returns.  A falist term reads as its logical part, a cons or hons-acons
    application with a quoted key adds a binding, and a quoted proper alist
    ends the chain, each of its pairs a binding to a quoted value.
    """
    entries = []
    while True:
        if isinstance(t, Quote):
            value = t.value
            while isinstance(value, Cons) and isinstance(value.car, Cons):
                entries.append((value.car.car, Quote(value.car.cdr)))
                value = value.cdr
            return entries if isinstance(value, str) and value == NIL else None
        if is_falist(t):
            t = t.args[1]
        elif isinstance(t, App) and t.head == "cons" and len(t.args) == 2:
            pair = t.args[0]
            if isinstance(pair, App) and pair.head == "cons" and len(pair.args) == 2 and isinstance(pair.args[0], Quote):
                entries.append((pair.args[0].value, pair.args[1]))
            elif isinstance(pair, Quote) and isinstance(pair.value, Cons):
                entries.append((pair.value.car, Quote(pair.value.cdr)))
            else:
                return None
            t = t.args[1]
        elif isinstance(t, App) and t.head == "hons-acons" and len(t.args) == 3 and isinstance(t.args[0], Quote):
            entries.append((t.args[0].value, t.args[1]))
            t = t.args[2]
        else:
            return None


def falist_shadow(t):
    """The FalistShadow of a falist term, or None."""
    if is_falist(t) and isinstance(t.args[0], Quote) and isinstance(t.args[0].value, FalistShadow):
        return t.args[0].value
    return None


def check_falist_term(t, path=()):
    """Coherence check: shadow entries must mirror the logical chain exactly."""
    if not (isinstance(t, App) and t.head == "falist"):
        return [(path, "not a falist term")]
    if len(t.args) != 2:
        return [(path, "falist must have exactly 2 arguments")]
    shadow = falist_shadow(t)
    if shadow is None:
        return [(path, "falist shadow must be a quoted association-list constant")]
    logical = logical_entries(t.args[1])
    if logical is None:
        return [(path, "falist logical part is not a quoted-key alist chain")]
    if len(logical) != len(shadow.entries):
        return [(path, "falist shadow and logical part differ in length")]
    pairs = enumerate(zip(shadow.entries, logical))
    return [(path, f"falist shadow entry {i} disagrees with the logical part") for i, (s, l) in pairs if s != l]


def strip_rp(t):
    """Remove top-level rp wrappers only."""
    while is_rp(t):
        t = t.args[1]
    return t


def has_wrapper(t, prop):
    """Whether prop names a wrapper of the rp wrapper chain on t."""
    while is_rp(t):
        if t.args[0].value == prop:
            return True
        t = t.args[1]
    return False


def strip_rp_deep(t):
    """Remove every rp wrapper in t, rebuilding only where needed.

    An App keeps its stripped form once computed, so stripping it again is
    O(1) and returns the same object, and two strips of one shared subterm
    compare equal by identity.  The cache write is idempotent: threads
    racing on one node at worst compute equal forms.
    """
    if t.__class__ is not App:
        return t
    s = t._stripped
    if s is not None:
        return t if s is _SAME else s
    # A node waits on `frames` with its args and their forms so far; an rp
    # waits with None, as its form is its payload's.
    frames = []
    u = t
    while True:
        if u.__class__ is App:
            s = u._stripped
            if s is None:
                if is_rp(u):
                    frames.append((u, None, None))
                    u = u.args[1]
                    continue
                if u.args:
                    frames.append((u, u.args, []))
                    u = u.args[0]
                    continue
                s = u._stripped = _SAME
            if s is _SAME:
                s = u
        else:
            s = u
        # s is u's form: hand it up until a frame has a part left
        while frames:
            node, parts, done = frames[-1]
            if parts is None:
                frames.pop()
                node._stripped = s
                continue
            done.append(s)
            if len(done) < len(parts):
                u = parts[len(done)]
                break
            frames.pop()
            if all(a is b for a, b in zip(done, parts)):
                node._stripped = _SAME
                s = node
            else:
                s = App(node.head, done)
                s._stripped = _SAME
                node._stripped = s
        else:
            return s


def node_count(t):
    """The size of t, a term or a value, as a tree, from each distinct
    node's size computed once."""
    sizes = {}
    for u in postorder(t):
        cls = u.__class__
        if cls is App:
            sizes[id(u)] = 1 + sum([sizes[id(a)] for a in u.args])
        else:
            sizes[id(u)] = 1 + sizes[id(u.car)] + sizes[id(u.cdr)] if cls is Cons else 1
    return sizes[id(t)]


def _bounded_repr(x, write):
    """write(x), or a summary when the term or value x has over 10,000 tree nodes."""
    size = node_count(x)
    if size <= 10_000:
        return write(x)
    first = x.head if x.__class__ is App else x.car
    return f"<({first if first.__class__ is str else '...'} ...): {len(postorder(x))} distinct nodes, {size} as a tree>"


# ---------------------------------------------------------------------------
# printer


def format_value(v):
    out = []
    trampoline(_write_value(v, out))
    return "".join(out)


def format_term(t):
    out = []
    trampoline(_write_term(t, out))
    return "".join(out)


# The writers append their text to `out` in order, so printing a term
# costs time linear in its text, whatever its depth.


def _write_value(v, out):
    if isinstance(v, int):
        out.append(str(v))
    elif isinstance(v, str):
        out.append(v)
    elif isinstance(v, FalistShadow):
        sep = "("
        for k, t in v.entries:
            out.append(sep + "(")
            yield _write_value(k, out)
            out.append(" . ")
            yield _write_term(t, out)
            out.append(")")
            sep = " "
        out.append(")" if v.size else "()")
    elif isinstance(v, Cons):
        if v.car == "quote" and isinstance(v.cdr, Cons) and v.cdr.cdr == NIL:
            out.append("'")
            yield _write_value(v.cdr.car, out)
            return
        sep = "("
        while isinstance(v, Cons):
            out.append(sep)
            yield _write_value(v.car, out)
            v = v.cdr
            sep = " "
        if v != NIL:
            out.append(" . ")
            yield _write_value(v, out)
        out.append(")")
    else:
        raise TypeError(v)


def _write_term(t, out):
    if isinstance(t, Var):
        out.append(t.name)
    elif isinstance(t, Quote):
        out.append("'")
        yield _write_value(t.value, out)
    elif isinstance(t, App):
        out.append("(" + t.head)
        for a in t.args:
            out.append(" ")
            yield _write_term(a, out)
        out.append(")")
    else:
        raise TypeError(t)


# ---------------------------------------------------------------------------
# syntax check


def rp_termp(t):
    """Well-formedness check for rewriter input; returns (path, message)
    violations, each path as flat_path gives it.

    Checks: leaves are variables with plain names (is_name) or quoted
    constants, rp wrappers take a quoted non-nil property symbol and
    exactly one payload, and falist shadows agree with their logical alist.
    """
    violations = []
    seen = set()  # the Apps checked: a shared node is checked at its first path in preorder
    stack = [(t, ())]
    while stack:
        u, path = stack.pop()
        if isinstance(u, Var):
            if not is_name(u.name):
                violations.append((flat_path(path), f"{u.name} cannot be a variable"))
        elif isinstance(u, App):
            if id(u) in seen:
                continue
            seen.add(id(u))
            if u.head == "rp":
                if len(u.args) != 2:
                    violations.append((flat_path(path), "rp must have exactly 2 arguments"))
                    continue
                prop = u.args[0]
                if not (isinstance(prop, Quote) and isinstance(prop.value, str) and prop.value != NIL):
                    violations.append((flat_path(path), "rp first argument must be a quoted non-nil symbol"))
                stack.append((u.args[1], (path, 2)))
            elif u.head == "falist":
                violations.extend(check_falist_term(u, flat_path(path)))
                if len(u.args) == 2:
                    stack.append((u.args[1], (path, 2)))
            else:
                stack += [(u.args[i - 1], (path, i)) for i in range(len(u.args), 0, -1)]
        elif not isinstance(u, Quote):
            violations.append((flat_path(path), f"not a term: {u!r}"))
    return violations


def flat_path(path):
    """The argument positions from the root to a node, as a tuple, each
    numbered from 1: the one convention of every path the package reports.
    A walk passes a path as linked pairs (parent path, position) ending in
    (), so descending costs O(1) whatever the depth."""
    out = []
    while path:
        path, i = path
        out.append(i)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# dont-rw guards
#
# A guard marks the parts of a term the rewriter leaves as they are: STOP
# leaves the whole term, OPEN rewrites it, and a tuple holds the head's
# guard and then one guard per argument.  A tuple that does not fit its
# term's arguments rewrites them all.

STOP = True
OPEN = False


class Shared(tuple):
    """The tuple guard of an application a rule template reaches more than
    once: the rewriter rewrites its instance once per context."""

    __slots__ = ()

    def __repr__(self):
        # one line: a Shared guard may hold itself many times over
        return f"Shared(<{len(self)} guards>)"


def arg_dont_rws(dw, nargs):
    """Per-argument guards; malformed shapes degrade to rewrite-all."""
    if (dw.__class__ is tuple or dw.__class__ is Shared) and len(dw) == nargs + 1:
        return dw[1:]
    return (OPEN,) * nargs


# ---------------------------------------------------------------------------
# substitution


def substitute(t, sub):
    """t with each variable that sub names replaced by its term.  No term
    binds a name, so nothing can be captured.  The App being rebuilt is
    kept in locals (node, its new arguments so far, an iterator over the
    rest), and the Apps around it wait on a stack; t is the one argument of
    a root with no node.  A leaf argument is added at once.  Each App
    finished is kept by id, so a shared term costs its distinct nodes and
    its result shares what it shares."""
    memo = {}
    stack = []
    node, done, rest = None, [], iter((t,))
    while True:
        for u in rest:
            cls = u.__class__
            if cls is Var:
                done.append(sub.get(u.name, u))
            elif cls is Quote:
                done.append(u)
            elif cls is not App:
                raise TypeError(u)
            else:
                s = memo.get(id(u))
                if s is None:
                    stack.append((node, done, rest))
                    node, done, rest = u, [], iter(u.args)
                    break
                done.append(s)
        else:
            if node is None:
                return done[0]
            s = memo[id(node)] = App(node.head, done)
            node, done, rest = stack.pop()
            done.append(s)


# perfbench names and wraps terms.parse_term, so the reader's entry point is
# re-exported here.  The import comes last because reader imports terms:
# every name it takes from terms must already be defined when this runs.
from .reader import parse_term  # noqa: E402
