"""Term language core: values, terms, reading, printing, and syntax checks.

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

import re
import threading
from bisect import bisect_left
from itertools import islice
from types import GeneratorType

NIL = "nil"
T = "t"

# Heads with fixed engine-level meaning.  Rewrite rules may not target them.
SPECIAL_HEADS = frozenset({"rp", "falist", "if", "quote", "hide", "list", "synp", "syntaxp"})


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


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
    value term) pairs in list order, newest first, as falist.logical_entries
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
    rp wrappers and builds neither stripped form."""
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
                stack.extend(zip(x.args, y.args))
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


def free_vars(t):
    """The variable names of a term."""
    return {u.name for u in postorder(t) if u.__class__ is Var}


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


def contains_head(t, head):
    return any(u.__class__ is App and u.head == head for u in postorder(t))


# ---------------------------------------------------------------------------
# reader


# Whitespace is space, tab, CR, LF and form feed, and ';' starts a comment
# that runs to the end of its line.  Any other run of characters but
# '(', ')' and "'" is an atom, so an atom never holds ';' and every ';'
# starts a comment.
_COMMENT = re.compile(r";[^\n]*")
_WHITESPACE = str.maketrans("\t\r\n\f", "    ")
# One token per match, after any whitespace and comments, as its group: an
# atom with any "'" right before it, '(', ')' or "'" alone, or "" at the
# end of the text, as _tokens splits it.  Compiled when a fault is first
# placed, not at import.
_TOKEN_AT = r"[ \t\r\n\f]*(?:;[^\n]*[ \t\r\n\f]*)*('?[^ \t\r\n\f()';]+|[()']|\Z)"
_PUNCT = frozenset("()'.")
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_INT_START = frozenset("+-0123456789")


def _tokens(text):
    """The tokens of text, then "" for its end: '(', ')', "'", '.', or an
    atom, with a "'" just before an atom glued to it, as in 'k123.  A
    lone '.' is punctuation; a dot inside a longer run is part of an atom.
    The split is on ' ' only, never bare split(), which would also split on
    characters such as '\\x0b' and '\\xa0' that are atom characters."""
    if ";" in text:
        text = _COMMENT.sub(" ", text)
    text = text.replace("(", " ( ").replace(")", " ) ").replace("'", " '").translate(_WHITESPACE)
    tokens = list(filter(None, text.split(" ")))
    tokens.append("")
    return tokens


def _parse_error(text, pos, message):
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _token_start(text, index):
    """Where the index-th token of text starts, found by scanning for it
    again; the end of the text counts as a token."""
    return next(islice(re.finditer(_TOKEN_AT, text), index, None)).start(1)


def _token_error(text, index, message):
    """The ParseError for a fault at the index-th token of text."""
    return _parse_error(text, _token_start(text, index), message)


# The mode of an open '(' form (see _read).
_VALUE = 0  # a list value, read where a value is wanted
_ARGS = 2  # a plain application: a symbol head, then argument terms
_FORM = 3  # any other term, read whole as a value for term_from_value
# A "'" frame read where a term is wanted; any other "'" or "." frame is _VALUE.
_QUOTE_TERM = 4

# Heads whose forms term_from_value converts, so that it alone checks them:
# its special forms, and heads that are not plain symbols.
_FORM_HEADS = frozenset({NIL, T, "lambda", "quote", "let", "let*", "falist"})
# Tokens after a '(' that make no plain application head, besides
# punctuation, glued quotes and integers: the form heads, a dot and the end.
_NOT_HEADS = _FORM_HEADS | {".", ""}


def _read(text, terms, one):
    """The s-expressions of text, as values, or as terms when terms is true:
    a list of them, or with one true only the first, and then a fault
    unless the text ends there.

    _tokens splits the text with str methods, one C-level split.  The
    innermost open form is kept in locals (opener, items, mode, start
    token); the forms around it, down to the top level (no opener, the
    values read), wait on a stack.  '(' collects list items, "'" awaits its
    datum, '.' awaits a dotted tail and then the list's ')'.  A quote glued
    to an atom is read with it in one step, as a quotation of the atom.
    Nesting depth costs no recursion.  A fault is placed by its token's
    index: its position, line and column are found only when it is raised,
    by scanning the text again with _TOKEN_AT.

    Where a term is wanted, a '(' whose next token is a plain symbol opens
    an _ARGS form with that symbol as its head, in the same step: its items
    are read as terms, an atom among them is added at once, and its ')'
    builds its term, with the surface forms expanded.  Any other '(' opens a
    _FORM form, read as a value that term_from_value converts at its ')' (so
    () reads as 'nil).  A quotation's datum is always a value.  Equal atoms
    read as terms share one node.  A term-shape error is reported at its
    form's '('.
    """
    tokens = _tokens(text)
    stack = []
    opener, items, mode, start = None, [], _ARGS if terms else _VALUE, None
    want = terms  # whether an atom here is read as a term
    atoms = {}
    steps = enumerate(tokens)
    for i, tok in steps:
        if tok not in _PUNCT:
            if not tok:
                break  # the end of the text
            if tok[0] == "'":
                # the list keeps the atom the quotation keeps, not a second string
                tok = tokens[i] = tok[1:]
                if tok == ".":
                    raise _parse_error(text, _token_start(text, i) + 1, "unexpected .")
                x = int(tok) if tok[0] in _INT_START and _INT_RE.match(tok) else tok
                x = Quote(x) if want else Cons("quote", Cons(x, NIL))
            elif want:
                x = atoms.get(tok)
                if x is None:
                    if _INT_RE.match(tok):
                        x = Quote(int(tok))
                    elif tok == NIL:
                        x = NIL_TERM
                    elif tok == T:
                        x = T_TERM
                    else:
                        x = Var(tok)
                    atoms[tok] = x
            elif tok[0] in _INT_START and _INT_RE.match(tok):
                x = int(tok)
            else:
                x = tok
        elif tok == ")":
            if opener == "(":
                tail = NIL
            elif opener == "." and items:
                tail = items[0]
                opener, items, mode, start = stack.pop()
            else:
                raise _token_error(text, i, "unexpected )")
            try:
                if mode == _ARGS:
                    if tail != NIL:
                        items.extend(term_from_value(v) for v in list_items(tail))
                    head = items[0]
                    x = App(head, items[1:]) if head not in _SURFACE_HEADS else _plain_term(head, items[1:])
                else:
                    x = tail
                    for item in reversed(items):
                        x = Cons(item, x)
                    if mode == _FORM:
                        x = term_from_value(x)
            except ParseError as e:
                raise _token_error(text, start, e.args[0]) from None
            opener, items, mode, start = stack.pop()
        else:
            if tok == "(":
                if want:
                    head = tokens[i + 1]
                    if head not in _NOT_HEADS and head[0] not in "()'" and not (head[0] in _INT_START and _INT_RE.match(head)):
                        stack.append((opener, items, mode, start))
                        opener, items, mode, start = tok, [head], _ARGS, i
                        next(steps)
                        continue
                    new = _FORM
                else:
                    new = _VALUE
            elif tok == "'":
                new = _QUOTE_TERM if want else _VALUE
            elif opener != "(":
                raise _token_error(text, i, "unexpected .")
            elif not items:
                raise _token_error(text, i, "misplaced .")
            else:
                new = _VALUE
            stack.append((opener, items, mode, start))
            opener, items, mode, start = tok, [], new, i
            want = False
            continue
        # x is finished: hand it to the form awaiting it
        if mode == _ARGS and opener is not None:
            items.append(x)  # an argument of an _ARGS form
            want = True
            continue
        while opener == "'":
            x = Quote(x) if mode == _QUOTE_TERM else Cons("quote", Cons(x, NIL))
            opener, items, mode, start = stack.pop()
        if opener is None and one:
            if tokens[i + 1]:
                raise _token_error(text, i + 1, "trailing input after s-expression")
            return x
        if opener == "." and tokens[i + 1] != ")":
            raise _token_error(text, i + 1, "expected ) after dotted tail")
        items.append(x)
        want = mode == _ARGS
    if opener is not None:
        raise _parse_error(text, len(text), "unterminated list" if opener == "(" else "unexpected end of input")
    if one:
        raise _parse_error(text, len(text), "empty input")
    return items


def read_value(text):
    """Read exactly one s-expression from text into the value domain."""
    return _read(text, False, True)


def read_values(text):
    return _read(text, False, False)


def list_items(v):
    """Items of a proper list value; raises ParseError on a dotted tail."""
    items = []
    while isinstance(v, Cons):
        items.append(v.car)
        v = v.cdr
    if v != NIL:
        raise ParseError("expected a proper list")
    return items


# ---------------------------------------------------------------------------
# value -> term

_EXPANSIONS = {"+": "binary-+", "logand": "binary-logand"}
_SURFACE_HEADS = frozenset({*_EXPANSIONS, "-", "and", "or", "implies"})


def _fold_binary(head, args):
    out = args[-1]
    for a in reversed(args[:-1]):
        out = App(head, (a, out))
    return out


def term_from_value(v):
    """Translate a raw s-expression value into a term.

    Integers, t and nil self-quote; other symbols are variables.  The n-ary
    surface forms +, -, logand expand into their fixed-arity function
    counterparts, and the forms and, or, implies into if.  A let, let* or
    applied lambda form reads as its body, read with each of its names
    standing for the term of the argument bound to it; so every value is
    read once, and no term holds a binder.  Each free name reads as one
    Var.  A falist form's shadow is built from its logical part, its value:
    the quoted shadow is not read.
    """
    return trampoline(_term_step(v, {}))


def binding_layers(v):
    """The binding layers of v, a let, let* or applied lambda form, and of
    each such form that is its body, its body's body and so on, as
    ([(names, argument values), ...] outermost first, innermost body
    value); ([], v) when v is no such form.  A let is one layer, a let*
    one per binding."""
    layers = []
    while isinstance(v, Cons):
        head = v.car
        if isinstance(head, Cons) and head.car == "lambda":
            parts = list_items(head.cdr)
            if len(parts) != 2:
                raise ParseError("lambda expects a parameter list and a body")
            params = list_items(parts[0])
            if not all(isinstance(p, str) and p not in (NIL, T) for p in params):
                raise ParseError("lambda parameters must be plain symbols")
            args = list_items(v.cdr)
            if len(args) != len(params):
                raise ParseError("lambda applied to the wrong number of arguments")
            layers.append((params, args))
        elif head in ("let", "let*"):
            parts = list_items(v.cdr)
            if len(parts) != 2:
                raise ParseError(f"{head} expects a binding list and a body")
            pairs = []
            for b in list_items(parts[0]):
                pair = list_items(b)
                if len(pair) != 2 or not isinstance(pair[0], str):
                    raise ParseError(f"bad {head} binding")
                if pair[0] in (NIL, T):
                    raise ParseError(f"{head} names must be plain symbols")
                pairs.append(pair)
            if head == "let*":
                layers += [([name], [arg]) for name, arg in pairs]
            elif pairs:
                layers.append(([name for name, _ in pairs], [arg for _, arg in pairs]))
        else:
            break
        v = parts[1]
    return layers, v


def _term_step(v, env):
    """term_from_value's step for v, where env maps each let-bound name in
    scope to its term, and each free name met so far to its one Var: the
    term of an atom or a quotation, else the generator that translates the
    form."""
    if isinstance(v, int):
        return Quote(v)
    if isinstance(v, str):
        if v in (NIL, T):
            return Quote(v)
        return env.get(v) or env.setdefault(v, Var(v))
    if isinstance(v, Cons):
        if v.car != "quote":
            return _term_of_form(v, env)
        items = list_items(v.cdr)
        if len(items) != 1:
            raise ParseError("quote expects exactly one argument")
        return Quote(items[0])
    if isinstance(v, FalistShadow):
        raise ParseError("lookup-table constant cannot appear as a term")
    raise ParseError(f"cannot read term from {v!r}")


def _term_of_form(v, env):
    layers, body = binding_layers(v)
    if body is not v:
        # v binds names: each layer's arguments are read under the names
        # bound so far, and the names shadowed are restored once the body
        # is read
        shadowed = []
        for names, arg_values in layers:
            args = []
            for a in arg_values:
                args.append((yield _term_step(a, env)))
            for name, arg in zip(names, args):
                shadowed.append((name, env.get(name)))
                env[name] = arg
        body = yield _term_step(body, env)
        for name, old in reversed(shadowed):
            if old is None:
                del env[name]
            else:
                env[name] = old
        return body

    head = v.car
    if isinstance(head, Cons):
        raise ParseError("application head must be a symbol or lambda")
    if not isinstance(head, str) or head in (NIL, T):
        raise ParseError("application head must be a symbol")
    if head == "lambda":
        raise ParseError("lambda must be applied, as in ((lambda (x) body) arg)")

    args = []
    for a in list_items(v.cdr):
        step = _term_step(a, env)
        args.append((yield step) if step.__class__ is GeneratorType else step)

    if head == "falist":
        from . import falist as _falist

        if len(args) != 2:
            raise ParseError("falist expects 2 arguments")
        if not isinstance(args[0], Quote):
            raise ParseError("falist shadow must be a quotation")
        entries = _falist.logical_entries(args[1])
        if entries is None:
            raise ParseError("falist logical part is not a quoted-key alist chain")
        return App("falist", (Quote(FalistShadow(entries)), args[1]))

    return _plain_term(head, args)


def _plain_term(head, args):
    """The term of the application of a symbol head to a list of argument
    terms, with the surface forms +, -, logand, and, or, implies expanded."""
    if head not in _SURFACE_HEADS:
        return App(head, args)
    if head in _EXPANSIONS:
        if len(args) < 2:
            raise ParseError(f"{head} expects at least 2 arguments")
        return _fold_binary(_EXPANSIONS[head], args)
    if head == "-":
        if len(args) == 1:
            return App("unary--", args)
        if len(args) == 2:
            return App("binary-+", (args[0], App("unary--", (args[1],))))
        raise ParseError("- expects 1 or 2 arguments")
    if head == "implies":
        if len(args) != 2:
            raise ParseError("implies expects 2 arguments")
        return App("if", (args[0], App("if", (args[1], T_TERM, NIL_TERM)), T_TERM))
    if not args:
        return T_TERM if head == "and" else NIL_TERM
    out = args[-1]
    for a in reversed(args[:-1]):
        out = App("if", (a, out, NIL_TERM) if head == "and" else (a, a, out))
    return out


def term_to_value(t):
    """Encode a term as a value, the usual terms-as-lists embedding.  A
    falist term is encoded as its logical alist, the value it evaluates
    to: its shadow is a lookup table, not a value.  Each distinct node is
    encoded once, so the value shares what the term shares."""
    values = {}
    for u in postorder(t):
        if isinstance(u, Var):
            v = u.name
        elif isinstance(u, Quote):
            v = Cons("quote", Cons(u.value, NIL))
        elif u.__class__ is not App:
            raise TypeError(u)
        elif is_falist(u):
            v = values[id(u.args[1])]
        else:
            v = NIL
            for a in reversed(u.args):
                v = Cons(values[id(a)], v)
            v = Cons(u.head, v)
        values[id(u)] = v
    return values[id(t)]


def parse_term(text):
    """Read exactly one term from text, in one pass: a plain application's
    term is built as its ')' is read, with no value in between.  It reports
    the first fault in text order.  term_from_value(read_value(text)) reads
    the whole text before any term shape, so it reports a syntax fault,
    such as trailing input, ahead of an earlier term-shape fault, and gives
    a term-shape fault no position.  On every text with at most one fault,
    the two return equal terms or raise errors with one message.
    Whitespace is space, tab, CR, LF and form feed (^L), and ';' starts a
    comment that runs to the end of its line."""
    return _read(text, True, True)


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
    """Well-formedness check for rewriter input; returns (path, message) violations.

    Checks: leaves are non-nil variable symbols or quoted constants, rp
    wrappers take a quoted non-nil property symbol and exactly one payload,
    and falist shadows agree with their logical alist.
    """
    violations = []
    seen = set()  # the Apps checked: a shared node is checked at its first path in preorder
    stack = [(t, ())]
    while stack:
        u, path = stack.pop()
        if isinstance(u, Var):
            if u.name == NIL:
                violations.append((flat_path(path), "nil cannot be a variable"))
        elif isinstance(u, Quote):
            pass
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
                stack.append((u.args[1], (path, 1)))
            elif u.head == "falist":
                from . import falist as _falist

                violations.extend(_falist.check_falist_term(u, flat_path(path)))
                if len(u.args) == 2:
                    stack.append((u.args[1], (path, 1)))
            else:
                stack += [(u.args[i], (path, i)) for i in range(len(u.args) - 1, -1, -1)]
        else:
            violations.append((flat_path(path), f"not a term: {u!r}"))
    return violations


def flat_path(path):
    """The argument positions from the root to a node, as a tuple.  A walk
    passes a path as linked pairs (parent path, position) ending in (), so
    descending costs O(1) whatever the depth."""
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
