"""Surface syntax: reading text into values and terms.

Whitespace is space, tab, CR, LF and form feed (^L), and ';' starts a
comment that runs to the end of its line.  Integers, t and nil read as
constants, other symbols as variables.  The n-ary forms +, -, logand
expand into their fixed-arity function counterparts, and and, or,
implies into if.  Each let, let* and applied lambda form is read as its
body, with each name standing for the term bound to it, so no term holds
a binder.  term_to_value encodes a term back as a value.

The reader contract: parse_term reads exactly one term from text in one
pass and reports the first fault in text order, with its line and column.
term_from_value(read_value(text)) reads the whole text before any term
shape, so it reports a syntax fault, such as trailing input, ahead of an
earlier term-shape fault, and gives a term-shape fault no position.  On
every text with at most one fault, the two return equal terms or raise
errors with one message.  Every fault is a ParseError.
"""

from __future__ import annotations

import re
from itertools import islice
from types import GeneratorType

from .terms import (
    NIL,
    NIL_TERM,
    T,
    T_TERM,
    App,
    Cons,
    FalistShadow,
    Quote,
    Var,
    is_falist,
    is_name,
    logical_entries,
    postorder,
    trampoline,
)


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


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
    one per binding.  A let or a lambda may bind a name only once; a let*
    may rebind it."""
    layers = []
    while isinstance(v, Cons):
        head = v.car
        if isinstance(head, Cons) and head.car == "lambda":
            parts = list_items(head.cdr)
            if len(parts) != 2:
                raise ParseError("lambda expects a parameter list and a body")
            params = list_items(parts[0])
            if not all(map(is_name, params)):
                raise ParseError("lambda parameters must be plain symbols")
            if len(set(params)) != len(params):
                raise ParseError("lambda parameters must be distinct")
            args = list_items(v.cdr)
            if len(args) != len(params):
                raise ParseError("lambda applied to the wrong number of arguments")
            layers.append((params, args))
        elif head in ("let", "let*"):
            parts = list_items(v.cdr)
            if len(parts) != 2:
                raise ParseError(f"{head} expects a binding list and a body")
            pairs = []
            names = set()
            for b in list_items(parts[0]):
                pair = list_items(b)
                if len(pair) != 2:
                    raise ParseError(f"bad {head} binding")
                if not is_name(pair[0]):
                    raise ParseError(f"{head} names must be plain symbols")
                if pair[0] in names and head == "let":
                    raise ParseError(f"let binds {pair[0]} twice")
                names.add(pair[0])
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
    if not is_name(head):
        raise ParseError("application head must be a symbol")
    if head == "lambda":
        raise ParseError("lambda must be applied, as in ((lambda (x) body) arg)")

    args = []
    for a in list_items(v.cdr):
        step = _term_step(a, env)
        args.append((yield step) if step.__class__ is GeneratorType else step)

    if head == "falist":
        if len(args) != 2:
            raise ParseError("falist expects 2 arguments")
        if not isinstance(args[0], Quote):
            raise ParseError("falist shadow must be a quotation")
        entries = logical_entries(args[1])
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
