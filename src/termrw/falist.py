"""Shadowing fast-alist support.

A term ``(falist 'shadow logical)`` evaluates as its logical payload, an
alist chain term, while the quoted shadow caches the same bindings in a
lookup table built from what logical_entries decodes of the chain.
hons-acons extends both sides, hons-get answers from the shadow in one
probe, fast-alist-free drops back to the payload.  With fast alists off
the rewriter answers hons-get by linear_get instead, a scan of the logical
chain that charges one node visit per entry.
Each line of versions shares one append-only binding log, and a shadow is
a prefix of it: extending the newest version appends in O(1), extending an
older one forks a fresh log, and every version sees only its own prefix,
so older falist terms stay valid and fast.
"""

from __future__ import annotations

from .terms import (
    NIL,
    NIL_TERM,
    App,
    Cons,
    FalistShadow,
    Quote,
    is_falist,
)


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
    violations = []
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
    for i, ((ks, vs), (kl, vl)) in enumerate(zip(shadow.entries, logical)):
        if ks != kl or vs != vl:
            violations.append((path, f"falist shadow entry {i} disagrees with the logical part"))
    return violations


def fa_acons(key, val, tail):
    """Extend: (hons-acons key val tail) -> falist term, or None if the shape
    is outside the fast path (unquoted key, undecodable tail).  A falist
    tail's shadow is extended; any other tail's is first built from its
    chain."""
    if not isinstance(key, Quote) or isinstance(key.value, FalistShadow):
        return None
    parent = falist_shadow(tail)
    if parent is None:
        entries = logical_entries(tail)
        if entries is None:
            return None
        parent = FalistShadow(entries)
    else:
        tail = tail.args[1]
    shadow = parent.extend(key.value, val)
    return App("falist", (Quote(shadow), App("cons", (App("cons", (key, val)), tail))))


def fa_get(key, fal, stats=None):
    """Lookup: (hons-get key fal) -> (cons key val) or 'nil, via one shadow
    probe.  None when not interceptable."""
    if not isinstance(key, Quote) or isinstance(key.value, FalistShadow):
        return None
    shadow = falist_shadow(fal)
    if shadow is None:
        return None
    if stats is not None:
        stats.fa_probes += 1
    val = shadow.get(key.value)
    if val is None:
        return NIL_TERM
    return App("cons", (key, val))


def fa_free(fal):
    """Drop the shadow: (fast-alist-free fal) -> the logical payload."""
    if not is_falist(fal):
        return None
    return fal.args[1]


def linear_get(key, alist, stats):
    """Lookup with fast alists off: (hons-get key alist) -> (cons key val)
    or 'nil by decoding the chain and scanning it, charging
    stats.fa_node_visits one visit per entry up to a hit, or every entry
    plus the terminator on a miss.  None, charging nothing, when the key is
    not quoted or the chain cannot be decoded."""
    if not isinstance(key, Quote):
        return None
    entries = logical_entries(alist)
    if entries is None:
        return None
    for i, (k, v) in enumerate(entries):
        if k == key.value:
            stats.fa_node_visits += i + 1
            return App("cons", (Quote(k), v))
    stats.fa_node_visits += len(entries) + 1
    return NIL_TERM
