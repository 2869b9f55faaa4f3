"""The loop's fast-alist step (5b): step, at an application of HEADS.

A term ``(falist 'shadow logical)`` evaluates as its logical payload, an
alist chain term, while the quoted shadow caches the same bindings in a
lookup table built from what logical_entries decodes of the chain; terms
defines that shape (FalistShadow, logical_entries, falist_shadow and
check_falist_term), and this module the steps on it.
hons-acons extends both sides, hons-get answers from the shadow in one
probe, fast-alist-free drops back to the payload.  With fast alists off
step answers hons-get by linear_get instead, a scan of the logical chain
that charges one node visit per entry.
Each line of versions shares one append-only binding log, and a shadow is
a prefix of it: extending the newest version appends in O(1), extending an
older one forks a fresh log, and every version sees only its own prefix,
so older falist terms stay valid and fast.
"""

from __future__ import annotations

from .terms import NIL_TERM, App, Cons, FalistShadow, Quote, falist_shadow, is_falist, logical_entries

# the heads step answers
HEADS = frozenset({"hons-acons", "hons-get", "fast-alist-free"})


def step(core, stats, fast):
    """Step (5b) at core, an application of one of HEADS: its answer, not
    to be rewritten again, or None.  With fast alists off (fast false) only
    hons-get is answered, by scanning the logical chain.  A hit on a quoted
    value answers the constant pair.  The steps are called through this
    module's globals, so a wrapper set on them sees each call."""
    if core.head == "hons-get" and len(core.args) == 2:
        out = (fa_get if fast else linear_get)(core.args[0], core.args[1], stats)
        if out is not None:
            stats.nodes_created += 1
            if isinstance(out, App) and isinstance(out.args[1], Quote):
                out = Quote(Cons(out.args[0].value, out.args[1].value))
        return out
    if not fast:
        return None
    if core.head == "hons-acons" and len(core.args) == 3:
        out = fa_acons(core.args[0], core.args[1], core.args[2])
        if out is not None:
            stats.nodes_created += 4
        return out
    if core.head == "fast-alist-free" and len(core.args) == 1:
        return fa_free(core.args[0])
    return None


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
