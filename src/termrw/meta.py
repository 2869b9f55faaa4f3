"""Meta rules: native term transformers attached to a trigger head.

A meta function takes the term and returns either a new term, a (term,
dont-rw) pair, or None for "no change".  Its output must pass the
well-formedness check, rp_termp, or the result is discarded and counted in
stats.meta_rejections.

A meta on a fast-alist head (hons-get, hons-acons, fast-alist-free)
registers, but the loop's fast-alist step (5b) runs before its meta step
(6): the meta sees only the calls that step declines, such as a hons-get
whose key is not quoted.
"""

from __future__ import annotations

from collections import namedtuple

from .terms import OPEN, STOP, App, Quote, node_count, rp_termp, strip_rp

# heads the loop handles before its meta step (6), so a meta on them would
# never fire: every 3-argument if goes to the if step.  The fast-alist heads
# are not here, as step (5b) declines some of their calls and those reach
# a meta.
RESERVED_TRIGGERS = frozenset({"rp", "falist", "quote", "if"})


class MetaRegistrationError(ValueError):
    pass


# fn: Term -> Term | (Term, guard: STOP, OPEN or a tuple) | None
MetaRule = namedtuple("MetaRule", "name trigger fn")


class MetaRegistry:
    """by_trigger maps a trigger head to its meta rules, later registrations
    first, as they are tried."""

    def __init__(self, metas=()):
        self.by_trigger = {}
        self._names = set()
        for m in metas:
            self.register(m)

    def register(self, meta):
        if meta.trigger in RESERVED_TRIGGERS:
            raise MetaRegistrationError(f"cannot register a meta rule on reserved head {meta.trigger}")
        if meta.name in self._names:
            raise MetaRegistrationError(f"duplicate meta rule name {meta.name}")
        self._names.add(meta.name)
        self.by_trigger.setdefault(meta.trigger, []).insert(0, meta)
        return self

    def apply(self, t, stats):
        """First meta that changes t wins.  Matching is wrapper-transparent:
        triggers fire on the stripped head, receiving the stripped term.
        Returns (new term, its dont-rw guard), the guard OPEN when the meta
        returned a bare term, or None."""
        core = strip_rp(t)
        if not isinstance(core, App):
            return None
        for meta in self.by_trigger.get(core.head, ()):
            out = meta.fn(core)
            if out is None:
                continue
            new_t, dont_rw = out if isinstance(out, tuple) else (out, OPEN)
            if new_t is core or new_t == core:
                continue
            if rp_termp(new_t):
                stats.meta_rejections += 1
                continue
            stats.meta_applications += 1
            stats.nodes_created += node_count(new_t)
            return new_t, dont_rw
        return None


# ---------------------------------------------------------------------------
# shipped demo metas: constant folding over binary-+ spines


def _fold_plus_core(t):
    """Collect quoted-integer addends in a binary-+ spine; fold them into one
    leading constant.  Returns the folded term or None."""
    total = 0
    nconst = 0
    rest = []
    stack = [t]
    while stack:
        u = strip_rp(stack.pop())
        if isinstance(u, App) and u.head == "binary-+" and len(u.args) == 2:
            stack.append(u.args[1])
            stack.append(u.args[0])
        elif isinstance(u, Quote) and isinstance(u.value, int):
            total += u.value
            nconst += 1
        else:
            rest.append(u)
    if nconst < 2:
        return None
    if not rest:
        return Quote(total)
    out = rest[-1]
    for r in reversed(rest[:-1]):
        out = App("binary-+", (r, out))
    return App("binary-+", (Quote(total), out))


def fold_plus(t):
    """Demo meta: fold constants, stopping all further rewriting below."""
    folded = _fold_plus_core(t)
    if folded is None:
        return None
    return folded, STOP


def fold_plus_hide(t):
    """Same folding, but protects the result with hide instead of dont-rw."""
    folded = _fold_plus_core(t)
    if folded is None:
        return None
    return App("hide", (folded,))


def demo_metas():
    return (
        MetaRule("fold-plus", "binary-+", fold_plus),
        MetaRule("fold-plus-hide", "binary-+", fold_plus_hide),
    )
