"""Shipped rule sets and conjecture builders.

These are the fixtures every demo, benchmark, and invariant suite runs
against.  The texts are the single source of truth; the files under demos/
mirror them verbatim (a test keeps the two in sync).
"""

from __future__ import annotations

import random

from .reader import parse_term
from .terms import NIL_TERM, App, Quote, Var

# ---------------------------------------------------------------------------
# rule set: logand to 4vec-bitand with an integerp side condition

BITAND_RULES = """\
; rewrite logand into 4vec-bitand, remembering integerp on the result
(def-rp-rule logand-to-4vec-bitand
  (implies (and (integerp x) (integerp y))
           (equal (logand x y) (4vec-bitand x y))))
(defthmd logand-to-4vec-bitand-side-cond
  (implies (and (integerp x) (integerp y))
           (integerp (4vec-bitand x y))))
(rp-attach-sc logand-to-4vec-bitand logand-to-4vec-bitand-side-cond)
"""

# iassoc is an abstract environment lookup known to return an integer.
TREE_RULES = BITAND_RULES + """\
(def-rp-rule integerp-of-iassoc
  (integerp (iassoc k e)))
"""

# Backchaining alternative used when side conditions are off: integerp of a
# bitand node is re-derived from its children every time it is needed.
TREE_RULES_BACKCHAIN = TREE_RULES + """\
(def-rp-rule integerp-of-4vec-bitand
  (implies (and (integerp x) (integerp y))
           (integerp (4vec-bitand x y))))
"""

# ---------------------------------------------------------------------------
# rule set: halving arithmetic where d2 only makes sense on evens

ARITH_RULES = """\
; arithmetic demo rule set
(def-rp-rule +-comm
  (implies (syntaxp (and (not (lexorder y x))
                         (or (atom x)
                             (not (equal (car x) 'binary-+)))))
           (and (equal (+ y x) (+ x y))
                (equal (+ y x z) (+ x y z)))))
(def-rp-rule my+-assoc
  (equal (+ (+ a b) c) (+ a b c)))
(def-rp-rule my+-assoc-for-evens
  (implies (and (evenp (+ a b)) (evenp c))
           (equal (+ (+ a b) c) (+ a b c))))
(defthmd my+-assoc-for-evens-side-cond
  (implies (and (evenp (+ a b)) (evenp c))
           (evenp (+ a b c))))
(rp-attach-sc my+-assoc-for-evens my+-assoc-for-evens-side-cond)
(def-rp-rule d2-is-f2-when-even
  (implies (evenp x)
           (equal (d2 x) (f2 x))))
(def-rp-rule round-to-even
  (equal (round-to-even a) (+ a (neg-m2 a))))
(defthmd round-to-even-is-even
  (evenp (+ a (neg-m2 a))))
(rp-attach-sc round-to-even round-to-even-is-even)
"""

SHIPPED_RULESETS = {
    "bitand": BITAND_RULES,
    "tree": TREE_RULES,
    "tree-backchain": TREE_RULES_BACKCHAIN,
    "arith": ARITH_RULES,
}

# ---------------------------------------------------------------------------
# conjectures

THREE_ROUND_TO_EVENS = """\
(equal (d2 (+ (round-to-even a) (round-to-even b) (round-to-even c)))
       (f2 (+ (neg-m2 a) (neg-m2 b) (neg-m2 c) a b c)))
"""

FOUR_ROUND_TO_EVENS = """\
(equal (d2 (+ (round-to-even a) (round-to-even b) (round-to-even c) (round-to-even d)))
       (f2 (+ (neg-m2 a) (neg-m2 b) (neg-m2 c) (neg-m2 d) a b c d)))
"""

SHIPPED_CONJECTURES = {
    "three-round-to-evens": THREE_ROUND_TO_EVENS,
    "four-round-to-evens": FOUR_ROUND_TO_EVENS,
}


def three_round_to_evens():
    return parse_term(THREE_ROUND_TO_EVENS)


def _tree(head, depth):
    """Full binary tree of `head` nodes over (iassoc 'k<i> env) leaves,
    numbered from 0 left to right, built level by level."""
    level = [App("iassoc", (Quote(f"k{k}"), Var("env"))) for k in range(1 << depth)]
    while len(level) > 1:
        level = [App(head, (level[i], level[i + 1])) for i in range(0, len(level), 2)]
    return level[0]


def tree_conjecture(depth):
    """(equal <logand tree> <4vec-bitand tree>) with matching leaves; proving
    it forces integerp to be established at every left-hand node."""
    left = _tree("binary-logand", depth)
    right = _tree("4vec-bitand", depth)
    return App("equal", (left, right))


def chain_term(n):
    """n-deep hons-acons nest with distinct quoted keys and variable values."""
    out = NIL_TERM
    for i in range(n, 0, -1):
        out = App("hons-acons", (Quote(f"k{i}"), Var(f"v{i}"), out))
    return out


def lookup_keys(n):
    """n keys of chain_term(n), drawn at random, with repeats, from a
    fixed seed."""
    rng = random.Random(7)
    return [f"k{rng.randint(1, n)}" for _ in range(n)]


def lookups_term(fal, keys):
    return App("list", tuple(App("hons-get", (Quote(k), fal)) for k in keys))
