"""The rewriter against the reference rewriter (tests/reference.py) on a
seeded sweep: every shipped rule file and the rule sets the loop's
shortcuts are tested on, with side conditions and fast alists each on and
off.  Every output must agree; so must the counts of a rewrite that meets
no node its rule template shares, where the engine's memo rewrites once
what the reference rewrites at each occurrence."""

import pathlib
import random

from conftest import doubling
from reference import COUNTERS, ReferenceRewriter
from test_rewriter import GUARD_SETTLE_RULES, GUARD_SETTLE_TERMS, HYP_FREE_RULES, HYP_FREE_TERMS
from termrw.demo import tree_conjecture
from termrw.evaluator import default_registry
from termrw.meta import MetaRegistry, demo_metas
from termrw.reader import parse_term
from termrw.rewriter import RewriteConfig, Rewriter
from termrw.rules import Rule, Syntaxp, build_ruleset, parse_rule_file
from termrw.terms import OPEN, STOP, App, Quote, Var, format_term, mk_rp, node_count, postorder

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# Every rewrite of the sweep runs on a Rewriter that has hit this step
# limit before, and must end within it: one that a correct loop needs more
# calls for would show a fault of its own.  The doubling rule's instance
# takes 2^12 + 3 calls rewritten as a tree, and 27 with the memo.
LIMIT = 4000
DOUBLING = build_ruleset([Rule("logapp-11", (), parse_term("(logapp '11 '0 x)"), doubling(11), "equal")])

# the heads every rule set's random terms may use besides its own, by arity
BASE_HEADS = {"if": 3, "not": 1, "hide": 1, "equal": 2, "binary-+": 2, "hons-acons": 3, "hons-get": 2}
LEAVES = (Var("u"), Var("v"), Quote(1), Quote(2), Quote("nil"), Quote("t"), Quote("k1"))


def _rule_sets():
    """name -> (rule set, the terms swept besides the random ones)."""
    trees = [tree_conjecture(d) for d in (1, 2, 3)]
    fixed = {
        "arith": [parse_term(p.read_text()) for p in sorted((DEMOS / "conjectures").glob("*-round-to-evens.lsp"))],
        **dict.fromkeys(("bitand", "tree", "tree-backchain"), trees),
        "guard-settle": list(map(parse_term, GUARD_SETTLE_TERMS)),
        "hyp-free": list(map(parse_term, HYP_FREE_TERMS)),
        "doubling": [parse_term("(logapp '11 '0 (g u))")],
    }
    sets = {p.stem: build_ruleset(parse_rule_file(p.read_text())) for p in sorted((DEMOS / "rules").glob("*.lsp"))}
    sets["guard-settle"] = build_ruleset(parse_rule_file(GUARD_SETTLE_RULES))
    sets["hyp-free"] = build_ruleset(parse_rule_file(HYP_FREE_RULES))
    sets["doubling"] = DOUBLING
    return {name: (rs, fixed.get(name, [])) for name, rs in sets.items()}


class _Terms:
    """Random terms over a rule set: its heads at their arities, instances
    of its left-hand sides with wrappers at their applications, and rp
    wrappers of the properties its hypotheses and lemmas name, and of not."""

    def __init__(self, rs):
        rules = list(rs.rules.values())
        parts = [u for r in rules for u in (r.lhs, r.rhs, *(h for h in r.hyps if not isinstance(h, Syntaxp)))]
        heads = {u.head: len(u.args) for u in postorder(*parts) if u.__class__ is App and u.head not in ("rp", "if")}
        self.heads = sorted({**heads, **BASE_HEADS}.items())
        # the reference rewrites an instance as a tree: the doubling rules
        # are met in the fixed terms alone
        self.lhss = [r.lhs for r in rules if node_count(r.rhs) < 100]
        props = {h.head for r in rules for h in r.hyps if h.__class__ is App and len(h.args) == 1}
        self.props = sorted(props | {lem.prop for lem in rs.lemmas.values()} | {"not"})

    def term(self, rng, depth):
        r = rng.random()
        if depth == 0 or r < 0.2:
            return rng.choice(LEAVES)
        if r < 0.3:
            return mk_rp(rng.choice(self.props), self.term(rng, depth - 1))
        if r < 0.55 and self.lhss:
            return self.instance(rng, rng.choice(self.lhss), {}, depth)
        head, n = rng.choice(self.heads)
        return App(head, tuple(self.term(rng, depth - 1) for _ in range(n)))

    def instance(self, rng, pattern, bound, depth):
        if pattern.__class__ is Var:
            if pattern.name not in bound or rng.random() < 0.2:
                bound[pattern.name] = self.term(rng, depth - 1)
            return bound[pattern.name]
        if pattern.__class__ is Quote:
            return pattern
        t = App(pattern.head, tuple(self.instance(rng, a, bound, depth) for a in pattern.args))
        return mk_rp(rng.choice(self.props), t) if rng.random() < 0.15 else t


def _guard(rng, t):
    r = rng.random()
    if t.__class__ is not App or r < 0.7:
        return OPEN
    if r < 0.8:
        return STOP
    return (OPEN, *(_guard(rng, a) for a in t.args))


def test_the_rewriter_agrees_with_the_reference_rewriter():
    rng = random.Random(46)
    contexts = ((), (parse_term("(p u)"),), (parse_term("(integerp u)"), parse_term("(not (q v))")))
    compared = unshared = 0
    for name, (rs, fixed) in _rule_sets().items():
        terms = _Terms(rs)
        cases = [(t, OPEN) for t in fixed]
        for _ in range(40):
            t = terms.term(rng, 4)
            cases.append((t, _guard(rng, t)))
        for sc in (True, False):
            for fast in (True, False):
                metas = demo_metas() if fast else ()
                rw = Rewriter(rs, metas=MetaRegistry(metas), cfg=RewriteConfig(step_limit=LIMIT, side_conditions_enabled=sc, fast_alist_enabled=fast))
                rw.rewrite(App("wide", (Var("u"),) * LIMIT))
                assert rw.stats.step_limit_hit
                for t, dw in cases:
                    ctx, iff = rng.choice(contexts), rng.random() < 0.5
                    ref = ReferenceRewriter(rs, default_registry(), MetaRegistry(metas), sc, fast)
                    want = ref.rewrite(t, dw, ctx, iff)
                    before = rw.stats.as_dict()
                    got = rw.rewrite(t, dw, ctx, iff)
                    after = rw.stats.as_dict()
                    case = (name, sc, fast, format_term(t), dw, ctx, iff)
                    assert after["rewrite_calls"] - before["rewrite_calls"] < LIMIT, case
                    assert got == want, (*case, format_term(got), format_term(want))
                    compared += 1
                    if not ref.shared:
                        assert {k: after[k] - before[k] for k in COUNTERS} == {k: getattr(ref.stats, k) for k in COUNTERS}, case
                        unshared += 1
    assert compared > 1400 and unshared > 1300
