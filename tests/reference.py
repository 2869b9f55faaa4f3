"""A reference rewriter, the differential oracle of termrw.rewriter.

It runs the step list of the rewriter module's docstring as plainly as it
can be written: recursive, making every call it counts, matching each rule
with the generic matching loop and building each instance with
terms.substitute.  It has no compiled rule, memo, settled or guard-settled
count, relief at the binding or trampoline.  It calls the executable
registry, falist.step and MetaRegistry.apply, as the engine does, and
nothing of Rewriter.

Its counts are the engine's cost model: the rewrite calls, rule attempts,
rule applications and hypothesis relief failures of a rewrite.  A node that
a rule template reaches twice, which the engine rewrites once per context
under a Shared guard, is rewritten here at each occurrence; `shared` notes
that one was met, as the calls may then differ but the output may not.
"""

from types import SimpleNamespace

from termrw import falist
from termrw.evaluator import EvalDomainError, EvalError
from termrw.rewriter import BACKCHAIN_DEPTH
from termrw.rules import Syntaxp, syntaxp_eval
from termrw.terms import (
    NIL_TERM,
    OPEN,
    STOP,
    T_TERM,
    App,
    Quote,
    Var,
    arg_dont_rws,
    has_wrapper,
    is_rp,
    mk_rp,
    shared_apps,
    strip_rp,
    strip_rp_deep,
    substitute,
    terms_equal_mod_rp,
    truthy,
)

COUNTERS = ("rewrite_calls", "rule_attempts", "rule_applications", "hyp_relief_failures")


def unify_loop(pattern, t):
    """The generic matching loop the compiled matchers replaced: the
    (pattern, term) pairs still to match wait on `todo`, the next one on
    top, so the match runs in preorder."""
    bindings, extracted, todo = {}, [], []
    while True:
        cls = pattern.__class__
        if cls is Var:
            old = bindings.get(pattern.name)
            if old is None:
                bindings[pattern.name] = t
            elif not terms_equal_mod_rp(old, t):
                return None
        else:
            while is_rp(t):
                extracted.append((t, t.args[0].value))
                t = t.args[1]
            if cls is Quote:
                if not (t.__class__ is Quote and pattern.value == t.value):
                    return None
            elif cls is App:
                if not (t.__class__ is App and t.head == pattern.head and len(t.args) == len(pattern.args)):
                    return None
                todo.extend(zip(reversed(pattern.args), reversed(t.args)))
            else:
                return None
        if not todo:
            return bindings, extracted
        pattern, t = todo.pop()


def guard(template):
    """The dont-rw guard of an instance of template: its variables and
    constants stop, its applications stay open."""
    if template.__class__ is App:
        return (STOP, *map(guard, template.args))
    return STOP


def conjuncts(t):
    out = []
    while t.__class__ is App and t.head == "if" and len(t.args) == 3 and t.args[2] == NIL_TERM:
        out.append(t.args[0])
        t = t.args[1]
    return out + [t]


def negation(t):
    s = strip_rp_deep(t)
    if s.__class__ is App and s.head == "not" and len(s.args) == 1:
        return s.args[0]
    return App("not", (s,))


def extend(facts, new):
    """facts and then each of new, wrapper-stripped, that is not a fact
    already or a quotation of a true value."""
    out = list(facts)
    for f in map(strip_rp_deep, new):
        if f not in out and not (f.__class__ is Quote and truthy(f.value)):
            out.append(f)
    return tuple(out)


class ReferenceRewriter:
    def __init__(self, ruleset, registry, metas, side_conditions, fast_alists):
        self.rs, self.registry, self.metas = ruleset, registry, metas
        self.sc, self.fast = side_conditions, fast_alists
        self.depth = 0
        self.shared = False
        self.stats = SimpleNamespace(**dict.fromkeys(COUNTERS, 0))
        # what falist.step and MetaRegistry.apply count besides
        self.stats.__dict__.update(dict.fromkeys(("nodes_created", "fa_probes", "fa_node_visits", "meta_applications", "meta_rejections"), 0))

    def rewrite(self, t, dw=OPEN, ctx=(), iff=True):
        return self.rw(t, dw, extend((), ctx), iff)

    def reduce(self, t, facts):
        """'t or 'nil when a fact or a carried wrapper decides t, else None."""
        if facts:
            s = strip_rp_deep(t)
            if s in facts:
                return T_TERM
            if App("not", (s,)) in facts:
                return NIL_TERM
            if s.__class__ is App and s.head == "not" and len(s.args) == 1 and s.args[0] in facts:
                return NIL_TERM
        if self.sc:
            u = strip_rp(t)
            if u.__class__ is App and len(u.args) == 1 and has_wrapper(u.args[0], u.head):
                return T_TERM
        return None

    def rw(self, t, dw, facts, iff):
        self.stats.rewrite_calls += 1
        # (1) dont-rw stop
        if dw is STOP or t.__class__ is Quote:
            return t
        # (2) context reduction in an iff position
        if iff:
            r = self.reduce(t, facts)
            if r is not None:
                return r
        if t.__class__ is Var:
            return t
        props, core = [], t
        while is_rp(core):
            props.append(core.args[0].value)
            dw = arg_dont_rws(dw, 2)[1]
            core = core.args[1]
        if core.__class__ is not App:
            return t
        head = core.head
        # (3) strengthen from the facts about this very term
        if self.sc and head not in ("if", "falist"):
            s = strip_rp_deep(core)
            for f in facts:
                if f.__class__ is App and len(f.args) == 1 and f.head != "not" and f.args[0] == s and f.head not in props:
                    props.append(f.head)
        iff = iff and not props
        if head == "falist":
            out = core
        elif head == "if" and len(core.args) == 3:
            out = self.rewrite_if(core, dw, facts, iff)
        elif head == "rp" and len(core.args) == 2:
            out = self.rw(core.args[1], arg_dont_rws(dw, 2)[1], facts, iff)
        else:
            # (4) the arguments, then steps 5-7
            n = len(core.args)
            dws = (STOP,) * n if head == "hide" else arg_dont_rws(dw, n)
            arg_iff = iff and head == "not" and n == 1
            args = [self.rw(a, d, facts, arg_iff) for a, d in zip(core.args, dws)]
            out = None
            if any(a is not b for a, b in zip(args, core.args)):
                core = App(head, args)
                if iff:
                    out = self.reduce(core, facts)
            if out is None:
                out = self.steps_5_to_7(core, facts, iff, props)
        for p in reversed(props):
            if not has_wrapper(out, p):
                out = mk_rp(p, out)
        return out

    def rewrite_if(self, core, dw, facts, iff):
        dws = arg_dont_rws(dw, 3)
        test = self.rw(core.args[0], dws[0], facts, True)
        decided = strip_rp(test)
        if decided.__class__ is Quote:
            i = 1 if truthy(decided.value) else 2
            return self.rw(core.args[i], dws[i], facts, iff)
        then = self.rw(core.args[1], dws[1], extend(facts, conjuncts(test)), iff)
        els = self.rw(core.args[2], dws[2], extend(facts, [negation(test)]), iff)
        if then == els:
            return then
        if test is core.args[0] and then is core.args[1] and els is core.args[2]:
            return core
        return App("if", (test, then, els))

    def steps_5_to_7(self, core, facts, iff, props):
        head = core.head
        # (5) the executable counterpart, on quoted arguments
        if self.registry.has(head) and head not in self.rs.exec_disabled and core.args:
            if all(a.__class__ is Quote for a in core.args):
                try:
                    return Quote(self.registry.call(head, [a.value for a in core.args]))
                except EvalDomainError:
                    pass
        # (5b) fast alists
        if head in falist.HEADS:
            out = falist.step(core, self.stats, self.fast)
            if out is not None:
                return out
        # (6) metas
        if head in self.metas.by_trigger:
            m = self.metas.apply(core, self.stats)
            if m is not None:
                return self.rw(m[0], m[1], facts, iff)
        # (7) rules, in bucket order
        for rule in self.rs.buckets.get(head, ()):
            if not rule.enabled or (rule.equiv == "iff" and not iff):
                continue
            self.stats.rule_attempts += 1
            m = unify_loop(rule.lhs, core)
            if m is None:
                continue
            if rule.hyps and not self.relieve(rule, core, *m, facts, props):
                self.stats.hyp_relief_failures += 1
                continue
            self.stats.rule_applications += 1
            return self.rw_instance(rule.sc_wrapped_rhs if self.sc else rule.rhs, m[0], facts, iff)
        return core

    def rw_instance(self, template, bindings, facts, iff):
        """The instance of a rule's template rewritten under its guard."""
        self.shared |= bool(shared_apps((template,)))
        return self.rw(substitute(template, bindings), guard(template), facts, iff)

    def relieve(self, rule, core, bindings, extracted, facts, props):
        """Whether each hypothesis holds: a syntaxp test on the bindings, or
        its instance rewritten to a true quotation, wrapped or not, under
        the facts, with the wrappers the match looked through and those
        around the redex as facts when side conditions are on."""
        if self.depth >= BACKCHAIN_DEPTH:
            return False
        known = extracted + [(core, p) for p in props] if self.sc else []
        hyp_facts = extend(facts, [App(p, (sub,)) for sub, p in known])
        self.depth += 1
        try:
            for h in rule.hyps:
                if isinstance(h, Syntaxp):
                    try:
                        if not syntaxp_eval(h, bindings):
                            return False
                    except EvalError:
                        return False
                    continue
                out = strip_rp(self.rw_instance(h, bindings, hyp_facts, True))
                if not (out.__class__ is Quote and truthy(out.value)):
                    return False
            return True
        finally:
            self.depth -= 1
