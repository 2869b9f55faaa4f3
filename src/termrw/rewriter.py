"""The rewrite loop.

Each call runs the step sequence: stop on dont-rw, try context reduction in
iff positions, strengthen from context facts, rewrite arguments (expanding
the context through if), try the executable counterpart, fast-alist
interception, meta rules, then rewrite rules; rule and meta hits recurse
with a dont-rw derived from the produced template so freshly substituted
bindings are not rewritten again.

Steps are plain calls wherever no sub-rewrite waits.  An argument the loop
would return unchanged (stopped by dont-rw, quoted, or a variable outside
an iff position) is counted as the rewrite call it stands for and not made,
so only a node with an argument to rewrite, an if, the hypotheses of a
matched rule, and a meta or rule result to rewrite take a generator.  A
hypothesis (p x) whose binding for x carries an rp 'p wrapper is relieved
at the binding, with no instance built or rewritten.

Input terms hold no binder, as the reader expands let, let* and lambda
forms, so a rule instance is a plain substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import GeneratorType

from . import falist as _falist
from .evaluator import EvalDomainError, EvalError, UnknownFunctionError, default_registry
from .meta import MetaRegistry
from .rules import Syntaxp, UnboundRuleVariableError, build_ruleset, syntaxp_eval, unbound_vars
from .terms import (
    NIL,
    NIL_TERM,
    T_TERM,
    App,
    Cons,
    Quote,
    Var,
    flat_path,
    mk_rp,
    node_count,
    strip_rp,
    strip_rp_deep,
    substitute,
    terms_equal,
    terms_equal_mod_rp,
    trampoline,
    truthy,
    values_equal,
    wrapper_props,
)


# ---------------------------------------------------------------------------
# dont-rw


class DontRw:
    __slots__ = ()


class Leaf(DontRw):
    __slots__ = ("stop",)

    def __init__(self, stop):
        self.stop = stop

    def __repr__(self):
        return "STOP" if self.stop else "OPEN"


class Node(DontRw):
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = tuple(children)

    def __repr__(self):
        return f"({' '.join(map(repr, self.children))})"


STOP = Leaf(True)
OPEN = Leaf(False)


def dont_rw_from_value(v):
    """Mirror an s-expression: non-nil atoms stop, nil rewrites, a list maps
    elementwise (position 0 tracks the head)."""
    return trampoline(_dont_rw_of_value(v))


def _dont_rw_of_value(v):
    if isinstance(v, Cons):
        children = []
        while isinstance(v, Cons):
            children.append((yield _dont_rw_of_value(v.car)))
            v = v.cdr
        return Node(children)
    if isinstance(v, str) and v == NIL:
        return OPEN
    return STOP


def dont_rw_from_template(template):
    """dont-rw for an instantiated rule rhs or hyp: variable positions hold
    already-rewritten bindings (stop), the template structure stays open."""
    return trampoline(_dont_rw_of_template(template))


def _dont_rw_of_template(template):
    if isinstance(template, App):
        children = [STOP]
        for a in template.args:
            children.append((yield _dont_rw_of_template(a)))
        return Node(children)
    return STOP if isinstance(template, (Var, Quote)) else OPEN


def arg_dont_rws(dw, nargs):
    """Per-argument dont-rw slices; malformed shapes degrade to rewrite-all."""
    if isinstance(dw, Node):
        if len(dw.children) == nargs + 1:
            return dw.children[1:]
        return (OPEN,) * nargs
    return (OPEN,) * nargs


# ---------------------------------------------------------------------------
# context


class Context:
    """Facts known true at this point, stored wrapper-stripped.

    Supports membership, negation lookup, and prop-of-subject queries for
    the strengthening step.  'Facts' that are literally 't are dropped;
    negatives are held as (not x).
    """

    __slots__ = ("facts", "_members", "_negs", "_props")

    def __init__(self, facts=()):
        seen = []
        members = set()
        for f in facts:
            if isinstance(f, Quote) and truthy(f.value):
                continue
            if f not in members:
                members.add(f)
                seen.append(f)
        self.facts = tuple(seen)
        self._members = members
        negs = set()
        props = {}
        for f in seen:
            if isinstance(f, App) and len(f.args) == 1:
                if f.head == "not":
                    negs.add(f.args[0])
                else:
                    props.setdefault(f.args[0], []).append(f.head)
        self._negs = negs
        self._props = props

    @staticmethod
    def from_terms(terms):
        return Context([strip_rp_deep(t) for t in terms])

    def extend(self, new_facts):
        stripped = [strip_rp_deep(t) for t in new_facts]
        stripped = [t for t in stripped if t not in self._members]
        if not stripped:
            return self
        return Context(self.facts + tuple(stripped))

    def contains(self, stripped_t):
        return stripped_t in self._members

    def contains_negation(self, stripped_t):
        return stripped_t in self._negs

    def props_of(self, stripped_t):
        return self._props.get(stripped_t, ())

    def __repr__(self):
        return f"Context({list(self.facts)!r})"


def conjuncts_of(t):
    """Split an and-shaped term (if a b 'nil) into its conjuncts."""
    out = []
    while isinstance(t, App) and t.head == "if" and len(t.args) == 3 and terms_equal(t.args[2], NIL_TERM):
        out.append(t.args[0])
        t = t.args[1]
    out.append(t)
    return out


def negate(t):
    stripped = strip_rp_deep(t)
    if isinstance(stripped, App) and stripped.head == "not" and len(stripped.args) == 1:
        return stripped.args[0]
    return App("not", (stripped,))


# ---------------------------------------------------------------------------
# config and stats


@dataclass
class RewriteConfig:
    step_limit: int = 1 << 20
    backchain_depth: int = 1000
    side_conditions_enabled: bool = True
    fast_alist_enabled: bool = True
    trace: bool = False


@dataclass
class RewriteStats:
    rewrite_calls: int = 0
    rule_attempts: int = 0
    rule_applications: int = 0
    hyp_relief_failures: int = 0
    exec_evals: int = 0
    exec_domain_errors: int = 0
    meta_applications: int = 0
    meta_rejections: int = 0
    nodes_created: int = 0
    fa_probes: int = 0
    fa_node_visits: int = 0
    step_limit_hit: bool = False

    def as_dict(self):
        return dict(self.__dict__)


def unify(pattern, t, bindings=None, extracted=None):
    """Match pattern (no rp/falist inside) against t, looking through rp
    wrappers.  Returns (bindings, extracted) or None; bindings keep the
    wrappers of the matched subterms, extracted lists (wrapped-subterm,
    prop) for every wrapper looked through.  Repeated pattern variables
    must match wrapper-stripped-equal subterms.
    """
    if bindings is None:
        bindings = {}
    if extracted is None:
        extracted = []
    if not _unify(pattern, t, bindings, extracted):
        return None
    return bindings, extracted


def _unify(pattern, t, bindings, extracted):
    # the (pattern, term) pairs still to match wait on `todo`, the next one
    # on top, so the match runs in preorder at any pattern depth
    todo = []
    while True:
        cls = pattern.__class__
        if cls is Var:
            old = bindings.get(pattern.name)
            if old is None:
                bindings[pattern.name] = t
            elif not terms_equal_mod_rp(old, t):
                return False
        else:
            while t.__class__ is App and t.head == "rp" and len(t.args) == 2:
                extracted.append((t, t.args[0].value))
                t = t.args[1]
            if cls is Quote:
                if not (t.__class__ is Quote and values_equal(pattern.value, t.value)):
                    return False
            elif cls is App:
                if not (t.__class__ is App and t.head == pattern.head and len(t.args) == len(pattern.args)):
                    return False
                todo.extend(zip(reversed(pattern.args), reversed(t.args)))
            else:
                return False
        if not todo:
            return True
        pattern, t = todo.pop()


# A rule's rhs or hypothesis is instantiated by substitution.  The loop
# calls it by this module global, which perfbench's tracer wraps.
instantiate = substitute


def _template_size(template):
    """Nodes an instantiation constructs (everything but variable slots)."""
    n = 0
    stack = [template]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            continue
        n += 1
        if isinstance(u, App):
            stack.extend(u.args)
    return n


def _unchanged_by_rw(t, dw, iff):
    """Whether _rw returns t itself, whatever the context: t is stopped by
    dw, a quote, or a variable outside an iff position."""
    return (dw.__class__ is Leaf and dw.stop) or t.__class__ is Quote or (t.__class__ is Var and not iff)


_FA_HEADS = frozenset({"hons-acons", "hons-get", "fast-alist-free"})


class Rewriter:
    """One rewriting engine instance: rule set, executable registry, metas,
    configuration, and accumulated statistics."""

    def __init__(self, ruleset=None, registry=None, metas=None, cfg=None):
        self.ruleset = ruleset if ruleset is not None else build_ruleset([])
        for rule in self.ruleset.rules.values():
            loose = unbound_vars(rule)
            if loose:
                names = ", ".join(sorted(loose))
                raise UnboundRuleVariableError(f"rule {rule.name} uses variables its lhs does not bind: {names}")
        reg = (registry if registry is not None else default_registry()).copy()
        for fn in self.ruleset.exec_disabled:
            if reg.has(fn):
                reg.set_enabled(fn, False)
        self.registry = reg
        self.metas = metas if metas is not None else MetaRegistry()
        self.cfg = cfg if cfg is not None else RewriteConfig()
        self.stats = RewriteStats()
        self.trace = []
        self.meta_diagnostics = []
        self._backchain = 0
        self._templates = {}

    # -- public entry -------------------------------------------------------

    def rewrite(self, t, dont_rw=OPEN, ctx=(), iff=True):
        if not isinstance(ctx, Context):
            ctx = Context.from_terms(ctx)
        return trampoline(self._rw(t, dont_rw, ctx, iff, ()))

    def proved(self, t, ctx=()):
        out = self.rewrite(t, OPEN, ctx, iff=True)
        return isinstance(out, Quote) and truthy(out.value), out

    # -- the step loop ------------------------------------------------------
    #
    # The loop runs in trampolined style (see terms.trampoline), so a term's
    # depth costs no Python stack.  _rw and its steps return the finished
    # term wherever no sub-rewrite waits, and otherwise a generator that
    # yields each sub-rewrite it makes.

    def _rw(self, t, dw, ctx, iff, path):
        stats = self.stats
        if stats.rewrite_calls >= self.cfg.step_limit:
            stats.step_limit_hit = True
            return t
        stats.rewrite_calls += 1

        # (1) dont-rw stop
        if dw.__class__ is Leaf and dw.stop:
            return t
        cls = t.__class__
        if cls is Quote:
            return t
        if cls is Var:
            if iff:
                r = self._reduce_by_context(t, ctx)
                if r is not None:
                    return r
            return t

        # (2) iff-context reduction on the whole (possibly wrapped) term
        if iff:
            r = self._reduce_by_context(t, ctx)
            if r is not None:
                return r

        # peel rp wrappers; the core is processed and the props re-applied
        props = []
        core = t
        while core.__class__ is App and core.head == "rp" and len(core.args) == 2:
            props.append(core.args[0].value)
            dw = arg_dont_rws(dw, 2)[1] if isinstance(dw, Node) else dw
            core = core.args[1]
        if core.__class__ is Quote or core.__class__ is Var:
            return t
        peeled = len(props)

        # (3) strengthen from context facts about this very term
        if self.cfg.side_conditions_enabled and ctx._props and core.head not in ("if", "falist"):
            stripped = strip_rp_deep(core)
            for p in ctx.props_of(stripped):
                if p not in props:
                    props.append(p)

        # a wrapper's property is about its payload's value, so a core
        # under wrappers must keep its value, not just its truth value
        if core.head == "falist":
            steps = core
        elif core.head == "if" and len(core.args) == 3:
            steps = self._rewrite_if(core, dw, ctx, iff and not props, path)
        else:
            steps = self._steps_4_to_7(core, dw, ctx, iff and not props, props, path)
        if not props:
            return steps
        # t is the rewrapped term itself when the core comes back unchanged,
        # unless step (3) added a property or t names one twice
        keep = t if len(props) == peeled == len(set(props)) else None
        if steps.__class__ is GeneratorType:
            return self._rewrapped(props, steps, keep)
        return self._rewrap(props, steps, keep)

    def _rw_step(self, t, dw, ctx, iff, path):
        """What _rw(t, dw, ctx, iff, path) gives, for a caller that is not a
        generator: t itself, counted, when _rw would return it unchanged,
        else a generator that makes the call."""
        if _unchanged_by_rw(t, dw, iff):
            self._count_calls(1)
            return t
        return self._rw_hop(t, dw, ctx, iff, path)

    def _rw_hop(self, t, dw, ctx, iff, path):
        # the trampoline, not the caller's stack, makes this call, as a tail
        # call: the unreachable yield makes this a generator
        return self._rw(t, dw, ctx, iff, path)
        yield

    def _rewrapped(self, props, steps, keep):
        return self._rewrap(props, (yield steps), keep)

    def _rewrap(self, props, core, keep):
        """core under the wrappers props names, outermost first: keep itself
        when it is that term already."""
        if keep is not None and strip_rp(keep) is core:
            return keep
        existing = wrapper_props(core)
        for p in reversed(props):
            if p not in existing:
                core = mk_rp(p, core)
                existing.append(p)
                self.stats.nodes_created += 2
        return core

    def _count_calls(self, n):
        """Count n rewrite calls that would return their term unchanged, as
        _rw would count them; False when the step limit stops one."""
        stats = self.stats
        room = self.cfg.step_limit - stats.rewrite_calls
        if n <= room:
            stats.rewrite_calls += n
            return True
        stats.step_limit_hit = True
        stats.rewrite_calls += max(room, 0)
        return False

    def _steps_4_to_7(self, core, dw, ctx, iff, outer_props, path):
        """(4) argument rewriting, then steps 5-7.  An argument that _rw
        would return unchanged is only counted, so only a node with an
        argument to rewrite takes a generator."""
        dws = (STOP,) * len(core.args) if core.head == "hide" else arg_dont_rws(dw, len(core.args))
        arg_iff = iff if core.head == "not" and len(core.args) == 1 else False
        for a, adw in zip(core.args, dws):
            if not _unchanged_by_rw(a, adw, arg_iff):
                return self._args_then_5_to_7(core, dws, ctx, iff, arg_iff, outer_props, path)
        self._count_calls(len(core.args))
        return self._steps_5_to_7(core, ctx, iff, outer_props, path)

    def _args_then_5_to_7(self, core, dws, ctx, iff, arg_iff, outer_props, path):
        args = []
        for i, (a, adw) in enumerate(zip(core.args, dws), 1):
            step = self._rw(a, adw, ctx, arg_iff, (path, i))
            args.append((yield step) if step.__class__ is GeneratorType else step)
        if any(a is not b for a, b in zip(args, core.args)):
            core = App(core.head, args)
            self.stats.nodes_created += 1
            if iff:
                r = self._reduce_by_context(core, ctx)
                if r is not None:
                    return r
        return self._steps_5_to_7(core, ctx, iff, outer_props, path)

    def _steps_5_to_7(self, core, ctx, iff, outer_props, path):
        stats = self.stats
        head = core.head

        # (5) executable counterpart
        if self.registry.is_enabled(head) and core.args and all(a.__class__ is Quote for a in core.args):
            try:
                value = self.registry.call(head, [a.value for a in core.args])
                stats.exec_evals += 1
                stats.nodes_created += 1
                return Quote(value)
            except EvalDomainError:
                stats.exec_domain_errors += 1
            except UnknownFunctionError:
                pass

        # (5b) fast-alist interception
        if self.cfg.fast_alist_enabled and head in _FA_HEADS:
            fa = self._apply_falist(core)
            if fa is not None:
                return fa

        # (6) meta rules
        if self.metas.candidates(head):
            m = self.metas.apply(core, stats, self.meta_diagnostics)
            if m is not None:
                new_t, new_dw = m
                return self._rw_step(new_t, new_dw if new_dw is not None else OPEN, ctx, iff, path)

        # (7) rewrite rules
        candidates = self.ruleset.candidates(head)
        if candidates:
            return self._apply_rules(candidates, 0, core, ctx, iff, outer_props, path)
        return core

    # -- step helpers --------------------------------------------------------

    def _reduce_by_context(self, t, ctx):
        """'t / 'nil when the context or a carried side-condition decides t;
        None otherwise."""
        if ctx.facts:
            stripped = strip_rp_deep(t)
            if ctx.contains(stripped):
                return T_TERM
            if ctx.contains_negation(stripped):
                return NIL_TERM
            if isinstance(stripped, App) and stripped.head == "not" and len(stripped.args) == 1:
                if ctx.contains(stripped.args[0]):
                    return NIL_TERM
        if self.cfg.side_conditions_enabled:
            u = strip_rp(t)
            if isinstance(u, App) and len(u.args) == 1 and u.head in wrapper_props(u.args[0]):
                return T_TERM
        return None

    def _rewrite_if(self, core, dw, ctx, iff, path):
        """Step (4) for if: rewrite the test, then the branches it leaves
        open, each under the context the test gives it."""
        dws = arg_dont_rws(dw, 3)
        test = yield self._rw(core.args[0], dws[0], ctx, True, (path, 1))
        # a wrapper does not change its payload's value, so (rp 'p 'c) decides
        decided = strip_rp(test)
        if isinstance(decided, Quote):
            if truthy(decided.value):
                return self._rw(core.args[1], dws[1], ctx, iff, (path, 2))
            return self._rw(core.args[2], dws[2], ctx, iff, (path, 3))
        then_ctx = ctx.extend(conjuncts_of(test))
        else_ctx = ctx.extend([negate(test)])
        then = yield self._rw(core.args[1], dws[1], then_ctx, iff, (path, 2))
        els = yield self._rw(core.args[2], dws[2], else_ctx, iff, (path, 3))
        if terms_equal(then, els):
            return then
        if test is core.args[0] and then is core.args[1] and els is core.args[2]:
            return core
        self.stats.nodes_created += 1
        return App("if", (test, then, els))

    def _apply_falist(self, core):
        stats = self.stats
        if core.head == "hons-acons" and len(core.args) == 3:
            out = _falist.fa_acons(core.args[0], core.args[1], core.args[2])
            if out is not None:
                stats.nodes_created += 4
            return out
        if core.head == "hons-get" and len(core.args) == 2:
            out = _falist.fa_get(core.args[0], core.args[1], stats)
            if out is not None:
                stats.nodes_created += 1
            return out
        if core.head == "fast-alist-free" and len(core.args) == 1:
            return _falist.fa_free(core.args[0])
        return None

    def _apply_rules(self, candidates, start, core, ctx, iff, outer_props, path):
        """Step (7) from candidates[start]: the rewritten result of the first
        rule that applies, or core.  A generator takes over once a rule with
        hypotheses matches."""
        stats = self.stats
        for i in range(start, len(candidates)):
            rule = candidates[i]
            if not rule.enabled:
                continue
            if rule.equiv == "iff" and not iff:
                continue
            stats.rule_attempts += 1
            m = unify(rule.lhs, core)
            if m is None:
                continue
            bindings, extracted = m
            if rule.hyps:
                return self._apply_if_relieved(candidates, i, core, bindings, extracted, ctx, iff, outer_props, path)
            return self._rw_step(*self._rule_result(rule, core, bindings, path), ctx, iff, path)
        return core

    def _apply_if_relieved(self, candidates, i, core, bindings, extracted, ctx, iff, outer_props, path):
        """_apply_rules once candidates[i], a rule with hypotheses, matched."""
        known = None
        if self.cfg.side_conditions_enabled:
            known = extracted + [(core, p) for p in outer_props]
        if (yield from self._relieve_hyps(candidates[i], bindings, known, ctx, path)):
            return self._rw(*self._rule_result(candidates[i], core, bindings, path), ctx, iff, path)
        self.stats.hyp_relief_failures += 1
        return self._apply_rules(candidates, i + 1, core, ctx, iff, outer_props, path)

    def _rule_result(self, rule, core, bindings, path):
        """The instantiated rhs of a rule that applies, and its dont-rw."""
        stats = self.stats
        stats.rule_applications += 1
        template = rule.sc_wrapped_rhs if self.cfg.side_conditions_enabled else rule.rhs
        result = instantiate(template, bindings)
        size, dw, _ = self._template_info(template)
        stats.nodes_created += size
        if self.cfg.trace:
            self.trace.append((flat_path(path), rule.name, node_count(core), node_count(result)))
        return result, dw

    def _template_info(self, template):
        """(nodes an instantiation constructs, its dont-rw, template),
        computed once per template.  Looked up by identity, so an equal
        template of another rule costs no comparison; the entry keeps its
        template alive, so a freed template's id can never alias a new one."""
        info = self._templates.get(id(template))
        if info is None:
            info = self._templates[id(template)] = (_template_size(template), dont_rw_from_template(template), template)
        return info

    def _relieve_hyps(self, rule, bindings, known, ctx, path):
        """Whether rule's hypotheses hold.  known lists (term, prop) for the
        wrappers around and inside the matched term, or is None with side
        conditions off; the context gets them as facts only once a hyp is
        rewritten."""
        if self._backchain >= self.cfg.backchain_depth:
            return False
        # the rewrite of (p x) reduces it to 't by a wrapper 'p on x's
        # binding, unless the context holds its negation: then to 'nil
        by_wrapper = known is not None and not ctx._negs and all(p != "not" for _, p in known)
        hyp_ctx = None
        self._backchain += 1
        try:
            for hyp in rule.hyps:
                if isinstance(hyp, Syntaxp):
                    try:
                        if not syntaxp_eval(hyp.pred, bindings):
                            return False
                    except EvalError:
                        return False
                    continue
                if (
                    by_wrapper
                    and hyp.__class__ is App
                    and len(hyp.args) == 1
                    and hyp.head != "not"
                    and hyp.args[0].__class__ is Var
                    and hyp.head in wrapper_props(bindings[hyp.args[0].name])
                ):
                    if not self._count_calls(1):
                        return False
                    continue
                if hyp_ctx is None:
                    hyp_ctx = ctx.extend([App(p, (sub,)) for sub, p in known]) if known else ctx
                inst = instantiate(hyp, bindings)
                size, dw, _ = self._template_info(hyp)
                self.stats.nodes_created += size
                out = self._rw(inst, dw, hyp_ctx, True, path)
                if out.__class__ is GeneratorType:
                    out = yield out
                if not (isinstance(out, Quote) and truthy(out.value)):
                    return False
            return True
        finally:
            self._backchain -= 1
