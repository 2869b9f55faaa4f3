"""The rewrite loop.

Each call runs the step sequence: stop on dont-rw, try context reduction in
iff positions, strengthen from context facts, rewrite arguments (expanding
the context through if), try the executable counterpart, fast-alist
interception (step (5b), which falist owns), meta rules (step (6), which
meta owns), then rewrite rules.  A dont-rw guard is STOP, OPEN, or a tuple
of the head's guard and one guard per argument (see terms).  A rule hit
recurses under the guard its rule built with the template's builder, which
stops at variable slots, so freshly substituted bindings are not rewritten
again; a meta hit recurses under the guard MetaRegistry.apply gives it.

Steps are plain calls wherever no sub-rewrite waits, and step (4) runs
inside the call.  An argument the loop would return unchanged (stopped by
dont-rw, quoted, or a variable or a falist term outside an iff position) is
counted as the rewrite call it stands for and not made, by a plain add, as
every call is, even past the step limit.  So is a settled argument, as the
calls of its tree, counted where the loop reaches it: an application in a
value position, with no context fact to strengthen it, whose heads settle
by their plans, over variables, quotations and, SETTLED_HEIGHT levels down
at most, such applications (see _settled).  Past the step limit the count
differs only in how far past it is, which nothing reads.  A hypothesis
holds when its instance rewrites to a true quotation, under rp wrappers or
none.  A matched rule's hypotheses are relieved in a plain loop while each
holds at the binding, by the shape its rule compiled for it, with no
instance built or rewritten: a syntaxp test, (p x) whose binding for x
carries an rp 'p wrapper, or (p x) whose binding is an application, not an
rp, of a head and arity on which, under no context fact, a hypothesis-free
rule of p that proves (see rules.result_record) rewrites the instance at
once, as every rule of p tried before it fails by that head and arity
alone (see _relief_rule); that relief is counted and traced as the rewrite
of the instance would be.  A rule result the loop would return unchanged
is counted, not made, and takes no generator: a quoted or stopped one, and
a guard-settled one, which its rule compiled as rp wrappers of distinct
properties around an application of variables and constants, all stopped
by its guard, in a value position with no context fact to strengthen it,
when that application's head settles by its plan (see _guard_settled).  So
a generator is taken only by a node with an argument to rewrite, an if, a
hypothesis whose instance must be rewritten, and a meta result or a rule
result to rewrite.  Each rewrite plans a head on its first use (see
_plan), from the rules, metas, executable counterparts and settings as
they stand then: one lookup gives the loop both what steps 5-7 do there,
skipped for a head with none of them, and whether its nodes may settle.

A rule is matched and instantiated by flat Python functions that it
compiles and keeps (Rule.compile) the first time the loop tries it, never
as a rule set or a Rewriter is built: a matcher for its lhs, a record per
side-condition mode with the builder of its rhs or sc-wrapped rhs, and a
builder for each ordinary hypothesis, each builder kept with the node
count and guard of its instances.  Input terms hold no binder, as the
reader expands let, let* and lambda forms, so a builder gives what
substitute gives, sharing what its template shares, and the loop
rewrites each shared node of an instance once per context.
"""

from __future__ import annotations

from types import GeneratorType

from . import falist as _falist
from .evaluator import EvalDomainError, EvalError, default_registry
from .meta import MetaRegistry
from .rules import RuleFileError, Syntaxp, build_ruleset, compile_match, rule_violations, syntaxp_eval
from .terms import (
    NIL_TERM,
    OPEN,
    OWN_HEADS,
    STOP,
    T_TERM,
    App,
    Quote,
    Shared,
    Var,
    arg_dont_rws,
    flat_path,
    has_wrapper,
    is_rp,
    mk_rp,
    node_count,
    strip_rp,
    strip_rp_deep,
    substitute,
    trampoline,
    truthy,
)


# ---------------------------------------------------------------------------
# context


class Context:
    """Facts known true at this point, given and stored wrapper-stripped,
    each once; 'facts' that are literally 't are dropped.  The loop reads
    the set `members` of facts, the set `negs` of each x with (not x) a
    fact, and `props`, each x's heads p with (p x) a fact, p not `not`."""

    __slots__ = ("facts", "members", "negs", "props")

    def __init__(self, facts=()):
        seen = []
        members, negs, props = set(), set(), {}
        for f in facts:
            if (isinstance(f, Quote) and truthy(f.value)) or f in members:
                continue
            members.add(f)
            seen.append(f)
            if isinstance(f, App) and len(f.args) == 1:
                if f.head == "not":
                    negs.add(f.args[0])
                else:
                    props.setdefault(f.args[0], []).append(f.head)
        self.facts = tuple(seen)
        self.members = members
        self.negs = negs
        self.props = props

    def extend(self, new_facts):
        stripped = [strip_rp_deep(t) for t in new_facts]
        stripped = [t for t in stripped if t not in self.members]
        if not stripped:
            return self
        return Context(self.facts + tuple(stripped))

    def __repr__(self):
        return f"Context({list(self.facts)!r})"


def conjuncts_of(t):
    """Split an and-shaped term (if a b 'nil) into its conjuncts."""
    out = []
    while isinstance(t, App) and t.head == "if" and len(t.args) == 3 and t.args[2] == NIL_TERM:
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


# how many hypothesis reliefs may wait on one another: a deeper relief
# fails, so a rule set whose reliefs loop ends
BACKCHAIN_DEPTH = 1000


class RewriteConfig:
    """A Rewriter's settings for how to rewrite, given by keyword; the class
    holds the defaults.  The backchain bound is the constant BACKCHAIN_DEPTH."""

    step_limit = 1 << 20
    side_conditions_enabled = True
    fast_alist_enabled = True

    def __init__(
        self,
        *,
        step_limit=step_limit,
        side_conditions_enabled=side_conditions_enabled,
        fast_alist_enabled=fast_alist_enabled,
    ):
        self.step_limit = step_limit
        self.side_conditions_enabled = side_conditions_enabled
        self.fast_alist_enabled = fast_alist_enabled


class RewriteStats:
    """A Rewriter's work counters, accumulated over its rewrites."""

    def __init__(self):
        self.rewrite_calls = self.rule_attempts = self.rule_applications = self.hyp_relief_failures = 0
        self.exec_evals = self.exec_domain_errors = self.meta_applications = self.meta_rejections = 0
        self.nodes_created = self.fa_probes = self.fa_node_visits = 0
        self.step_limit_hit = False

    def as_dict(self):
        return dict(self.__dict__)


def unify(pattern, t):
    """Match pattern (no rp/falist inside, as in an admitted lhs) against
    t, looking through rp wrappers, with the matcher compile_match makes
    for it.  Returns (bindings, extracted) or None; bindings keep the
    wrappers of the matched subterms, extracted lists (wrapped-subterm,
    prop) for every wrapper looked through.  Repeated pattern variables
    must match wrapper-stripped-equal subterms.
    """
    return compile_match(pattern)(t)


# The substitution that a rule's compiled builders agree with; the loop
# builds instances with the builders.
instantiate = substitute


# how many levels of applications below an argument _settled looks through:
# a node whose arguments do not settle pays up to one failed check per level
SETTLED_HEIGHT = 3


class Rewriter:
    """One rewriting engine instance: rule set, executable registry, metas,
    configuration, and accumulated statistics.  A rule set with faults
    check-rules reports raises RuleFileError, with check-rules' lines.
    trace is None; a caller that sets it to a list gets (path, rule name,
    redex nodes, result nodes) appended for each rule application."""

    def __init__(self, ruleset=None, registry=None, metas=None, cfg=None):
        self.ruleset = ruleset if ruleset is not None else build_ruleset([])
        violations = rule_violations(self.ruleset)
        if violations:
            raise RuleFileError("\n".join(violations))
        self.registry = registry if registry is not None else default_registry()
        self.metas = metas if metas is not None else MetaRegistry()
        self.cfg = cfg if cfg is not None else RewriteConfig()
        self.stats = RewriteStats()
        self.trace = None
        self._backchain = 0

    # -- public entry -------------------------------------------------------

    def rewrite(self, t, dont_rw=OPEN, ctx=(), iff=True):
        """t rewritten under dont_rw and ctx.  The wrappers of t and ctx are
        trusted, as RP-Rewriter's theorem assumes valid-sc of its input; an
        rp whose first argument is not quoted is no wrapper but the identity
        on its payload.  check_run, which --verify runs, checks a run.  A
        call past the step limit returns its term, but a node already
        entered finishes steps 5-7 on the arguments it has."""
        if not isinstance(ctx, Context):
            ctx = Context(map(strip_rp_deep, ctx))
        # each rewrite gets the whole step limit, at least 0; stats go on accumulating
        self._limit = self.stats.rewrite_calls + max(self.cfg.step_limit, 0)
        self._memo = {}  # see _memoized; kept until the next rewrite
        self._plans = {}  # see _plan; per rewrite, as are the dict and flag below
        self._reliefs = {}  # see _relief_rule
        self._sc = bool(self.cfg.side_conditions_enabled)  # indexes Rule.results
        try:
            return trampoline(self._rw(t, dont_rw, ctx, iff, ()))
        finally:  # refused calls are counted too, so a hit leaves the count past the limit
            if self.stats.rewrite_calls > self._limit:
                self.stats.rewrite_calls = self._limit
                self.stats.step_limit_hit = True

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
        if stats.rewrite_calls >= self._limit:
            stats.rewrite_calls += 1  # refused, and counted: see rewrite
            return t
        if dw.__class__ is Shared:
            return self._memoized(t, dw, ctx, iff, path)
        stats.rewrite_calls += 1

        # (1) dont-rw stop
        if dw is STOP:
            return t
        if t.__class__ is Quote:
            return t

        # (2) iff-context reduction on the whole (possibly wrapped) term
        if iff:
            r = self._reduce_by_context(t, ctx)
            if r is not None:
                return r
        if t.__class__ is Var:
            return t

        # peel rp wrappers; the core is processed and the props re-applied
        props = []
        core = t
        peeled = 0
        if t.head == "rp":
            while is_rp(core):
                props.append(core.args[0].value)
                if dw is not OPEN:
                    dw = arg_dont_rws(dw, 2)[1]
                core = core.args[1]
            if core.__class__ is not App:
                return t
            peeled = len(props)
        head = core.head

        # (3) strengthen from context facts about this very term
        if ctx.props and self._sc and head not in ("if", "falist"):
            for p in ctx.props.get(strip_rp_deep(core), ()):
                if p not in props:
                    props.append(p)

        # a wrapper's property is about its payload's value, so a core
        # under wrappers must keep its value, not just its truth value
        iff = iff and not props
        if head == "falist":
            out = core
        elif head == "if" and len(core.args) == 3:
            out = self._rewrite_if(core, dw, ctx, iff, path)
        elif head == "rp" and len(core.args) == 2:
            # no wrapper (see is_rp), so the identity on its payload
            out = self._rw_hop(core.args[1], arg_dont_rws(dw, 2)[1], ctx, iff, (path, 2))
        else:
            # (4) an argument that _rw would return unchanged (stopped by
            # dont-rw, quoted, or a variable or falist term outside an iff
            # position) is counted as the call it stands for, not made; so is
            # a settled one (see _settled), as the calls of its tree: those
            # below it are counted now when no argument before it is made,
            # else as an entry -k in todo, when the loop gets to it
            args = core.args
            n = len(args)
            dws = (STOP,) * n if head == "hide" else (OPEN,) * n if dw is OPEN else arg_dont_rws(dw, n)
            arg_iff = iff and head == "not" and n == 1
            steps = (self._plans.get(head) or self._plan(head))[0]
            todo = []
            for i, a in enumerate(args):
                c = a.__class__
                if dws[i] is STOP or c is Quote:
                    continue
                if not arg_iff:
                    if c is Var or a.head == "falist":
                        continue
                    if dws[i] is OPEN and not (ctx.props and self._sc) and (s := self._settled(a, SETTLED_HEIGHT)):
                        if not todo:
                            stats.rewrite_calls += s - 1
                        elif s > 1:
                            todo.append(1 - s)
                        continue
                todo.append(i)
            if todo:
                out = self._args_then_5_to_7(core, dws, todo, ctx, iff, arg_iff, steps, props, path)
            else:
                stats.rewrite_calls += n
                out = self._steps_5_to_7(core, steps, ctx, iff, props, path) if steps else core
        if not props:
            return out
        # t is the rewrapped term itself when the core comes back unchanged,
        # unless step (3) added a property or t names one twice
        keep = t if len(props) == peeled and (peeled == 1 or len(set(props)) == peeled) else None
        if out.__class__ is GeneratorType:
            return self._rewrapped(props, out, keep)
        if out is core and keep is t:
            return t
        return self._rewrap(props, out, keep)

    def _rw_hop(self, t, dw, ctx, iff, path):
        # the trampoline, not the caller's stack, makes this call, as a tail
        # call: the unreachable yield makes this a generator
        return self._rw(t, dw, ctx, iff, path)
        yield

    def _memoized(self, t, dw, ctx, iff, path):
        """_rw for the instance t of a node its rule template shares, once
        per context, iff position and backchain depth: kept with the objects
        whose ids key it unless this rewrite's step limit stopped it.  A hit
        counts as one call and records no trace entry."""
        key = (id(t), id(dw), id(ctx), iff, self._backchain)
        hit = self._memo.get(key)
        if hit is not None:
            self.stats.rewrite_calls += 1
            return hit[3]
        out = yield self._rw(t, tuple(dw), ctx, iff, path)
        # a stop leaves the count at or past this rewrite's limit
        if self.stats.rewrite_calls < self._limit:
            self._memo[key] = (t, dw, ctx, out)
        return out

    def _rewrapped(self, props, steps, keep):
        return self._rewrap(props, (yield steps), keep)

    def _rewrap(self, props, core, keep):
        """core under the wrappers props names, outermost first: keep itself
        when it is that term already."""
        if keep is not None and strip_rp(keep) is core:
            return keep
        for p in reversed(props):
            if not has_wrapper(core, p):
                core = mk_rp(p, core)
                self.stats.nodes_created += 2
        return core

    def _args_then_5_to_7(self, core, dws, todo, ctx, iff, arg_iff, steps, outer_props, path):
        """Step (4) for a node with arguments to rewrite, at the indices
        todo, then steps 5-7.  The other arguments are counted in turn, and
        an entry -k in todo counts the k calls below a settled argument."""
        stats = self.stats
        args = list(core.args)
        changed = False
        done = 0
        for i in todo:
            if i < 0:
                stats.rewrite_calls -= i
                continue
            stats.rewrite_calls += i - done
            a = args[i]
            step = self._rw(a, dws[i], ctx, arg_iff, (path, i + 1))
            if step.__class__ is GeneratorType:
                step = yield step
            if step is not a:
                args[i] = step
                changed = True
            done = i + 1
        stats.rewrite_calls += len(args) - done
        if changed:
            core = App(core.head, args)
            stats.nodes_created += 1
            if iff:
                r = self._reduce_by_context(core, ctx)
                if r is not None:
                    return r
        return self._steps_5_to_7(core, steps, ctx, iff, outer_props, path) if steps else core

    def _steps_5_to_7(self, core, steps, ctx, iff, outer_props, path):
        """Steps 5-7 at core, whose head's plan has steps."""
        exe, fa, meta, rules = steps
        stats = self.stats

        # (5) executable counterpart on quoted arguments, unless the rule
        # file disables it
        if exe and core.args:
            for a in core.args:
                if a.__class__ is not Quote:
                    break
            else:
                try:
                    value = self.registry.call(core.head, [a.value for a in core.args])
                    stats.exec_evals += 1
                    stats.nodes_created += 1
                    return Quote(value)
                except EvalDomainError:
                    stats.exec_domain_errors += 1

        # (5b) fast-alist interception, or a linear lookup with it off
        if fa:
            out = _falist.step(core, stats, self.cfg.fast_alist_enabled)
            if out is not None:
                return out

        # (6) meta rules
        if meta:
            m = self.metas.apply(core, stats)
            if m is not None:
                return self._rw_hop(*m, ctx, iff, path)

        # (7) rewrite rules
        if rules:
            return self._apply_rules(rules, 0, core, ctx, iff, outer_props, path)
        return core

    def _plan(self, head):
        """head's plan for this rewrite, (steps, settles).  steps says what
        steps 5-7 do at head: whether an executable counterpart may run,
        whether head is a fast-alist head, whether it has metas, and its
        rules; () when it has none of these.  settles says whether a node
        of head may settle (see _settled): never for one of terms.OWN_HEADS,
        whose _rw is more than step (4) or counts each argument as one call,
        or a head with a fast-alist step, a meta or a rule; otherwise unless
        its executable counterpart runs on all-quoted arguments."""
        rs = self.ruleset
        exe = self.registry.has(head) and head not in rs.exec_disabled
        fa = head in _falist.HEADS
        meta = head in self.metas.by_trigger
        rules = rs.buckets.get(head)
        steps = (exe, fa, meta, rules) if exe or fa or meta or rules else ()
        plan = self._plans[head] = steps, not (fa or meta or rules or head in OWN_HEADS)
        return plan

    def _settled(self, t, height):
        """The calls _rw makes on the application t, under OPEN outside an
        iff position with no facts to strengthen from, when each returns
        its term unchanged: t's tree size.  So it is when each head in t
        settles by its plan (see _plan), and each argument is a variable, a
        quotation or, height levels down at most, such an application.
        0 otherwise."""
        steps, settles = self._plans.get(t.head) or self._plan(t.head)
        if not settles:
            return 0
        size = 1
        quoted = True
        for a in t.args:
            c = a.__class__
            if c is Quote:
                size += 1
                continue
            quoted = False
            if c is Var:
                size += 1
            elif c is App and height and (s := self._settled(a, height - 1)):
                size += s
            else:
                return 0
        # steps are an executable counterpart's alone, which runs on quoted arguments
        return 0 if steps and quoted else size

    def _guard_settled(self, result, wrappers):
        """The calls _rw makes on a rule's result of the shape its rule
        records (see rules.settled_shape): `wrappers` rp wrappers of
        distinct properties around an application whose every argument the
        guard stops, under that plain tuple guard, outside an iff position
        with no fact to strengthen it from.  It returns the result
        unchanged, in one call for the wrappers and the application and one
        per argument, when the application's head settles by its plan, as
        in _settled.  0 otherwise."""
        core = result
        while wrappers:
            core = core.args[1]
            wrappers -= 1
        steps, settles = self._plans.get(core.head) or self._plan(core.head)
        if not settles:
            return 0
        args = core.args
        if steps:
            for a in args:
                if a.__class__ is not Quote:
                    break
            else:
                return 0
        return 1 + len(args)

    # -- step helpers --------------------------------------------------------

    def _reduce_by_context(self, t, ctx):
        """'t / 'nil when the context or a carried side-condition decides t;
        None otherwise."""
        if ctx.facts:
            stripped = strip_rp_deep(t)
            if stripped in ctx.members:
                return T_TERM
            if stripped in ctx.negs:
                return NIL_TERM
            if isinstance(stripped, App) and stripped.head == "not" and len(stripped.args) == 1:
                if stripped.args[0] in ctx.members:
                    return NIL_TERM
        if self._sc:
            u = strip_rp(t)
            if u.__class__ is App and len(u.args) == 1 and has_wrapper(u.args[0], u.head):
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
        if then == els:
            return then
        if test is core.args[0] and then is core.args[1] and els is core.args[2]:
            return core
        self.stats.nodes_created += 1
        return App("if", (test, then, els))

    def _apply_rules(self, candidates, start, core, ctx, iff, outer_props, path):
        """Step (7) from candidates[start]: the rewritten result of the first
        rule that applies, or core.  A generator takes over only at a
        hypothesis whose instance must be rewritten, or at a result to
        rewrite (see _finish_rule)."""
        stats = self.stats
        for i in range(start, len(candidates)):
            rule = candidates[i]
            if not rule.enabled or (rule.equiv == "iff" and not iff):
                continue
            stats.rule_attempts += 1
            m = (rule.match or rule.compile())(core)
            if m is None:
                continue
            bindings, extracted = m
            if rule.hyps:
                # the rewrite of (p x) reduces it to 't by a wrapper 'p on x's
                # binding, unless the context holds its negation: then to 'nil
                by_wrapper = self._sc and not ctx.negs and "not" not in outer_props
                for _, p in extracted:
                    if p == "not":
                        by_wrapper = False
                # whether _relieve_hyps' hyp_ctx would hold no fact
                bare = not ctx.facts and not (self._sc and (extracted or outer_props))
                j = self._relieve_at_binding(rule, 0, bindings, by_wrapper, bare, path) if self._backchain < BACKCHAIN_DEPTH else None
                if j is None:
                    stats.hyp_relief_failures += 1
                    continue
                if j < len(rule.hyps):
                    return self._relieve_hyps(candidates, i, j, core, bindings, extracted, by_wrapper, bare, ctx, iff, outer_props, path)
            return self._finish_rule(rule, core, bindings, ctx, iff, path, self._rw_hop)
        return core

    def _relieve_at_binding(self, rule, start, bindings, by_wrapper, bare, path):
        """Relieve rule's hypotheses from the start-th on with no instance
        built, by the shapes rule.hyp_relief holds: a syntaxp test, or (p x)
        when by_wrapper and x's binding carries an rp 'p, counted as the
        call that would reduce it, or else (p x) when bare (its instance
        would be rewritten under no fact), the count is below the step
        limit and x's binding is an application, not an rp, on which a
        rule of p ends the rewrite at once (see _relief_rule): counted and
        traced as that rewrite.  The index of the first one to rewrite,
        len(rule.hyps) when none is left, or None when one fails."""
        shapes = rule.hyp_relief
        stats = self.stats
        for j in range(start, len(shapes)):
            shape = shapes[j]
            if shape is None:
                return j
            if shape.__class__ is Syntaxp:
                try:
                    if not syntaxp_eval(shape, bindings):
                        return None
                except EvalError:
                    return None
                continue
            p, x = shape
            b = w = bindings[x]
            # has_wrapper, inlined
            while by_wrapper and w.__class__ is App and w.head == "rp" and len(w.args) == 2 and w.args[0].__class__ is Quote:
                if w.args[0].value == p:
                    break
                w = w.args[1]
            else:
                if not bare or b.__class__ is not App or b.head == "rp" or stats.rewrite_calls >= self._limit:
                    return j
                key = (p, b.head, len(b.args))
                found = self._reliefs.get(key)
                if found is None:
                    found = self._relief_rule(key)
                if not found:
                    return j
                # the instance, its stopped argument and the quoted result,
                # which reads no binding
                stats.rewrite_calls += 3
                stats.rule_attempts += found[1]
                stats.nodes_created += rule.build_hyps[j][1]
                self._rule_result(found[0], App(p, (b,)), {}, path)
                continue
            stats.rewrite_calls += 1
            if stats.rewrite_calls > self._limit:
                return None
        return len(shapes)

    def _relief_rule(self, key):
        """For key (p, h, n): (rule, the enabled rules tried up to it) when
        the rewrite of (p b) under no fact, for any b that applies h, not
        rp, to n arguments, ends at once in rule with a non-nil quotation,
        wrapped or not; () otherwise.  So it does when p has no fast-alist
        step and no meta, every enabled rule before rule in p's bucket
        fails by b's head and arity alone, and rule matches by them alone
        (see rules.arg_shape), has no hypotheses and proves in this
        side-condition mode (see rules.result_record).  Kept for this
        rewrite, as the plans are."""
        p, head, n = key
        steps = (self._plans.get(p) or self._plan(p))[0]
        found = ()
        if steps and steps[3] and not steps[1] and not steps[2]:
            tried = 0
            for rule in steps[3]:
                if not rule.enabled:
                    continue
                tried += 1
                if rule.match is None:
                    rule.compile()
                shape = rule.arg_shape
                if shape is None or shape[0] is not None and (shape[0] != head or shape[1] != n):
                    continue
                if shape[2] and not rule.hyps and rule.results[self._sc][4]:
                    found = rule, tried
                break
        self._reliefs[key] = found
        return found

    def _relieve_hyps(self, candidates, i, j, core, bindings, extracted, by_wrapper, bare, ctx, iff, outer_props, path):
        """_apply_rules once candidates[i] matched, from its j-th hypothesis,
        the first to rewrite: the context gets the wrappers around and
        inside the matched term as facts when side conditions are on."""
        stats = self.stats
        rule = candidates[i]
        known = extracted + [(core, p) for p in outer_props] if self._sc else None
        hyp_ctx = ctx.extend([App(p, (sub,)) for sub, p in known]) if known else ctx
        self._backchain += 1
        try:
            while j is not None and j < len(rule.hyps):
                build, size, dw = rule.build_hyps[j]
                stats.nodes_created += size
                out = self._rw(build(bindings), dw, hyp_ctx, True, path)
                if out.__class__ is GeneratorType:
                    out = yield out
                if out.__class__ is not Quote:  # a wrapper does not change its payload's value
                    out = strip_rp(out)
                relieved = out.__class__ is Quote and truthy(out.value)
                j = self._relieve_at_binding(rule, j + 1, bindings, by_wrapper, bare, path) if relieved else None
        finally:
            self._backchain -= 1
        if j is not None:
            return self._finish_rule(rule, core, bindings, ctx, iff, path, self._rw)
        stats.hyp_relief_failures += 1
        return self._apply_rules(candidates, i + 1, core, ctx, iff, outer_props, path)

    def _finish_rule(self, rule, core, bindings, ctx, iff, path, enter):
        """The rewritten result of rule, which applies at core with
        bindings.  A result _rw would return unchanged is counted as the
        calls it would make and returned: a quotation or one the guard
        stops, as one call; one the guard settles (see _guard_settled), in
        a value position with no fact to strengthen it from and the count
        below the step limit, as those calls.  Any other result is
        rewritten by enter: _rw_hop from a plain call, _rw from a
        generator."""
        stats = self.stats
        result, dw, wrappers = self._rule_result(rule, core, bindings, path)
        if dw is STOP or result.__class__ is Quote:
            stats.rewrite_calls += 1
            return result
        if (
            wrappers is not None
            and not iff
            and dw.__class__ is tuple
            and not (ctx.props and self._sc)
            and stats.rewrite_calls < self._limit
            and (calls := self._guard_settled(result, wrappers))
        ):
            stats.rewrite_calls += calls
            return result
        return enter(result, dw, ctx, iff, path)

    def _rule_result(self, rule, core, bindings, path):
        """The instantiated result of a rule that applies, its dont-rw and
        its settled shape, from the rule's record for this side-condition
        mode (see Rule.results)."""
        stats = self.stats
        stats.rule_applications += 1
        build, size, dw, wrappers, _ = rule.results[self._sc]
        result = build(bindings)
        stats.nodes_created += size
        if self.trace is not None:
            self.trace.append((flat_path(path), rule.name, node_count(core), node_count(result)))
        return result, dw, wrappers
