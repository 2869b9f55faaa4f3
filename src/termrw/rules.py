"""Rule ingestion: parsing rule files, validity checks, syntaxp
predicates, side-condition attachment, and the code generator that
compiles a rule's lhs matcher and template builders.

A rewrite rule is (implies hyps (equal lhs rhs)); a side-condition lemma is
(implies hyps (prop subject)) with prop unary.  Attaching the lemma to a
rule wraps every rhs occurrence of subject as (rp 'prop subject), which the
rewriter later extracts instead of re-proving.

A formula is split on its value: its implies chain, and-conjuncts, syntaxp
hyps and equal/iff conclusions are read as lists, and each piece is then
read as a term once by term_from_value, which expands and/or/implies to if
and let/let*/lambda forms into their bodies, as it does for conjectures.
So a let-bound argument is one node however often its name is used, and
defthm-lambda, which ACL2 needs as it copies each argument, reads as defthm.
A syntaxp predicate is such a term too, and is evaluated as one: by the
evaluator, over the few functions of SYNTAXP_REGISTRY, with each variable
bound to its term encoded as a value.
"""

from __future__ import annotations

from collections import namedtuple

from .evaluator import EvalError, default_registry, eval_term, shared_nodes, to_boolean
from .reader import ParseError, list_items, read_values, term_from_value, term_to_value
from .terms import (
    NIL,
    STOP,
    T,
    T_TERM,
    SPECIAL_HEADS,
    App,
    Cons,
    Quote,
    Shared,
    Var,
    format_value,
    is_name,
    is_rp,
    mk_rp,
    postorder,
    shared_apps,
    rp_termp,
    strip_rp,
    strip_rp_deep,
    terms_equal_mod_rp,
    truthy,
)


class RuleFileError(ValueError):
    pass


class Syntaxp:
    """A hyp relieved by inspecting the bound terms themselves, not their
    values; the predicate applies only the heads of _SYNTAXP_ARITY.  names,
    unsupported and shared are pred's variables, its distinct applications
    outside that set and the ids of its shared nodes (for eval_term), read
    off one postorder walk as the hyp is built: so they cost its distinct
    nodes, however often a let-bound subterm is used."""

    def __init__(self, pred):
        self.pred = pred
        nodes = postorder(pred)
        self.names = frozenset(u.name for u in nodes if u.__class__ is Var)
        self.unsupported = tuple(u for u in nodes if u.__class__ is App and _SYNTAXP_ARITY.get(u.head) != len(u.args))
        self.shared = shared_nodes((pred,), nodes)

    def __repr__(self):
        return f"(syntaxp {self.pred!r})"


_RULE_FIELDS = ("name", "hyps", "lhs", "rhs", "equiv", "sc_wrapped_rhs", "enabled", "internal", "group")


class Rule:
    """A rewrite rule.

    match is the rule's compiled matcher (see compile_match).  results
    holds one record per side-condition mode, indexed by whether side
    conditions are on: for rhs, then sc_wrapped_rhs, what result_record
    gives.  Each of build_hyps (None for a syntaxp hyp) is the triple
    compile_template gives for that hyp, hyp_relief holds what
    relief_shape gives for each hyp, and arg_shape is what arg_shape gives
    for lhs.  All are None until compile makes them, which the rewriter
    does the first time it tries the rule; a copy, by replace or pickle,
    compiles its own."""

    __slots__ = (*_RULE_FIELDS, "match", "results", "build_hyps", "hyp_relief", "arg_shape")

    def __init__(self, name, hyps, lhs, rhs, equiv, sc_wrapped_rhs=None, enabled=True, internal=False, group=None):
        self.name = name
        self.hyps = hyps  # Term or Syntaxp conjuncts
        self.lhs = lhs
        self.rhs = rhs
        self.equiv = equiv  # "equal" | "iff"
        self.sc_wrapped_rhs = rhs if sc_wrapped_rhs is None else sc_wrapped_rhs
        self.enabled = enabled
        self.internal = internal  # engine-shipped, exempt from user-rule checks
        self.group = name if group is None else group  # source declaration; conjunct-splits share one
        self.match = self.results = self.build_hyps = self.hyp_relief = self.arg_shape = None

    def replace(self, **changes):
        """A fresh rule with this one's fields but changes."""
        return Rule(**{**{f: getattr(self, f) for f in _RULE_FIELDS}, **changes})

    def __reduce__(self):
        # generated functions do not pickle: a copy compiles its own
        return Rule, tuple(getattr(self, f) for f in _RULE_FIELDS)

    def __repr__(self):
        return f"Rule({', '.join(f'{f}={getattr(self, f)!r}' for f in _RULE_FIELDS)})"

    def compile(self):
        """Make the rule's matcher, builders and shapes, keep them on the
        rule, and return the matcher.  A syntaxp hyp has no builder.  The
        matcher is kept last, so a rule that has one has the rest too."""
        plain = result_record(self.rhs)
        self.results = plain, (plain if self.sc_wrapped_rhs is self.rhs else result_record(self.sc_wrapped_rhs))
        self.build_hyps = tuple(None if isinstance(h, Syntaxp) else compile_template(h) for h in self.hyps)
        self.hyp_relief = tuple(relief_shape(h) for h in self.hyps)
        self.arg_shape = arg_shape(self.lhs)
        self.match = compile_match(self.lhs)
        return self.match


SideConditionLemma = namedtuple("SideConditionLemma", "name hyps prop subject")


# rules: name -> Rule, in insertion order; buckets: head -> tuple of
# candidates; lemmas: name -> SideConditionLemma; exec_disabled: a frozenset
# of function names
RuleSet = namedtuple("RuleSet", "rules buckets lemmas exec_disabled")


# ---------------------------------------------------------------------------
# compiled matchers and builders
#
# A rule's lhs and templates never change, so each becomes a flat Python
# function with a statement per pattern node or distinct template node,
# written by a walk on an explicit stack or over postorder, so that a
# formula's depth costs no Python stack.
# A quoted or application pattern node is one statement: it tests the term,
# and only when that fails on an rp application does it call peel, which
# looks through the wrappers and tests again.  An application node met
# again is one check against its first occurrence.
# The source holds only generated names and integer literals: heads,
# variable names and quoted values reach it as the constants k0, k1, ... of
# its globals.


def _peel(t, ex, k, n):
    """t under its rp wrappers, each added to ex as (wrapped term, prop),
    when that is an application of k to n arguments or, with n None, the
    quotation of k; else None."""
    while is_rp(t):
        ex.append((t, t.args[0].value))
        t = t.args[1]
    if n is None:
        return t if t.__class__ is Quote and k == t.value else None
    return t if t.__class__ is App and t.head == k and len(t.args) == n else None


# the globals of generated code besides its constants
_RUNTIME = {
    "App": App,
    "Quote": Quote,
    "RP": "rp",
    "peel": _peel,
    "equal_mod_rp": terms_equal_mod_rp,
}


def _constant(consts, value):
    """The name of value among consts, {key: (name, value)}, added if new;
    equal strings share one name."""
    key = value if value.__class__ is str else id(value)
    entry = consts.get(key)
    if entry is None:
        entry = consts[key] = (f"k{len(consts)}", value)
    return entry[0]


def _define(source, consts):
    """The function f that source defines, with _RUNTIME and the constants
    as its globals."""
    namespace = dict(_RUNTIME)
    namespace.update(consts.values())
    exec(compile(source, "<compiled rule>", "exec"), namespace)
    # f's globals are namespace: leaving f in it would make a cycle
    return namespace.pop("f")


def compile_match(pattern):
    """A function that matches pattern, an lhs and so free of rp, against a
    term, looking through rp wrappers: it gives (bindings, extracted) or
    None.  bindings keep the wrappers of the matched subterms; extracted
    lists (wrapped subterm, prop) for every wrapper looked through, in
    preorder.  A repeated variable must match wrapper-stripped-equal
    subterms, and so must an application node that pattern shares (one
    node met again, as a let-bound name gives): its second occurrence is
    not walked, so no wrapper is extracted from it, and a shared pattern
    costs its distinct nodes, not its tree.  The function has one
    statement per quoted node and per first occurrence of an application
    node of pattern, one more that unpacks each such application's
    arguments, and one per repeated variable or application."""
    lines, consts = ["ex = []"], {}
    first = {}  # variable name -> the local holding its first binding
    met = {}  # id of an application node -> the local of its first occurrence
    count = 0  # term locals t1 .. t<count> so far, the term itself being t
    stack = [(pattern, "t")]
    while stack:
        p, t = stack.pop()
        cls = p.__class__
        if cls is Var:
            held = first.setdefault(p.name, t)
            if held != t:
                lines.append(f"if not equal_mod_rp({held}, {t}): return None")
            continue
        if cls is App and met.setdefault(id(p), t) != t:
            lines.append(f"if not equal_mod_rp({met[id(p)]}, {t}): return None")
            continue
        if cls is Quote:
            k, n = _constant(consts, p.value), None
            test = f"{t}.__class__ is not Quote or {k} != {t}.value"
        elif cls is App:
            k, n = _constant(consts, p.head), len(p.args)
            test = f"{t}.__class__ is not App or {t}.head != {k} or len({t}.args) != {n}"
        else:
            raise TypeError(p)
        peel = f"{t}.__class__ is not App or {t}.head != RP or ({t} := peel({t}, ex, {k}, {n})) is None"
        lines.append(f"if ({test}) and ({peel}): return None")
        if n:
            subs = [f"t{count + i}" for i in range(1, n + 1)]
            count += n
            lines.append(f"{', '.join(subs)}, = {t}.args")
            stack.extend(zip(reversed(p.args), reversed(subs)))
    lines.append("return {" + ", ".join([f"{_constant(consts, v)}: {t}" for v, t in first.items()]) + "}, ex")
    return _define("def f(t):\n    " + "\n    ".join(lines) + "\n", consts)


def compile_template(template):
    """(build, size, guard) for template, from its distinct nodes in
    postorder.  build(bindings), given bindings that bind each variable of
    template, gives what substitute(template, bindings) gives, sharing what
    template shares: each distinct application is built once, in its own
    statement, after its arguments.  size counts each distinct application
    and its quoted arguments, which on a tree is every node but the
    variables.  guard is the instance's dont-rw guard: a variable slot holds
    an already-rewritten binding and a constant needs no rewrite, so both
    stop, while the applications stay open, a shared one with one Shared
    tuple, by which the rewriter rewrites its instance once per context."""
    lines, consts = [], {}
    size = int(template.__class__ is Quote)
    done = {}  # id of a node -> (its expression, its guard)
    nodes = postorder(template)
    shared = shared_apps((template,), nodes)
    for u in nodes:
        cls = u.__class__
        if cls is App:
            args = [done[id(a)] for a in u.args]
            name = f"t{len(lines) + 1}"
            lines.append(f"{name} = App({_constant(consts, u.head)}, ({''.join(e + ', ' for e, _ in args)}))")
            guard = (STOP, *(g for _, g in args))
            done[id(u)] = name, Shared(guard) if id(u) in shared else guard
            size += 1 + sum(a.__class__ is Quote for a in u.args)
        elif cls is Var:
            done[id(u)] = f"b[{_constant(consts, u.name)}]", STOP
        elif cls is Quote:
            done[id(u)] = _constant(consts, u), STOP
        else:
            raise TypeError(u)
    expr, guard = done[id(template)]
    lines.append(f"return {expr}")
    return _define("def f(b):\n    " + "\n    ".join(lines) + "\n", consts), size, guard


def settled_shape(template):
    """The number of rp wrappers, each with a property of its own, around
    an application whose every argument is a variable or a constant, when
    template is such a chain (possibly of no wrappers); else None.  Its
    guard stops every argument slot (see compile_template), so the
    rewriter may count an instance of this shape as the calls it stands
    for instead of rewriting it."""
    props = []
    while is_rp(template):
        props.append(template.args[0].value)
        template = template.args[1]
    if template.__class__ is not App or len(set(props)) != len(props):
        return None
    for a in template.args:
        if a.__class__ is not Var and a.__class__ is not Quote:
            return None
    return len(props)


def result_record(template):
    """(build, size, guard, settled, proves) for a rule's result template:
    what compile_template gives, what settled_shape gives, and whether the
    template is a non-nil quotation, under rp wrappers or none, which the
    rewriter may take as relieving a hypothesis it is the result of."""
    body = strip_rp(template)
    return (*compile_template(template), settled_shape(template), body.__class__ is Quote and truthy(body.value))


def relief_shape(hyp):
    """How hyp may be relieved at the binding, with no instance built: the
    Syntaxp hyp itself, tested on the bindings; the pair (p, x) for (p x),
    p not `not`, which an rp 'p wrapper on x's binding relieves; None for
    any other hyp, whose instance must be rewritten."""
    if hyp.__class__ is Syntaxp:
        return hyp
    if hyp.__class__ is App and len(hyp.args) == 1 and hyp.head != "not" and hyp.args[0].__class__ is Var:
        return hyp.head, hyp.args[0].name
    return None


def arg_shape(lhs):
    """How lhs matches (p b), b an application not headed by rp, told from
    b's head and arity alone: None when it never does (lhs is not unary,
    or its argument is a quotation); else (h, n, exact), where a variable
    argument matches any b (h None, exact), and an application of h to n
    arguments matches only a b of that head and arity: every such b when
    they are distinct variables (exact), else as b's arguments decide."""
    if len(lhs.args) != 1 or lhs.args[0].__class__ is Quote:
        return None
    a = lhs.args[0]
    if a.__class__ is Var:
        return None, None, True
    names = {u.name for u in a.args if u.__class__ is Var}
    return a.head, len(a.args), len(names) == len(a.args)


# ---------------------------------------------------------------------------
# formula splitting


def _args_of(v, *heads):
    """The argument values of v when it is a form headed by one of heads,
    else None."""
    if isinstance(v, Cons) and v.car in heads:
        return list_items(v.cdr)
    return None


def _conjuncts(v):
    """The conjuncts of a formula value, nested (and ...) forms flattened."""
    out = []
    stack = [v]
    while stack:
        u = stack.pop()
        args = _args_of(u, "and")
        if args is None:
            out.append(u)
        else:
            stack.extend(reversed(args))
    return out


def _split_formula(name, v):
    """Split a rule formula value into (hyps, [(rule name, lhs, rhs,
    equiv)]), all terms.

    The formula is split on its value, so each piece becomes a term once,
    with and/or/implies and let/let*/lambda expanded as in any other term.
    The antecedents of its implies chain give the hyps, one per
    and-conjunct; a (syntaxp p) or (synp p) conjunct stays syntactic; an
    (and e1 e2 ...) conclusion yields one entry per conjunct, sharing the
    hyps.
    """
    hyps = []
    args = _args_of(v, "implies")
    while args is not None and len(args) == 2:
        for h in _conjuncts(args[0]):
            pred = _args_of(h, "syntaxp", "synp")
            if pred is not None and len(pred) == 1:
                hyps.append(Syntaxp(term_from_value(pred[0])))
            else:
                hyps.append(term_from_value(h))
        v = args[1]
        args = _args_of(v, "implies")

    conclusions = []
    for i, c in enumerate(_conjuncts(v)):
        rule_name = name if i == 0 else f"{name}_{i + 1}"
        args = _args_of(c, "equal", "iff")
        if args is not None and len(args) == 2:
            conclusions.append((rule_name, term_from_value(args[0]), term_from_value(args[1]), c.car))
        else:
            conclusions.append((rule_name, term_from_value(c), T_TERM, "iff"))
    return tuple(hyps), conclusions


def _rules_of(name, hyps, conclusions):
    return tuple(Rule(rule_name, hyps, lhs, rhs, equiv, group=name) for rule_name, lhs, rhs, equiv in conclusions)


def _lemma_of(name, hyps, conclusions):
    if len(conclusions) != 1 or any(isinstance(h, Syntaxp) for h in hyps):
        return None
    _, lhs, rhs, equiv = conclusions[0]
    if not (equiv == "iff" and rhs == T_TERM):
        return None
    if isinstance(lhs, App) and len(lhs.args) == 1 and lhs.head not in SPECIAL_HEADS:
        return SideConditionLemma(name, hyps, lhs.head, lhs.args[0])
    return None


# ---------------------------------------------------------------------------
# rule file parsing


def _as_name(v, form):
    if not is_name(v):
        raise RuleFileError(f"{form} expects a symbol name, got {format_value(v)}")
    return v


def _named(op, name, v):
    """_split_formula(name, v) for the formula v of a declaration; a
    term-shape error in the formula names the declaration."""
    try:
        return _split_formula(name, v)
    except ParseError as exc:
        raise ParseError(f"{op} {name}: {exc}") from exc


def parse_rule_file(text):
    """Parse declarations in file order, each on its own (build_ruleset
    resolves a name of another declaration).

    Forms: (def-rp-rule name formula), (defthm name formula) and
    (defthm-lambda name formula) same thing, (defthmd name formula)
    lemma-only, (add-rp-rule name [formula]) promotes an earlier defthmd or
    acts as def-rp-rule, (rp-attach-sc rule lemma), (disable-exec fn),
    (enable-rule name bool).

    A declaration is a Rule, one per conjunct of a rule formula, or a
    tuple headed by its keyword: ("defthmd", name, its SideConditionLemma
    or None when the conclusion is not (prop subject), its rules),
    ("add-rp-rule", name) for a promotion, ("rp-attach-sc", rule, lemma),
    ("disable-exec", fn) or ("enable-rule", name, flag).
    """
    decls = []
    for form in read_values(text):
        try:
            items = list_items(form)
        except ParseError:
            items = ()  # an atom or a dotted form
        if not items or not isinstance(items[0], str):
            raise RuleFileError(f"not a declaration: {format_value(form)}")
        op, rest = items[0], items[1:]
        if op == "add-rp-rule" and len(rest) == 1:
            decls.append((op, _as_name(rest[0], op)))
        elif op in ("def-rp-rule", "defthm", "defthm-lambda", "defthmd", "add-rp-rule"):
            if len(rest) != 2:
                optionally = "optionally " if op == "add-rp-rule" else ""
                raise RuleFileError(f"{op} expects a name and {optionally}a formula")
            name = _as_name(rest[0], op)
            hyps, conclusions = _named(op, name, rest[1])
            rules = _rules_of(name, hyps, conclusions)
            if op == "defthmd":
                decls.append((op, name, _lemma_of(name, hyps, conclusions), rules))
            else:
                decls.extend(rules)
        elif op == "rp-attach-sc":
            if len(rest) != 2:
                raise RuleFileError("rp-attach-sc expects a rule name and a lemma name")
            decls.append((op, _as_name(rest[0], op), _as_name(rest[1], op)))
        elif op == "disable-exec":
            if len(rest) != 1:
                raise RuleFileError("disable-exec expects a function name")
            decls.append((op, _as_name(rest[0], op)))
        elif op == "enable-rule":
            if len(rest) != 2 or rest[1] not in (T, NIL):
                raise RuleFileError("enable-rule expects a rule name and t/nil")
            decls.append((op, _as_name(rest[0], op), rest[1] == T))
        else:
            raise RuleFileError(f"unknown declaration {op}; rule classes other than rewrite rules are not supported")
    return decls


# ---------------------------------------------------------------------------
# syntaxp and validation


# the default registry's functions a syntaxp predicate may call
_SYNTAXP_DEFAULTS = ("not", "equal", "atom", "consp", "car", "lexorder")


def _syntaxp_registry():
    """The entries of _SYNTAXP_DEFAULTS from the default registry, and quotep."""
    reg = default_registry().copy(_SYNTAXP_DEFAULTS)
    return reg.register("quotep", 1, lambda v: to_boolean(isinstance(v, Cons) and v.car == "quote"))


# the functions a syntaxp predicate may call; if is the evaluator's own head
# (and, or and implies arrive expanded to if)
SYNTAXP_REGISTRY = _syntaxp_registry()
# the heads a syntaxp predicate may apply, each at the one arity it takes
_SYNTAXP_ARITY = {"if": 3, **{name: SYNTAXP_REGISTRY.arity(name) for name in (*_SYNTAXP_DEFAULTS, "quotep")}}


def syntaxp_eval(hyp, bindings):
    """Evaluate a Syntaxp hyp's predicate as ACL2 does: as a term over
    SYNTAXP_REGISTRY, each variable bound to its term stripped of wrappers and
    encoded as a value.  Raises EvalError outside a function's domain, and
    on what validate_rule refuses: an unsupported or unbound predicate."""
    if hyp.unsupported:
        raise EvalError(f"unsupported syntaxp predicate {hyp.unsupported[0]!r}")
    env = {n: term_to_value(strip_rp_deep(bindings[n])) for n in hyp.names if n in bindings}
    return truthy(eval_term(hyp.pred, env, SYNTAXP_REGISTRY, hyp.shared))


def validate_rule(rule):
    """The ingestion criteria; returns a list of violation messages."""
    problems = []
    lhs = rule.lhs
    if not isinstance(lhs, App):
        problems.append("lhs must be a function application")
        return problems
    if lhs.head in SPECIAL_HEADS:
        problems.append(f"lhs head {lhs.head} is reserved")
    parts = [(lhs, "lhs"), (rule.rhs, "rhs")] + [(h, "hyp") for h in rule.hyps if not isinstance(h, Syntaxp)]
    walks = []  # each part's heads and variable names, off one walk; rp_termp walks again for paths
    for t, _ in parts:
        nodes = postorder(t)
        walks.append(({u.head for u in nodes if u.__class__ is App}, {u.name for u in nodes if u.__class__ is Var}))
    if "if" in walks[0][0]:
        problems.append("lhs cannot contain if")
    for (t, what), (heads, _) in zip(parts, walks):
        if "rp" in heads or "falist" in heads:
            problems.append(f"{what} cannot contain rp or falist")
        for _path, msg in rp_termp(t):
            problems.append(f"{what}: {msg}")
    syntaxp_hyps = [h for h in rule.hyps if isinstance(h, Syntaxp)]
    problems += [f"syntaxp predicate outside the supported set: {u!r}" for h in syntaxp_hyps for u in h.unsupported]
    loose = set().union(*[names for _, names in walks[1:]], *[h.names for h in syntaxp_hyps]) - walks[0][1]
    if loose:
        problems.append(f"free variables not bound by lhs: {', '.join(sorted(loose))}")
    return problems


def rule_violations(ruleset):
    """`<rule>: <violation>` for each fault validate_rule finds in a user
    rule of ruleset: the one admission check of check-rules and Rewriter."""
    return [f"{r.name}: {msg}" for r in ruleset.rules.values() if not r.internal for msg in validate_rule(r)]


# ---------------------------------------------------------------------------
# side-condition attachment


def attach_sc(rule, lemma):
    """Merge lemma into rule: wrap rhs occurrences of lemma.subject."""
    rule_hyps = [h for h in rule.hyps if not isinstance(h, Syntaxp)]
    for h in lemma.hyps:
        if h not in rule_hyps:
            raise RuleFileError(f"lemma {lemma.name} hypothesis {h!r} is not among the hypotheses of {rule.name}")
    subject = lemma.subject
    found = False
    done = {}  # id of an rhs node -> its copy, so a shared node stays shared
    for u in postorder(rule.sc_wrapped_rhs):
        if strip_rp_deep(u) == subject:
            found = True
            done[id(u)] = mk_rp(lemma.prop, u)
        elif u.__class__ is App:
            done[id(u)] = App(u.head, [done[id(a)] for a in u.args])
        else:
            done[id(u)] = u
    wrapped = done[id(rule.sc_wrapped_rhs)]
    if not found:
        raise RuleFileError(f"lemma {lemma.name} subject does not occur in the rhs of {rule.name}")
    return rule.replace(sc_wrapped_rhs=wrapped)


# ---------------------------------------------------------------------------
# ruleset construction


def base_rules():
    """Engine-shipped rules, tried after all user rules."""
    x = Var("x")
    return (
        Rule("hide-elim", (), App("hide", (x,)), x, "equal", internal=True),
        Rule("equal-self", (), App("equal", (x, x)), T_TERM, "equal", internal=True),
    )


def build_ruleset(decls):
    """Index declarations, as parse_rule_file gives them, into a RuleSet:
    each Rule in order, and each keyword tuple by its keyword.  Here alone
    a name of an earlier declaration is resolved: add-rp-rule promotes a
    defthmd's rules where it stands, rp-attach-sc and enable-rule change a
    rule.  A rule named as an engine rule or an earlier rule, a second
    defthmd of one name, or a name of no earlier declaration is refused.

    Within a head bucket, later declarations are tried first, each ranked
    where the first rule of its group stands; conjuncts of one declaration
    keep their source order relative to each other.
    """
    ordered = list(base_rules())
    engine = {r.name for r in ordered}
    names = {}  # user rule name -> its index in ordered
    defthmds = {}  # defthmd name -> (its lemma or None, its rules)
    exec_disabled = set()
    pending = [*decls][::-1]  # a promotion pushes its rules, so they are read where it stands
    while pending:
        d = pending.pop()
        match d:
            case Rule():
                if d.name in names or d.name in engine:
                    raise RuleFileError(f"duplicate rule name {d.name}")
                names[d.name] = len(ordered)
                ordered.append(d)
            case ("defthmd", name, lemma, rules):
                if name in defthmds:
                    raise RuleFileError(f"duplicate defthmd name {name}")
                defthmds[name] = lemma, rules
            case ("add-rp-rule", name):
                if name not in defthmds:
                    raise RuleFileError(f"add-rp-rule: no earlier defthmd named {name}")
                pending += defthmds[name][1][::-1]
            case ("rp-attach-sc", rule, lemma):
                if rule not in names:
                    raise RuleFileError(f"rp-attach-sc: unknown rule {rule}")
                if lemma not in defthmds:
                    raise RuleFileError(f"rp-attach-sc: unknown lemma {lemma}")
                if defthmds[lemma][0] is None:
                    raise RuleFileError(f"rp-attach-sc: lemma {lemma} is not of the form (prop subject)")
                ordered[names[rule]] = attach_sc(ordered[names[rule]], defthmds[lemma][0])
            case ("enable-rule", rule, flag):
                if rule not in names:
                    raise RuleFileError(f"enable-rule: unknown rule {rule}")
                ordered[names[rule]] = ordered[names[rule]].replace(enabled=flag)
            case ("disable-exec", fn):
                exec_disabled.add(fn)
            case _:
                raise RuleFileError(f"unknown declaration object {d!r}")

    rank = {g: i for i, g in enumerate(dict.fromkeys(r.group for r in ordered))}
    buckets = {}
    for rule in sorted(ordered, key=lambda r: -rank[r.group]):
        if isinstance(rule.lhs, App):
            buckets.setdefault(rule.lhs.head, []).append(rule)
    rules = {r.name: r for r in ordered}
    lemmas = {name: lemma for name, (lemma, _) in defthmds.items() if lemma is not None}
    return RuleSet(rules, {h: tuple(b) for h, b in buckets.items()}, lemmas, frozenset(exec_disabled))
