"""Rule ingestion: parsing rule files, validity checks, syntaxp
predicates, side-condition attachment, and let-chain splitting.

A rewrite rule is (implies hyps (equal lhs rhs)); a side-condition lemma is
(implies hyps (prop subject)) with prop unary.  Attaching the lemma to a
rule wraps every rhs occurrence of subject as (rp 'prop subject), which the
rewriter later extracts instead of re-proving.

A formula is split on its value: its implies chain, and-conjuncts, syntaxp
hyps and equal/iff conclusions are read as lists, and each piece is then
read as a term once by term_from_value, which expands and/or/implies to if
and let/let*/lambda forms into their bodies, as it does for conjectures.
A syntaxp predicate is such a term too, and is evaluated as one: by the
evaluator, over the few functions of SYNTAXP_REGISTRY, with each variable
bound to its term encoded as a value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .evaluator import EvalError, ExecRegistry, default_registry, eval_term, to_boolean
from .terms import (
    NIL,
    T,
    T_TERM,
    SPECIAL_HEADS,
    App,
    Cons,
    ParseError,
    Quote,
    Term,
    Var,
    binding_layers,
    contains_head,
    free_vars,
    list_items,
    mk_rp,
    read_values,
    rp_termp,
    strip_rp_deep,
    template_info,
    term_from_value,
    term_to_value,
    terms_equal,
    trampoline,
    truthy,
    vars_in_order,
)


class RuleFileError(ValueError):
    pass


@dataclass(frozen=True)
class Syntaxp:
    """A hyp relieved by inspecting the bound terms themselves, not their
    values; the predicate calls only SYNTAXP_REGISTRY's functions and if.
    names and unsupported are pred's variables and its subterms outside
    that set, found once as the hyp is built."""

    pred: Term
    names: frozenset = field(init=False, repr=False, compare=False)
    unsupported: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names, unsupported = _syntaxp_walk(self.pred)
        object.__setattr__(self, "names", frozenset(names))
        object.__setattr__(self, "unsupported", tuple(unsupported))

    def __repr__(self):
        return f"(syntaxp {self.pred!r})"


@dataclass(frozen=True)
class Rule:
    """A rewrite rule.  rhs_info, sc_rhs_info and hyp_info give, for rhs,
    sc_wrapped_rhs and each hyp (None for a syntaxp hyp), the pair (nodes an
    instantiation builds, its dont-rw guard), found once as the rule is
    built."""

    name: str
    hyps: tuple  # Term or Syntaxp conjuncts
    lhs: Term
    rhs: Term
    equiv: str  # "equal" | "iff"
    sc_wrapped_rhs: Term = None
    enabled: bool = True
    internal: bool = False  # engine-shipped, exempt from user-rule checks
    group: str = None  # source declaration; conjunct-splits share one
    rhs_info: tuple = field(init=False, repr=False, compare=False)
    sc_rhs_info: tuple = field(init=False, repr=False, compare=False)
    hyp_info: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sc_wrapped_rhs is None:
            object.__setattr__(self, "sc_wrapped_rhs", self.rhs)
        if self.group is None:
            object.__setattr__(self, "group", self.name)
        object.__setattr__(self, "rhs_info", template_info(self.rhs))
        object.__setattr__(self, "sc_rhs_info", template_info(self.sc_wrapped_rhs))
        hyp_info = tuple(None if isinstance(h, Syntaxp) else template_info(h) for h in self.hyps)
        object.__setattr__(self, "hyp_info", hyp_info)

    @property
    def head(self):
        return self.lhs.head if isinstance(self.lhs, App) else None


@dataclass(frozen=True)
class SideConditionLemma:
    name: str
    hyps: tuple
    prop: str
    subject: Term


@dataclass(frozen=True)
class LemmaDecl:
    """A defthmd: usable for attachment, promotable to rules by name."""

    name: str
    lemma: SideConditionLemma  # or None when the conclusion is not unary
    rules: tuple  # the rule reading, used if later promoted


@dataclass(frozen=True)
class AttachDecl:
    rule_name: str
    lemma_name: str


@dataclass(frozen=True)
class DisableExecDecl:
    fn: str


@dataclass(frozen=True)
class EnableRuleDecl:
    rule_name: str
    enabled: bool


@dataclass(frozen=True)
class RuleSet:
    rules: dict = field(default_factory=dict)  # name -> Rule, insertion order
    buckets: dict = field(default_factory=dict)  # head -> tuple of candidates
    lemmas: dict = field(default_factory=dict)  # name -> SideConditionLemma
    exec_disabled: frozenset = frozenset()


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
    """Split a rule formula value into (hyps, [(rule name, lhs value, rhs
    value, equiv)]).

    The formula is split on its value, so each piece becomes a term once,
    with and/or/implies and let/let*/lambda expanded as in any other term.
    The antecedents of its implies chain give the hyps, read as terms, one
    per and-conjunct; a (syntaxp p) or (synp p) conjunct stays syntactic;
    an (and e1 e2 ...) conclusion yields one entry per conjunct, sharing
    the hyps.  The sides stay values, so defthm-lambda can split the rhs's
    let layers.
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
            conclusions.append((rule_name, args[0], args[1], c.car))
        else:
            conclusions.append((rule_name, c, T, "iff"))
    return tuple(hyps), conclusions


def _read_formula(name, v):
    """_split_formula(name, v) with both sides of each conclusion read as terms."""
    hyps, conclusions = _split_formula(name, v)
    return hyps, [(n, term_from_value(lhs), term_from_value(rhs), equiv) for n, lhs, rhs, equiv in conclusions]


def _rules_of(name, hyps, conclusions):
    return tuple(Rule(rule_name, hyps, lhs, rhs, equiv, group=name) for rule_name, lhs, rhs, equiv in conclusions)


def _lemma_of(name, hyps, conclusions):
    if len(conclusions) != 1 or any(isinstance(h, Syntaxp) for h in hyps):
        return None
    _, lhs, rhs, equiv = conclusions[0]
    if not (equiv == "iff" and terms_equal(rhs, T_TERM)):
        return None
    if isinstance(lhs, App) and len(lhs.args) == 1 and lhs.head not in SPECIAL_HEADS:
        return SideConditionLemma(name, hyps, lhs.head, lhs.args[0])
    return None


# ---------------------------------------------------------------------------
# rule file parsing


def _as_name(v, form):
    if not isinstance(v, str) or v in (NIL, T):
        raise RuleFileError(f"{form} expects a symbol name, got {v!r}")
    return v


def _named(op, name, read, v):
    """read(name, v) for the formula v of a declaration; a term-shape error
    in the formula names the declaration."""
    try:
        return read(name, v)
    except ParseError as exc:
        raise ParseError(f"{op} {name}: {exc}") from exc


def parse_rule_file(text):
    """Parse declarations in file order.

    Forms: (def-rp-rule name formula), (defthm name formula) same thing,
    (defthmd name formula) lemma-only, (add-rp-rule name [formula]) promotes
    an earlier defthmd or acts as def-rp-rule, (defthm-lambda name formula),
    (rp-attach-sc rule lemma), (disable-exec fn), (enable-rule name bool).
    """
    decls = []
    parked = {}  # defthmd name -> LemmaDecl
    for form in read_values(text):
        items = list_items(form)
        if not items or not isinstance(items[0], str):
            raise RuleFileError(f"not a declaration: {form!r}")
        op, rest = items[0], items[1:]
        if op in ("def-rp-rule", "defthm"):
            if len(rest) != 2:
                raise RuleFileError(f"{op} expects a name and a formula")
            name = _as_name(rest[0], op)
            decls.extend(_rules_of(name, *_named(op, name, _read_formula, rest[1])))
        elif op == "defthmd":
            if len(rest) != 2:
                raise RuleFileError("defthmd expects a name and a formula")
            name = _as_name(rest[0], op)
            hyps, conclusions = _named(op, name, _read_formula, rest[1])
            decl = LemmaDecl(name, _lemma_of(name, hyps, conclusions), _rules_of(name, hyps, conclusions))
            parked[name] = decl
            decls.append(decl)
        elif op == "add-rp-rule":
            if len(rest) == 1:
                name = _as_name(rest[0], op)
                if name not in parked:
                    raise RuleFileError(f"add-rp-rule: no earlier defthmd named {name}")
                decls.extend(parked[name].rules)
            elif len(rest) == 2:
                name = _as_name(rest[0], op)
                decls.extend(_rules_of(name, *_named(op, name, _read_formula, rest[1])))
            else:
                raise RuleFileError("add-rp-rule expects a name and optionally a formula")
        elif op == "defthm-lambda":
            if len(rest) != 2:
                raise RuleFileError("defthm-lambda expects a name and a formula")
            name = _as_name(rest[0], op)
            rules, _ = _named(op, name, defthm_lambda, rest[1])
            decls.extend(rules)
        elif op == "rp-attach-sc":
            if len(rest) != 2:
                raise RuleFileError("rp-attach-sc expects a rule name and a lemma name")
            decls.append(AttachDecl(_as_name(rest[0], op), _as_name(rest[1], op)))
        elif op == "disable-exec":
            if len(rest) != 1:
                raise RuleFileError("disable-exec expects a function name")
            decls.append(DisableExecDecl(_as_name(rest[0], op)))
        elif op == "enable-rule":
            if len(rest) != 2 or rest[1] not in (T, NIL):
                raise RuleFileError("enable-rule expects a rule name and t/nil")
            decls.append(EnableRuleDecl(_as_name(rest[0], op), rest[1] == T))
        else:
            raise RuleFileError(f"unknown declaration {op}; rule classes other than rewrite rules are not supported")
    return decls


# ---------------------------------------------------------------------------
# syntaxp and validation


def _syntaxp_registry():
    """not, equal, atom, consp, car and lexorder from the default registry,
    and quotep."""
    default, reg = default_registry(), ExecRegistry()
    for name in ("not", "equal", "atom", "consp", "car", "lexorder"):
        reg.register(name, default.arity(name), default.fn(name, default.arity(name)))
    return reg.register("quotep", 1, lambda v: to_boolean(isinstance(v, Cons) and v.car == "quote"))


# the functions a syntaxp predicate may call; if is the evaluator's own head
# (and, or and implies arrive expanded to if)
SYNTAXP_REGISTRY = _syntaxp_registry()


def _syntaxp_walk(pred):
    """(the names of pred's variables, its subterms in preorder outside the
    accepted set: if with three arguments and SYNTAXP_REGISTRY's functions)."""
    names, unsupported, stack = set(), [], [pred]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            names.add(u.name)
        elif isinstance(u, App) and (
            len(u.args) == 3
            if u.head == "if"
            else SYNTAXP_REGISTRY.has(u.head) and SYNTAXP_REGISTRY.arity(u.head) == len(u.args)
        ):
            stack.extend(reversed(u.args))
        elif not isinstance(u, Quote):
            unsupported.append(u)
    return names, unsupported


def syntaxp_eval(hyp, bindings):
    """Evaluate a Syntaxp hyp's predicate as ACL2 does: as a term over
    SYNTAXP_REGISTRY, each variable bound to its term stripped of wrappers and
    encoded as a value.  Raises EvalError outside the set validate_rule
    accepts, on an unbound variable, or outside a function's domain."""
    if hyp.unsupported:
        raise EvalError(f"unsupported syntaxp predicate {hyp.unsupported[0]!r}")
    env = {n: term_to_value(strip_rp_deep(bindings[n])) for n in hyp.names if n in bindings}
    return truthy(eval_term(hyp.pred, env, SYNTAXP_REGISTRY))


class UnboundRuleVariableError(ValueError):
    """A rule whose rhs or ordinary hyps use variables its lhs does not bind."""


def unbound_vars(rule):
    """The variables of rule's rhs and ordinary hyps that its lhs does not
    bind: rewriting with the rule would meet them unbound."""
    ordinary_hyps = [h for h in rule.hyps if not isinstance(h, Syntaxp)]
    return set().union(free_vars(rule.rhs), *map(free_vars, ordinary_hyps)) - free_vars(rule.lhs)


def validate_rule(rule):
    """The ingestion criteria; returns a list of violation messages."""
    problems = []
    lhs, rhs = rule.lhs, rule.rhs
    if not isinstance(lhs, App):
        problems.append("lhs must be a function application")
        return problems
    if lhs.head in SPECIAL_HEADS:
        problems.append(f"lhs head {lhs.head} is reserved")
    if contains_head(lhs, "if"):
        problems.append("lhs cannot contain if")
    ordinary_hyps = [h for h in rule.hyps if not isinstance(h, Syntaxp)]
    for t, what in [(lhs, "lhs"), (rhs, "rhs")] + [(h, "hyp") for h in ordinary_hyps]:
        if contains_head(t, "rp") or contains_head(t, "falist"):
            problems.append(f"{what} cannot contain rp or falist")
        for _path, msg in rp_termp(t):
            problems.append(f"{what}: {msg}")
    lhs_vars = free_vars(lhs)
    loose = unbound_vars(rule)
    for h in rule.hyps:
        if isinstance(h, Syntaxp):
            loose |= free_vars(h.pred) - lhs_vars
            problems += [f"syntaxp predicate outside the supported set: {u!r}" for u in h.unsupported]
    if loose:
        problems.append(f"free variables not bound by lhs: {', '.join(sorted(loose))}")
    return problems


# ---------------------------------------------------------------------------
# side-condition attachment


class AttachError(ValueError):
    pass


def attach_sc(rule, lemma):
    """Merge lemma into rule: wrap rhs occurrences of lemma.subject."""
    rule_hyps = [h for h in rule.hyps if not isinstance(h, Syntaxp)]
    for h in lemma.hyps:
        if not any(terms_equal(h, rh) for rh in rule_hyps):
            raise AttachError(f"lemma {lemma.name} hypothesis {h!r} is not among the hypotheses of {rule.name}")
    subject = lemma.subject
    found = False

    def wrap(t):
        nonlocal found
        if isinstance(t, (Var, Quote)):
            if terms_equal(t, subject):
                found = True
                return mk_rp(lemma.prop, t)
            return t
        if terms_equal(strip_rp_deep(t), subject):
            found = True
            return mk_rp(lemma.prop, t)
        if isinstance(t, App):
            args = []
            for a in t.args:
                args.append((yield wrap(a)))
            return App(t.head, args)
        return t

    wrapped = trampoline(wrap(rule.sc_wrapped_rhs))
    if not found:
        raise AttachError(f"lemma {lemma.name} subject does not occur in the rhs of {rule.name}")
    return replace(rule, sc_wrapped_rhs=wrapped)


# ---------------------------------------------------------------------------
# let-chain splitting


class LambdaSplitError(ValueError):
    pass


def defthm_lambda(name, formula):
    """Split a rule whose rhs is a let/let* chain into lambda-free rules;
    formula is the rule's formula as a value.

    Generates one function symbol per binding layer of the rhs's chain,
    named <name>_lambda-fnc_<k> with the innermost layer getting the highest
    k, opener rules (innermost first, grouped under <name>_lambda-opener),
    and the main rule calling the outermost generated function.  Each
    layer's arguments and the innermost body are read as terms with the
    layers' names left as variables.  Returns (rules, generated function
    names).
    """
    hyps, conclusions = _split_formula(name, formula)
    if len(conclusions) != 1:
        raise LambdaSplitError("defthm-lambda expects a single equality conclusion")
    _, lhs, rhs, equiv = conclusions[0]
    lhs = term_from_value(lhs)
    layers, body = binding_layers(rhs)
    if not layers:
        return (Rule(name, hyps, lhs, term_from_value(rhs), equiv),), ()

    seen_params = set()
    for params, args in layers:
        overlap = seen_params.intersection(params)
        if overlap:
            raise LambdaSplitError(f"variable shadowing across let layers: {', '.join(sorted(overlap))}")
        seen_params.update(params)
    if any(binding_layers(a)[0] for _params, args in layers for a in args):
        raise LambdaSplitError("lambda in argument position is not supported")

    count = len(layers)
    fnc_names = [f"{name}_lambda-fnc_{j}" for j in range(count)]
    openers = []  # innermost first
    call = term_from_value(body)
    for j in range(count - 1, -1, -1):
        own, args = layers[j]
        extras = [v for v in vars_in_order(call) if v not in own]
        opener_lhs = App(fnc_names[j], tuple(Var(p) for p in own + extras))
        openers.append((opener_lhs, call))
        call = App(fnc_names[j], tuple(map(term_from_value, args)) + tuple(Var(v) for v in extras))

    rules = []
    for i, (olhs, orhs) in enumerate(openers):
        rn = f"{name}_lambda-opener" if i == 0 else f"{name}_lambda-opener_{i + 1}"
        rules.append(Rule(rn, (), olhs, orhs, "equal", group=f"{name}_lambda-opener"))
    rules.append(Rule(name, hyps, lhs, call, equiv))
    return tuple(rules), tuple(fnc_names)


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
    """Index declarations into a RuleSet.

    Within a head bucket, later declarations are tried first; conjuncts of
    one declaration keep their source order relative to each other.
    """
    ordered = list(base_rules())
    lemmas = {}
    names = {}
    exec_disabled = set()
    for d in decls:
        if isinstance(d, Rule):
            if d.name in names:
                raise RuleFileError(f"duplicate rule name {d.name}")
            names[d.name] = len(ordered)
            ordered.append(d)
        elif isinstance(d, LemmaDecl):
            if d.lemma is not None:
                lemmas[d.name] = d.lemma
        elif isinstance(d, AttachDecl):
            if d.rule_name not in names:
                raise RuleFileError(f"rp-attach-sc: unknown rule {d.rule_name}")
            if d.lemma_name not in lemmas:
                raise RuleFileError(f"rp-attach-sc: unknown lemma {d.lemma_name}")
            i = names[d.rule_name]
            ordered[i] = attach_sc(ordered[i], lemmas[d.lemma_name])
        elif isinstance(d, EnableRuleDecl):
            if d.rule_name not in names:
                raise RuleFileError(f"enable-rule: unknown rule {d.rule_name}")
            i = names[d.rule_name]
            ordered[i] = replace(ordered[i], enabled=d.enabled)
        elif isinstance(d, DisableExecDecl):
            exec_disabled.add(d.fn)
        else:
            raise RuleFileError(f"unknown declaration object {d!r}")

    # group consecutive conjunct-splits of one declaration so reversal keeps
    # their internal order
    groups = []
    for rule in ordered:
        if groups and rule.group == groups[-1][0].group:
            groups[-1].append(rule)
        else:
            groups.append([rule])

    rules = {r.name: r for r in ordered}
    buckets = {}
    for group in reversed(groups):
        for rule in group:
            if isinstance(rule.lhs, App):
                buckets.setdefault(rule.lhs.head, []).append(rule)
    return RuleSet(
        rules=rules,
        buckets={h: tuple(b) for h, b in buckets.items()},
        lemmas=lemmas,
        exec_disabled=frozenset(exec_disabled),
    )
