"""Conditional term rewriting with retained side conditions.

Rules carry proved properties forward as `(rp 'prop x)` wrappers so later
hypotheses are relieved by lookup instead of backchaining; a parallel
dont-rw structure stops re-rewriting of rule outputs; quoted-key alists are
shadowed by constant-time lookup tables.
"""

from .evaluator import (
    EvalDomainError,
    EvalError,
    ExecRegistry,
    UnboundVariableError,
    UnknownFunctionError,
    default_registry,
    eval_term,
    eval_terms,
)
from .falist import fa_acons, fa_free, fa_get
from .meta import MetaRegistry, MetaRule
from .reader import ParseError, parse_term, read_value, read_values, term_from_value, term_to_value
from .rewriter import Context, RewriteConfig, Rewriter, RewriteStats, unify
from .rules import (
    Rule,
    RuleFileError,
    RuleSet,
    Syntaxp,
    attach_sc,
    build_ruleset,
    parse_rule_file,
    validate_rule,
)
from .terms import (
    App,
    Cons,
    FalistShadow,
    NIL_TERM,
    OPEN,
    STOP,
    Quote,
    T_TERM,
    Var,
    falist_shadow,
    format_term,
    format_value,
    rp_termp,
    strip_rp,
    strip_rp_deep,
    substitute,
)
from .validate import (
    ValidityReport,
    check_preservation,
    check_run,
    sample_rule_soundness,
)

__version__ = "0.1.0"

__all__ = [
    "App",
    "Cons",
    "Context",
    "EvalDomainError",
    "EvalError",
    "ExecRegistry",
    "FalistShadow",
    "MetaRegistry",
    "MetaRule",
    "NIL_TERM",
    "OPEN",
    "ParseError",
    "Quote",
    "RewriteConfig",
    "RewriteStats",
    "Rewriter",
    "Rule",
    "RuleFileError",
    "RuleSet",
    "STOP",
    "Syntaxp",
    "T_TERM",
    "UnboundVariableError",
    "UnknownFunctionError",
    "ValidityReport",
    "Var",
    "attach_sc",
    "build_ruleset",
    "check_preservation",
    "check_run",
    "default_registry",
    "eval_term",
    "eval_terms",
    "fa_acons",
    "fa_free",
    "fa_get",
    "falist_shadow",
    "format_term",
    "format_value",
    "parse_rule_file",
    "parse_term",
    "read_value",
    "read_values",
    "rp_termp",
    "sample_rule_soundness",
    "strip_rp",
    "strip_rp_deep",
    "substitute",
    "term_from_value",
    "term_to_value",
    "unify",
    "validate_rule",
]
