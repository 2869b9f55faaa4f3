"""Rule ingestion: parsing, splitting, attachment, lambda compilation."""

import pytest

from termrw.rules import (
    AttachError,
    LambdaSplitError,
    Rule,
    RuleFileError,
    Syntaxp,
    attach_sc,
    base_rules,
    build_ruleset,
    defthm_lambda,
    parse_rule_file,
    validate_rule,
)
from termrw.terms import App, ParseError, Quote, Var, format_term, parse_term, read_value


def ruleset(text):
    return build_ruleset(parse_rule_file(text))


def rules_of(text):
    rs = ruleset(text)
    return [r for r in rs.rules.values() if not r.internal]


# ---------------------------------------------------------------------------
# formula splitting


def test_simple_equal_rule():
    (r,) = rules_of("(def-rp-rule r (equal (f x) (g x)))")
    assert r.lhs == parse_term("(f x)")
    assert r.rhs == parse_term("(g x)")
    assert r.equiv == "equal"
    assert r.hyps == ()


def test_implies_peels_hyps():
    (r,) = rules_of("(def-rp-rule r (implies (and (p x) (q x)) (equal (f x) (g x))))")
    assert list(r.hyps) == [parse_term("(p x)"), parse_term("(q x)")]


def test_nested_implies_collects_all_hyps():
    (r,) = rules_of("(def-rp-rule r (implies (p x) (implies (q x) (equal (f x) (g x)))))")
    assert list(r.hyps) == [parse_term("(p x)"), parse_term("(q x)")]


def test_bare_conclusion_is_iff_t():
    (r,) = rules_of("(def-rp-rule r (p (f x)))")
    assert r.lhs == parse_term("(p (f x))")
    assert r.rhs == Quote("t")
    assert r.equiv == "iff"


def test_iff_conclusion():
    (r,) = rules_of("(def-rp-rule r (iff (f x) (g x)))")
    assert r.equiv == "iff"


def test_and_conclusion_splits_with_shared_hyps():
    rs = rules_of(
        "(def-rp-rule r (implies (p x) (and (equal (f x) '1) (equal (g x) '2))))"
    )
    assert [r.name for r in rs] == ["r", "r_2"]
    assert all(list(r.hyps) == [parse_term("(p x)")] for r in rs)
    assert rs[0].lhs == parse_term("(f x)")
    assert rs[1].lhs == parse_term("(g x)")
    assert all(r.group == "r" for r in rs)


def test_syntaxp_hyp_is_an_expanded_term():
    (r,) = rules_of(
        "(def-rp-rule r (implies (syntaxp (and (atom x) (not (quotep x)))) (equal (f x) x)))"
    )
    (h,) = r.hyps
    assert isinstance(h, Syntaxp)
    # the predicate is read like any term: and/or/implies become if
    assert h.pred == parse_term("(if (atom x) (not (quotep x)) 'nil)")
    (r,) = rules_of("(def-rp-rule r (implies (synp (implies (atom x) (quotep x))) (equal (f x) x)))")
    assert r.hyps[0].pred == parse_term("(if (atom x) (if (quotep x) 't 'nil) 't)")
    assert validate_rule(r) == []


def test_hyps_expand_boolean_ops():
    (r,) = rules_of("(def-rp-rule r (implies (or (p x) (q x)) (equal (f x) x)))")
    (h,) = r.hyps
    assert h == parse_term("(if (p x) (p x) (q x))")


# ---------------------------------------------------------------------------
# file-level declarations


def test_defthmd_parks_lemma_until_added():
    rs = ruleset("(defthmd lem (equal (f x) (g x)))")
    assert all(r.internal for r in rs.rules.values())
    rs2 = ruleset("(defthmd lem (equal (f x) (g x))) (add-rp-rule lem)")
    assert "lem" in rs2.rules


def test_defthm_is_an_alias():
    rs = ruleset("(defthm r (equal (f x) (g x)))")
    assert "r" in rs.rules


def test_add_rp_rule_with_formula():
    rs = ruleset("(add-rp-rule r (equal (f x) (g x)))")
    assert "r" in rs.rules


def test_add_rp_rule_unknown_name():
    with pytest.raises(RuleFileError):
        parse_rule_file("(add-rp-rule ghost)")


def test_duplicate_rule_name_rejected():
    with pytest.raises(RuleFileError):
        ruleset("(def-rp-rule r (equal (f x) x)) (def-rp-rule r (equal (g x) x))")


def test_unknown_declaration_rejected():
    with pytest.raises(RuleFileError) as e:
        parse_rule_file("(defrule r (equal (f x) x))")
    assert "rewrite rules" in str(e.value)


@pytest.mark.parametrize(
    "text,message",
    [
        ("(defthm a (equal x x))\n(defthm b (equal (+ x) x))", "defthm b: + expects at least 2 arguments"),
        ("(def-rp-rule c (equal (f (lambda (x) x)) y))", "def-rp-rule c: lambda must be applied"),
        ("(defthmd d (integerp (+ x)))", "defthmd d: + expects at least 2 arguments"),
        ("(add-rp-rule e (equal (nil 1) x))", "add-rp-rule e: application head must be a symbol"),
        ("(defthm-lambda g (equal (f x) (let ((y)) y)))", "defthm-lambda g: bad let binding"),
        ("(defthm-lambda r (equal (m x) (let ((nil (g x))) (h nil x))))", "defthm-lambda r: let names must be"),
        ("(defthm s (equal (f x) (let* ((t x)) (g t))))", "defthm s: let* names must be plain symbols"),
        ("(def-rp-rule r (equal (f x) (implies x)))", "def-rp-rule r: implies expects 2 arguments"),
        ("(defthm r (implies (p x) (implies (q x) (implies))))", "defthm r: implies expects 2 arguments"),
        ("(defthmd r (implies (syntaxp (implies x)) (p x)))", "defthmd r: implies expects 2 arguments"),
    ],
)
def test_term_shape_errors_name_their_declaration(text, message):
    with pytest.raises(ParseError) as e:
        parse_rule_file(text)
    assert str(e.value).startswith(message)


def test_disable_exec():
    rs = ruleset("(disable-exec binary-+)")
    assert "binary-+" in rs.exec_disabled


def test_enable_rule_toggles():
    rs = ruleset("(def-rp-rule r (equal (f x) x)) (enable-rule r nil)")
    assert not rs.rules["r"].enabled
    rs2 = ruleset("(def-rp-rule r (equal (f x) x)) (enable-rule r nil) (enable-rule r t)")
    assert rs2.rules["r"].enabled


# ---------------------------------------------------------------------------
# candidate ordering


def test_later_declarations_first_conjuncts_in_order():
    rs = ruleset(
        """
        (def-rp-rule early (equal (f x) '1))
        (def-rp-rule pair (and (equal (f (g x)) '2) (equal (f (h x)) '3)))
        (def-rp-rule late (equal (f (k x)) '4))
        """
    )
    assert [r.name for r in rs.buckets["f"]] == ["late", "pair", "pair_2", "early"]


def test_base_rules_are_last_candidates():
    rs = ruleset("(def-rp-rule mine (equal (equal (f x) (f x)) 't))")
    names = [r.name for r in rs.buckets["equal"]]
    assert names == ["mine", "equal-self"]
    assert [r.name for r in base_rules()] == ["hide-elim", "equal-self"]
    assert all(r.internal for r in base_rules())


# ---------------------------------------------------------------------------
# validation


def test_validate_good_rule():
    (r,) = rules_of("(def-rp-rule r (implies (p x) (equal (f x) (g x))))")
    assert validate_rule(r) == []


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("(def-rp-rule r (equal x (f x)))", "function application"),
        ("(def-rp-rule r (equal (if a b c) 'nil))", "reserved"),
        ("(def-rp-rule r (equal (f (if a b c)) 'nil))", "if"),
        ("(def-rp-rule r (equal (f (rp 'integerp x)) x))", "rp or falist"),
        ("(def-rp-rule r (equal (f x) (g x y)))", "free variables"),
        ("(def-rp-rule r (implies (p y) (equal (f x) x)))", "free variables"),
        ("(def-rp-rule r (implies (syntaxp (weird x)) (equal (f x) x)))", "syntaxp"),
        ("(def-rp-rule r (implies (syntaxp (not)) (equal (f x) x)))", "syntaxp"),
    ],
)
def test_validate_violations(text, fragment):
    (r,) = rules_of(text)
    assert any(fragment in m for m in validate_rule(r)), validate_rule(r)


def test_validate_syntaxp_free_var():
    (r,) = rules_of("(def-rp-rule r (implies (syntaxp (atom z)) (equal (f x) x)))")
    assert any("free variables" in m for m in validate_rule(r))


# ---------------------------------------------------------------------------
# side-condition attachment


def test_attach_wraps_rhs():
    rs = ruleset(
        """
        (def-rp-rule r (implies (and (integerp x) (integerp y))
                                (equal (logand x y) (4vec-bitand x y))))
        (defthmd lem (implies (and (integerp x) (integerp y))
                              (integerp (4vec-bitand x y))))
        (rp-attach-sc r lem)
        """
    )
    r = rs.rules["r"]
    assert r.rhs == parse_term("(4vec-bitand x y)")
    assert r.sc_wrapped_rhs == parse_term("(rp 'integerp (4vec-bitand x y))")


def test_lemma_conclusion_is_read_through_let():
    rs = ruleset(
        """
        (def-rp-rule r (equal (f x) (g x)))
        (defthmd lem (iff (p x) (let ((a 't)) a)))
        (rp-attach-sc r lem)
        """
    )
    assert list(rs.lemmas) == ["lem"]
    assert rs.rules["r"].sc_wrapped_rhs == parse_term("(g (rp 'p x))")


def test_attach_requires_hyp_subset():
    decls = parse_rule_file(
        """
        (def-rp-rule r (equal (f x) (g x)))
        (defthmd lem (implies (p x) (integerp (g x))))
        (rp-attach-sc r lem)
        """
    )
    with pytest.raises(AttachError):
        build_ruleset(decls)


def test_attach_unknown_names():
    with pytest.raises(RuleFileError):
        ruleset("(def-rp-rule r (equal (f x) x)) (rp-attach-sc r ghost)")
    with pytest.raises(RuleFileError):
        ruleset("(defthmd lem (integerp (g x))) (rp-attach-sc ghost lem)")


def test_attach_stacks_wrappers():
    rs = ruleset(
        """
        (def-rp-rule r (equal (f x) (g x)))
        (defthmd lem1 (integerp (g x)))
        (defthmd lem2 (evenp (g x)))
        (rp-attach-sc r lem1)
        (rp-attach-sc r lem2)
        """
    )
    wrapped = rs.rules["r"].sc_wrapped_rhs
    assert wrapped == parse_term("(rp 'evenp (rp 'integerp (g x)))")


def test_attach_subterm_occurrences():
    rs = ruleset(
        """
        (def-rp-rule r (equal (f x) (h (g x) (g x))))
        (defthmd lem (integerp (g x)))
        (rp-attach-sc r lem)
        """
    )
    assert rs.rules["r"].sc_wrapped_rhs == parse_term("(h (rp 'integerp (g x)) (rp 'integerp (g x)))")


# ---------------------------------------------------------------------------
# lambda compilation (frozen shapes)


LAMBDA_FORMULA = """
(implies (p x)
         (equal (foo x)
                (let* ((a (f1 x))
                       (b (f2 x)))
                  (f4 a a b))))
"""


def test_defthm_lambda_golden():
    formula = read_value(LAMBDA_FORMULA)
    rules, fncs = defthm_lambda("foo-redef", formula)
    assert fncs == ("foo-redef_lambda-fnc_0", "foo-redef_lambda-fnc_1")
    assert format_term(rules[0].lhs) == "(foo-redef_lambda-fnc_1 b a)"
    assert format_term(rules[0].rhs) == "(f4 a a b)"
    assert format_term(rules[1].lhs) == "(foo-redef_lambda-fnc_0 a x)"
    assert format_term(rules[1].rhs) == "(foo-redef_lambda-fnc_1 (f2 x) a)"
    assert format_term(rules[2].lhs) == "(foo x)"
    assert format_term(rules[2].rhs) == "(foo-redef_lambda-fnc_0 (f1 x) x)"
    # openers share a group and carry no hyps; the main rule keeps them
    assert rules[0].group == rules[1].group == "foo-redef_lambda-opener"
    assert rules[0].hyps == () and rules[1].hyps == ()
    assert list(rules[2].hyps) == [parse_term("(p x)")]


def test_defthm_lambda_composition_recovers_beta():
    formula = read_value(LAMBDA_FORMULA)
    rules, _fncs = defthm_lambda("foo-redef", formula)
    from termrw.rewriter import Rewriter

    rs = build_ruleset([r for r in rules if "opener" in r.name])
    rw = Rewriter(rs)
    recovered = rw.rewrite(rules[2].rhs, iff=False)
    assert recovered == parse_term("(let* ((a (f1 x)) (b (f2 x))) (f4 a a b))")


def test_defthm_lambda_via_rule_file():
    decls = parse_rule_file(f"(defthm-lambda foo-redef {LAMBDA_FORMULA})")
    rs = build_ruleset(decls)
    assert "foo-redef" in rs.rules
    assert "foo-redef_lambda-opener" in rs.rules
    assert "foo-redef_lambda-opener_2" in rs.rules


def test_defthm_lambda_rejects_shadowing():
    formula = read_value("(equal (foo x) (let ((x '1)) (let ((x (g x))) x)))")
    with pytest.raises(LambdaSplitError):
        defthm_lambda("r", formula)


def test_defthm_lambda_rejects_lambda_in_arg_position():
    formula = read_value("(equal (foo x) (let ((a (let ((b x)) b))) a))")
    with pytest.raises(LambdaSplitError):
        defthm_lambda("r", formula)


def test_defthm_lambda_reduces_buried_lambda():
    # a lambda under an ordinary head is not a let chain; it is reduced away
    formula = read_value("(equal (foo x) (g (let ((a x)) a)))")
    rules, fncs = defthm_lambda("r", formula)
    assert fncs == ()
    assert rules[0].rhs == parse_term("(g x)")


def test_defthm_lambda_no_lambdas_passes_through():
    formula = read_value("(equal (foo x) (g x))")
    rules, fncs = defthm_lambda("r", formula)
    assert fncs == ()
    assert len(rules) == 1
    assert rules[0].rhs == parse_term("(g x)")
