"""The engine makes no reference cycles: each entry point below leaves
nothing for the cyclic garbage collector to free.

The CLI is not covered: argparse leaves cyclic garbage of its own (help
formatters, sections and actions) on every parse.
"""

import gc

import pytest

from termrw.demo import (
    ARITH_RULES,
    TREE_RULES,
    TREE_RULES_BACKCHAIN,
    chain_term,
    lookup_keys,
    lookups_term,
    three_round_to_evens,
    tree_conjecture,
)
from termrw.evaluator import default_registry
from termrw.meta import MetaRegistry, demo_metas
from termrw.reader import parse_term
from termrw.rewriter import RewriteConfig, Rewriter
from termrw.rules import build_ruleset, parse_rule_file
from termrw.validate import check_run, sample_rule_soundness

LET_CHAIN = """
(defthm-lambda foo-redef
  (implies (p x)
           (equal (foo x)
                  (let* ((a (f1 x)) (b (f2 x))) (f4 a a b)))))
"""


@pytest.fixture
def no_cycles():
    """Turns the collector off, after a collection, and gives a check that a
    collection now finds nothing unreachable."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()

    def check(what):
        assert gc.collect() == 0, f"{what} left cyclic garbage"

    try:
        yield check
    finally:
        if was_enabled:
            gc.enable()


def test_reading_and_building_rule_sets_leave_no_cycles(no_cycles):
    for text in (TREE_RULES, TREE_RULES_BACKCHAIN, ARITH_RULES, LET_CHAIN):
        decls = parse_rule_file(text)
        no_cycles("parse_rule_file")
        build_ruleset(decls)  # TREE_RULES and ARITH_RULES attach side conditions
        no_cycles("build_ruleset")


@pytest.mark.parametrize(
    "text, sc, metas, conjecture",
    [
        (TREE_RULES, True, False, tree_conjecture(5)),
        (TREE_RULES_BACKCHAIN, False, False, tree_conjecture(5)),
        (ARITH_RULES, True, True, three_round_to_evens()),
        (LET_CHAIN, True, False, parse_term("(implies (p y) (equal (foo y) (f4 (f1 y) (f1 y) (f2 y))))")),
    ],
    ids=["tree-sc", "tree-backchain", "arith-metas", "defthm-lambda"],
)
def test_proofs_and_a_tried_rule_set_leave_no_cycles(no_cycles, text, sc, metas, conjecture):
    rs = build_ruleset(parse_rule_file(text))
    for proof in ("a first proof", "a second proof"):  # the first compiles the rules it tries
        registry = MetaRegistry(demo_metas()) if metas else None
        rw = Rewriter(rs, metas=registry, cfg=RewriteConfig(side_conditions_enabled=sc))
        assert rw.proved(conjecture)[0]
        del rw
        no_cycles(proof)
    del rs  # with the matchers and builders its rules compiled
    no_cycles("a tried rule set")


def test_a_falist_build_and_its_lookups_leave_no_cycles(no_cycles):
    for enabled in (True, False):
        rw = Rewriter(build_ruleset([]), cfg=RewriteConfig(fast_alist_enabled=enabled))
        fal = rw.rewrite(chain_term(50), iff=False)
        no_cycles("a falist build")
        rw.rewrite(lookups_term(fal, lookup_keys(50)), iff=False)
        del rw, fal
        no_cycles("falist lookups")


def test_sampling_oracles_leave_no_cycles(no_cycles):
    reg = default_registry()
    rs = build_ruleset(parse_rule_file(ARITH_RULES))
    conjecture = three_round_to_evens()
    out = Rewriter(rs).rewrite(conjecture, iff=True)
    del rs
    no_cycles("a proof")
    assert check_run(conjecture, out, [], 50, reg).ok
    no_cycles("check_run")
    for rule in build_ruleset(parse_rule_file(ARITH_RULES + LET_CHAIN)).rules.values():
        sample_rule_soundness(rule, reg, 20)
    no_cycles("sample_rule_soundness")
