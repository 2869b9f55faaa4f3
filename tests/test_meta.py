"""Meta rules: registration discipline and the shipped folding metas."""

import pytest

from termrw.meta import MetaRegistrationError, MetaRegistry, MetaRule, demo_metas, fold_plus, fold_plus_hide
from termrw.reader import parse_term
from termrw.rewriter import RewriteConfig, RewriteStats, Rewriter
from termrw.rules import build_ruleset
from termrw.terms import OPEN, STOP, App, Quote, Var, format_term

P = parse_term


def test_register_and_candidates():
    reg = MetaRegistry()
    m1 = MetaRule("m1", "f", lambda t: None)
    m2 = MetaRule("m2", "f", lambda t: None)
    reg.register(m1)
    reg.register(m2)
    assert [m.name for m in reg.by_trigger["f"]] == ["m2", "m1"]


def test_register_rejects_reserved_and_duplicates():
    reg = MetaRegistry()
    with pytest.raises(MetaRegistrationError):
        reg.register(MetaRule("m", "rp", lambda t: None))
    with pytest.raises(MetaRegistrationError):
        reg.register(MetaRule("m", "quote", lambda t: None))
    # the loop sends every 3-argument if to its if step, never to a meta
    with pytest.raises(MetaRegistrationError):
        reg.register(MetaRule("m", "if", lambda t: None))
    reg.register(MetaRule("m", "f", lambda t: None))
    with pytest.raises(MetaRegistrationError):
        reg.register(MetaRule("m", "g", lambda t: None))


def test_apply_first_changing_meta_wins():
    stats = RewriteStats()
    reg = MetaRegistry()
    reg.register(MetaRule("older", "f", lambda t: Quote("older")))
    reg.register(MetaRule("noop", "f", lambda t: None))
    out = reg.apply(P("(f a)"), stats)
    assert out is not None and out[0] == Quote("older")
    assert stats.meta_applications == 1


def test_apply_always_gives_a_guard():
    # a meta's bare term is rewritten whole; a pair keeps its own guard
    reg = MetaRegistry([MetaRule("bare", "f", lambda t: Quote("bare")), MetaRule("pair", "g", lambda t: (Var("y"), STOP))])
    stats = RewriteStats()
    out, guard = reg.apply(P("(f a)"), stats)
    assert out == Quote("bare") and guard is OPEN
    out, guard = reg.apply(P("(g a)"), stats)
    assert out == Var("y") and guard is STOP


def test_apply_unchanged_output_skipped():
    stats = RewriteStats()
    reg = MetaRegistry()
    reg.register(MetaRule("id", "f", lambda t: t))
    assert reg.apply(P("(f a)"), stats) is None
    assert stats.meta_applications == 0
    # a variable or a constant, wrapped or not, reaches no meta
    reg.register(MetaRule("any", "f", lambda t: pytest.fail(f"meta called on {t!r}")))
    for t in (Var("f"), Quote("f"), P("(rp 'integerp f)")):
        assert reg.apply(t, stats) is None


def test_untrusted_output_checked():
    stats = RewriteStats()
    reg = MetaRegistry()
    bad = App("rp", (Quote("nil"), Var("x")))
    reg.register(MetaRule("bad", "f", lambda t: bad))
    assert reg.apply(P("(f a)"), stats) is None
    assert stats.meta_rejections == 1


def test_fold_plus_golden():
    out = fold_plus(P("(binary-+ '1 (binary-+ x (binary-+ '2 y)))"))
    folded, dw = out
    assert format_term(folded) == "(binary-+ '3 (binary-+ x y))"
    assert dw is STOP


def test_fold_plus_needs_two_constants():
    assert fold_plus(P("(binary-+ '1 x)")) is None
    assert fold_plus(P("(binary-+ x y)")) is None


def test_fold_plus_collapses_to_constant():
    folded, _dw = fold_plus(P("(binary-+ '1 '2)"))
    assert folded == Quote(3)


def test_fold_plus_hide_variant():
    out = fold_plus_hide(P("(binary-+ '1 (binary-+ '2 y))"))
    got = out[0] if isinstance(out, tuple) else out
    assert format_term(got) == "(hide (binary-+ '3 y))"


def test_demo_metas_register_cleanly():
    rw = Rewriter(build_ruleset([]))
    for m in demo_metas():
        rw.metas.register(m)
    registered = [m.name for metas in rw.metas.by_trigger.values() for m in metas]
    assert sorted(registered) == sorted(m.name for m in demo_metas())


def test_meta_folds_inside_out():
    # arguments normalize first, so the inner spine folds, then the outer;
    # the STOP returned with each result keeps the loop from re-descending
    rw = Rewriter(build_ruleset([]))
    for m in demo_metas():
        if m.name == "fold-plus":
            rw.metas.register(m)
    out = rw.rewrite(P("(binary-+ '1 (binary-+ '2 (binary-+ '3 x)))"), iff=False)
    assert format_term(out) == "(binary-+ '6 x)"
    assert rw.stats.meta_applications == 2


@pytest.mark.parametrize("fast", [True, False])
def test_fast_alist_step_runs_before_a_meta_on_its_head(fast):
    # a meta on hons-get registers, but the fast-alist step (5b) answers
    # the calls it can before the meta step (6); the calls it declines,
    # here one with a key that is not quoted, reach the meta
    calls = []

    def f(t):
        calls.append(t)
        return Quote("meta")

    rw = Rewriter(
        build_ruleset([]),
        metas=MetaRegistry([MetaRule("m", "hons-get", f)]),
        cfg=RewriteConfig(fast_alist_enabled=fast),
    )
    out = rw.rewrite(P("(hons-get 'a (hons-acons 'a b 'nil))"), iff=False)
    assert format_term(out) == "(cons 'a b)"
    assert calls == []
    assert rw.rewrite(P("(hons-get k (hons-acons 'a b 'nil))"), iff=False) == Quote("meta")
    assert len(calls) == 1 and calls[0].head == "hons-get" and calls[0].args[0] == Var("k")
