"""Fast-alist shadow structure: construction, lookup, coherence."""

import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termrw.evaluator import default_registry, eval_term
from termrw.falist import fa_acons, fa_free, fa_get
from termrw.reader import parse_term
from termrw.rewriter import RewriteConfig, Rewriter, RewriteStats
from termrw.rules import build_ruleset
from termrw.terms import (
    NIL_TERM,
    App,
    FalistShadow,
    Quote,
    Var,
    check_falist_term,
    falist_shadow,
    format_term,
    logical_entries,
)


CHAIN = "(hons-acons 'k1 v1 (hons-acons 'k2 v2 (hons-acons 'k3 v3 'nil)))"


def test_logical_entries_from_chain():
    entries = logical_entries(parse_term(CHAIN))
    assert entries == [("k1", Var("v1")), ("k2", Var("v2")), ("k3", Var("v3"))]


def test_logical_entries_from_cons_chain():
    t = parse_term("(cons (cons 'a x) (cons (cons 'b y) 'nil))")
    assert logical_entries(t) == [("a", Var("x")), ("b", Var("y"))]


def test_logical_entries_quoted_tail():
    t = parse_term("(hons-acons 'a x '((b . 2)))")
    assert logical_entries(t) == [("a", Var("x")), ("b", Quote(2))]


def test_logical_entries_reads_a_falist_as_its_logical_part():
    fal = parse_term("(falist 'nil (cons (cons 'a x) '((b . 2))))")
    t = App("hons-acons", (Quote("c"), Var("z"), fal))
    assert logical_entries(t) == [("c", Var("z")), ("a", Var("x")), ("b", Quote(2))]


def test_logical_entries_undecodable():
    assert logical_entries(parse_term("(f x)")) is None
    assert logical_entries(parse_term("(cons x y)")) is None


def test_fa_acons_builds_falist():
    out = fa_acons(Quote("k"), Var("v"), NIL_TERM)
    assert out.head == "falist"
    shadow = out.args[0].value
    assert isinstance(shadow, FalistShadow)
    assert shadow.entries == (("k", Var("v")),)
    assert format_term(out.args[1]) == "(cons (cons 'k v) 'nil)"


def test_fa_acons_extends_persistently():
    base = fa_acons(Quote("k1"), Var("v1"), NIL_TERM)
    ext = fa_acons(Quote("k2"), Var("v2"), base)
    assert ext.args[0].value.entries == (("k2", Var("v2")), ("k1", Var("v1")))
    # the original shadow is untouched
    assert base.args[0].value.entries == (("k1", Var("v1")),)


def test_fa_acons_first_wins_on_duplicate():
    base = fa_acons(Quote("k"), Var("old"), NIL_TERM)
    ext = fa_acons(Quote("k"), Var("new"), base)
    assert ext.args[0].value.get("k") == Var("new")
    entries = ext.args[0].value.entries
    assert [k.value if isinstance(k, Quote) else k for k, _v in entries] == [
        Quote("k").value,
        Quote("k").value,
    ]


def test_fa_acons_rejects_unshadowable():
    # non-quoted key cannot be indexed
    assert fa_acons(Var("k"), Var("v"), NIL_TERM) is None
    assert fa_acons(Quote("k"), Var("v"), Var("tail")) is None


def test_fa_get_single_probe():
    stats = RewriteStats()
    fal = fa_acons(Quote("k2"), Var("v2"), fa_acons(Quote("k1"), Var("v1"), NIL_TERM))
    hit = fa_get(Quote("k1"), fal, stats)
    assert format_term(hit) == "(cons 'k1 v1)"
    miss = fa_get(Quote("zz"), fal, stats)
    assert miss == NIL_TERM
    assert stats.fa_probes == 2


def test_fa_get_non_quoted_key_defers():
    fal = fa_acons(Quote("k1"), Var("v1"), NIL_TERM)
    assert fa_get(Var("k"), fal, RewriteStats()) is None


def test_fa_free_returns_logical_payload():
    fal = fa_acons(Quote("k1"), Var("v1"), NIL_TERM)
    assert format_term(fa_free(fal)) == "(cons (cons 'k1 v1) 'nil)"
    # a term that is not a falist is left to the loop's later steps
    assert fa_free(fal.args[1]) is None
    assert fa_free(Var("fal")) is None


def test_falist_shadow_and_coherence():
    fal = parse_term("(falist '((a . x) (b . y)) (cons (cons 'a x) (cons (cons 'b y) 'nil)))")
    assert falist_shadow(fal).get("a") == Var("x")
    assert check_falist_term(fal) == []


def test_coherence_violations():
    # the reader rebuilds a literal's shadow from its chain, so an
    # incoherent falist can only be built directly
    shadow = Quote(FalistShadow((("a", Var("x")),)))
    bad = App("falist", (shadow, parse_term("(cons (cons 'a z) 'nil)")))
    assert check_falist_term(bad) == [((), "falist shadow entry 0 disagrees with the logical part")]
    # payload not decodable
    bad2 = App("falist", (shadow, Var("tail")))
    assert check_falist_term(bad2) == [((), "falist logical part is not a quoted-key alist chain")]
    chain = parse_term("(cons (cons 'a x) (cons (cons 'b y) 'nil))")
    assert check_falist_term(chain) == [((), "not a falist term")]
    assert check_falist_term(App("falist", (shadow, chain, chain))) == [((), "falist must have exactly 2 arguments")]
    assert check_falist_term(App("falist", (Quote("nil"), chain))) == [
        ((), "falist shadow must be a quoted association-list constant")
    ]
    assert check_falist_term(App("falist", (shadow, chain))) == [((), "falist shadow and logical part differ in length")]


def off_rewriter():
    return Rewriter(build_ruleset([]), cfg=RewriteConfig(fast_alist_enabled=False))


def test_linear_get_charges_by_position():
    rw = off_rewriter()
    chain = parse_term(CHAIN)
    got = rw.rewrite(App("hons-get", (Quote("k3"), chain)), iff=False)
    assert format_term(got) == "(cons 'k3 v3)"
    assert rw.stats.fa_node_visits == 3
    # the answer is not rewritten again, as a shadow probe's is not
    assert rw.stats.nodes_created == 1
    assert rw.stats.meta_applications == 0

    rw2 = off_rewriter()
    got2 = rw2.rewrite(App("hons-get", (Quote("k1"), chain)), iff=False)
    assert format_term(got2) == "(cons 'k1 v1)"
    assert rw2.stats.fa_node_visits == 1


def test_linear_get_miss_and_undecodable():
    rw = off_rewriter()
    got = rw.rewrite(App("hons-get", (Quote("zz"), parse_term(CHAIN))), iff=False)
    assert got == NIL_TERM
    # a miss walks all 3 entries plus the nil terminator
    assert rw.stats.fa_node_visits == 4
    # opaque chain or unquoted key: no answer, no charge
    before = rw.stats.fa_node_visits
    for t in (App("hons-get", (Quote("a"), Var("unknown"))), App("hons-get", (Var("k"), parse_term(CHAIN)))):
        assert rw.rewrite(t, iff=False) == t
    assert rw.stats.fa_node_visits == before
    assert rw.stats.fa_probes == 0


def test_linear_get_scans_a_falist_literal():
    # with fast alists off, a falist literal is read as its chain
    rw = off_rewriter()
    fal = parse_term("(falist 'nil (cons (cons 'k1 v1) (cons (cons 'k2 v2) 'nil)))")
    got = rw.rewrite(App("hons-get", (Quote("k2"), fal)), iff=False)
    assert format_term(got) == "(cons 'k2 v2)"
    assert (rw.stats.fa_node_visits, rw.stats.fa_probes) == (2, 0)


def test_linear_get_charges_the_live_stats():
    rw = off_rewriter()
    rw.rewrite(App("hons-get", (Quote("k2"), parse_term(CHAIN))), iff=False)
    old = rw.stats
    rw.stats = RewriteStats()
    got = rw.rewrite(App("hons-get", (Quote("k3"), parse_term(CHAIN))), iff=False)
    assert format_term(got) == "(cons 'k3 v3)"
    assert rw.stats.fa_node_visits == 3
    assert old.fa_node_visits == 2


def test_shadow_agrees_with_ground_evaluation():
    # the shadow lookup and the logical-payload evaluation give the same pairs
    reg = default_registry()
    fal = fa_acons(Quote("k2"), Quote(2), fa_acons(Quote("k1"), Quote(1), NIL_TERM))
    hit = fa_get(Quote("k2"), fal, RewriteStats())
    assert eval_term(hit, {}, reg) == eval_term(
        parse_term("(hons-get 'k2 (hons-acons 'k1 '1 (hons-acons 'k2 '2 'nil)))"), {}, reg
    )


# ---------------------------------------------------------------------------
# persistence: every version, old or new, agrees with its logical chain

KEYS = ("a", "b", "c", "d", 1, 2)
TAILS = (
    NIL_TERM,
    parse_term("(falist '((a . x) (b . '1) (a . y)) (cons (cons 'a x) (cons (cons 'b '1) (cons (cons 'a y) 'nil))))"),
    parse_term("'((b . 3) (c . 4) (b . 5))"),
    parse_term("(cons (cons 'c x) (hons-acons 'd '2 '((c . 1))))"),
)


def assert_shadow_matches_chain(fal):
    assert check_falist_term(fal) == []
    shadow = falist_shadow(fal)
    logical = logical_entries(fal.args[1])
    assert shadow.entries == tuple(logical)
    rebuilt = FalistShadow(shadow.entries)
    assert shadow == rebuilt and hash(shadow) == hash(rebuilt)
    newest = {}
    for k, v in logical:
        newest.setdefault(k, v)
    assert {k: shadow.get(k) for k in newest} == newest
    for key in KEYS + ("unbound",):
        linear = next((App("cons", (Quote(key), v)) for k, v in logical if k == key), NIL_TERM)
        assert fa_get(Quote(key), fal) == linear


_steps = st.lists(
    st.tuples(
        st.sampled_from(("newest", "older", "tail")),
        st.integers(0, 1000),
        st.sampled_from(KEYS),
        st.integers(0, 3),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(_steps)
def test_every_version_agrees_with_its_logical_chain(steps):
    versions = [TAILS[1]]
    for kind, pick, key, val in steps:
        if kind == "newest":
            tail = versions[-1]
        elif kind == "older":
            tail = versions[pick % len(versions)]
        else:
            tail = TAILS[pick % len(TAILS)]
        versions.append(fa_acons(Quote(key), Var(f"v{val}") if val else Quote(val), tail))
    for fal in versions:
        assert_shadow_matches_chain(fal)


def test_extending_the_newest_version_shares_its_log_and_a_fork_copies():
    v1 = fa_acons(Quote("a"), Var("x"), NIL_TERM)
    v2 = fa_acons(Quote("b"), Var("y"), v1)
    s1, s2 = falist_shadow(v1), falist_shadow(v2)
    assert s2.log is s1.log
    fork = falist_shadow(fa_acons(Quote("b"), Var("z"), v1))
    assert fork.log is not s1.log
    assert (s1.get("b"), s2.get("b"), fork.get("b")) == (None, Var("y"), Var("z"))
    assert s2.entries == (("b", Var("y")), ("a", Var("x")))
    # the fork left v2 the newest version of the original line
    assert falist_shadow(fa_acons(Quote("c"), Var("w"), v2)).log is s1.log
    # a pickled copy is an equal term whose shadow has a log of its own
    copy = pickle.loads(pickle.dumps(v2))
    assert copy == v2 and hash(copy) == hash(v2)
    assert falist_shadow(copy).log is not s1.log
    assert falist_shadow(copy).entries == s2.entries
    assert falist_shadow(fa_acons(Quote("c"), Var("w"), copy)).log is falist_shadow(copy).log


def test_versions_on_forked_logs_are_equal_and_hash_alike():
    base = FalistShadow().extend("a", Var("x"))
    newest = base.extend("b", Var("y"))
    fork = base.extend("b", Var("y"))
    assert fork.log is not newest.log
    assert fork == newest and hash(fork) == hash(newest)
    assert fork.extend("c", Quote(1)) == newest.extend("c", Quote(1))
    other = base.extend("b", Var("z"))
    assert other != newest and other != base
    # a falist term hashes its chain, so terms over differing shadows of
    # one size still hash apart
    assert hash(fa_acons(Quote("b"), Var("z"), NIL_TERM)) != hash(fa_acons(Quote("b"), Var("y"), NIL_TERM))


def test_concurrent_extensions_of_one_version_stay_apart():
    # every round, four threads extend the same newest version at once;
    # exactly one may append to its log, the others must fork
    bases = [falist_shadow(fa_acons(Quote("a"), Quote(r), NIL_TERM)) for r in range(300)]
    results = [[] for _ in range(4)]
    barrier = threading.Barrier(4, timeout=60)

    def extend_bases(n):
        for base in bases:
            barrier.wait()
            results[n].append(base.extend(f"t{n}", Var("x")))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=extend_bases, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for n, done in enumerate(results):
        assert len(done) == len(bases)
        for r, shadow in enumerate(done):
            assert shadow.entries == ((f"t{n}", Var("x")), ("a", Quote(r)))


def test_get_answers_while_its_line_is_extended():
    # a writer binds fresh keys on the newest version while readers ask an
    # old and a recent version for the key being bound and the one before it
    base = FalistShadow().extend("a", Var("x"))
    latest = [base]
    done = threading.Event()
    failures = []

    def write():
        v = base
        for n in range(5000):
            v = v.extend(f"k{n}", Quote(n))
            latest[0] = v
        done.set()

    def read():
        try:
            while not done.is_set():
                v = latest[0]
                n = v.size - 1
                assert base.get(f"k{n}") is None
                assert v.get(f"k{n}") is None
                assert v.get(f"k{n - 1}") == (Quote(n - 1) if n else None)
                assert v.get("a") == Var("x")
        except Exception as exc:  # reported below, on the test's thread
            failures.append(exc)
            done.set()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write)] + [threading.Thread(target=read) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
